import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multloc import poset as poset_module
from multloc.battery import poset_corpus

from multloc.poset import (
    AbstractElement,
    AvoidanceImpossible,
    DimensionMismatch,
    MultSubsetModel,
    PrimePoset,
    avoidance_element,
    build_mu_family,
    build_one_dimensional,
    build_pair_dim2,
    build_wave,
    mu,
    verify_distinguishing,
    DistinguishingFamily,
)
from multloc.randomgen import antichain_poset, chain_poset, diamond_poset, random_ranked_poset
from reference_routes import (BadChoice, SetPoset, SetSubset, build_mu_family_by_sets,
                              build_one_dimensional_by_sets, build_pair_dim2_by_sets,
                              build_wave_by_sets, comparable_pairs, family_to_sets, heights_of,
                              labels_of, mask_of, restrict, spectrum_of_R_Js, to_sets,
                              verify_distinguishing_by_sets, verify_distinguishing_renumbered)


class TestMu:
    def test_listed_values(self):
        assert [mu(d) for d in range(5)] == [0, 1, 2, 4, 6]

    def test_mu_5_and_6(self):
        assert mu(5) == 9      # 5 + 3 + 1
        assert mu(6) == 12     # 6 + 4 + 2, and round(49/4) = 12

    def test_closest_integer_formula(self):
        for d in range(101):
            assert mu(d) == sum(range(d, 0, -2))

    def test_huge_dimension(self):
        k = 5 * 10**17
        assert mu(2 * k) == k * (k + 1)          # 2k + (2k-2) + ... + 2
        assert mu(2 * k + 1) == (k + 1) ** 2     # (2k+1) + (2k-1) + ... + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mu(-1)


class TestPoset:
    def test_heights_from_covers(self):
        p = diamond_poset()
        assert heights_of(p) == {"q": 0, "p1": 1, "p2": 1, "m": 2}
        assert p.dimension() == 2
        assert "m" in to_sets(p).up["q"]
        assert "p2" not in to_sets(p).up["p1"]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            PrimePoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("primes, covers, first", [
        (["a", "b"], [("a", "b"), ("b", "a")], "a"),
        (["b", "a"], [("a", "b"), ("b", "a")], "b"),
        (["x", "a", "b"], [("x", "a"), ("a", "b"), ("b", "a")], "a"),
        (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], "a"),
        (["c", "b", "a"], [("a", "b"), ("b", "c"), ("c", "a")], "c"),
        (["z", "a", "b", "c"], [("z", "a"), ("a", "b"), ("b", "c"), ("c", "a")], "a"),
    ])
    def test_cycle_names_first_prime_on_it(self, primes, covers, first):
        with pytest.raises(ValueError) as err:
            PrimePoset.from_covers(primes, covers)
        assert str(err.value) == f"lt has a cycle through {first!r}"

    def test_first_bad_cover_named(self):
        with pytest.raises(ValueError, match=r"\('a', 'x'\) mentions unknown prime"):
            PrimePoset.from_covers(["a", "b"], [("a", "x"), ("b", "y"), ("a", "a")])

    def test_errors_independent_of_hash_seed(self):
        code = ("from multloc.poset import PrimePoset\n"
                "for covers in ([('a', 'b'), ('b', 'c'), ('c', 'a')],\n"
                "               [('a', 'x'), ('b', 'y'), ('a', 'a')]):\n"
                "    try:\n"
                "        PrimePoset.from_covers(['a', 'b', 'c'], covers)\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            outs.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout)
        assert outs == {"lt has a cycle through 'a'\n"
                        "lt pair ('a', 'x') mentions unknown prime\n"}

    def test_skip_edges_do_not_change_heights(self):
        p = PrimePoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert heights_of(p) == {"a": 0, "b": 1, "c": 2}

    def test_document_roundtrip(self):
        p = diamond_poset()
        doc = p.to_document()
        q = PrimePoset.from_document(doc)
        assert q == p
        assert q.height == p.height


class TestAvoidance:
    def test_chain_avoid_below(self):
        p = chain_poset(1)  # c0 < c1
        e = avoidance_element(p, "c1", mask_of(p.labels, {"c0"}))
        assert labels_of(p.labels, e.locus) == frozenset({"c1"})

    def test_minimal_upclosure(self):
        p = chain_poset(2)
        e = avoidance_element(p, "c0", 0)
        assert labels_of(p.labels, e.locus) == frozenset({"c0", "c1", "c2"})

    def test_impossible(self):
        p = chain_poset(1)
        with pytest.raises(AvoidanceImpossible,
                           match=r"^forbidden prime\(s\) \['c1'\] contain the target c0$"):
            avoidance_element(p, "c0", mask_of(p.labels, {"c1"}))

    def test_locus_upward_closed_and_disjoint(self):
        rng = random.Random(3)
        for _ in range(20):
            poset = random_ranked_poset(rng, rng.randint(1, 3))
            target = rng.choice(poset.primes)
            up = to_sets(poset).up
            forbidden = {q for q in poset.primes if q not in up[target]}
            locus = labels_of(poset.labels,
                              avoidance_element(poset, target, mask_of(poset.labels, forbidden)).locus)
            assert all(q in locus for p in locus for q in poset.primes
                       if p != q and q in up[p])
            assert not (locus & forbidden)


class TestOneDimensional:
    def test_two_level(self):
        p = chain_poset(1)
        s = build_one_dimensional(p)
        assert len(s.generators) == 1
        assert labels_of(p.labels, s.generators[0].locus) == frozenset({"c1"})
        fam = DistinguishingFamily((s,))
        assert verify_distinguishing(p, fam).passed()

    def test_two_minimal_two_above(self):
        poset = PrimePoset.from_covers(
            ["q1", "q2", "p1", "p2"],
            [("q1", "p1"), ("q2", "p1"), ("q1", "p2"), ("q2", "p2")])
        s = build_one_dimensional(poset)
        assert len(s.generators) == 2
        fam = DistinguishingFamily((s,))
        assert verify_distinguishing(poset, fam).passed()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_one_dimensional(antichain_poset(3))


class TestPairDim2:
    def test_diamond_exact_h(self):
        poset = diamond_poset()
        s, t = build_pair_dim2(poset)
        for p in poset.primes:
            hits = sum(1 for sub in (s, t) if sub.intersects(p))
            assert hits == heights_of(poset)[p]
        fam = DistinguishingFamily((s, t))
        assert verify_distinguishing(poset, fam).passed()

    def test_dimension_one_input(self):
        poset = chain_poset(1)
        s, t = build_pair_dim2(poset)
        assert len(t.generators) == 0
        for p in poset.primes:
            hits = sum(1 for sub in (s, t) if sub.intersects(p))
            assert hits == heights_of(poset)[p]

    def test_single_minimal(self):
        poset = antichain_poset(1)
        s, t = build_pair_dim2(poset)
        assert s.generators == () and t.generators == ()

    def test_dim3_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_pair_dim2(chain_poset(3))

    def test_exact_h_random_corpus(self):
        rng = random.Random(77)
        for _ in range(40):
            d = rng.randint(0, 2)
            poset = random_ranked_poset(rng, d, rng.randint(d + 1, 25))
            s, t = build_pair_dim2(poset)
            for p in poset.primes:
                hits = sum(1 for sub in (s, t) if sub.intersects(p))
                assert hits == heights_of(poset)[p]


class TestWave:
    def test_wave2_matches_pair_shape(self):
        poset = diamond_poset()
        wave = build_wave(poset, 2)
        assert len(wave) == 2
        for p in poset.primes:
            h = heights_of(poset)[p]
            hits = sum(1 for sub in wave if sub.intersects(p))
            assert hits == h

    def test_depth3_chain(self):
        poset = chain_poset(3)   # heights 0..3
        wave = build_wave(poset, 3)
        assert len(wave) == 3
        hits_m = sum(1 for sub in wave if sub.intersects("c3"))
        hits_p = sum(1 for sub in wave if sub.intersects("c2"))
        assert hits_m == 3 and hits_p == 2
        # height <= l-2 primes stay clean
        assert all(not sub.intersects("c0") for sub in wave)
        assert all(not sub.intersects("c1") for sub in wave)

    def test_no_targets_empty_wave(self):
        # dimension-3 poset, but wave levels look at heights 2 and 3 only:
        # build l=3 on a poset with no height >= 2 primes is rejected;
        # instead check l=2 on a poset whose height-1/2 levels are present
        # but a level is trivially small.
        poset = chain_poset(2)
        wave = build_wave(poset, 2)
        assert len(wave) == 2

    def test_l_exceeds_dimension(self):
        with pytest.raises(DimensionMismatch):
            build_wave(diamond_poset(), 3)

    def test_partial_property_random(self):
        rng = random.Random(15)
        for _ in range(25):
            d = rng.randint(2, 4)
            poset = random_ranked_poset(rng, d, rng.randint(d + 1, 30))
            l = rng.randint(2, d)
            wave = build_wave(poset, l)
            assert len(wave) == l
            for p in poset.primes:
                h = heights_of(poset)[p]
                hits = sum(1 for sub in wave if sub.intersects(p))
                if h <= l - 2:
                    assert hits <= h
                elif h in (l - 1, l):
                    assert hits == h


class TestMuFamily:
    def test_d0(self):
        fam = build_mu_family(antichain_poset(4))
        assert fam.count == 0
        assert verify_distinguishing(antichain_poset(4), fam).passed()

    def test_d3_chain(self):
        poset = chain_poset(3)
        fam = build_mu_family(poset)
        assert fam.count == 4
        assert verify_distinguishing(poset, fam).passed()

    def test_d2_diamond_matches_pair(self):
        poset = diamond_poset()
        fam = build_mu_family(poset)
        assert fam.count == 2
        s, t = build_pair_dim2(poset)
        pair_fam = DistinguishingFamily((s, t))
        assert verify_distinguishing(poset, fam).passed()
        assert verify_distinguishing(poset, pair_fam).passed()

    def test_count_always_mu(self):
        rng = random.Random(42)
        for _ in range(20):
            d = rng.randint(0, 5)
            poset = random_ranked_poset(rng, d, rng.randint(d + 1, 30))
            fam = build_mu_family(poset)
            assert fam.count == mu(d)

    def test_determinism(self):
        rng = random.Random(8)
        poset = random_ranked_poset(rng, 3, 20)
        fam1 = build_mu_family(poset)
        fam2 = build_mu_family(poset)
        assert fam1.to_document() == fam2.to_document()


class TestSpectrumRJs:
    def _diamond_family(self):
        poset = diamond_poset()
        s, t = build_pair_dim2(poset)
        return to_sets(poset), family_to_sets(DistinguishingFamily((s, t)))

    def test_invert_all(self):
        poset, fam = self._diamond_family()
        sub = spectrum_of_R_Js(poset, fam, {0, 1}, {})
        assert set(sub.primes) == {"q"}

    def test_empty_intersection_choice(self):
        poset, fam = self._diamond_family()
        # J = empty; choose s_0 in p1's element and s_1 in m's element:
        # no prime contains both sets of choices unless comparable
        s0 = fam.subsets[0].generators[0]
        s1 = fam.subsets[1].generators[0]
        sub = spectrum_of_R_Js(poset, fam, set(), {0: s0, 1: s1})
        assert all(a == b or b not in sub.up[a] for a in sub.primes for b in sub.primes)

    def test_disjoint_choices_give_zero_ring(self):
        # two disjoint chains: choosing elements from different components
        # leaves no prime at all
        poset = PrimePoset.from_covers(["a0", "a1", "b0", "b1"],
                                       [("a0", "a1"), ("b0", "b1")])
        fam = family_to_sets(build_mu_family(poset))
        gens = fam.subsets[0].generators
        in_a = next(g for g in gens if "a1" in g.locus)
        in_b = next(g for g in gens if "b1" in g.locus)
        fam2 = DistinguishingFamily((SetSubset((in_a,)), SetSubset((in_b,))))
        sub = spectrum_of_R_Js(to_sets(poset), fam2, set(), {0: in_a, 1: in_b})
        assert sub.primes == ()

    def test_invert_first_antichain(self):
        poset, fam = self._diamond_family()
        for g in fam.subsets[1].generators:
            sub = spectrum_of_R_Js(poset, fam, {0}, {1: g})
            assert not comparable_pairs(sub)

    def test_bad_choice(self):
        poset, fam = self._diamond_family()
        alien = fam.subsets[0].generators[0]
        with pytest.raises(BadChoice):
            spectrum_of_R_Js(poset, fam, set(), {0: alien, 1: alien})
        with pytest.raises(BadChoice):
            spectrum_of_R_Js(poset, fam, {5}, {})

    def test_localization_filter_monotone(self):
        rng = random.Random(4)
        for _ in range(10):
            d = rng.randint(1, 3)
            poset = random_ranked_poset(rng, d, rng.randint(d + 1, 15))
            fam = build_mu_family(poset)
            hits = [labels_of(poset.labels, s.hit_mask()) for s in fam.subsets]
            m = fam.count
            idx = list(range(m))
            rng.shuffle(idx)
            grow = []
            kept = set(poset.primes)
            for j in idx:
                grow.append(j)
                new_kept = {p for p in poset.primes
                            if all(p not in hits[k] for k in grow)}
                assert new_kept <= kept
                kept = new_kept


class TestVerifier:
    def test_empty_family_on_chain_fails(self):
        poset = chain_poset(1)
        fam = DistinguishingFamily(())
        rep = verify_distinguishing(poset, fam)
        assert not rep.passed()
        assert ("c0", "c1") in rep.pairwise_failures
        assert rep.agreement  # both sides fail together

    def test_single_generator_family_passes(self):
        poset = chain_poset(1)
        g = AbstractElement(id="g", locus=mask_of(poset.labels, {"c1"}))
        fam = DistinguishingFamily((MultSubsetModel((g,), poset.labels),))
        rep = verify_distinguishing(poset, fam)
        assert rep.passed()

    def test_exhaustive_matches_candidate_route(self):
        rng = random.Random(11)
        for _ in range(15):
            d = rng.randint(1, 3)
            poset = random_ranked_poset(rng, d, rng.randint(d + 1, 10))
            fam = build_mu_family(poset)
            rep = verify_distinguishing(poset, fam, exhaustive_budget=100000)
            assert rep.exhaustive_choices_checked > 0
            assert rep.passed()


class TestRandomCorpusInvariant:
    def test_mu_family_always_verifies(self):
        rng = random.Random(2024)
        for _ in range(30):
            d = rng.randint(0, 5)
            poset = random_ranked_poset(rng, d, rng.randint(d + 1, 40))
            fam = build_mu_family(poset)
            rep = verify_distinguishing(poset, fam)
            assert rep.passed(), (d, poset.to_document())


# ---------------------------------------------------------------------------
# up-sets against brute force, and the builders and verifier against the
# scanning versions they replaced
# ---------------------------------------------------------------------------


@st.composite
def ranked_relations(draw):
    """Primes and pairs on levels; each prime above level 0 covers one or two
    primes of the level below and may reach further down, so heights are the
    levels."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    names = [[f"l{lv}.{i}" for i in range(n)] for lv, n in enumerate(sizes)]
    covers = set()
    for lv in range(1, len(names)):
        for node in names[lv]:
            parents = draw(st.lists(st.sampled_from(names[lv - 1]), min_size=1,
                                    max_size=2, unique=True))
            covers.update((par, node) for par in parents)
            if lv >= 2 and draw(st.booleans()):
                low = draw(st.sampled_from(names[draw(st.integers(0, lv - 2))]))
                covers.add((low, node))
    primes = draw(st.permutations([p for row in names for p in row]))
    return primes, sorted(covers)


@st.composite
def dag_relations(draw):
    """Primes and any acyclic relation: edges go forward in a drawn linear order."""
    n = draw(st.integers(0, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] < e[1]), max_size=20)) if n > 1 else []
    primes = draw(st.permutations([f"p{i}" for i in range(n)]))
    return primes, [(f"p{a}", f"p{b}") for a, b in edges]


def ranked_posets():
    return ranked_relations().map(lambda rel: PrimePoset.from_covers(*rel))


def dag_posets():
    return dag_relations().map(lambda rel: PrimePoset.from_covers(*rel))


def brute_order(poset):
    """Strict order, heights and covers recomputed from the document's covers."""
    doc = poset.to_document()
    below = {p: set() for p in poset.primes}
    for a, b in doc["covers"]:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in poset.primes:
            grown = below[b].union(*(below[a] for a in below[b]))
            if grown != below[b]:
                below[b], changed = grown, True
    pairs = sorted((a, b) for b in poset.primes for a in below[b])
    heights = {}

    def h(p):
        if p not in heights:
            heights[p] = 1 + max((h(q) for q in below[p]), default=-1)
        return heights[p]

    covers = sorted([a, b] for a, b in pairs
                    if not any(a in below[c] and c in below[b] for c in poset.primes))
    return pairs, {p: h(p) for p in poset.primes}, covers


def brute_up(primes, covers):
    """Reachability over the given covers, plus the prime itself."""
    up = {}
    for p in primes:
        seen, frontier = {p}, [p]
        while frontier:
            a = frontier.pop()
            for x, y in covers:
                if x == a and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        up[p] = frozenset(seen)
    return up


def quick_corpus():
    return [p for ps in poset_corpus(42, 10).values() for p in ps]


def scanning_build_wave(poset, l):
    """The wave builder that recomputes ``forbidden`` and the first unsaturated
    target by scanning every prime on each step."""
    labels, height = poset.labels, heights_of(poset)
    order = sorted(labels, key=height.__getitem__)
    targets = [p for p in order if height[p] in (l - 1, l)]
    gens = [[] for _ in range(l)]
    meet_count = {p: 0 for p in poset.primes}
    meets_set = [{p: False for p in poset.primes} for _ in range(l)]

    def saturated(p):
        return meet_count[p] >= min(height[p], l)

    step = 0
    while True:
        target = next((p for p in targets if not saturated(p)), None)
        if target is None:
            break
        k = next(i for i in range(l) if not meets_set[i][target])
        forbidden = {p for p in poset.primes
                     if height[p] <= l - 1 and saturated(p)}
        e = poset_module.avoidance_element(poset, target, mask_of(labels, forbidden),
                                           id=f"W{l}.{k}[{step}:{target}]")
        gens[k].append(e)
        for q in labels_of(labels, e.locus):
            if not meets_set[k][q]:
                meets_set[k][q] = True
                meet_count[q] += 1
        step += 1
    return [MultSubsetModel(tuple(g), labels) for g in gens]


def random_locus_family(poset, rng):
    """A family of random, usually not up-closed, loci: most such families fail."""
    subsets = []
    for k in range(rng.randint(0, 4)):
        gens = tuple(AbstractElement(id=f"r{k}.{i}", locus=mask_of(poset.labels, set(
            rng.sample(poset.primes, rng.randint(0, len(poset.primes))))))
            for i in range(rng.randint(0, 3)))
        subsets.append(MultSubsetModel(gens, poset.labels))
    return DistinguishingFamily(tuple(subsets))


PLANTED_BUDGET = 4096


def planted_family(family, rng):
    """``family`` with one subset's generators cut down to a prefix, so the
    pairs that only the dropped generators separated fail."""
    if not family.count:
        return family
    k = rng.randrange(family.count)
    subsets = list(family.subsets)
    subsets[k] = MultSubsetModel(subsets[k].generators[:rng.randrange(
        max(1, len(subsets[k].generators)))], subsets[k].labels)
    return DistinguishingFamily(tuple(subsets))


def quick_corpus_families():
    """(poset, family, budget) per quick-corpus poset: its mu family, random
    loci, and a planted failure enumerated under a raised budget."""
    rng = random.Random(21)
    for poset in quick_corpus():
        mu_family = build_mu_family(poset)
        for fam, budget in ((mu_family, 512), (random_locus_family(poset, rng), 512),
                            (planted_family(mu_family, rng), PLANTED_BUDGET)):
            yield poset, fam, budget


# sha256 of json.dumps(docs, sort_keys=True) over the 180 verifier documents
# of quick_corpus_families()
QUICK_CORPUS_DOCS_SHA256 = "c1ff8dbb26321afc99f46af62bed7606c63f77cee02ae9d360520a7f9b024c6b"


def generators(subsets):
    return [[(g.id, sorted(labels_of(sub.labels, g.locus))) for g in sub.generators]
            for sub in subsets]


def check_order(poset):
    pairs, heights, covers = brute_order(poset)
    assert poset.labels == tuple(sorted(poset.primes))
    assert to_sets(poset).up == brute_up(poset.primes, covers)
    assert comparable_pairs(to_sets(poset)) == pairs
    assert heights_of(poset) == heights
    assert poset.to_document()["covers"] == covers
    assert PrimePoset.from_document(poset.to_document()) == poset


def check_restrict(poset, keep):
    sets = to_sets(poset)
    sub = restrict(sets, keep)
    rebuilt = PrimePoset.from_covers([p for p in poset.primes if p in keep],
                                     {(a, b) for a, b in comparable_pairs(sets)
                                      if a in keep and b in keep})
    assert sub == to_sets(rebuilt)
    assert sub.primes == rebuilt.primes
    assert comparable_pairs(sub) == comparable_pairs(to_sets(rebuilt))
    assert sub.height == heights_of(rebuilt)


def check_waves(poset, monkeypatch):
    """Same generators, and the same ``forbidden`` set, decoded to labels, at
    every step."""
    calls = []
    avoid = poset_module.avoidance_element

    def spy(poset, target, forbidden, id=None):
        calls.append((id, labels_of(poset.labels, forbidden)))
        return avoid(poset, target, forbidden, id)

    monkeypatch.setattr(poset_module, "avoidance_element", spy)
    for l in range(2, poset.dimension() + 1):
        new = build_wave(poset, l)
        new_calls = calls[:]
        calls.clear()
        assert generators(new) == generators(scanning_build_wave(poset, l))
        assert new_calls == calls
        calls.clear()


class TestUpSets:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(ranked_posets(), dag_posets()))
    def test_order_matches_brute_force(self, poset):
        check_order(poset)

    def test_order_on_quick_corpus(self):
        for poset in quick_corpus():
            check_order(poset)

    def test_hashable_and_equal_by_order(self):
        a = PrimePoset.from_covers(["x", "y", "z"], [("x", "y"), ("y", "z")])
        b = PrimePoset.from_covers(["x", "y", "z"], [("y", "z"), ("x", "z"), ("x", "y")])
        c = PrimePoset.from_covers(["x", "y", "z"], [("x", "y")])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2


class TestRestrictWithoutReclosing:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(ranked_posets(), dag_posets()), st.randoms(use_true_random=False))
    def test_restrict_equals_reclosed(self, poset, rng):
        check_restrict(poset, set(rng.sample(poset.primes, rng.randint(0, len(poset.primes)))))

    def test_restrict_on_quick_corpus(self):
        rng = random.Random(13)
        for poset in quick_corpus():
            check_restrict(poset, {p for p in poset.primes if rng.random() < 0.6})


class TestAgainstScanningVersions:
    @settings(max_examples=100, deadline=None)
    @given(ranked_posets())
    def test_wave_matches_scanning_builder(self, poset):
        with pytest.MonkeyPatch.context() as mp:
            check_waves(poset, mp)

    def test_wave_on_quick_corpus(self, monkeypatch):
        for poset in quick_corpus():
            check_waves(poset, monkeypatch)

    @settings(max_examples=100, deadline=None)
    @given(ranked_posets(), st.randoms(use_true_random=False))
    def test_verifier_matches_set_version(self, poset, rng):
        """Equal documents, so equal failure lists in the same order, on the
        mu family, on random loci, and on planted failures enumerated under
        a raised budget."""
        mu_family = build_mu_family(poset)
        for fam, budget in ((mu_family, 512), (random_locus_family(poset, rng), 512),
                            (planted_family(mu_family, rng), PLANTED_BUDGET)):
            assert (verify_distinguishing(poset, fam, budget).to_document()
                    == verify_distinguishing_by_sets(to_sets(poset), family_to_sets(fam),
                                                     budget).to_document())

    def test_verifier_on_quick_corpus(self):
        failing = 0
        for poset, fam, budget in quick_corpus_families():
            doc = verify_distinguishing(poset, fam, budget).to_document()
            assert doc == verify_distinguishing_by_sets(to_sets(poset), family_to_sets(fam),
                                                        budget).to_document()
            failing += not doc["pass"]
        assert failing > 0

    def test_every_choice_keeps_its_spectrum(self, monkeypatch):
        """The keep mask of every canonical and every enumerated choice is the
        spectrum of its R_{J,s}."""
        kept = poset_module._kept
        seen = []

        def spy(combo, everything):
            keep = kept(combo, everything)
            seen.append((combo, keep))
            return keep

        monkeypatch.setattr(poset_module, "_kept", spy)
        canonical = 0
        for poset, fam, budget in quick_corpus_families():
            seen.clear()
            checked = verify_distinguishing(poset, fam, budget).exhaustive_choices_checked
            canonical += len(seen) - checked
            labels = sorted(poset.primes)
            sets, set_fam = to_sets(poset), family_to_sets(fam)
            for combo, keep in seen:
                # the decoded copy of each chosen generator, found by position
                sub = spectrum_of_R_Js(sets, set_fam,
                                       {k for k, (_, g) in enumerate(combo) if g is None},
                                       {k: set_fam.subsets[k].generators[
                                           fam.subsets[k].generators.index(g)]
                                        for k, (_, g) in enumerate(combo) if g is not None})
                assert keep == sum(1 << i for i, p in enumerate(labels) if p in sub.up)
        assert canonical > 0

    def test_verifier_documents_pinned(self):
        docs = [verify_distinguishing(poset, fam, budget).to_document()
                for poset, fam, budget in quick_corpus_families()]
        assert sum(not doc["pass"] for doc in docs) == 92
        assert (hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
                == QUICK_CORPUS_DOCS_SHA256)


# ---------------------------------------------------------------------------
# the mask route against the frozenset route it replaced
# ---------------------------------------------------------------------------


def outcome(make, *args):
    """What a call gives: its value, or the class and text of its error."""
    try:
        return make(*args)
    except (ValueError, DimensionMismatch) as exc:
        return type(exc).__name__, str(exc)


def constructions(poset, one, pair, wave, mu_family):
    """Every construction the CLI offers, mode by mode: the family document
    and the generator ids of each subset, or the error."""
    modes = {"dim1": lambda: [one(poset)], "dim2": lambda: list(pair(poset)),
             "mu": lambda: list(mu_family(poset).subsets)}
    modes.update({f"wave:{l}": lambda l=l: wave(poset, l)
                  for l in range(poset.dimension() + 2)})

    def views(make):
        subsets = make()
        return (DistinguishingFamily(tuple(subsets)).to_document(),
                [[g.id for g in sub.generators] for sub in subsets])
    return {mode: outcome(views, make) for mode, make in modes.items()}


class TestAgainstSetRoute:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(ranked_relations(), dag_relations()), st.randoms(use_true_random=False))
    def test_routes_agree(self, relation, rng):
        """The same order, heights and document; the same family documents
        and generator ids from every builder; the same verifier documents on
        the mu family, on random loci and on planted failures."""
        primes, covers = relation
        poset, old = PrimePoset.from_covers(primes, covers), SetPoset.from_covers(primes, covers)
        assert to_sets(poset) == old and heights_of(poset) == old.height
        assert poset.to_document() == old.to_document()
        assert (constructions(poset, build_one_dimensional, build_pair_dim2, build_wave,
                              build_mu_family)
                == constructions(old, build_one_dimensional_by_sets, build_pair_dim2_by_sets,
                                 build_wave_by_sets, build_mu_family_by_sets))
        mu_family = build_mu_family(poset)
        for fam, budget in ((mu_family, 512), (random_locus_family(poset, rng), 512),
                            (planted_family(mu_family, rng), PLANTED_BUDGET)):
            assert (verify_distinguishing(poset, fam, budget).to_document()
                    == verify_distinguishing_renumbered(old, family_to_sets(fam),
                                                        budget).to_document())

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(ranked_relations(), dag_relations()), st.data())
    def test_errors_agree(self, relation, data):
        """Extra pairs, which may close a cycle, repeat a prime or name an
        unknown one, and a repeated prime: both routes raise the same error,
        naming the same culprit, or build the same order."""
        primes, covers = relation
        names = list(primes) + ["zz"]
        extra = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                                   max_size=3))
        if covers and data.draw(st.booleans()):
            a, b = data.draw(st.sampled_from(covers))
            extra.append((b, a))        # closes a cycle through a and b
        covers = data.draw(st.permutations(covers + extra))
        if primes and data.draw(st.integers(0, 4)) == 4:
            primes = primes + [data.draw(st.sampled_from(primes))]
        new = outcome(PrimePoset.from_covers, primes, covers)
        old = outcome(SetPoset.from_covers, primes, covers)
        if isinstance(new, PrimePoset):
            assert to_sets(new) == old and heights_of(new) == old.height
        else:
            assert new == old

    def test_routes_agree_on_quick_corpus(self):
        for poset in quick_corpus():
            doc = poset.to_document()
            old = SetPoset.from_covers(doc["primes"], doc["covers"])
            assert to_sets(poset) == old and heights_of(poset) == old.height
            assert (generators(build_mu_family(poset).subsets)
                    == [[(g.id, sorted(g.locus)) for g in sub.generators]
                        for sub in build_mu_family_by_sets(old).subsets])


def spectra_certs_poset_documents():
    """The poset documents of the benchmark's spectra-certs inputs for seed 1,
    made by its own input generator."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [it["poset"] for it in workloads.spectra_inputs(1) if it["kind"] == "poset"]


def digest(docs) -> str:
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


# sha256 of json.dumps(docs, sort_keys=True) over the poset documents, the mu
# family documents and the verifier documents of each corpus
DOCUMENT_SHA256 = {
    "quick": ("bf752eb1462b71202081996f8c1da2eac5815985558a743354ab46a8a7103302",
              "76c2ade4643ffba459b16773330d8d1490b22810226018773a3b6ca71421ad8e",
              "108d298d83ee63b8df130757c1d884ac2f175698f5816b838462f3ffe3d5bd64"),
    "spectra-certs seed 1": (
        "29e00eaec9b18b516e0d702d8aa873cc39997162e70bdd3d5cdd2c843532abbe",
        "f23bc4f64bed845f4610b72cbb2a473faa49e726a7ef1b8aa70e231e3e565b81",
        "a8fc4a3c4392307f41e25cf8c2a83fc7c325270df3bc0bc707be71d4e4f0c2be"),
}


class TestDocumentsPinned:
    def test_quick_corpus(self):
        self.check(quick_corpus(), DOCUMENT_SHA256["quick"])

    def test_spectra_certs_seed_1(self):
        docs = spectra_certs_poset_documents()
        posets = [PrimePoset.from_document(doc) for doc in docs]
        assert [p.to_document() for p in posets] == docs
        self.check(posets, DOCUMENT_SHA256["spectra-certs seed 1"])

    @staticmethod
    def check(posets, pinned):
        families = [build_mu_family(p) for p in posets]
        assert (digest([p.to_document() for p in posets]),
                digest([f.to_document() for f in families]),
                digest([verify_distinguishing(p, f).to_document()
                        for p, f in zip(posets, families)])) == pinned
