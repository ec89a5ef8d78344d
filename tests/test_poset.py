import random

import pytest

from multloc.poset import (
    AvoidanceImpossible,
    BadChoice,
    DimensionMismatch,
    MultSubsetModel,
    PrimePoset,
    avoidance_element,
    build_mu_family,
    build_one_dimensional,
    build_pair_dim2,
    build_wave,
    mu,
    spectrum_of_R_Js,
    verify_distinguishing,
    DistinguishingFamily,
)
from multloc.randomgen import antichain_poset, chain_poset, diamond_poset, random_ranked_poset


class TestMu:
    def test_listed_values(self):
        assert [mu(d) for d in range(5)] == [0, 1, 2, 4, 6]

    def test_mu_5_and_6(self):
        assert mu(5) == 9      # 5 + 3 + 1
        assert mu(6) == 12     # 6 + 4 + 2, and round(49/4) = 12

    def test_closest_integer_formula(self):
        for d in range(101):
            assert mu(d) == (d + 1) ** 2 // 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mu(-1)


class TestPoset:
    def test_heights_from_covers(self):
        p = diamond_poset()
        assert p.height == {"q": 0, "p1": 1, "p2": 1, "m": 2}
        assert p.dimension() == 2
        assert p.less("q", "m")
        assert not p.less("p1", "p2")

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            PrimePoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_skip_edges_do_not_change_heights(self):
        p = PrimePoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert p.height == {"a": 0, "b": 1, "c": 2}

    def test_document_roundtrip(self):
        p = diamond_poset()
        doc = p.to_document()
        q = PrimePoset.from_document(doc)
        assert q.lt == p.lt
        assert q.height == p.height


class TestAvoidance:
    def test_chain_avoid_below(self):
        p = chain_poset(1)  # c0 < c1
        e = avoidance_element(p, "c1", {"c0"})
        assert e.locus == frozenset({"c1"})

    def test_minimal_upclosure(self):
        p = chain_poset(2)
        e = avoidance_element(p, "c0", set())
        assert e.locus == frozenset({"c0", "c1", "c2"})

    def test_impossible(self):
        p = chain_poset(1)
        with pytest.raises(AvoidanceImpossible):
            avoidance_element(p, "c0", {"c1"})

    def test_locus_upward_closed_and_disjoint(self):
        rng = random.Random(3)
        for _ in range(20):
            poset = random_ranked_poset(rng, rng.randint(1, 3))
            target = rng.choice(poset.primes)
            forbidden = {q for q in poset.primes if not poset.leq(target, q)}
            e = avoidance_element(poset, target, forbidden)
            assert all(q in e.locus for p in e.locus for q in poset.primes
                       if poset.less(p, q))
            assert not (e.locus & forbidden)


class TestOneDimensional:
    def test_two_level(self):
        p = chain_poset(1)
        s = build_one_dimensional(p)
        assert len(s.generators) == 1
        assert s.generators[0].locus == frozenset({"c1"})
        fam = DistinguishingFamily(subsets=(s,), dimension=1)
        assert verify_distinguishing(p, fam).passed()

    def test_two_minimal_two_above(self):
        poset = PrimePoset.from_covers(
            ["q1", "q2", "p1", "p2"],
            [("q1", "p1"), ("q2", "p1"), ("q1", "p2"), ("q2", "p2")])
        s = build_one_dimensional(poset)
        assert len(s.generators) == 2
        fam = DistinguishingFamily(subsets=(s,), dimension=1)
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
            assert hits == poset.height[p]
        fam = DistinguishingFamily(subsets=(s, t), dimension=2)
        assert verify_distinguishing(poset, fam).passed()

    def test_dimension_one_input(self):
        poset = chain_poset(1)
        s, t = build_pair_dim2(poset)
        assert len(t.generators) == 0
        for p in poset.primes:
            hits = sum(1 for sub in (s, t) if sub.intersects(p))
            assert hits == poset.height[p]

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
                assert hits == poset.height[p]


class TestWave:
    def test_wave2_matches_pair_shape(self):
        poset = diamond_poset()
        wave = build_wave(poset, 2)
        assert len(wave) == 2
        for p in poset.primes:
            h = poset.height[p]
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
                h = poset.height[p]
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
        pair_fam = DistinguishingFamily(subsets=(s, t), dimension=2)
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
        return poset, DistinguishingFamily(subsets=(s, t), dimension=2)

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
        assert all(not sub.less(a, b) for a in sub.primes for b in sub.primes)

    def test_disjoint_choices_give_zero_ring(self):
        # two disjoint chains: choosing elements from different components
        # leaves no prime at all
        poset = PrimePoset.from_covers(["a0", "a1", "b0", "b1"],
                                       [("a0", "a1"), ("b0", "b1")])
        fam = build_mu_family(poset)
        gens = fam.subsets[0].generators
        in_a = next(g for g in gens if "a1" in g.locus)
        in_b = next(g for g in gens if "b1" in g.locus)
        fam2 = DistinguishingFamily(
            subsets=(MultSubsetModel((in_a,)), MultSubsetModel((in_b,))),
            dimension=1)
        sub = spectrum_of_R_Js(poset, fam2, set(), {0: in_a, 1: in_b})
        assert sub.primes == ()

    def test_invert_first_antichain(self):
        poset, fam = self._diamond_family()
        for g in fam.subsets[1].generators:
            sub = spectrum_of_R_Js(poset, fam, {0}, {1: g})
            assert not sub.comparable_pairs()

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
            hits = [s.hit_set() for s in fam.subsets]
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
        fam = DistinguishingFamily(subsets=(), dimension=1)
        rep = verify_distinguishing(poset, fam)
        assert not rep.passed()
        assert ("c0", "c1") in rep.pairwise_failures
        assert rep.agreement  # both sides fail together

    def test_single_generator_family_passes(self):
        poset = chain_poset(1)
        from multloc.poset import AbstractElement
        g = AbstractElement(id="g", locus=frozenset({"c1"}))
        fam = DistinguishingFamily(subsets=(MultSubsetModel((g,)),), dimension=1)
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
