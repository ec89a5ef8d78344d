import functools
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multloc import fpmod, intlinalg, towers
from multloc.battery import GENERATOR_SETS, abelian_groups_upto, criterion_5
from multloc.certs import omega_from_quotient_tower
from multloc.fpmod import (FPModule, Morphism, canonical_invariants,
                           merge_invariants)
from multloc.intlinalg import lattice_member, mat_mul
from multloc.towers import (
    DEFAULT_DEPTH,
    MultSubsetSeq,
    NotStabilized,
    certified_depth,
    chain_lim,
    cyclic_completion_oracle,
    delta_truncated,
    five_term_check,
    is_weakly_cotorsion_fg,
    quotient_chain,
    quotient_stages,
    telescope_complex,
    telescope_homology_check,
    weakly_cotorsion_report,
)
import reference_routes
from reference_routes import (Tower, TowerLimit, carriers, composite, constant_hom_tower,
                              echelon_level_lim, factor_through_submodule,
                              five_term_by_submodules, quotient_tower, submodule_on_rows,
                              torsion_tower, tower_lim)


def seq(*gens):
    return MultSubsetSeq(generators=tuple(gens))


def z_mod(*factors):
    return FPModule.from_invariants(list(factors))


class TestSchedule:
    def test_round_robin(self):
        s = seq(2, 3)
        assert [s.s(n) for n in range(1, 6)] == [2, 3, 2, 3, 2]
        assert s.t(0) == 1
        assert s.t(3) == 12

    def test_recurrence(self):
        s = seq(2, 3, 5)
        for n in range(1, 12):
            assert s.t(n) == s.t(n - 1) * s.s(n)

    def test_slot_positions(self):
        s = seq(2, 3, 5)
        for n in range(1, 20):
            assert s.s(n) == s.generators[(n - 1) % 3]

    @pytest.mark.parametrize("gens", [(2,), (2, 3), (-2, 3, 5), (7, 1, -1, 4)])
    def test_schedule_is_the_round_robin_prefix(self, gens):
        s = seq(*gens)
        for n in range(0, 30):
            assert s.schedule(n) == tuple(s.s(k) for k in range(1, n + 1))
            assert isinstance(s.schedule(n), tuple)
            assert s.t(n) == math.prod(s.s(k) for k in range(1, n + 1))
        assert s.schedule(-3) == () and s.t(-3) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultSubsetSeq(generators=())
        with pytest.raises(ValueError):
            MultSubsetSeq(generators=(0,))

    def test_generators_stored_as_a_tuple(self):
        s = MultSubsetSeq(generators=[2, 3])
        assert s.generators == (2, 3) and isinstance(s.generators, tuple)
        assert s == MultSubsetSeq((2, 3)) and hash(s) == hash(MultSubsetSeq((2, 3)))
        # the completion memo keys on the schedule, so it must hash
        assert five_term_check(z_mod(12), s).exact_everywhere()
        assert delta_truncated(z_mod(12), s).lambda_invariants == (12,)

    @pytest.mark.parametrize("gens", [(2.5,), (2, 2.0), (True,), (2, False), ("2",),
                                      (2, None)])
    def test_non_integers_rejected(self, gens):
        with pytest.raises(ValueError, match="^generators must be nonzero integers$"):
            MultSubsetSeq(generators=gens)


class TestTowers:
    """The quotient stages from the chains (``quotient_stages``) beside the
    presented tower of the test copy."""

    def test_quotient_tower_z12(self):
        t = quotient_tower(z_mod(12), seq(2), 4)
        assert quotient_stages(z_mod(12), seq(2), 4) \
            == ([2, 4, 8, 16], t.stage_invariants()) == ([2, 4, 8, 16], [(2,), (4,), (4,), (4,)])
        assert all(f.is_surjective() for f in t.transitions)

    def test_quotient_tower_free(self):
        free = FPModule.from_presentation([], gens=1)
        t = quotient_tower(free, seq(2), 3)
        assert quotient_stages(free, seq(2), 3)[1] == t.stage_invariants() \
            == [(2,), (4,), (8,)]

    def test_quotient_tower_invertible(self):
        t = quotient_tower(z_mod(5), seq(2), 3)
        assert quotient_stages(z_mod(5), seq(2), 3)[1] == t.stage_invariants() == [(), (), ()]

    def test_torsion_tower_z12(self):
        t = torsion_tower(z_mod(12), seq(2), 3)
        assert t.stage_invariants() == [(2,), (4,), (4,)]
        assert all(f.source == t.stages[k + 1] and f.target == t.stages[k]
                   and f.is_well_defined() for k, f in enumerate(t.transitions))

    def test_torsion_tower_free(self):
        t = torsion_tower(FPModule.from_presentation([], gens=2), seq(2), 3)
        assert all(inv == () for inv in t.stage_invariants())

    def test_torsion_tower_sum(self):
        # kernels of 2, 4, 8 on Z/8 + Z/2 have orders 4, 8, 16
        t = torsion_tower(z_mod(8, 2), seq(2), 3)
        orders = [s.order() for s in t.stages]
        assert orders == [4, 8, 16]


@st.composite
def presentations(draw):
    """A module on 0 to 4 generators over Z or over Z/N with N < 2^61."""
    gens = draw(st.integers(0, 4))
    modulus = draw(st.one_of(st.just(0), st.sampled_from([4, 6, 8, 12, 36]),
                             st.integers(2, 2 ** 61 - 1)))
    rows = draw(st.lists(st.lists(st.integers(-12, 12), min_size=gens, max_size=gens),
                         max_size=4))
    return FPModule.from_presentation(rows, gens=gens, modulus=modulus)


SIGNED_GENERATORS = st.sampled_from([-6, -4, -2, -1, 1, 2, 3, 4, 5, 6, 10])


class TestQuotientStages:
    """The quotient stages merged from the chains, and the stages the omega
    certificate presents, against the presented tower of the test copy."""

    @settings(max_examples=200, deadline=None)
    @given(module=presentations(),
           schedule=st.lists(SIGNED_GENERATORS, min_size=1, max_size=3),
           depth=st.integers(1, 10))
    def test_matches_presented_tower(self, module, schedule, depth):
        s = MultSubsetSeq(generators=tuple(schedule))
        tower = quotient_tower(module, s, depth)
        assert quotient_stages(module, s, depth) == (tower.t_values, tower.stage_invariants())

    @settings(max_examples=100, deadline=None)
    @given(module=presentations(), s=SIGNED_GENERATORS, top=st.integers(0, 4))
    def test_omega_presents_the_tower_stages(self, module, s, top):
        payload = omega_from_quotient_tower(module, top, s).payload
        tower = quotient_tower(module, seq(s), top + 1)
        assert payload["stages"] == tower.stages[:top + 1]
        assert payload["module"] == tower.stages[top]
        assert payload["transitions"] == [f.mat() for f in tower.transitions[:top]]


class TestTowerLim:
    """The matrix route of the test copy, and the chain route beside it
    where the tower is of a cyclic factor."""

    def test_quotient_z12(self):
        t = quotient_tower(z_mod(12), seq(2), 12)
        lim = tower_lim(t)
        assert lim.module.invariants() == (4,)
        assert lim.certificate.stable_index == 1
        assert chain_lim(quotient_chain(12, seq(2), 12)) == (4, lim.certificate)

    def test_constant_identity(self):
        m = z_mod(3)
        stages = [m] * 6
        trans = [Morphism.identity(m) for _ in range(5)]
        lim = tower_lim(Tower(stages=stages, transitions=trans, period=1))
        assert lim.module.invariants() == (3,)

    def test_growing_not_stabilized(self):
        t = quotient_tower(FPModule.from_presentation([], gens=1), seq(2), 8)
        with pytest.raises(NotStabilized):
            tower_lim(t)
        with pytest.raises(NotStabilized, match="keep changing") as info:
            chain_lim(quotient_chain(0, seq(2), 8))
        assert info.value.chains == [[[2 ** n] for n in range(1, 8)]]

    def test_idempotent(self):
        t = quotient_tower(z_mod(12), seq(2), 12)
        lim = tower_lim(t)
        # rebuild the stable-image tower and take the limit again
        n0 = lim.certificate.stable_index
        hi = lim.certificate.verified_through
        stages = []
        rows = {}
        for i in range(n0, hi + 1):
            rows[i] = lim.carriers[i]
            stages.append(submodule_on_rows(t.stages[i], rows[i]))
        trans = []
        for k in range(len(stages) - 1):
            i = n0 + k
            mapped = mat_mul(rows[i + 1], t.transitions[i].mat())
            coeffs = factor_through_submodule(mapped, rows[i], t.stages[i])
            trans.append(Morphism.make(stages[k + 1], stages[k], coeffs))
        lim2 = tower_lim(Tower(stages=stages, transitions=trans, period=1))
        assert lim2.module.invariants() == lim.module.invariants()


class TestTelescope:
    def test_n1(self):
        tc = telescope_complex(seq(2), 1)
        assert tc.differential == [[1]]
        assert tc.companion == 2
        assert tc.verify_witnesses()["all_ok"]

    def test_n2_schedule_23(self):
        tc = telescope_complex(seq(2, 3), 2)
        assert tc.differential == [[1, 0], [-2, 1]]
        assert tc.companion == 6
        assert tc.verify_witnesses()["all_ok"]

    def test_n3_constant(self):
        tc = telescope_complex(seq(2), 3)
        assert tc.differential[1][0] == -2 and tc.differential[2][1] == -2
        assert tc.verify_witnesses()["all_ok"]

    def test_substitution_unimodular_reads_the_differential(self):
        tc = telescope_complex(seq(2), 2)
        # det 2: a 2 on the diagonal makes the substitution not invertible over Z
        doubled = tc._replace(differential=[[1, 0], [-2, 2]])
        assert not doubled.verify_witnesses()["substitution_unimodular"]
        assert not doubled.verify_witnesses()["all_ok"]
        # det 1 but not triangular
        unimodular = tc._replace(differential=[[3, 1], [2, 1]])
        assert unimodular.verify_witnesses()["substitution_unimodular"]

    @pytest.mark.parametrize("gens", [(2,), (2, 3), (-2, 3, 5), (6, -1)])
    def test_fields_from_the_schedule(self, gens):
        s = seq(*gens)
        for n in range(1, 25):
            tc = telescope_complex(s, n)
            assert tc.schedule == tuple(s.s(k) for k in range(1, n + 1))
            assert tc.companion == s.t(n)
            assert tc.g0 == [[s.t(c) for c in range(n)]]

    @pytest.mark.parametrize("gens", [(2,), (-3,), (2, -3), (-2, 3, 5), (6, -1), (-1, 1),
                                      (7, -2, 1, -5)])
    def test_every_field_matches_the_slice_products(self, gens):
        s = seq(*gens)
        for n in range(1, 61):
            assert telescope_complex(s, n) == reference_routes.telescope_complex_by_slices(s, n), n

    def test_witnesses_random(self):
        rng = random.Random(77)
        for _ in range(25):
            gens = tuple(rng.choice([2, 3, 5, 6]) for _ in range(rng.randint(1, 3)))
            n = rng.randint(1, 6)
            tc = telescope_complex(MultSubsetSeq(generators=gens), n)
            checks = tc.verify_witnesses()
            assert checks["all_ok"], (gens, n, checks)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(min_value=-7, max_value=7).filter(bool), min_size=1,
                    max_size=4),
           st.integers(min_value=1, max_value=60),
           st.sampled_from(["f1", "g0", "homotopy"]), st.data())
    def test_one_wrong_witness_entry_fails_its_flag(self, gens, n, name, data):
        """The products multiply the stored matrices: one changed entry of f1,
        g0 or the homotopy turns the flags that read it False."""
        tc = telescope_complex(MultSubsetSeq(generators=tuple(gens)), n)
        mat = [list(row) for row in getattr(tc, name)]
        i = data.draw(st.integers(min_value=0, max_value=len(mat) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(mat[0]) - 1))
        mat[i][j] += data.draw(st.integers(min_value=-5, max_value=5).filter(bool))
        checks = tc._replace(**{name: mat}).verify_witnesses()
        flags = {"f1": ["f_chain_map"], "g0": ["g_chain_map"],
                 "homotopy": ["homotopy_deg0", "homotopy_deg1"]}[name]
        assert not any(checks[flag] for flag in flags), (gens, n, name, i, j)
        assert not checks["all_ok"]

    def test_homology_z10(self):
        rep = telescope_homology_check(seq(2, 3), 2, z_mod(10))
        assert rep.h0_engine == (2,) and rep.h1_engine == (2,)
        assert rep.passed()

    def test_homology_free(self):
        rep = telescope_homology_check(seq(2), 3, FPModule.from_presentation([], gens=1))
        assert rep.h0_engine == (8,)
        assert rep.h1_engine == ()
        assert rep.passed()

    def test_homology_zero_module(self):
        rep = telescope_homology_check(seq(2), 2, FPModule.zero())
        assert rep.h0_engine == () and rep.h1_engine == ()
        assert rep.passed()


class TestDelta:
    def test_z12_at_2(self):
        rep = delta_truncated(z_mod(12), seq(2))
        assert rep.delta_equals_lambda
        assert rep.delta_invariants == (4,)

    def test_z5_at_2(self):
        rep = delta_truncated(z_mod(5), seq(2))
        assert rep.delta_invariants == ()

    def test_trivial_subset(self):
        rep = delta_truncated(FPModule.from_presentation([], gens=1), seq(1))
        assert rep.delta_invariants == ()

    def test_free_part_not_stabilized(self):
        with pytest.raises(NotStabilized):
            delta_truncated(FPModule.from_presentation([], gens=1), seq(2))

    @pytest.mark.parametrize("modulus", [0, 12])
    def test_zero_module_documents(self, modulus):
        lim1 = {"verdict": "zero", "certificate": "finite_stages", "witness_chain": None}
        zero, s = FPModule.zero(modulus), seq(2, 3)
        assert delta_truncated(zero, s).to_document() == {
            "lim1": lim1, "lambda_invariants": [], "lambda_stable_index": 0,
            "delta_invariants": [], "delta_equals_lambda": True}
        five = five_term_check(zero, s)
        assert (five.hom_loc_mod_r, five.hom_loc, five.delta_invariants,
                five.ext_invariants) == ((),) * 4
        assert five.exact_everywhere() and five.stable_index == 0
        assert five.lim1.to_document() == lim1


class TestFiveTerm:
    def test_z8_at_2(self):
        rep = five_term_check(z_mod(8), seq(2))
        assert rep.hom_loc_mod_r == () and rep.hom_loc == ()
        assert rep.delta_invariants == (8,)
        assert rep.ext_invariants == ()
        assert rep.exact_everywhere()

    def test_z5_at_2(self):
        rep = five_term_check(z_mod(5), seq(2))
        assert rep.hom_loc == (5,)
        assert rep.delta_invariants == ()
        assert rep.ext_invariants == ()
        assert rep.exact_everywhere()

    def test_zero_module(self):
        rep = five_term_check(FPModule.zero(), seq(2))
        assert rep.exact_everywhere()
        assert rep.delta_invariants == ()

    def test_mixed_z12(self):
        rep = five_term_check(z_mod(12), seq(2))
        assert rep.hom_loc == (3,)
        assert rep.delta_invariants == (4,)
        assert rep.exact_everywhere()

    def test_multi_generator(self):
        rep = five_term_check(z_mod(36), seq(2, 3))
        assert rep.delta_invariants == (36,)
        assert rep.hom_loc == ()
        assert rep.exact_everywhere()

    def test_small_battery(self):
        rng = random.Random(303)
        gen_sets = [(2,), (3,), (2, 3), (6,), (2, 3, 5, 6)]
        for _ in range(25):
            inv = [rng.choice([2, 3, 4, 5, 8, 9, 12]) for _ in range(rng.randint(1, 3))]
            m = z_mod(*inv)
            if m.order() > 64:
                continue
            s = MultSubsetSeq(generators=rng.choice(gen_sets))
            rep = five_term_check(m, s)
            assert rep.exact_everywhere(), (inv, s.generators)
            assert rep.lim1.is_zero()


class TestWeaklyCotorsion:
    def test_torsion_true(self):
        assert is_weakly_cotorsion_fg(z_mod(36), 2) is True
        rep = weakly_cotorsion_report(z_mod(36), 2)
        assert rep["oracle_agrees"]

    def test_free_false(self):
        free = FPModule.from_presentation([], gens=1)
        assert is_weakly_cotorsion_fg(free, 2) is False
        rep = weakly_cotorsion_report(free, 2)
        assert rep["oracle_agrees"]
        assert rep["free_part_growth"][0] == [2]
        assert not rep["free_part_stabilized"]

    def test_m_equals_one(self):
        free = FPModule.from_presentation([], gens=1)
        assert is_weakly_cotorsion_fg(free, 1) is True
        assert weakly_cotorsion_report(free, 1)["oracle_agrees"]


def saturation_step(d, gens, a):
    """Least n >= a with gcd(d, t_n / t_a) = d_S, from the exact partial
    products and the primes of d_S found by trial division."""
    s = MultSubsetSeq(generators=tuple(gens))
    primes = [p for p in range(2, d + 1) if d % p == 0
              and all(p % q for q in range(2, p)) and math.prod(gens) % p == 0]
    d_s = math.prod(p ** _valuation(d, p) for p in primes)
    n = a
    while math.gcd(d, s.t(n) // s.t(a)) != d_s:
        n += 1
    return n


def _valuation(d, p):
    return 0 if d % p else 1 + _valuation(d // p, p)


def depth_by_formula(d, gens):
    k = len(gens)
    n0 = saturation_step(d, gens, 0)
    return max(n0 + 2 * k, saturation_step(d, gens, n0) + k,
               saturation_step(d, gens, k + 1) + k, 2 * k + 1)


class TestCertifiedDepth:
    def test_worst_case_certifies(self):
        # the deepest battery case: full 2-exponent with the 4-generator set;
        # 2 divides t_n to the sixth power from n0 = 12 on, and once more
        # six factors of 2 past it at step(12) = 24
        m = z_mod(64)
        s = seq(2, 3, 5, 6)
        assert certified_depth(64, s) == 24 + 4
        rep = five_term_check(m, s)
        assert rep.exact_everywhere()
        assert rep.delta_invariants == (64,)

    def test_free_factor_floor(self):
        assert certified_depth(0, seq(2)) == DEFAULT_DEPTH
        assert certified_depth(0, seq(2, 3, 5, 6)) == 3 * 4 + 4

    def test_nothing_inverted_needs_one_window_above_two_periods(self):
        assert certified_depth(5, seq(2, 3)) == 5
        assert certified_depth(7, seq(1, -1)) == 5

    def test_matches_the_four_term_formula(self):
        for d in range(1, 65):
            for gens in GENERATOR_SETS + [(-2,), (1, 3), (-1, 4), (10, -3)]:
                assert certified_depth(d, seq(*gens)) == depth_by_formula(d, gens), (d, gens)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(min_value=2, max_value=200),
           gens=st.lists(st.sampled_from([-6, -2, -1, 1, 2, 3, 4, 5, 6, 9, 10, 12, 35]),
                         min_size=1, max_size=4))
    def test_guard_holds_at_depth_and_fails_one_below(self, d, gens):
        s = MultSubsetSeq(generators=tuple(gens))
        depth = certified_depth(d, s)
        m = z_mod(d)
        lims = [chain_lim(chain) for chain in (*towers._torsion_and_constant_chains(d, s, depth),
                                               quotient_chain(d, s, depth))]
        n_star = max(lim.certificate.stable_index for lim in lims)
        assert n_star <= min(lim.certificate.verified_through for lim in lims)
        rep = five_term_check(m, s)
        oracle = cyclic_completion_oracle(d, gens)
        assert (rep.hom_loc_mod_r, rep.hom_loc, rep.delta_invariants, rep.ext_invariants) \
            == (oracle["l1"], oracle["l2"], oracle["lambda"], oracle["ext"])
        with pytest.raises(NotStabilized):
            five_term_check(m, s, depth - 1)


class TestDepthValidation:
    @pytest.mark.parametrize("depth", [0, -1])
    def test_rejected(self, depth):
        m, s = z_mod(12), seq(2)
        for call in (quotient_stages, torsion_tower, constant_hom_tower, delta_truncated,
                     five_term_check):
            with pytest.raises(ValueError, match="depth"):
                call(m, s, depth)

    def test_zero_module_rejected_too(self):
        with pytest.raises(ValueError, match="depth"):
            delta_truncated(FPModule.zero(), seq(2), 0)


class TestFailureEvidence:
    """Z/8 at (2,) with depth 5: the quotient limit stabilizes, the torsion
    image chains are not confirmed, so Delta succeeds and five-term fails."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        towers.clear_caches()

    def check_delta(self):
        rep = delta_truncated(z_mod(8), seq(2), 5)
        assert rep.lambda_invariants == (8,) and rep.delta_equals_lambda

    def check_five_term(self):
        with pytest.raises(NotStabilized, match="image chains not confirmed") as info:
            five_term_check(z_mod(8), seq(2), 5)
        assert info.value.chains == [[[2], [4], [8], [8], [8]]]
        return info.value

    def test_delta_then_five_term(self):
        self.check_delta()
        self.check_five_term()
        self.check_delta()

    def test_five_term_then_delta(self):
        self.check_five_term()
        self.check_delta()
        self.check_five_term()

    def test_fresh_exception_per_call(self):
        first, second = self.check_five_term(), self.check_five_term()
        assert first is not second
        first.chains[0].clear()
        assert self.check_five_term().chains == [[[2], [4], [8], [8], [8]]]

    def test_free_factor_failure_repeats(self):
        free = FPModule.from_presentation([], gens=1)
        for _ in range(2):
            with pytest.raises(NotStabilized):
                delta_truncated(free, seq(2))


def refuse(*args, **kwargs):
    raise AssertionError("this tower must not be built")


class TestPerFactorMemos:
    """Delta reads only the quotient limit; the five-term block reads that
    same memo entry and builds the other two chains itself."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        towers.clear_caches()

    def test_cold_delta_builds_no_torsion_or_constant_tower(self, monkeypatch):
        monkeypatch.setattr(towers, "_torsion_and_constant_chains", refuse)
        assert delta_truncated(z_mod(12), seq(2)).lambda_invariants == (4,)

    def test_delta_after_five_term_builds_no_quotient_tower(self, monkeypatch):
        five = five_term_check(z_mod(12), seq(2))
        monkeypatch.setattr(towers, "quotient_chain", refuse)
        assert delta_truncated(z_mod(12), seq(2)).lambda_invariants == five.delta_invariants


def quadratic_image_chains(tower):
    """Per level, whether the final window confirms its image chain, by a
    scan: one HNF per (level, source) pair, composites built upwards from
    the level itself."""
    n = tower.depth
    w = tower.period
    mats = [f.mat() for f in tower.transitions]
    out = []
    for i in range(n):
        rel = tower.stages[i].relation_rows()
        gens = tower.stages[i].gens
        comp = [[1 if a == b else 0 for b in range(gens)] for a in range(gens)]
        lattices = [towers.hnf_rows(comp + rel)]
        for m in range(i + 1, n):
            comp = mat_mul(mats[m - 1], comp)
            lattices.append(towers.hnf_rows(comp + rel))
        out.append(len(lattices) >= w + 1 and lattices[-1] == lattices[-1 - w])
    return out


@pytest.fixture
def shared_hnf(monkeypatch):
    """The HNF oracles take HNFs of the same composites many times; computing
    each once keeps the exhaustive comparisons fast without changing any
    result."""
    cache = {}
    compute = towers.hnf_rows

    def cached(rows):
        key = tuple(map(tuple, rows))
        if key not in cache:
            cache[key] = compute(rows)
        return [row[:] for row in cache[key]]

    monkeypatch.setattr(towers, "hnf_rows", cached)


def level_maps(tower):
    """The levels ``tower_lim`` eliminates: per stage i, the map from one
    free module onto the top carrier rows in stage i."""
    carrier = carriers(tower, tower.depth - 1)
    free = FPModule(gens=tower.stages[-1].gens)
    return functools.cache(lambda i: Morphism.make(free, tower.stages[i], carrier[i]))


def confirmed_levels(tower):
    return reference_routes.confirmed_levels(tower, level_maps(tower))


def assert_same_chains(module, s, depth):
    for build in (quotient_tower, torsion_tower, constant_hom_tower):
        tower = build(module, s, depth)
        confirmed = quadratic_image_chains(tower) + [False]
        assert confirmed.index(False) == confirmed_levels(tower), \
            (module, s.generators, depth, build.__name__)


def chain_outcome(chain):
    try:
        lim = chain_lim(chain)
    except NotStabilized as exc:
        return str(exc), exc.chains
    return lim.certificate, merge_invariants([(lim.order,)])


def assert_chains_match_matrix_route(d, modulus, s, depth):
    """Each chain of Z/d (only the quotient chain of Z, d = 0) has the
    matrix tower's stage orders, certificate, limit and failure evidence."""
    module = FPModule.from_invariants([d], modulus=modulus)
    pairs = [(quotient_chain(d, s, depth), quotient_tower(module, s, depth))]
    if d:
        tor, con = towers._torsion_and_constant_chains(d, s, depth)
        pairs += [(tor, torsion_tower(module, s, depth)),
                  (con, constant_hom_tower(module, s, depth))]
    for chain, tower in pairs:
        label = (d, modulus, s.generators, depth, tower.stages[0])
        assert [stage.order() or 0 for stage in tower.stages] == chain.orders, label
        assert chain_outcome(chain) == lim_outcome(tower_lim, tower)[:2], label


@st.composite
def cyclic_factors(draw):
    """(d, modulus): Z, or Z/d over Z or over some Z/N with N < 2^61."""
    kind = draw(st.sampled_from(["Z", "Z/d", "Z/d over Z/N"]))
    if kind == "Z":
        return 0, 0
    # exponents of the primes the schedules invert, times a cofactor
    d = (2 ** draw(st.integers(0, 6)) * 3 ** draw(st.integers(0, 4))
         * 5 ** draw(st.integers(0, 3)) * draw(st.integers(1, 2 ** 40)))
    if kind == "Z/d":
        return d, 0
    return d, d * draw(st.integers(1, (2 ** 61 - 1) // d))


class TestChainRoute:
    """The chain route against the matrix route of the test copy."""

    def test_late_drop_z64_is_not_certified_early(self):
        # the torsion image chain of stage 2 is flat for 18 stages and drops
        # at stage 20, so depth 31 confirms levels 0..10 only
        s = seq(3, 5, 6)
        tor, _ = towers._torsion_and_constant_chains(64, s, 31)
        assert chain_lim(tor).certificate.verified_through == 10
        assert chain_outcome(tor) == lim_outcome(tower_lim, torsion_tower(z_mod(64), s, 31))[:2]

    @pytest.mark.parametrize("modulus", [0, 64])
    def test_battery_factors_at_and_below_certified_depth(self, modulus):
        for d in (d for d in range(1, 65) if not modulus or modulus % d == 0):
            for gens in GENERATOR_SETS:
                s = MultSubsetSeq(generators=gens)
                depth = certified_depth(d, s)
                for n in (depth, depth - 1):
                    assert_chains_match_matrix_route(d, modulus, s, n)

    @settings(max_examples=150, deadline=None)
    @given(factor=cyclic_factors(),
           gens=st.lists(st.sampled_from([-12, -6, -5, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 10,
                                          35]), min_size=1, max_size=3),
           depth=st.sampled_from(["certified", "one below", 1, 2, 3, 5, 12]))
    def test_matches_matrix_route(self, factor, gens, depth):
        d, modulus = factor
        s = MultSubsetSeq(generators=tuple(gens))
        if isinstance(depth, str):
            depth = certified_depth(d, s) - (depth == "one below")
        assert_chains_match_matrix_route(d, modulus, s, max(depth, 1))


class TestBisectedImageChains:
    def test_constant_window_is_not_a_certificate(self):
        # the level-2 torsion chain is constant from stage 2 through 19 (18
        # stages, six full windows of the period 3), then drops at stage 20
        t = torsion_tower(z_mod(64), seq(3, 5, 6), 31)
        rel = t.stages[2].relation_rows()
        images = [towers.hnf_rows(composite(t, 2, k) + rel) for k in range(2, 31)]
        assert images == [[[1]]] * 18 + [[[2]]] * 11
        assert confirmed_levels(t) == 11

    def test_matches_quadratic_scan_on_battery_towers(self, shared_hnf):
        for d in range(1, 65):
            m = z_mod(d)
            for gens in GENERATOR_SETS:
                s = MultSubsetSeq(generators=gens)
                assert_same_chains(m, s, certified_depth(d, s))

    @settings(max_examples=40, deadline=None)
    @given(inv=st.lists(st.sampled_from([0, 2, 3, 4, 6, 8, 9, 12, 16]), min_size=1, max_size=2),
           gens=st.lists(st.sampled_from([-2, 1, 2, 3, 4, 5, 6, 10]), min_size=1, max_size=3),
           depth=st.integers(min_value=1, max_value=14))
    def test_matches_quadratic_scan_sampled(self, inv, gens, depth):
        assert_same_chains(z_mod(*inv), MultSubsetSeq(generators=tuple(gens)), depth)


def kernel_route_lim(tower):
    """``tower_lim`` before lattice equality: the transition between stable
    images factored through the lower carrier, then tested for an isomorphism
    through its kernel and cokernel."""
    n = tower.depth
    w = tower.period
    carrier = carriers(tower, n - 1)
    i_max = confirmed_levels(tower) - 1
    if i_max < w:
        raise NotStabilized("image chains not confirmed within depth",
                            chains=[[list(s.invariants()) for s in tower.stages]])
    subs = {}

    def sub(i):
        if i not in subs:
            subs[i] = submodule_on_rows(tower.stages[i], carrier[i])
        return subs[i]

    def induced(j):
        rows = mat_mul(carrier[j + 1], tower.transitions[j].mat())
        coeffs = factor_through_submodule(rows, carrier[j], tower.stages[j])
        assert coeffs is not None, "stable image system is not closed under transitions"
        return Morphism.make(sub(j + 1), sub(j), coeffs)

    iso_down_to = i_max
    for j in range(i_max - 1, -1, -1):
        f = induced(j)
        if not (f.kernel()[0].is_zero() and f.is_surjective()):
            break
        iso_down_to = j
    if i_max - iso_down_to < w:
        raise NotStabilized("stable images keep changing through the truncation",
                            chains=[[list(canonical_invariants(list(sub(i).invariants()), 0))
                                     for i in range(i_max + 1)]])
    cert = towers.LimCertificate(stable_index=iso_down_to, verified_through=i_max)
    return TowerLimit(module=sub(iso_down_to), carriers=carrier,
                             certificate=cert)


def lim_outcome(lim, tower):
    try:
        r = lim(tower)
    except NotStabilized as exc:
        return str(exc), exc.chains
    return r.certificate, r.module.invariants(), r.carriers


def assert_same_limits(module, s, depth):
    for build in (quotient_tower, torsion_tower, constant_hom_tower):
        tower = build(module, s, depth)
        assert lim_outcome(kernel_route_lim, tower) == lim_outcome(tower_lim, tower), \
            (module, s.generators, depth, build.__name__)


class TestLatticeEqualityLimit:
    """``tower_lim`` decides each level by comparing the relation lattices of
    neighbouring stable images; the kernel and cokernel route must agree."""

    @pytest.mark.parametrize("module", [z_mod(12), z_mod(8, 2), z_mod(0, 6),
                                        FPModule(gens=2, relations=((2, 4),), modulus=8)])
    def test_carriers_compose_exactly(self, module):
        s = seq(2, 3)
        for build in (quotient_tower, torsion_tower, constant_hom_tower):
            tower = build(module, s, 7)
            carrier = carriers(tower, tower.depth - 1)
            for j in range(tower.depth - 1):
                assert carrier[j] == mat_mul(carrier[j + 1], tower.transitions[j].mat())
                assert carrier[j] == composite(tower, j, tower.depth - 1)

    def test_matches_kernel_route_on_battery_towers(self, shared_hnf):
        for d in range(1, 65):
            m = z_mod(d)
            for gens in GENERATOR_SETS:
                s = MultSubsetSeq(generators=gens)
                assert_same_limits(m, s, certified_depth(d, s))

    @settings(max_examples=100, deadline=None)
    @given(gens_count=st.integers(min_value=1, max_value=3),
           modulus=st.sampled_from([0, 0, 4, 6, 8, 12]),
           data=st.data(),
           schedule=st.lists(st.sampled_from([-2, 1, 2, 3, 4, 5, 6, 10]),
                             min_size=1, max_size=3),
           depth=st.integers(min_value=1, max_value=14))
    def test_matches_kernel_route_sampled(self, gens_count, modulus, data, schedule, depth):
        rows = data.draw(st.lists(st.lists(st.integers(-8, 8), min_size=gens_count,
                                           max_size=gens_count), max_size=3))
        module = FPModule.from_presentation(rows, gens=gens_count, modulus=modulus)
        assert_same_limits(module, MultSubsetSeq(generators=tuple(schedule)), depth)


def compare_five_term_routes(d, modulus, s, depth) -> bool:
    """Assert that the five-term block of Z/d from the chains agrees with
    the one of the matrix route, whose L1 and L2 re-eliminate the relations
    among the carrier rows at the common stage index and whose Lambda is
    the quotient stage there, and that the matrix limits' own modules have
    those lattices.  When the matrix route has no block at this depth, the
    chain route raises the same NotStabilized; then return False."""
    module = FPModule.from_invariants([d], modulus=modulus)
    tor, con, quo = (build(module, s, depth)
                     for build in (torsion_tower, constant_hom_tower, quotient_tower))
    label = (d, modulus, s.generators, depth)
    try:
        lims = [tower_lim(t) for t in (tor, con, quo)]
        n_star = max(lim.certificate.stable_index for lim in lims)
        verified = [lim.certificate.verified_through for lim in lims]
        if n_star > min(verified):
            raise NotStabilized(f"carriers are realized at stage {n_star} but the torsion, "
                                f"constant and quotient limits are verified through "
                                f"{verified}", chains=[verified])
    except NotStabilized as exc:
        with pytest.raises(NotStabilized) as info:
            towers._five_term_cyclic(d, s, depth)
        assert (str(info.value), info.value.chains) == (str(exc), exc.chains), label
        return False
    block = five_term_by_submodules(module, tor, con, quo, lims)
    assert block == towers._five_term_cyclic(d, s, depth), label
    for tower, lim in ((tor, lims[0]), (con, lims[1])):
        rows = composite(tower, n_star, tower.depth - 1)
        assert lim.carriers[n_star] == rows, label
        assert lim.module.relation_hnf() == \
            submodule_on_rows(tower.stages[n_star], rows).relation_hnf(), label
    assert lims[2].module.relation_hnf() == quo.stages[n_star].relation_hnf(), label
    return True


# schedules with a negative or a unit generator, beside the battery's
SIGNED_SETS = [(-2,), (1,), (-1, 2), (1, 3), (10, -3), (4, 9), (-6, 35)]


class TestFiveTermCarriersFromLimits:
    """The chain route's five-term block, with L1, L2 and Lambda on one
    generator each, agrees with the matrix route's, and fails where it
    fails."""

    def test_battery_cyclic_factors_at_certified_depth(self):
        for d in range(2, 65):
            for gens in GENERATOR_SETS:
                s = MultSubsetSeq(generators=gens)
                assert compare_five_term_routes(d, 0, s, certified_depth(d, s))

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(min_value=2, max_value=64),
           multiple=st.sampled_from([0, 0, 1, 2, 3]),
           gens=st.sampled_from(GENERATOR_SETS + SIGNED_SETS),
           depth=st.integers(min_value=1, max_value=40))
    def test_explicit_depths(self, d, multiple, gens, depth):
        compare_five_term_routes(d, multiple * d, MultSubsetSeq(generators=gens), depth)

    def test_z64_below_and_at_certified_depth(self):
        # the constant limit is verified through level 10 at depth 31 and the
        # common stage index is 17, so no block is read off those carriers
        assert not compare_five_term_routes(64, 0, seq(3, 5, 6), 31)
        assert compare_five_term_routes(64, 0, seq(3, 5, 6), 39)


@st.composite
def five_term_inputs(draw):
    """Z/d with torsion and constant chains whose orders and scalars are
    drawn freely rather than from a schedule, and limits read at one stable
    index: the torsion and quotient orders are any divisors of d, the
    constant order the one its carrier gives (d / gcd(d, c)).  So every
    joint can fail, which the towers of a module never make it do."""
    d = draw(st.integers(min_value=2, max_value=120))
    divs = [k for k in range(1, d + 1) if d % k == 0]
    n = draw(st.integers(min_value=1, max_value=5))
    scalars = st.lists(st.integers(min_value=-12, max_value=12).filter(bool),
                       min_size=n - 1, max_size=n - 1)
    tor = towers.Chain([draw(st.sampled_from(divs)) for _ in range(n)], draw(scalars), 1)
    con = towers.Chain([d] * n, draw(scalars), 1)
    n_star = draw(st.integers(min_value=0, max_value=n - 1))
    c = math.prod(con.scalars[n_star:])
    cert = towers.LimCertificate(stable_index=n_star, verified_through=n - 1)
    lims = [towers.ChainLimit(order, cert) for order in
            (draw(st.sampled_from(divs)), d // math.gcd(d, c), draw(st.sampled_from(divs)))]
    gens = draw(st.lists(st.integers(min_value=-9, max_value=9).filter(bool),
                         min_size=1, max_size=3))
    return d, d * draw(st.sampled_from([0, 1, 3])), seq(*gens), tor, con, lims


class TestFiveTermByGcds:
    """Each joint of the five-term block by gcds agrees with the same joint
    on ``fpmod`` maps over Z/N, also where it fails."""

    @settings(max_examples=400, deadline=None)
    @given(case=five_term_inputs())
    def test_matches_maps(self, case):
        d, modulus, s, tor, con, lims = case
        assert towers._five_term_assemble(d, s, tor, con, lims) == \
            reference_routes.five_term_on_maps(d, modulus, s, tor, con, lims)

    def test_every_combination_of_failed_joints(self):
        # two stages, both limits read at stage 0: all eight combinations of
        # the three exactness flags occur, and both routes give each
        flags = set()
        cert = towers.LimCertificate(stable_index=0, verified_through=1)
        for d in range(2, 7):
            divs = [k for k in range(1, d + 1) if d % k == 0]
            for a, c, o, e1, e3 in itertools.product(range(1, 5), range(1, 5),
                                                     divs, divs, divs):
                tor, con = towers.Chain([o, o], [a], 1), towers.Chain([d, d], [c], 1)
                lims = [towers.ChainLimit(e, cert) for e in (e1, d // math.gcd(d, c), e3)]
                block = towers._five_term_assemble(d, seq(2), tor, con, lims)
                assert block == reference_routes.five_term_on_maps(d, 0, seq(2), tor, con,
                                                                   lims)
                flags.add((block.exact_at_hom_loc, block.exact_at_module,
                           block.injective_start))
        assert len(flags) == 8


class TestKnownWrongAnswer:
    """Z/64 at (3, 5, 6): the quotient plateau starts at n_star = 17, and
    the constant tower's limit is verified through level 10 at depth 31."""

    def test_z64_hom_from_localization(self):
        # 2 is inverted, so nothing nonzero maps from the localization into Z/64
        m, s = z_mod(64), seq(3, 5, 6)
        assert certified_depth(64, s) == 39
        assert five_term_check(m, s).hom_loc == ()

    def test_unverified_carriers_are_not_read(self):
        with pytest.raises(NotStabilized, match="carriers are realized at stage 17"):
            five_term_check(z_mod(64), seq(3, 5, 6), depth=31)
        # Delta reads only the quotient limit, which is certified there
        assert delta_truncated(z_mod(64), seq(3, 5, 6), 31).lambda_invariants == (64,)


class TestCompletionOracle:
    """Criterion 6 compares the engine with this oracle on its full corpus
    (``test_acceptance.py``); here the modules over Z/N."""

    def test_closed_form(self):
        assert cyclic_completion_oracle(12, (2,)) == {"l1": (), "l2": (3,),
                                                      "lambda": (4,), "ext": ()}
        assert cyclic_completion_oracle(7, (-1, 2)) == {"l1": (), "l2": (7,),
                                                        "lambda": (), "ext": ()}
        assert cyclic_completion_oracle(30, (-6, 35)) == {"l1": (), "l2": (),
                                                          "lambda": (30,), "ext": ()}

    def test_engine_agrees_on_cyclic_modules_over_z_mod_n(self):
        for n in range(2, 129):
            for d in (d for d in range(2, n + 1) if n % d == 0):
                m = FPModule.from_invariants([d], modulus=n)
                for gens in GENERATOR_SETS + SIGNED_SETS:
                    rep = five_term_check(m, seq(*gens))
                    oracle = cyclic_completion_oracle(d, gens)
                    assert (rep.hom_loc_mod_r, rep.hom_loc, rep.delta_invariants,
                            rep.ext_invariants) == (oracle["l1"], oracle["l2"],
                                                    oracle["lambda"], oracle["ext"]), \
                        (n, d, gens)


def stacked_dual_homology(schedule, d, modulus):
    """The telescope engine's homology before both groups came from the Smith
    factors: H0 from the stacked presentation [dual; d*I] and its SNF."""
    n = len(schedule)
    rows = [list(col) for col in zip(*towers._two_term(schedule))]
    if d:
        rows += [[d if j == i else 0 for j in range(n)] for i in range(n)]
    h0 = FPModule.from_presentation(rows, gens=n, modulus=modulus).invariants()
    h1 = merge_invariants([(math.gcd(x, d),) for x in towers._dual_factors(schedule)
                           if d or x == 0])
    return h0, h1


def battery_schedules(max_n=8):
    for gens in GENERATOR_SETS:
        s = MultSubsetSeq(generators=gens)
        for n in range(1, max_n + 1):
            yield tuple(s.s(k) for k in range(1, n + 1))


@st.composite
def telescope_modules(draw):
    """A module over Z with at least one free factor beside torsion ones,
    from its invariants or from a presentation with fewer relations than
    generators; or a module over Z/N with a free summand Z/N or without."""
    kind = draw(st.sampled_from(["z", "z presented", "z/n"]))
    if kind == "z":
        torsion = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 25, 36]), max_size=3))
        free = draw(st.integers(min_value=1, max_value=2))
        order = draw(st.permutations(torsion + [0] * free))
        return FPModule.from_invariants(order)
    if kind == "z presented":
        g = draw(st.integers(min_value=1, max_value=3))
        rows = draw(st.lists(st.lists(st.integers(min_value=-12, max_value=12),
                                      min_size=g, max_size=g), max_size=g - 1))
        return FPModule.from_presentation(rows, gens=g)
    modulus = draw(st.sampled_from([2, 6, 12, 36, 64, 360]))
    divisors = [d for d in range(2, modulus + 1) if modulus % d == 0]
    return FPModule.from_invariants(draw(st.lists(st.sampled_from(divisors), max_size=3)),
                                    modulus=modulus)


class TestTelescopeFreeSummands:
    """H0 and H1 of the engine route equal the stacked route merged over the
    cyclic factors, and the direct route, on modules with free factors over
    Z and on modules over Z/N; a finite factor's H1 is its H0."""

    @settings(max_examples=300, deadline=None)
    @given(module=telescope_modules(),
           gens=st.lists(st.sampled_from([-6, -2, -1, 2, 3, 5, 6, 7, 10]), min_size=1,
                         max_size=3),
           n=st.integers(min_value=1, max_value=9))
    def test_engine_against_stacked_and_direct_routes(self, module, gens, n):
        s = seq(*gens)
        rep = telescope_homology_check(s, n, module)
        blocks = [stacked_dual_homology(s.schedule(n), d, module.modulus)
                  for d in module.invariants()]
        assert rep.h0_engine == merge_invariants(h0 for h0, _ in blocks)
        assert rep.h1_engine == merge_invariants(h1 for _, h1 in blocks)
        assert (rep.h0_direct, rep.h1_direct) == (rep.h0_engine, rep.h1_engine)
        assert rep.passed()
        # with t_n = s_1 ... s_n: Z gives Z/t_n and 0, Z/d gives Z/gcd(d, t_n) twice
        t_n = s.t(n)
        free = module.invariants().count(0)
        assert rep.h1_engine == merge_invariants(
            (math.gcd(d, t_n),) for d in module.invariants() if d)
        assert rep.h0_engine == merge_invariants(
            [rep.h1_engine] + [(abs(t_n),)] * free)

    def test_free_factor_h1_differs_from_h0(self):
        rep = telescope_homology_check(seq(2, 3), 3, z_mod(0, 4))
        assert rep.h0_engine == (4, 12) and rep.h1_engine == (4,)
        assert rep.passed()


class TestTelescopeSmithRoute:
    """H0 and H1 of the dual telescope both come from its Smith factors; the
    stacked-presentation route and the closed form Z/gcd(d, t_n) agree."""

    def test_matches_stacked_presentation_over_z(self):
        for schedule in set(battery_schedules()):
            t_n = math.prod(schedule)
            for d in range(65):
                h0, h1 = towers._telescope_dual_homology(schedule, d)
                assert (h0, h1) == stacked_dual_homology(schedule, d, 0), (schedule, d)
                assert h0 == merge_invariants([(math.gcd(d, t_n),)])
                assert h1 == (merge_invariants([(math.gcd(d, t_n),)]) if d else ())

    @pytest.mark.parametrize("modulus", [12, 36, 64])
    def test_matches_stacked_presentation_over_z_mod_n(self, modulus):
        divisors = [d for d in range(2, modulus + 1) if modulus % d == 0]
        for schedule in set(battery_schedules()):
            for d in divisors:
                assert (towers._telescope_dual_homology(schedule, d)
                        == stacked_dual_homology(schedule, d, modulus)), (schedule, d)
        for gens in GENERATOR_SETS:
            for d in divisors:
                module = FPModule.from_invariants([d, modulus], modulus=modulus)
                for n in range(1, 9):
                    assert telescope_homology_check(seq(*gens), n, module).passed()

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            telescope_homology_check(seq(2), 0, z_mod(4))

    def test_no_complex_built_per_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("telescope_homology_check built a TelescopeComplex")

        monkeypatch.setattr(towers, "telescope_complex", refuse)
        towers.clear_caches()
        assert telescope_homology_check(seq(2, 3), 4, z_mod(12, 0)).passed()
        assert criterion_5(groups=[(4,), (2, 6)])["pass"]


@st.composite
def dense_modules(draw):
    """A dense random presentation: over Z of full rank, over Z with free
    rank (fewer relations than generators), or over Z/N with N up to
    2^61 - 1 and relation entries anywhere in [0, N)."""
    kind = draw(st.sampled_from(["z full", "z free", "z/n"]))
    if kind == "z/n":
        modulus = draw(st.one_of(st.sampled_from([2, 12, 360, 2 ** 61 - 1]),
                                 st.integers(min_value=2, max_value=2 ** 61 - 1)))
        g = draw(st.integers(min_value=0, max_value=3))
        entries, sizes = st.integers(min_value=0, max_value=modulus - 1), (0, 3)
    else:
        modulus = 0
        g = draw(st.integers(min_value=1, max_value=3))
        entries = st.integers(min_value=-40, max_value=40)
        sizes = (g, g + 2) if kind == "z full" else (0, g - 1)
    rows = draw(st.lists(st.lists(entries, min_size=g, max_size=g),
                         min_size=sizes[0], max_size=sizes[1]))
    module = FPModule.from_presentation(rows, gens=g, modulus=modulus)
    if kind == "z full":
        assume(module.order() is not None)
    return module


def unreduced_homology(module, t):
    mul = Morphism.multiplication(module, t)
    return mul.cokernel().invariants(), mul.kernel()[0].invariants()


class TestScalarHomology:
    """The direct route multiplies by gcd(t, a), a = |M| (0 with free rank):
    t Z^g + L = gcd(t, a) Z^g + L and t x in L iff gcd(t, a) x in L, so the
    cokernel and the kernel are those of multiplication by t itself."""

    @settings(max_examples=300, deadline=None)
    @given(module=dense_modules(), data=st.data())
    def test_reduced_scalar_matches_unreduced_multiplication(self, module, data):
        order = module.order() or 0
        kind = data.draw(st.sampled_from(["any", "zero", "unit", "multiple", "coprime"]))
        t = data.draw(st.integers(min_value=1, max_value=2 ** 64))
        if kind == "zero":
            t = 0
        elif kind == "unit":
            t = 1
        elif kind == "multiple":
            t = data.draw(st.integers(min_value=1, max_value=6)) * order
        elif kind == "coprime":
            while math.gcd(t, order) > 1:
                t //= math.gcd(t, order)
        t *= data.draw(st.sampled_from([1, -1]))
        scalar = math.gcd(t, towers._hnf_order(module))
        assert towers._scalar_homology(module, scalar) == unreduced_homology(module, t)

    def test_hnf_order_is_the_order(self):
        for module in (z_mod(12), z_mod(2, 6), z_mod(0, 4), FPModule.zero(),
                       FPModule.from_presentation([[2, 4], [6, 9]]),
                       FPModule.from_presentation([[3, 1]], gens=2),
                       FPModule.from_invariants([4, 6], modulus=12),
                       FPModule(gens=2, modulus=7)):
            assert towers._hnf_order(module) == (module.order() or 0), module

    def test_direct_route_reads_neither_invariants_nor_engine_memos(self, monkeypatch):
        """In a cold check, ``module.invariants()`` is read once and the
        engine's homology once per cyclic factor, both by the engine route,
        which here takes the closed form Z/gcd(d, t_n); the Smith factors
        are never read.  So the direct route reads none of them."""
        module = FPModule.from_presentation([[2, 4, 0], [6, 9, 3], [0, 0, 5]])
        reads, engine = [], []
        real = FPModule.invariants

        def invariants(self):
            if self is module:
                reads.append(self)
            return real(self)

        def homology(schedule, d):
            engine.append(d)
            h0 = merge_invariants([(math.gcd(d, math.prod(schedule)),)])
            return h0, h0 if d else ()

        def refuse(*args):
            raise AssertionError("the Smith factors were read")

        towers.clear_caches()
        monkeypatch.setattr(FPModule, "invariants", invariants)
        monkeypatch.setattr(towers, "_telescope_dual_homology", homology)
        monkeypatch.setattr(towers, "_dual_factors", refuse)
        rep = telescope_homology_check(seq(2, 3), 5, module)
        assert len(reads) == 1 and len(engine) == len(real(module))
        assert (rep.h0_direct, rep.h1_direct) == unreduced_homology(module, seq(2, 3).t(5))
        assert rep.passed()

    def test_cold_criterion_5_eliminates_once_per_distinct_answer(self, monkeypatch):
        """A cold quick criterion 5 made 4,583 eliminations with one per
        check; with the scalar reduced, the memo answers all but a few."""
        towers.clear_caches()
        calls = []
        real = intlinalg._eliminate

        def spy(rows, cols):
            calls.append(cols)
            return real(rows, cols)

        monkeypatch.setattr(intlinalg, "_eliminate", spy)
        monkeypatch.setattr(fpmod, "_eliminate", spy)
        assert criterion_5(groups=abelian_groups_upto(24))["pass"]
        assert len(calls) <= 500, len(calls)


def two_hnf_confirmed_levels(tower, top):
    """``_confirmed_levels`` before the inclusion argument: the HNFs of the
    images from the top and from one window below, compared."""
    n = tower.depth
    w = tower.period
    if n <= w:
        return 0
    below = carriers(tower, n - 1 - w)
    for i in range(n - w):
        rel = tower.stages[i].relation_rows()
        if towers.hnf_rows(top[i] + rel) != towers.hnf_rows(below[i] + rel):
            return i
    return n - w


def confirmation_outcomes(tower):
    return confirmed_levels(tower), lim_outcome(tower_lim, tower)


def two_hnf_route():
    # the oracle reads the top carriers itself, in place of the level echelons
    return mock.patch.object(
        reference_routes, "confirmed_levels",
        lambda tower, level: two_hnf_confirmed_levels(
            tower, carriers(tower, tower.depth - 1)))


def assert_same_confirmation(tower, label):
    new = confirmation_outcomes(tower)
    with two_hnf_route():
        old = confirmation_outcomes(tower)
    assert new == old, label


class TestOneHnfConfirmation:
    """One HNF per level confirms exactly the levels two HNFs did, so the
    limits and their certificates stay the same."""

    def test_battery_cyclic_factors(self, shared_hnf):
        factors = sorted({d for g in abelian_groups_upto(24)
                          for d in FPModule.from_invariants(list(g)).invariants()})
        for d in factors:
            m = z_mod(d)
            for gens in GENERATOR_SETS:
                s = MultSubsetSeq(generators=gens)
                depth = certified_depth(d, s)
                for build in (quotient_tower, torsion_tower, constant_hom_tower):
                    assert_same_confirmation(build(m, s, depth), (d, gens, build.__name__))

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 10])
    def test_free_tower_of_weakly_cotorsion_report(self, m):
        free = FPModule.from_presentation([], gens=1)
        tower = quotient_tower(free, seq(m), DEFAULT_DEPTH)
        assert_same_confirmation(tower, m)
        if m > 1:
            # the report's chain verdict is the matrix route's
            stabilized = not isinstance(lim_outcome(tower_lim, tower)[0], str)
            assert weakly_cotorsion_report(free, m)["free_part_stabilized"] == stabilized

    def test_late_drop_z64(self):
        # the level-2 torsion chain is constant through stage 19 and drops at 20
        m, s = z_mod(64), seq(3, 5, 6)
        for build in (quotient_tower, torsion_tower, constant_hom_tower):
            assert_same_confirmation(build(m, s, 31), build.__name__)
        t = torsion_tower(m, s, 31)
        assert two_hnf_confirmed_levels(t, carriers(t, t.depth - 1)) == 11

    @settings(max_examples=100, deadline=None)
    @given(gens_count=st.integers(min_value=1, max_value=3),
           modulus=st.sampled_from([0, 0, 4, 6, 8, 12]),
           data=st.data(),
           schedule=st.lists(st.sampled_from([-2, 1, 2, 3, 4, 5, 6, 10]),
                             min_size=1, max_size=3),
           depth=st.integers(min_value=1, max_value=14))
    def test_sampled_presentations(self, gens_count, modulus, data, schedule, depth):
        # several generators, so the confirmation tests several rows per level
        rows = data.draw(st.lists(st.lists(st.integers(-8, 8), min_size=gens_count,
                                           max_size=gens_count), max_size=3))
        module = FPModule.from_presentation(rows, gens=gens_count, modulus=modulus)
        s = MultSubsetSeq(generators=tuple(schedule))
        for build in (quotient_tower, torsion_tower, constant_hom_tower):
            assert_same_confirmation(build(module, s, depth), (rows, modulus, build.__name__))


def hnf_level_lim(tower):
    """``tower_lim`` before one echelon per level: an HNF of each level's top
    carrier plus the relations confirms the level, and a second elimination
    (``submodule_on_rows``) presents each stable image."""
    n = tower.depth
    w = tower.period
    carrier = carriers(tower, n - 1)
    confirmed = 0
    if n > w:
        below = carriers(tower, n - 1 - w)
        confirmed = n - w
        for i in range(n - w):
            lattice = towers.hnf_rows(carrier[i] + tower.stages[i].relation_rows())
            if not all(lattice_member(lattice, row) for row in below[i]):
                confirmed = i
                break
    i_max = confirmed - 1
    if i_max < w:
        raise NotStabilized("image chains not confirmed within depth",
                            chains=[[list(s.invariants()) for s in tower.stages]])
    sub = [submodule_on_rows(tower.stages[i], carrier[i]) for i in range(i_max + 1)]
    iso_down_to = i_max
    for j in range(i_max - 1, -1, -1):
        if sub[j + 1].relation_hnf() != sub[j].relation_hnf():
            break
        iso_down_to = j
    if i_max - iso_down_to < w:
        raise NotStabilized("stable images keep changing through the truncation",
                            chains=[[list(canonical_invariants(list(m.invariants()), 0))
                                     for m in sub]])
    cert = towers.LimCertificate(stable_index=iso_down_to, verified_through=i_max)
    return TowerLimit(module=sub[iso_down_to], carriers=carrier,
                             certificate=cert)


def limit_summary(lim, tower):
    try:
        r = lim(tower)
    except NotStabilized as exc:
        return str(exc), exc.chains
    return (r.certificate, r.module.relation_hnf(), r.module.invariants(), r.carriers)


def solved_torsion_transitions(module, s, tower):
    """Torsion transitions before exact coordinates: s_{k+2} times the
    inclusion rows of stage k + 1, solved modulo the relations of the module
    on the inclusion rows of stage k."""
    out = []
    for k in range(tower.depth - 1):
        rows = [[s.s(k + 2) * x for x in row] for row in tower.stage_inclusions[k + 1].mat()]
        coeffs = factor_through_submodule(rows, tower.stage_inclusions[k].mat(), module)
        assert coeffs is not None
        out.append(Morphism.make(tower.stages[k + 1], tower.stages[k], coeffs))
    return out


def assert_echelon_routes_agree(module, s, depth):
    for build in (quotient_tower, torsion_tower, constant_hom_tower):
        tower = build(module, s, depth)
        label = (module, s.generators, depth, build.__name__)
        summary = limit_summary(tower_lim, tower)
        assert summary == limit_summary(hnf_level_lim, tower), label
        assert summary == limit_summary(echelon_level_lim, tower), label
    tor = torsion_tower(module, s, depth)
    for k, (new, old) in enumerate(zip(tor.transitions,
                                       solved_torsion_transitions(module, s, tor))):
        assert new.is_well_defined(), (module, s.generators, k)
        assert new.equals(old), (module, s.generators, k)


class TestOneEchelonPerLevel:
    """``tower_lim`` confirms each level on the echelon rows of one
    elimination and reads the stable image's relations off its transform;
    torsion transitions are exact coordinates in the lower stage's HNF
    inclusion rows.  Both agree with the routes they replaced."""

    def test_battery_cyclic_factors(self, shared_hnf):
        for d in range(1, 65):
            for gens in GENERATOR_SETS:
                s = MultSubsetSeq(generators=gens)
                assert_echelon_routes_agree(z_mod(d), s, certified_depth(d, s))

    def test_z64_late_drop(self):
        assert_echelon_routes_agree(z_mod(64), seq(3, 5, 6), 31)
        assert_echelon_routes_agree(z_mod(64), seq(3, 5, 6), 39)

    @settings(max_examples=100, deadline=None)
    @given(gens_count=st.integers(min_value=1, max_value=3),
           data=st.data(),
           schedule=st.lists(st.sampled_from([-2, 1, 2, 3, 4, 5, 6, 10]),
                             min_size=1, max_size=3),
           depth=st.integers(min_value=1, max_value=14))
    def test_sampled_presentations_over_z(self, gens_count, data, schedule, depth):
        rows = data.draw(st.lists(st.lists(st.integers(-8, 8), min_size=gens_count,
                                           max_size=gens_count), max_size=3))
        module = FPModule.from_presentation(rows, gens=gens_count)
        assert_echelon_routes_agree(module, MultSubsetSeq(generators=tuple(schedule)), depth)

    @settings(max_examples=100, deadline=None)
    @given(gens_count=st.integers(min_value=1, max_value=3),
           modulus=st.sampled_from([2, 4, 6, 8, 12, 36, 64, 360]),
           data=st.data(),
           schedule=st.lists(st.sampled_from([-2, 1, 2, 3, 4, 5, 6, 10]),
                             min_size=1, max_size=3),
           depth=st.integers(min_value=1, max_value=14))
    def test_sampled_modules_over_z_mod_n(self, gens_count, modulus, data, schedule, depth):
        rows = data.draw(st.lists(st.lists(st.integers(-modulus, modulus),
                                           min_size=gens_count, max_size=gens_count),
                                  max_size=3))
        module = FPModule.from_presentation(rows, gens=gens_count, modulus=modulus)
        assert_echelon_routes_agree(module, MultSubsetSeq(generators=tuple(schedule)), depth)
