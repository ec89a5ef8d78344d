import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multloc import towers
from multloc.battery import GENERATOR_SETS
from multloc.fpmod import FPModule, Morphism, canonical_invariants, factor_through_submodule
from multloc.intlinalg import mat_mul
from multloc.towers import (
    MultSubsetSeq,
    NotStabilized,
    Tower,
    adequate_depth,
    constant_hom_tower,
    delta_truncated,
    divisibility_report,
    five_term_check,
    is_weakly_cotorsion_fg,
    quotient_tower,
    telescope_complex,
    telescope_homology_check,
    torsion_submodule,
    torsion_tower,
    tower_lim,
    tower_lim1,
    weakly_cotorsion_report,
)


def seq(*gens, modulus=0):
    return MultSubsetSeq(generators=tuple(gens), modulus=modulus)


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultSubsetSeq(generators=())
        with pytest.raises(ValueError):
            MultSubsetSeq(generators=(0,))


class TestTorsionSubmodule:
    def test_z12_at_2(self):
        g = torsion_submodule(z_mod(12), seq(2))
        assert g.carrier.invariants() == (4,)
        assert g.witness == 4

    def test_free_module(self):
        g = torsion_submodule(FPModule.from_presentation([], gens=1), seq(2))
        assert g.carrier.is_zero()

    def test_z9_at_2(self):
        g = torsion_submodule(z_mod(9), seq(2))
        assert g.carrier.is_zero()


class TestTowers:
    def test_quotient_tower_z12(self):
        t = quotient_tower(z_mod(12), seq(2), 4)
        assert t.stage_invariants() == [(2,), (4,), (4,), (4,)]
        assert all(f.is_surjective() for f in t.transitions)

    def test_quotient_tower_free(self):
        t = quotient_tower(FPModule.from_presentation([], gens=1), seq(2), 3)
        assert t.stage_invariants() == [(2,), (4,), (8,)]

    def test_quotient_tower_invertible(self):
        t = quotient_tower(z_mod(5), seq(2), 3)
        assert all(inv == () for inv in t.stage_invariants())

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


class TestTowerLim:
    def test_quotient_z12(self):
        t = quotient_tower(z_mod(12), seq(2), 12)
        lim = tower_lim(t)
        assert lim.module.invariants() == (4,)
        assert lim.certificate.stable_index == 1

    def test_constant_identity(self):
        m = z_mod(3)
        stages = [m] * 6
        trans = [Morphism.identity(m) for _ in range(5)]
        lim = tower_lim(Tower(stages=stages, transitions=trans))
        assert lim.module.invariants() == (3,)

    def test_growing_not_stabilized(self):
        t = quotient_tower(FPModule.from_presentation([], gens=1), seq(2), 8)
        with pytest.raises(NotStabilized):
            tower_lim(t)

    def test_idempotent(self):
        t = quotient_tower(z_mod(12), seq(2), 12)
        lim = tower_lim(t)
        # rebuild the stable-image tower and take the limit again
        n0 = lim.certificate.stable_index
        hi = lim.certificate.verified_through
        stages = []
        rows = {}
        from multloc.towers import _submodule_on_rows
        for i in range(n0, hi + 1):
            rows[i] = t.composite(i, t.depth - 1)
            stages.append(_submodule_on_rows(t.stages[i], rows[i]))
        from multloc.fpmod import factor_through_submodule
        trans = []
        for k in range(len(stages) - 1):
            i = n0 + k
            mapped = mat_mul(rows[i + 1], t.transitions[i].mat())
            coeffs = factor_through_submodule(mapped, rows[i], t.stages[i])
            trans.append(Morphism.make(stages[k + 1], stages[k], coeffs))
        lim2 = tower_lim(Tower(stages=stages, transitions=trans))
        assert lim2.module.invariants() == lim.module.invariants()


class TestTowerLim1:
    def test_finite_always_zero(self):
        t = torsion_tower(z_mod(12), seq(2), 8)
        v = tower_lim1(t)
        assert v.is_zero()
        assert v.certificate_kind == "finite_stages"

    def test_constant_identity_zero(self):
        m = z_mod(3)
        t = Tower(stages=[m] * 6, transitions=[Morphism.identity(m)] * 5)
        assert tower_lim1(t).is_zero()

    def test_shrinking_unknown(self):
        free = FPModule.from_presentation([], gens=1)
        t = constant_hom_tower(free, seq(2), 8)
        v = tower_lim1(t)
        assert v.verdict == "unknown"
        assert v.witness_chain is not None


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

    def test_witnesses_random(self):
        rng = random.Random(77)
        for _ in range(25):
            gens = tuple(rng.choice([2, 3, 5, 6]) for _ in range(rng.randint(1, 3)))
            n = rng.randint(1, 6)
            tc = telescope_complex(MultSubsetSeq(generators=gens), n)
            checks = tc.verify_witnesses()
            assert checks["all_ok"], (gens, n, checks)

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


class TestDivisibility:
    def test_z5_divisible_by_2(self):
        rep = divisibility_report(z_mod(5), seq(2))
        assert rep.divisible and rep.h_divisible

    def test_z4_not_divisible(self):
        rep = divisibility_report(z_mod(4), seq(2))
        assert not rep.divisible
        assert rep.max_divisible_invariants == ()

    def test_z12_divisible_part(self):
        rep = divisibility_report(z_mod(12), seq(2))
        assert not rep.divisible
        assert rep.max_divisible_invariants == (3,)


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
        assert rep.module_invariants == ()

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


class TestAdequateDepth:
    def test_worst_case_certifies(self):
        # the deepest battery case: full 2-exponent with the 4-generator set
        m = z_mod(64)
        s = seq(2, 3, 5, 6)
        assert adequate_depth(m, s) > 4 * 6 + 4
        rep = five_term_check(m, s)
        assert rep.exact_everywhere()
        assert rep.delta_invariants == (64,)

    def test_default_floor(self):
        assert adequate_depth(z_mod(2), seq(2)) == 12


class TestDepthValidation:
    @pytest.mark.parametrize("depth", [0, -1])
    def test_rejected(self, depth):
        m, s = z_mod(12), seq(2)
        for call in (quotient_tower, torsion_tower, constant_hom_tower, delta_truncated,
                     five_term_check, torsion_submodule, divisibility_report):
            with pytest.raises(ValueError, match="depth"):
                call(m, s, depth)

    def test_zero_module_rejected_too(self):
        with pytest.raises(ValueError, match="depth"):
            delta_truncated(FPModule.zero(), seq(2), 0)


class TestFailureEvidence:
    """Z/8 at (2,) with depth 5: the quotient limit stabilizes, the torsion
    image chains are not confirmed, so Delta succeeds and five-term fails."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(towers, "_COMPLETION_MEMO", {})

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


def quadratic_image_chains(tower):
    """The image-chain routine before bisection: one HNF per (level, source)
    pair, then a scan for the first source giving the stable image."""
    n = tower.depth
    w = tower.window()
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
        stable = stable_at = None
        if len(lattices) >= w + 1 and lattices[-1] == lattices[-1 - w]:
            stable = lattices[-1]
            stable_at = i + next(k for k in range(len(lattices)) if lattices[k] == stable)
        out.append((stable, stable_at))
    return out


@pytest.fixture
def shared_hnf(monkeypatch):
    """Both chain routines take HNFs of the same composites; computing each
    once keeps the exhaustive comparison fast without changing any result."""
    cache = {}
    compute = towers.hnf_rows

    def cached(rows):
        key = tuple(map(tuple, rows))
        if key not in cache:
            cache[key] = compute(rows)
        return [row[:] for row in cache[key]]

    monkeypatch.setattr(towers, "hnf_rows", cached)


def assert_same_chains(module, s, depth):
    for build in (quotient_tower, torsion_tower, constant_hom_tower):
        tower = build(module, s, depth)
        assert quadratic_image_chains(tower) == list(towers._stable_image_chains(tower)), \
            (module, s.generators, depth, build.__name__)


class TestBisectedImageChains:
    def test_constant_window_is_not_a_certificate(self):
        # the level-2 torsion chain is constant for 18 stages, then drops at 20
        t = torsion_tower(z_mod(64), seq(3, 5, 6), 31)
        assert tower_lim(t).certificate.image_stable_at == \
            [0, 1, 20, 20, 20, 23, 23, 23, 26, 26, 26]

    def test_matches_quadratic_scan_on_battery_towers(self, shared_hnf):
        for d in range(1, 65):
            m = z_mod(d)
            for gens in GENERATOR_SETS:
                s = MultSubsetSeq(generators=gens)
                assert_same_chains(m, s, adequate_depth(m, s))

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
    w = tower.window()
    stable_at = []
    for stable, at in towers._stable_image_chains(tower):
        if stable is None:
            break
        stable_at.append(at)
    i_max = len(stable_at) - 1
    if i_max < w:
        raise NotStabilized("image chains not confirmed within depth",
                            chains=[[list(s.invariants()) for s in tower.stages]])
    carrier = towers._carriers(tower, n - 1)
    subs = {}

    def sub(i):
        if i not in subs:
            subs[i] = towers._submodule_on_rows(tower.stages[i], carrier[i])
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
                            chains=[[canonical_invariants(list(sub(i).invariants()), 0)
                                     for i in range(i_max + 1)]])
    cert = towers.LimCertificate(stable_index=iso_down_to, verified_through=i_max,
                                 image_stable_at=stable_at)
    return towers.TowerLimit(module=sub(iso_down_to), carrier_rows=carrier[iso_down_to],
                             stage_index=iso_down_to, certificate=cert)


def lim_outcome(lim, tower):
    try:
        r = lim(tower)
    except NotStabilized as exc:
        return str(exc), exc.chains
    return r.stage_index, r.certificate, r.module.invariants(), r.carrier_rows


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
            carrier = towers._carriers(tower, tower.depth - 1)
            for j in range(tower.depth - 1):
                assert carrier[j] == mat_mul(carrier[j + 1], tower.transitions[j].mat())
                assert carrier[j] == tower.composite(j, tower.depth - 1)

    def test_matches_kernel_route_on_battery_towers(self, shared_hnf):
        for d in range(1, 65):
            m = z_mod(d)
            for gens in GENERATOR_SETS:
                s = MultSubsetSeq(generators=gens)
                assert_same_limits(m, s, adequate_depth(m, s))

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


class TestKnownWrongAnswer:
    @pytest.mark.xfail(strict=True, reason="carriers are realized at n_star = 17, but the "
                       "constant tower's limit is only verified through level 10")
    def test_z64_hom_from_localization(self):
        # 2 is inverted, so nothing nonzero maps from the localization into Z/64
        m, s = z_mod(64), seq(3, 5, 6)
        assert adequate_depth(m, s) == 31
        assert five_term_check(m, s).hom_loc == ()
