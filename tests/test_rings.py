import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multloc.fpmod import FPModule
from multloc.rings import (
    ArtinianQuadrupleReport,
    BasePID,
    FactorizationBound,
    NotADivisor,
    NotInS1,
    NotInS2,
    Poly,
    ZeroPolynomial,
    artinian_quadruple_check,
    classify_S1_S2,
    content,
    is_projective_over_Z_mod_s,
    projectivity_oracle_direct_summand,
    _is_prime,
    _monic_polys,
    strongly_flat_criterion_fg,
)


def trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimality:
    def test_matches_trial_division(self):
        assert [n for n in range(-3, 10 ** 5) if _is_prime(n)] == \
            [n for n in range(-3, 10 ** 5) if trial_division_prime(n)]

    def test_nineteen_digit_values(self):
        assert not _is_prime(3825123056546413051)
        assert _is_prime(1000000000000000003)

    def test_beyond_exact_bound_rejected(self):
        with pytest.raises(ValueError, match="only decided below"):
            BasePID(p=3317044064679887385961981)


class TestContent:
    def test_coprime_coefficients(self):
        assert content(Poly.over_z([15, 10, 6])) == 1

    def test_common_factor(self):
        assert content(Poly.over_z([6, 4])) == 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            content(Poly.over_z([]))
        with pytest.raises(ZeroPolynomial):
            content(Poly.over_z([0, 0]))

    def test_negative_normalized(self):
        assert content(Poly.over_z([-4, -6])) == 2

    def test_gauss_multiplicativity_z(self):
        rng = random.Random(500)
        for _ in range(500):
            f = Poly.over_z([rng.randint(-20, 20) for _ in range(rng.randint(1, 5))])
            g = Poly.over_z([rng.randint(-20, 20) for _ in range(rng.randint(1, 5))])
            if f.is_zero() or g.is_zero():
                continue
            assert content(f.mul(g)) == content(f) * content(g)

    def test_gauss_multiplicativity_gfp(self):
        rng = random.Random(501)
        base = BasePID(p=3)
        def rand_elt():
            return tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        for _ in range(500):
            f = Poly(base, tuple(rand_elt() for _ in range(rng.randint(1, 4))))
            g = Poly(base, tuple(rand_elt() for _ in range(rng.randint(1, 4))))
            if f.is_zero() or g.is_zero():
                continue
            assert content(f.mul(g)) == base.mul(content(f), content(g))

    def test_monic_normalization_gfp(self):
        base = BasePID(p=5)
        # coefficients 2t and 4t^2: gcd is t, normalized monic
        f = Poly(base, ((0, 2), (0, 0, 4)))
        assert content(f) == (0, 1)


class TestClassify:
    def test_constant_seven(self):
        # in S1 (nonzero constant), not in S2 (content 7)
        assert classify_S1_S2(Poly.over_z([7])) == (True, False)

    def test_primitive_linear(self):
        assert classify_S1_S2(Poly.over_z([3, 2])) == (False, True)

    def test_zero(self):
        assert classify_S1_S2(Poly.over_z([])) == (False, False)

    def test_unit_constant(self):
        assert classify_S1_S2(Poly.over_z([1])) == (True, True)

    def test_gfp_constant(self):
        base = BasePID(p=2)
        f = Poly(base, ((0, 1),))   # the base element t, constant in x
        assert classify_S1_S2(f) == (True, False)
        g = Poly(base, ((1,),))
        assert classify_S1_S2(g) == (True, True)


class TestBaseFactor:
    def test_integer_factorization(self):
        assert BasePID().factor(12) == [(2, 2), (3, 1)]
        assert BasePID().factor(-35) == [(5, 1), (7, 1)]

    def test_bound(self):
        with pytest.raises(FactorizationBound):
            BasePID().factor(1000003 * 1000033, bound=10)

    def test_gfp_factorization(self):
        base = BasePID(p=2)
        # t^2 + t = t (t + 1)
        fac = base.factor((0, 1, 1))
        assert sorted(fac) == [((0, 1), 1), ((1, 1), 1)]
        # irreducible t^2 + t + 1
        assert base.factor((1, 1, 1)) == [((1, 1, 1), 1)]

    def test_monic_polys_in_product_order(self):
        for p in (2, 3, 5, 7):
            for deg in (1, 2, 3):
                assert list(_monic_polys(p, deg)) == [
                    lower + (1,) for lower in itertools.product(range(p), repeat=deg)]

    def test_gfp_bound_over_a_large_field(self):
        # the candidates of a field too large to list still run into the bound
        with pytest.raises(FactorizationBound):
            BasePID(p=10 ** 18 + 3).factor((1, 0, 1), bound=1000)


class TestArtinianQuadruple:
    def test_three_and_x_plus_one(self):
        rep = artinian_quadruple_check(Poly.over_z([3]), Poly.over_z([1, 1]))
        assert rep.verdict
        assert rep.s_factors == [(3, 1)]
        assert rep.per_prime[0]["residue_quotient_cardinality"] == 3
        assert rep.localization_mod_t["dimension_over_fraction_field"] == 1

    def test_not_in_s2(self):
        with pytest.raises(NotInS2):
            artinian_quadruple_check(Poly.over_z([6]), Poly.over_z([4, 2]))

    def test_not_in_s1(self):
        with pytest.raises(NotInS1):
            artinian_quadruple_check(Poly.over_z([0]), Poly.over_z([0, 1]))
        with pytest.raises(NotInS1):
            artinian_quadruple_check(Poly.over_z([1, 2]), Poly.over_z([0, 1]))

    def test_zero_ring_reduction(self):
        # s = 4, t = 2x + 1: t mod 2 = 1, quotient the zero ring
        rep = artinian_quadruple_check(Poly.over_z([4]), Poly.over_z([1, 2]))
        assert rep.verdict
        entry = rep.per_prime[0]
        assert entry["prime"] == "2"
        assert entry["t_mod_prime_degree"] == 0
        assert entry["residue_quotient_cardinality"] == 1

    def test_grid_always_passes(self):
        ts = [Poly.over_z(c) for c in ([1, 1], [3, 2], [1, 1, 1], [15, 10, 6])]
        ss = [Poly.over_z([k]) for k in (2, 3, 4, 6, 12, 35)]
        for s in ss:
            for t in ts:
                assert artinian_quadruple_check(s, t).verdict

    def test_gfp_base(self):
        base = BasePID(p=2)
        # s = t^2 + t (factors t, t+1); f = x + t has content 1
        s = Poly(base, ((0, 1, 1),))
        f = Poly(base, ((0, 1), (1,)))
        rep = artinian_quadruple_check(s, f)
        assert rep.verdict
        assert len(rep.per_prime) == 2


class TestProjectivity:
    def test_3_in_12(self):
        assert is_projective_over_Z_mod_s(3, 12) is True
        assert projectivity_oracle_direct_summand(3, 12) is True

    def test_2_in_12(self):
        assert is_projective_over_Z_mod_s(2, 12) is False
        assert projectivity_oracle_direct_summand(2, 12) is False

    def test_d_equals_s(self):
        assert is_projective_over_Z_mod_s(8, 8) is True

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            is_projective_over_Z_mod_s(5, 12)

    def test_rule_matches_oracle_up_to_60(self):
        for s in range(1, 61):
            for d in range(1, s + 1):
                if s % d:
                    continue
                assert is_projective_over_Z_mod_s(d, s) == \
                    projectivity_oracle_direct_summand(d, s), (d, s)


class TestStronglyFlat:
    def test_free_module(self):
        rep = strongly_flat_criterion_fg(FPModule.from_presentation([], gens=2), 2)
        assert rep.criterion_holds
        assert rep.flat

    def test_torsion_fails_flatness(self):
        rep = strongly_flat_criterion_fg(FPModule.from_invariants([2]), 2)
        assert not rep.flat
        assert not rep.criterion_holds

    def test_mixed_module(self):
        # Z + Z/3 with m = 2: not flat, but F/2F is projective over Z/2
        rep = strongly_flat_criterion_fg(FPModule.from_invariants([0, 3]), 2)
        assert not rep.flat
        assert rep.quotient_projectivity[0] == (2, True)
        assert not rep.criterion_holds

    def test_nonprojective_quotient_detected(self):
        # Z/2 with m = 4: F/4F = Z/2 over Z/4 is not projective
        rep = strongly_flat_criterion_fg(FPModule.from_invariants([2]), 4)
        assert rep.quotient_projectivity[0] == (4, False)

    @settings(max_examples=200, deadline=None)
    @given(inv=st.lists(st.integers(min_value=0, max_value=400), max_size=4),
           m=st.integers(min_value=1, max_value=60),
           depth=st.integers(min_value=1, max_value=4))
    def test_matches_closed_form(self, inv, m, depth):
        rep = strongly_flat_criterion_fg(FPModule.from_invariants(inv), m, depth)
        torsion = [d for d in inv if d > 1]
        assert rep.flat == (not torsion)
        # the part of d coprime to m: divide out gcd(d, m^e) for e past log2(d)
        assert rep.localized_projective == all(
            d // math.gcd(d, m ** d.bit_length()) == 1 for d in torsion)
        assert [s for s, _ in rep.quotient_projectivity] == \
            [m ** k for k in range(1, depth + 1)]
        for s, ok in rep.quotient_projectivity:
            assert ok == all(is_projective_over_Z_mod_s(math.gcd(d, s), s) for d in torsion)
        assert rep.criterion_holds == rep.flat
