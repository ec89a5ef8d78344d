import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multloc import fpmod, intlinalg
from multloc.ext import _FiniteGroup, _unit_vectors, ext1, ext1_order_oracle, ext2
from multloc.fpmod import FPModule
from multloc.towers import clear_caches
from reference_routes import ext_by_quotients


# ---------------------------------------------------------------------------
# enumeration oracles, the references for Hom and for Ext^1's middle terms
# ---------------------------------------------------------------------------


def middle_terms_oracle(a_factors: list[int], b_factors: list[int],
                        modulus: int = 0) -> set[tuple[int, ...]]:
    """Isomorphism types of middle terms of all extensions of A by B.

    Each class representative is realized as an explicit presentation:
    generators of A (with relations twisted into B) plus generators of B.
    """
    grp = _FiniteGroup(list(b_factors))
    per_factor: list[list[tuple]] = []
    for d in a_factors:
        if modulus and d == modulus:
            per_factor.append([tuple(0 for _ in b_factors)])
            continue
        if modulus:
            cocycles = [x for x in grp.elements()
                        if all(((modulus // d) * xi) % f == 0
                               for xi, f in zip(x, grp.factors))]
        else:
            cocycles = list(grp.elements())
        boundary = grp.subgroup([grp.scale(d, e) for e in _unit_vectors(grp)])
        reps = []
        seen: set = set()
        for c in cocycles:
            cls = frozenset(tuple((a + b) % f for a, b, f in
                                  zip(c, bd, grp.factors)) for bd in boundary)
            if cls not in seen:
                seen.add(cls)
                reps.append(c)
        per_factor.append(reps)
    out: set[tuple[int, ...]] = set()
    ga, gb = len(a_factors), len(b_factors)
    for combo in itertools.product(*per_factor):
        rows = []
        for i, d in enumerate(a_factors):
            row = [0] * (ga + gb)
            row[i] = d
            for j, v in enumerate(combo[i]):
                row[ga + j] = -v
            rows.append(row)
        for j, e in enumerate(b_factors):
            row = [0] * (ga + gb)
            row[ga + j] = e
            rows.append(row)
        middle = FPModule.from_presentation(rows, gens=ga + gb, modulus=modulus)
        out.add(middle.invariants())
    return out


def hom_count_oracle(a_factors: list[int], b_factors: list[int]) -> int:
    """|Hom(A, B)| for finite abelian groups, counted by enumerating
    generator images with the order constraint checked elementwise."""
    total = 1
    for d in a_factors:
        count = 0
        for x in itertools.product(*[range(f) for f in b_factors]):
            if all((d * xi) % f == 0 for xi, f in zip(x, b_factors)):
                count += 1
        total *= count
    return total


def zn(factors, n):
    return FPModule.from_invariants(list(factors), modulus=n)


def zz(factors):
    return FPModule.from_invariants(list(factors))


class TestExtOverZ:
    def test_cyclic_pair(self):
        assert ext1(zz([4]), zz([6])) == (2,)
        assert ext1(zz([2]), zz([3])) == ()

    def test_free_source_vanishes(self):
        assert ext1(zz([0, 0]), zz([8])) == ()

    def test_free_target(self):
        assert ext1(zz([6]), zz([0])) == (6,)

    def test_ext2_vanishes(self):
        assert ext2(zz([4]), zz([4])) == ()


class TestExtOverZN:
    def test_nonsplit_witness(self):
        # Ext^1 over Z/4 of Z/2 by Z/2 is Z/2 (the extension Z/4 does not split)
        assert ext1(zn([2], 4), zn([2], 4)) == (2,)

    def test_projective_source(self):
        assert ext1(zn([4], 12), zn([3], 12)) == ()
        assert ext1(zn([12], 12), zn([2], 12)) == ()

    def test_ext2_periodicity(self):
        # over Z/4: Ext^2(Z/2, Z/2) = ker(2)/2B = Z/2 again
        assert ext2(zn([2], 4), zn([2], 4)) == (2,)

    def test_cross_primary_vanishes(self):
        # within the 2-part: Z/4 is the nonsplit middle of Z/2 by Z/2
        assert ext1(zn([2], 12), zn([2], 12)) == (2,)
        # Z/8 is not a Z/12-module, so Z/2 by Z/4 only splits
        assert ext1(zn([4], 12), zn([2], 12)) == ()
        assert ext1(zn([3], 12), zn([4], 12)) == ()


class TestOracleAgreement:
    def test_oracle_matches_engine_over_z(self):
        pool = [(2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (12,), (3, 3)]
        for a in pool:
            for b in pool:
                if math.prod(a) * math.prod(b) > 64:
                    continue
                engine = math.prod(ext1(zz(a), zz(b)))
                oracle = ext1_order_oracle(list(a), list(b))
                assert engine == oracle, (a, b)
                assert oracle == hom_count_oracle(list(a), list(b))

    def test_oracle_matches_engine_over_zn(self):
        for n in (4, 6, 8, 9, 12, 16, 18, 24, 36):
            divs = [d for d in range(2, n + 1) if n % d == 0]
            pool = [(d,) for d in divs] + [(d, e) for d in divs for e in divs if d <= e]
            for a in pool:
                for b in pool:
                    if math.prod(a) * math.prod(b) > 64:
                        continue
                    engine = math.prod(ext1(zn(a, n), zn(b, n)))
                    oracle = ext1_order_oracle(list(a), list(b), modulus=n)
                    assert engine == oracle, (n, a, b)

    def test_split_iff_zero_middle_terms(self):
        cases = [((2,), (2,), 4), ((2,), (3,), 6), ((2,), (2,), 0),
                 ((4,), (2,), 8), ((3,), (3,), 9), ((2, 2), (2,), 4)]
        for a, b, n in cases:
            mids = middle_terms_oracle(list(a), list(b), modulus=n)
            split = FPModule.from_invariants(list(a) + list(b),
                                             modulus=n).invariants()
            engine = math.prod(ext1(zn(a, n) if n else zz(a), zn(b, n) if n else zz(b)))
            if engine == 1:
                assert mids == {split}, (a, b, n, mids)
            else:
                assert len(mids) > 1 or next(iter(mids)) != split

    def test_explicit_nonsplit_middle(self):
        mids = middle_terms_oracle([2], [2], modulus=4)
        assert (4,) in mids and (2, 2) in mids


# ---------------------------------------------------------------------------
# the gcd orders of the cyclic factors against each resolution step's quotient
# ---------------------------------------------------------------------------


RINGS = [2, 4, 6, 8, 9, 12, 16, 30, 36, 64, 360, 2 ** 61 - 1]


def divisors(n):
    return [1, n] if n > 360 else [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def modules_over_z_mod_n(draw):
    """A over Z/N as a sum of cyclic factors, and B over the same ring by
    a random presentation on up to three generators (possibly none)."""
    n = draw(st.sampled_from(RINGS))
    a = zn(draw(st.lists(st.sampled_from(divisors(n)), max_size=3)), n)
    g = draw(st.integers(min_value=0, max_value=3))
    entries = st.integers(min_value=-n, max_value=n)
    rows = draw(st.lists(st.lists(entries, min_size=g, max_size=g), max_size=3))
    return a, FPModule.from_presentation(rows, gens=g, modulus=n)


@st.composite
def modules_over_z(draw):
    """A over Z as a sum of cyclic factors, free ones (0) included, and B
    over Z by a random presentation on up to three generators, which leaves
    free summands whenever it has fewer independent relations than
    generators."""
    a = zz(draw(st.lists(st.sampled_from([0, 2, 3, 4, 6, 8, 9, 12]), max_size=3)))
    g = draw(st.integers(min_value=0, max_value=3))
    entries = st.integers(min_value=-12, max_value=12)
    rows = draw(st.lists(st.lists(entries, min_size=g, max_size=g), max_size=3))
    return a, FPModule.from_presentation(rows, gens=g)


class TestResolutionStepFromKernel:
    """Ext of cyclic factors by gcds agrees with the route that presented
    each step's quotient ker(kill)/scale*B on the kernel's generators, and
    with the enumeration oracle."""

    @settings(max_examples=300, deadline=None)
    @given(pair=modules_over_z_mod_n())
    def test_matches_quotient_route(self, pair):
        a, b = pair
        assert ext1(a, b) == ext_by_quotients(a, b, 1)
        assert ext2(a, b) == ext_by_quotients(a, b, 2)
        order = b.order()
        if order <= 256:
            assert math.prod(ext1(a, b)) == ext1_order_oracle(list(a.invariants()),
                                                              list(b.invariants()),
                                                              modulus=a.modulus)

    @settings(max_examples=300, deadline=None)
    @given(pair=modules_over_z())
    def test_matches_quotient_route_over_z(self, pair):
        # the quotient route's first step over Z is B/dB; Z is hereditary,
        # so there is no second
        a, b = pair
        assert ext1(a, b) == ext_by_quotients(a, b, 1)
        assert ext2(a, b) == ()
        # the oracle enumerates finite groups only: a free factor of A adds
        # nothing, and a free factor of B gives Z/d against Z/d, as Z/L does
        # for any multiple L of d
        torsion = [d for d in a.invariants() if d]
        lcm = math.lcm(*torsion)
        finite = [e or lcm for e in b.invariants()]
        if math.prod(finite) <= 256:
            assert math.prod(ext1(a, b)) == ext1_order_oracle(torsion, finite)

    def test_kernel_relations_are_kept(self):
        # over Z/8, x2 kills all of Z/2, whose relation 2 survives in the
        # quotient by 4*(Z/2) = 0; the coordinate 4 alone would give Z/4
        b = zn([2], 8)
        assert ext1(zn([4], 8), b) == (2,) == ext_by_quotients(zn([4], 8), b, 1)
        assert ext1_order_oracle([4], [2], modulus=8) == 2

    def test_no_generators(self):
        zero = FPModule(gens=0, modulus=12)
        assert ext1(zn([2, 6], 12), zero) == ext2(zn([2, 6], 12), zero) == ()

    def test_no_left_kernel_or_solve(self, monkeypatch):
        # once A and B know their invariants, Ext eliminates nothing: every
        # pair of cyclic factors is a gcd formula
        a, b = zn([2, 4], 8), zn([2, 8], 8)
        clear_caches()
        a.invariants(), b.invariants()
        calls = []
        real = intlinalg._eliminate

        def spy(rows, cols):
            calls.append(cols)
            return real(rows, cols)

        monkeypatch.setattr(intlinalg, "_eliminate", spy)
        monkeypatch.setattr(fpmod, "_eliminate", spy)
        assert ext1(a, b) == (2, 2)
        assert ext2(a, b) == (2, 2)
        assert calls == []
        assert ext1_order_oracle([2, 4], [2, 8], modulus=8) == 4
