import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from multloc.fpmod import (
    FPModule,
    Morphism,
    canonical_invariants,
    direct_sum,
    factor_through_submodule,
    is_exact_pair,
    isomorphic,
    merge_invariants,
    relations_among,
    submodules_equal,
)
from multloc.intlinalg import hnf_rows, lattice_member, mat_mul


def short_exact(f: Morphism, g: Morphism) -> bool:
    """Is 0 -> A --f--> B --g--> C -> 0 exact?"""
    return (f.is_well_defined() and g.is_well_defined()
            and f.is_injective() and g.is_surjective() and is_exact_pair(f, g))


def _canonical_by_trial_division(factors, rank=0):
    """Invariant chain through the primary decomposition of every factor."""
    primary = {}
    for d in sorted(d for d in factors if d not in (0, 1)):
        m, p = d, 2
        while p * p <= m:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                primary.setdefault(p, []).append(e)
            p += 1
        if m > 1:
            primary.setdefault(m, []).append(1)
    depth = max((len(v) for v in primary.values()), default=0)
    chain = []
    for i in range(depth):
        d = 1
        for p, exps in primary.items():
            exps = sorted(exps, reverse=True)
            if i < len(exps):
                d *= p ** exps[i]
        chain.append(d)
    return tuple(reversed(chain)) + (0,) * rank


class TestInvariants:
    def test_cyclic_12(self):
        m = FPModule.from_presentation([[12]])
        assert m.invariants() == (12,)

    def test_torsion_plus_free(self):
        m = FPModule.from_presentation([[2, 0], [0, 0]])
        assert m.invariants() == (2, 0)

    def test_free_rank_two(self):
        m = FPModule.from_presentation([], gens=2)
        assert m.invariants() == (0, 0)

    def test_zero_module(self):
        assert FPModule.zero().invariants() == ()
        assert FPModule.from_presentation([[1]]).invariants() == ()

    def test_mod_n_plain(self):
        m = FPModule(gens=1, relations=(), modulus=12)
        assert m.invariants() == (12,)
        assert m.order() == 12

    def test_canonical_merge(self):
        # Z/2 + Z/3 = Z/6 canonically
        assert canonical_invariants([2, 3]) == (6,)
        assert canonical_invariants([2, 4, 3]) == (2, 12)
        assert canonical_invariants([1, 1, 5]) == (5,)

    def test_merge_invariants(self):
        assert merge_invariants([]) == ()
        assert merge_invariants([(), (2,), (3,)]) == (6,)
        assert merge_invariants([(2, 0), (4,), (3, 0)]) == (2, 12, 0, 0)
        rng = random.Random(11)
        for _ in range(50):
            blocks = [tuple(rng.choice([0, 1, 2, 3, 4, 6, 9, 12, 25])
                            for _ in range(rng.randint(0, 3)))
                      for _ in range(rng.randint(0, 4))]
            flat = [d for b in blocks for d in b]
            assert merge_invariants(blocks) == canonical_invariants(
                [d for d in flat if d], flat.count(0))
            assert merge_invariants(iter(blocks)) == merge_invariants(blocks)
            assert merge_invariants(blocks) == FPModule.from_invariants(flat).invariants()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=400), max_size=8),
           st.integers(min_value=0, max_value=3))
    def test_canonical_matches_primary_decomposition(self, factors, rank):
        assert canonical_invariants(factors, rank) == _canonical_by_trial_division(
            factors, rank)

    def test_canonical_chain_of_large_primes(self):
        for p in (2 ** 61 - 1, 2 ** 127 - 1):
            assert FPModule.from_invariants([p, p]).invariants() == (p, p)
            assert canonical_invariants([p, 2 * p, 3]) == (p, 6 * p)

    def test_dense_20_by_20(self):
        rng = random.Random(20)
        rows = [[rng.randint(-9, 9) for _ in range(20)] for _ in range(20)]
        inv = FPModule.from_presentation(rows).invariants()
        assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
        assert abs(Matrix(rows).det()) == math.prod(inv)

    @pytest.mark.parametrize("modulus, diag", [
        (720, [1, 2, 2, 4, 6, 12, 24, 48, 60, 120, 360, 720]),
        (360, [2, 3, 4, 6, 12, 1, 5, 10, 30, 360]),
    ])
    def test_mod_n_many_generators_match_sympy(self, modulus, diag):
        # Z/N-module (+) Z/d_i presented on scrambled generators and relations
        rng = random.Random(modulus)
        g = len(diag)
        rows = [[d if i == j else 0 for j in range(g)] for i, d in enumerate(diag)]
        for _ in range(3 * g):
            i, j = rng.sample(range(g), 2)
            q = rng.randint(-3, 3)
            for r in rows:
                r[i] += q * r[j]
        for _ in range(2 * g):
            i, j = rng.sample(range(g), 2)
            q = rng.randint(-2, 2)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        m = FPModule.from_presentation(rows, gens=g, modulus=modulus)
        expected = tuple(abs(int(d)) for d in invariant_factors(
            Matrix(m.relation_rows()), domain=ZZ) if abs(int(d)) != 1)
        assert m.invariants() == expected == canonical_invariants(diag)

    def test_relation_hnf_cannot_be_corrupted_by_a_caller(self):
        # the HNF is cached per presentation; writing into the returned rows
        # used to change it for every equal presentation
        with pytest.raises(TypeError):
            FPModule.from_invariants([4]).relation_hnf()[0][0] = 2
        assert FPModule.from_invariants([4]).relation_hnf() == ((4,),)

    def test_invariance_under_unimodular_shuffle(self):
        rng = random.Random(5)
        for _ in range(40):
            g = rng.randint(1, 4)
            r = rng.randint(0, 4)
            rows = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(r)]
            m = FPModule.from_presentation(rows, gens=g)
            inv = m.invariants()
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert FPModule.from_presentation(shuffled, gens=g).invariants() == inv
            # permuting generators (columns) keeps the module
            perm = list(range(g))
            rng.shuffle(perm)
            cols = [[row[perm[j]] for j in range(g)] for row in shuffled]
            assert FPModule.from_presentation(cols, gens=g).invariants() == inv
            # add a row combination: same module
            if r >= 2:
                extra = [shuffled[0][j] + 3 * shuffled[1][j] for j in range(g)]
                assert FPModule.from_presentation(shuffled + [extra], gens=g).invariants() == inv


class TestMorphisms:
    def test_well_defined(self):
        z4 = FPModule.from_invariants([4])
        z2 = FPModule.from_invariants([2])
        # Z/4 -> Z/2 reduction is fine
        assert Morphism.make(z4, z2, [[1]]).is_well_defined()
        # Z/2 -> Z/4 by 1 is not a module map
        assert not Morphism.make(z2, z4, [[1]]).is_well_defined()
        # Z/2 -> Z/4 by 2 is
        assert Morphism.make(z2, z4, [[2]]).is_well_defined()
        # the relation 4 * x of a free Z/4-module must map into 8Z in Z/8
        free_z4 = FPModule(gens=1, modulus=4)
        z8 = FPModule.from_invariants([8], modulus=8)
        assert not Morphism.make(free_z4, z8, [[1]]).is_well_defined()
        assert Morphism.make(free_z4, z8, [[2]]).is_well_defined()
        # a source without generators, here with one empty relation row
        assert Morphism.make(FPModule(gens=0, relations=((),)), z2, []).is_well_defined()

    def test_kernel_cokernel_of_multiplication(self):
        z12 = FPModule.from_invariants([12])
        mul2 = Morphism.multiplication(z12, 2)
        ker, incl = mul2.kernel()
        assert ker.invariants() == (2,)
        assert incl.is_well_defined() and incl.is_injective()
        assert mul2.cokernel().invariants() == (2,)
        mul5 = Morphism.multiplication(z12, 5)
        assert mul5.kernel()[0].is_zero()
        assert mul5.cokernel().is_zero()

    def test_kernel_on_free(self):
        z = FPModule.from_presentation([], gens=1)
        mul3 = Morphism.multiplication(z, 3)
        assert mul3.kernel()[0].is_zero()
        assert mul3.cokernel().invariants() == (3,)

    def test_image(self):
        z12 = FPModule.from_invariants([12])
        mul4 = Morphism.multiplication(z12, 4)
        img, incl = mul4.image()
        assert img.invariants() == (3,)
        assert incl.is_well_defined()

    def test_short_exact_sequence(self):
        # 0 -> Z/2 --x2--> Z/4 --red--> Z/2 -> 0
        z2 = FPModule.from_invariants([2])
        z4 = FPModule.from_invariants([4])
        inj = Morphism.make(z2, z4, [[2]])
        proj = Morphism.make(z4, z2, [[1]])
        assert short_exact(inj, proj)
        # the split sequence is also exact
        s = direct_sum(z2, z2)
        inj2 = Morphism.make(z2, s, [[1, 0]])
        proj2 = Morphism.make(s, z2, [[0], [1]])
        assert short_exact(inj2, proj2)
        # a non-exact pair: image strictly inside kernel
        zero_map = Morphism.make(z2, z4, [[0]])
        assert not short_exact(zero_map, proj)

    def test_exactness_joint(self):
        z4 = FPModule.from_invariants([4])
        mul2 = Morphism.multiplication(z4, 2)
        # Z/4 --x2--> Z/4 --x2--> Z/4 is exact at the middle
        assert is_exact_pair(mul2, mul2)

    def test_iso_detection(self):
        z6 = FPModule.from_invariants([6])
        z23 = FPModule.from_invariants([2, 3])
        assert isomorphic(z6, z23)
        f = Morphism.make(z23, z6, [[3], [2]])
        assert f.is_well_defined()
        assert f.is_isomorphism()

    def test_factor_through(self):
        z12 = FPModule.from_invariants([12])
        sub = [[4]]  # submodule 4Z/12 of order 3
        coeffs = factor_through_submodule([[8]], sub, z12)
        assert coeffs is not None
        assert (coeffs[0][0] * 4 - 8) % 12 == 0
        assert factor_through_submodule([[2]], sub, z12) is None

    def test_relations_among(self):
        z12 = FPModule.from_invariants([12])
        assert relations_among([], z12) == []
        assert hnf_rows(relations_among([[4]], z12)) == [[3]]
        # over Z/12 the modulus supplies the same relation
        assert hnf_rows(relations_among([[4]], FPModule(gens=1, modulus=12))) == [[3]]
        rng = random.Random(8)
        for _ in range(40):
            g = rng.randint(1, 3)
            ambient = FPModule.from_presentation(
                [[rng.randint(-6, 6) for _ in range(g)] for _ in range(rng.randint(0, 3))],
                gens=g, modulus=rng.choice([0, 0, 6, 8]))
            rows = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(rng.randint(1, 3))]
            rel = relations_among(rows, ambient)
            lattice = ambient.relation_hnf()
            assert all(lattice_member(lattice, x) for x in mat_mul(rel, rows))
            # the rows on their relations present the submodule they span
            sub = FPModule.from_presentation(rel, gens=len(rows), modulus=ambient.modulus)
            incl = Morphism.make(sub, ambient, rows)
            assert incl.is_well_defined() and incl.is_injective()

    def test_submodules_equal(self):
        z12 = FPModule.from_invariants([12])
        assert submodules_equal([[4]], [[8]], z12)
        assert not submodules_equal([[4]], [[2]], z12)

    def test_direct_sum_maps(self):
        z2 = FPModule.from_invariants([2])
        z3 = FPModule.from_invariants([3])
        # identity on Z/2 plus multiplication by 2 on Z/3, block-diagonally
        z6 = direct_sum(z2, z3)
        f = Morphism.make(z6, z6, [[1, 0], [0, 2]])
        assert f.is_well_defined()
        assert f.is_isomorphism()

    def test_mod_n_modules(self):
        a = FPModule(gens=1, relations=((2,),), modulus=4)  # Z/2 over Z/4
        b = FPModule(gens=1, relations=(), modulus=4)       # Z/4 over Z/4
        f = Morphism.make(a, b, [[2]])
        assert f.is_well_defined() and f.is_injective()
        assert f.cokernel().invariants() == (2,)


@st.composite
def well_defined_maps(draw):
    """A map into a random module over Z or Z/N: either an isomorphism onto a
    change of basis of its source, or an arbitrary matrix whose source
    relations are combinations of the relations it must respect."""
    modulus = draw(st.sampled_from([0, 0, 4, 6, 8, 12]))
    h = draw(st.integers(min_value=1, max_value=3))
    small = st.integers(min_value=-6, max_value=6)
    rows = draw(st.lists(st.lists(small, min_size=h, max_size=h), max_size=3))
    if draw(st.booleans()):
        u = [[int(i == j) for j in range(h)] for i in range(h)]
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            i, j = draw(st.integers(0, h - 1)), draw(st.integers(0, h - 1))
            k = draw(small)
            if i != j:
                u[i] = [a + k * b for a, b in zip(u[i], u[j])]
            else:
                u[i] = [-a for a in u[i]]
        scale = draw(st.sampled_from([1, 1, 1, -1, 2, 3, 5]))
        source = FPModule.from_presentation(rows, gens=h, modulus=modulus)
        target = FPModule.from_presentation(mat_mul(rows, u), gens=h, modulus=modulus)
        return Morphism.make(source, target, [[scale * x for x in r] for r in u])
    target = FPModule.from_presentation(rows, gens=h, modulus=modulus)
    g = draw(st.integers(min_value=1, max_value=3))
    matrix = draw(st.lists(st.lists(small, min_size=h, max_size=h), min_size=g, max_size=g))
    allowed = relations_among(matrix, target)
    source_rows = [[sum(c * r[j] for c, r in zip(coeffs, allowed)) for j in range(g)]
                   for coeffs in draw(st.lists(st.lists(small, min_size=len(allowed),
                                                        max_size=len(allowed)),
                                               max_size=3))]
    source = FPModule.from_presentation(source_rows, gens=g, modulus=modulus)
    return Morphism.make(source, target, matrix)


class TestHopfianIsomorphism:
    @settings(max_examples=300, deadline=None)
    @given(f=well_defined_maps())
    def test_matches_kernel_route(self, f):
        assert f.is_well_defined()
        assert f.is_isomorphism() == (f.kernel()[0].is_zero() and f.is_surjective())

    def test_equal_invariants_without_surjection(self):
        z = FPModule.from_presentation([], gens=1)
        assert not Morphism.multiplication(z, 2).is_isomorphism()
        assert Morphism.multiplication(z, -1).is_isomorphism()
        z9 = FPModule.from_invariants([9])
        assert not Morphism.multiplication(z9, 3).is_isomorphism()
        assert Morphism.multiplication(z9, 2).is_isomorphism()

    def test_surjection_onto_a_smaller_module(self):
        f = Morphism.make(FPModule.from_invariants([4]), FPModule.from_invariants([2]), [[1]])
        assert f.is_surjective() and not f.is_isomorphism()


class TestPreimageCache:
    def test_returned_lists_cannot_corrupt_later_results(self):
        m = FPModule.from_invariants([4, 6, 0])
        f = Morphism.make(m, m, [[2, 0, 0], [0, 3, 0], [1, 0, 2]])
        g = Morphism.multiplication(m, 2)

        def results():
            return f.kernel(), f.image(), is_exact_pair(g, f), is_exact_pair(f, f)

        fresh = Morphism.make(m, m, f.mat())
        expected = (fresh.kernel(), fresh.image(), is_exact_pair(g, fresh),
                    is_exact_pair(fresh, fresh))
        assert results() == expected
        pre = f._preimage_lattice()
        assert pre == fresh._preimage_lattice()
        pre[0][0] += 7
        pre.append([1, 1, 1])
        f._preimage_lattice()[-1].clear()
        assert results() == expected
        assert f._preimage_lattice() == fresh._preimage_lattice()


class TestRandomizedHomology:
    def test_kernel_image_orders_multiply(self):
        # |M| = |ker f| * |im f| for maps of finite modules
        rng = random.Random(21)
        for _ in range(50):
            inv_src = [rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))]
            inv_tgt = [rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))]
            src = FPModule.from_invariants(inv_src)
            tgt = FPModule.from_invariants(inv_tgt)
            rows = []
            for d in inv_src:
                row = []
                for e in inv_tgt:
                    # multiple of e/gcd(d,e) is forced for well-definedness
                    import math
                    step = e // math.gcd(d, e)
                    row.append(step * rng.randint(0, e // step))
                rows.append(row)
            f = Morphism.make(src, tgt, rows)
            assert f.is_well_defined()
            ker, _ = f.kernel()
            img, _ = f.image()
            assert ker.order() * img.order() == src.order()
            assert img.order() * f.cokernel().order() == tgt.order()
