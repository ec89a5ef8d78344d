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
    is_exact_pair,
    isomorphic,
    merge_invariants,
)
from multloc import fpmod, intlinalg
from multloc.intlinalg import (
    hnf_rows,
    lattice_member,
    mat_mul,
    smith_normal_form,
)
from multloc.towers import clear_caches
from reference_routes import (
    exact_by_submodules,
    factor_through_submodule,
    left_nullspace,
    preimage_lattice,
    relations_among,
    submodules_equal,
)


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
        # the reference solve through the submodule 4Z/12, of order 3
        z12 = FPModule.from_invariants([12])
        coeffs = factor_through_submodule([[8]], [[4]], z12)
        assert coeffs is not None
        assert (coeffs[0][0] * 4 - 8) % 12 == 0
        assert factor_through_submodule([[2]], [[4]], z12) is None
        assert factor_through_submodule([], [[4]], z12) == []

    def test_compose_through_the_zero_module(self):
        z2 = FPModule.from_invariants([2])
        zero = FPModule.zero()
        f = Morphism.make(z2, zero, [[]]).compose(Morphism.make(zero, z2, []))
        assert f.source == z2 and f.target == z2
        assert f.matrix == ((0,),)
        assert f.is_zero_morphism()

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
        pre = preimage_lattice(f)
        assert pre == preimage_lattice(fresh)
        pre[0][0] += 7
        pre.append([1, 1, 1])
        preimage_lattice(f)[-1].clear()
        assert results() == expected
        assert preimage_lattice(f) == preimage_lattice(fresh)


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


def stacked_kernel(f: Morphism):
    """``Morphism.kernel`` before exact coordinates: the kernel's relations
    are the relations among the preimage HNF rows modulo the source, found
    by a second stacked elimination."""
    pre = preimage_lattice(f)
    ker = FPModule.from_presentation(relations_among(pre, f.source), gens=len(pre),
                                     modulus=f.source.modulus)
    return ker, Morphism.make(ker, f.source, pre)


@st.composite
def maps_over_z_mod_n(draw):
    """A well-defined map out of a random module over Z/N: multiplication by
    a scalar, or the projection onto a quotient by further rows."""
    modulus = draw(st.sampled_from([2, 4, 6, 8, 12, 30, 64, 360, 2 ** 61 - 1]))
    g = draw(st.integers(min_value=1, max_value=3))
    entries = st.integers(min_value=-modulus, max_value=modulus)
    rows = draw(st.lists(st.lists(entries, min_size=g, max_size=g), max_size=3))
    m = FPModule.from_presentation(rows, gens=g, modulus=modulus)
    if draw(st.booleans()):
        return Morphism.multiplication(m, draw(st.integers(min_value=-12, max_value=12)))
    extra = draw(st.lists(st.lists(entries, min_size=g, max_size=g), min_size=1,
                          max_size=2))
    quotient = FPModule.from_presentation(rows + extra, gens=g, modulus=modulus)
    return Morphism.make(m, quotient, [[int(i == j) for j in range(g)] for i in range(g)])


def assert_kernel_routes_agree(f: Morphism):
    assert f.is_well_defined()
    ker, incl = f.kernel()
    old, old_incl = stacked_kernel(f)
    assert ker.gens == old.gens and ker.modulus == old.modulus
    assert ker.relation_hnf() == old.relation_hnf()
    assert ker.invariants() == old.invariants()
    assert incl.matrix == old_incl.matrix
    assert incl.is_well_defined()
    assert f.is_injective() == old.is_zero()


class TestKernelByCoordinates:
    """``kernel`` presents ker f = P/R by the coordinates of R's rows in the
    preimage HNF basis, and ``is_injective`` compares P with R; both agree
    with the stacked-elimination route on well-defined maps."""

    @settings(max_examples=300, deadline=None)
    @given(f=well_defined_maps())
    def test_well_defined_maps(self, f):
        assert_kernel_routes_agree(f)

    @settings(max_examples=300, deadline=None)
    @given(f=maps_over_z_mod_n())
    def test_maps_over_z_mod_n(self, f):
        assert_kernel_routes_agree(f)

    def test_modulus_rows_are_relations(self):
        # over Z/8 the kernel of x2 on Z/8 is Z/2: its one relation is the
        # coordinate of the modulus row 8 in the basis 4 of the preimage
        z8 = FPModule(gens=1, modulus=8)
        ker, incl = Morphism.multiplication(z8, 2).kernel()
        assert incl.matrix == ((4,),)
        assert ker.relations == ((2,),)
        assert ker.invariants() == (2,)

    def test_map_that_is_not_well_defined(self):
        # 1 in Z/4 cannot go to 1 in Z/8: the relation 4 leaves the preimage
        f = Morphism.make(FPModule.from_invariants([4]), FPModule.from_invariants([8]), [[1]])
        assert not f.is_well_defined()
        with pytest.raises(ValueError, match="well-defined"):
            f.kernel()

    def test_injectivity_by_lattice_equality(self):
        z12 = FPModule.from_invariants([12])
        assert not Morphism.multiplication(z12, 2).is_injective()
        assert Morphism.multiplication(z12, 5).is_injective()
        z = FPModule.from_presentation([], gens=2)
        assert Morphism.make(z, z, [[1, 1], [0, 2]]).is_injective()
        assert not Morphism.make(z, z, [[1, 1], [2, 2]]).is_injective()
        zero = FPModule.zero()
        assert Morphism.make(zero, z12, []).is_injective()
        assert not Morphism.make(z12, zero, [[]]).is_injective()


# The routes that one elimination per morphism replaced, kept as the
# reference: the cokernel's relation HNF eliminated the stacked rows on its
# own, the preimage was the left kernel modulo the target put into HNF, and
# invariants ran a Smith normal form of the relation rows.

def reference_cokernel_hnf(f: Morphism) -> list[list[int]]:
    return hnf_rows(f.mat() + f.target.relation_rows())


def reference_preimage(f: Morphism) -> list[list[int]]:
    rows = left_nullspace(f.mat(), f.target.relation_rows()) if f.source.gens else []
    return hnf_rows(rows)


def reference_invariants(m: FPModule) -> tuple[int, ...]:
    rows = m.relation_rows()
    if not rows:
        return (0,) * m.gens
    nz = [d for d in smith_normal_form(rows) if d != 0]
    return canonical_invariants(nz, m.gens - len(nz))


def as_tuples(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rows))


@st.composite
def any_maps(draw):
    """A matrix between random modules over Z or over Z/N (N up to
    2^61 - 1), well defined or not; either side may have no generators, and
    rows of the matrix may be zero."""
    modulus = draw(st.sampled_from([0, 0, 0, 2, 6, 12, 360, 2 ** 61 - 1]))
    g = draw(st.integers(min_value=0, max_value=4))
    h = draw(st.integers(min_value=0, max_value=4))
    bound = modulus or 9
    entries = st.integers(min_value=-bound, max_value=bound)
    sparse = st.one_of(st.just(0), entries)

    def rows(width, **size):
        return draw(st.lists(st.lists(sparse, min_size=width, max_size=width), **size))

    source = FPModule.from_presentation(rows(g, max_size=3), gens=g, modulus=modulus)
    target = FPModule.from_presentation(rows(h, max_size=3), gens=h, modulus=modulus)
    return Morphism.make(source, target, rows(h, min_size=g, max_size=g))


def assert_forms_match_reference(f: Morphism):
    coker = f.cokernel()
    assert coker.relation_hnf() == as_tuples(reference_cokernel_hnf(f))
    pre = reference_preimage(f)
    assert preimage_lattice(f) == pre
    img, incl = f.image()
    assert img.relation_hnf() == as_tuples(pre)
    assert incl.matrix == f.matrix
    # the carried HNF is not a field: a fresh module with the same
    # presentation is equal, hashes alike and computes the same HNF
    for m in (coker, img):
        fresh = FPModule(gens=m.gens, relations=m.relations, modulus=m.modulus)
        assert m == fresh and hash(m) == hash(fresh)
        assert fresh.relation_hnf() == m.relation_hnf()
        assert m.invariants() == reference_invariants(fresh)
    for m in (f.source, f.target):
        assert m.invariants() == reference_invariants(m)
    if f.is_well_defined():
        ker, _ = f.kernel()
        assert ker.invariants() == reference_invariants(ker)
        assert f.is_injective() == (pre == hnf_rows(f.source.relation_rows()))
    else:
        with pytest.raises(ValueError, match="well-defined"):
            f.kernel()


class TestOneEliminationPerMorphism:
    """The cokernel HNF, the preimage HNF and the invariants read from one
    elimination per morphism agree with the routes it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(f=any_maps())
    def test_any_maps(self, f):
        assert_forms_match_reference(f)

    @settings(max_examples=200, deadline=None)
    @given(f=well_defined_maps())
    def test_well_defined_maps(self, f):
        assert_forms_match_reference(f)

    @settings(max_examples=200, deadline=None)
    @given(f=maps_over_z_mod_n())
    def test_maps_over_z_mod_n(self, f):
        assert_forms_match_reference(f)

    def test_edge_shapes(self):
        z6 = FPModule.from_invariants([6])
        zero = FPModule.zero()
        free2 = FPModule.from_presentation([], gens=2)
        big = 2 ** 61 - 1
        maps = [
            Morphism.make(zero, z6, []),                       # no source generators
            Morphism.make(z6, zero, [[]]),                     # no target generators
            Morphism.make(zero, zero, []),
            Morphism.make(free2, z6, [[0], [0]]),              # zero rows only
            Morphism.make(free2, free2, [[0, 0], [2, 4]]),     # one zero row
            Morphism.make(FPModule(gens=2, modulus=big), FPModule(gens=1, modulus=big),
                          [[big - 1], [3]]),
            Morphism.make(FPModule.from_invariants([4]), FPModule.from_invariants([8]),
                          [[1]]),                              # not well defined
        ]
        for f in maps:
            assert_forms_match_reference(f)
        assert maps[0].cokernel().relation_hnf() == ((6,),)
        assert maps[1].image()[0].relation_hnf() == ((1,),)
        assert preimage_lattice(maps[4]) == [[1, 0]]

    def test_image_carries_the_preimage_over_z_mod_n(self):
        # over Z/8 the preimage of x2 on Z/8 is 4Z, whose HNF row (4) the
        # image carries; its stored relation 4 is the same lattice with 8Z
        f = Morphism.multiplication(FPModule(gens=1, modulus=8), 2)
        img, _ = f.image()
        assert img.relation_hnf() == ((4,),) and img.invariants() == (4,)
        assert f.cokernel().relation_hnf() == ((2,),)

    def test_one_elimination_for_the_morphisms_own_lattices(self, monkeypatch):
        clear_caches()
        m = FPModule.from_invariants([4, 6, 0], modulus=0)
        f = Morphism.make(m, FPModule.from_invariants([12, 0]), [[3, 0], [2, 0], [1, 5]])
        f.source.relation_hnf()     # the source's own lattice, not the map's
        calls = []
        real = intlinalg._eliminate

        def spy(rows, cols):
            calls.append(cols)
            return real(rows, cols)

        monkeypatch.setattr(intlinalg, "_eliminate", spy)
        monkeypatch.setattr(fpmod, "_eliminate", spy)
        f.cokernel().relation_hnf()
        f.kernel()
        f.image()[0].relation_hnf()
        f.is_injective()
        assert calls == [2 + 3]


@st.composite
def composable_pairs(draw):
    """Maps A --f--> M --g--> C over Z or over Z/N (N up to 2^61 - 1) with g
    well defined, any of the three modules possibly without generators.  M's
    relations are combinations of the relations among g's rows in C, and A
    is free.  f's rows are those relations, which span ker g over M's
    generators, plus combinations of them (exact), combinations of them
    only, or arbitrary rows."""
    modulus = draw(st.sampled_from([0, 0, 0, 2, 6, 12, 360, 2 ** 61 - 1]))
    g_gens = draw(st.integers(min_value=0, max_value=3))
    h = draw(st.integers(min_value=0, max_value=3))
    bound = modulus or 9
    entries = st.one_of(st.just(0), st.integers(min_value=-bound, max_value=bound))
    small = st.integers(min_value=-4, max_value=4)

    def rows(width, **size):
        return draw(st.lists(st.lists(entries, min_size=width, max_size=width), **size))

    def combinations(basis, count):
        width = len(basis[0]) if basis else 0
        return [[sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(width)]
                for coeffs in draw(st.lists(st.lists(small, min_size=len(basis),
                                                     max_size=len(basis)),
                                            min_size=count, max_size=count))]

    target = FPModule.from_presentation(rows(h, max_size=3), gens=h, modulus=modulus)
    matrix = rows(h, min_size=g_gens, max_size=g_gens)
    pre = relations_among(matrix, target)
    middle_rows = combinations(pre, draw(st.integers(0, 3))) if pre else []
    middle = FPModule.from_presentation(middle_rows, gens=g_gens, modulus=modulus)
    g = Morphism.make(middle, target, matrix)
    kind = draw(st.sampled_from(["exact", "inside", "any"]))
    count = draw(st.integers(0, 3))
    if kind == "exact":
        f_rows = pre + (combinations(pre, count) if pre else [])
    elif kind == "inside":
        f_rows = combinations(pre, count) if pre else []
    else:
        f_rows = rows(g_gens, min_size=count, max_size=count)
    source = FPModule.from_presentation([], gens=len(f_rows), modulus=modulus)
    return Morphism.make(source, middle, f_rows), g, kind


class TestExactnessFromHeldForms:
    """``is_exact_pair`` compares f's cokernel form with g's preimage form;
    for a well-defined g it agrees with re-eliminating both submodules."""

    @settings(max_examples=400, deadline=None)
    @given(pair=composable_pairs())
    def test_matches_submodule_route(self, pair):
        f, g, kind = pair
        assert f.is_well_defined() and g.is_well_defined()
        assert is_exact_pair(f, g) == exact_by_submodules(f, g)
        if kind == "exact":
            assert is_exact_pair(f, g)
        if kind == "inside":
            assert f.compose(g).is_zero_morphism()

    def test_exact_at_a_joint_without_generators(self):
        z6 = FPModule.from_invariants([6])
        zero = FPModule.zero()
        into, out_of = Morphism.make(z6, zero, [[]]), Morphism.make(zero, z6, [])
        assert is_exact_pair(into, out_of)
        assert is_exact_pair(Morphism.make(zero, zero, []), Morphism.make(zero, zero, []))
        # on Z/6, exact at the middle: 0 then 1, and 1 then 0; not 0 then 0,
        # nor 1 then 1
        zero_map, ident = Morphism.make(z6, z6, [[0]]), Morphism.identity(z6)
        assert is_exact_pair(zero_map, ident) and is_exact_pair(ident, zero_map)
        assert not is_exact_pair(zero_map, zero_map)
        assert not is_exact_pair(ident, ident)

    def test_map_that_is_not_well_defined(self):
        # 1 in Z/2 cannot go to 1 in Z/4: the preimage 4Z of g misses the
        # relation 2 of Z/2, so no image can equal it, whereas the image of
        # f = 0 plus the relations of Z/2 equals that preimage plus them
        z, z2, z4 = FPModule.from_presentation([], gens=1), FPModule.from_invariants([2]), \
            FPModule.from_invariants([4])
        f = Morphism.make(z, z2, [[0]])
        g = Morphism.make(z2, z4, [[1]])
        assert f.is_well_defined() and not g.is_well_defined()
        assert exact_by_submodules(f, g)
        assert not is_exact_pair(f, g)

    def test_no_elimination_once_both_forms_are_held(self, monkeypatch):
        m = FPModule.from_invariants([4, 6, 0])
        f = Morphism.make(m, m, [[2, 0, 0], [0, 3, 0], [1, 0, 2]])
        g = Morphism.multiplication(m, 2)
        expected = [exact_by_submodules(f, g), exact_by_submodules(g, f),
                    exact_by_submodules(f, f)]
        f._hermite_forms()
        g._hermite_forms()
        calls = []
        real = intlinalg._eliminate

        def spy(rows, cols):
            calls.append(cols)
            return real(rows, cols)

        monkeypatch.setattr(intlinalg, "_eliminate", spy)
        monkeypatch.setattr(fpmod, "_eliminate", spy)
        assert [is_exact_pair(f, g), is_exact_pair(g, f), is_exact_pair(f, f)] == expected
        assert calls == []


@st.composite
def unreduced_maps(draw):
    """A matrix between random modules over Z or Z/N whose entries may be
    negative or at least N, so each constructor has entries to reduce.
    Half the sources have no relations of their own, so their maps are
    well defined and have a kernel."""
    modulus = draw(st.sampled_from([0, 0, 2, 6, 12, 360, 2 ** 61 - 1]))
    g = draw(st.integers(min_value=0, max_value=3))
    h = draw(st.integers(min_value=0, max_value=3))
    bound = 3 * (modulus or 9)
    entries = st.one_of(st.integers(min_value=-bound, max_value=bound),
                        st.integers(min_value=-3, max_value=3))

    def rows(width, **size):
        return draw(st.lists(st.lists(entries, min_size=width, max_size=width), **size))

    source_rows = rows(g, max_size=2) if draw(st.booleans()) else []
    source = FPModule.from_presentation(source_rows, gens=g, modulus=modulus)
    target = FPModule.from_presentation(rows(h, max_size=3), gens=h, modulus=modulus)
    return Morphism.make(source, target, rows(h, min_size=g, max_size=g))


def assert_same_value(built, reference):
    assert built == reference and hash(built) == hash(reference)


class TestConstructorsFromTuples:
    """``cokernel``, ``kernel``, ``image``, ``multiplication`` and
    ``from_invariants`` pass their row tuples straight to the constructors;
    what they build equals, with equal hash, what ``from_presentation`` and
    ``make`` build from the same rows, and reduces modulo N the same way."""

    @settings(max_examples=300, deadline=None)
    @given(f=unreduced_maps(), scalar=st.integers(min_value=-400, max_value=400))
    def test_maps_match_the_list_route(self, f, scalar):
        source, target = f.source, f.target
        coker = f.cokernel()
        assert_same_value(coker, FPModule.from_presentation(
            f.mat() + [list(r) for r in target.relations], gens=target.gens,
            modulus=target.modulus))
        if target.modulus:
            assert all(0 <= x < target.modulus for row in coker.relations for x in row)
        pre = [list(r) for r in f._hermite_forms()[1]]
        img, incl = f.image()
        ref_img = FPModule.from_presentation(pre, gens=source.gens, modulus=target.modulus)
        assert_same_value(img, ref_img)
        assert_same_value(incl, Morphism.make(ref_img, target, f.mat()))
        if f.is_well_defined():
            ker, ker_incl = f.kernel()
            ref_ker = FPModule.from_presentation(
                [intlinalg.lattice_coordinates(pre, row) for row in source.relation_rows()],
                gens=len(pre), modulus=source.modulus)
            assert_same_value(ker, ref_ker)
            assert_same_value(ker_incl, Morphism.make(ref_ker, source, pre))
        else:
            with pytest.raises(ValueError, match="well-defined"):
                f.kernel()
        for m in (source, target, coker, img):
            assert_same_value(Morphism.multiplication(m, scalar), Morphism.make(
                m, m, [[scalar if i == j else 0 for j in range(m.gens)]
                       for i in range(m.gens)]))

    @settings(max_examples=200, deadline=None)
    @given(factors=st.lists(st.integers(min_value=-800, max_value=800), max_size=5),
           modulus=st.sampled_from([0, 0, 2, 12, 360, 2 ** 61 - 1]))
    def test_from_invariants_matches_the_list_route(self, factors, modulus):
        g = len(factors)
        rows = [[d if j == i else 0 for j in range(g)] for i, d in enumerate(factors) if d]
        assert_same_value(FPModule.from_invariants(factors, modulus=modulus),
                          FPModule.from_presentation(rows, gens=g, modulus=modulus))
        assert_same_value(FPModule.from_invariants(tuple(factors), modulus=modulus),
                          FPModule.from_invariants(factors, modulus=modulus))

    @settings(max_examples=100, deadline=None)
    @given(f=unreduced_maps())
    def test_wrong_width_rows_still_raise(self, f):
        source, target = f.source, f.target
        wide = ((1,) * (target.gens + 1),)
        with pytest.raises(ValueError, match="relation width"):
            FPModule(target.gens, f.matrix + wide, target.modulus)
        with pytest.raises(ValueError, match="relation width"):
            FPModule.from_presentation([list(r) for r in wide], gens=target.gens,
                                       modulus=target.modulus)
        if source.gens:
            with pytest.raises(ValueError, match="matrix width"):
                Morphism(source, target, f.matrix[:-1] + wide)
            with pytest.raises(ValueError, match="matrix width"):
                Morphism.make(source, target, f.mat()[:-1] + [list(wide[0])])
        with pytest.raises(ValueError, match="row count"):
            Morphism(source, target, f.matrix + wide)
