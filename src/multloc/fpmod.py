"""Finitely presented modules over Z and Z/N with exact homological toolkit.

An FPModule with g generators and relation rows R (over Z, plus N*I when
the modulus N is positive) is the quotient of Z^g by the row lattice of
its relations.  Elements are integer row vectors of length g; a morphism
is an integer matrix F acting by x -> x * F.

All submodule bookkeeping happens through row lattices in the ambient
generator space, so kernels, images, cokernels and exactness checks are
exact and deterministic.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .intlinalg import (
    canonical_invariants,
    hnf_rows,
    identity,
    lattice_member,
    left_nullspace,
    mat_mul,
    smith_normal_form,
    solve_left,
)


def merge_invariants(blocks) -> tuple[int, ...]:
    """Canonical invariants of a direct sum, given each summand's invariant
    list (0 = free)."""
    flat = [d for block in blocks for d in block]
    return canonical_invariants(flat, flat.count(0))


@dataclass(frozen=True)
class FPModule:
    """Presentation of a module over Z (modulus 0) or Z/N (modulus N > 0)."""

    gens: int
    relations: tuple[tuple[int, ...], ...] = ()
    modulus: int = 0

    def __post_init__(self):
        if self.modulus < 0:
            raise ValueError("modulus must be nonnegative")
        for row in self.relations:
            if len(row) != self.gens:
                raise ValueError("relation width does not match generator count")
        if self.modulus:
            object.__setattr__(
                self,
                "relations",
                tuple(tuple(x % self.modulus for x in row) for row in self.relations),
            )

    @staticmethod
    def from_presentation(rows: list[list[int]], gens: int | None = None,
                          modulus: int = 0) -> "FPModule":
        g = gens if gens is not None else (len(rows[0]) if rows else 0)
        return FPModule(gens=g, relations=tuple(tuple(r) for r in rows), modulus=modulus)

    @staticmethod
    def from_invariants(factors: list[int] | tuple[int, ...], modulus: int = 0) -> "FPModule":
        """Direct sum of cyclic modules Z/d (d = 0 meaning a free summand)."""
        g = len(factors)
        rows = []
        for i, d in enumerate(factors):
            if d != 0:
                row = [0] * g
                row[i] = d
                rows.append(row)
        return FPModule.from_presentation(rows, gens=g, modulus=modulus)

    @staticmethod
    def zero(modulus: int = 0) -> "FPModule":
        return FPModule(gens=0, relations=(), modulus=modulus)

    # -- lattice of relations ------------------------------------------------

    def relation_rows(self) -> list[list[int]]:
        return _relation_rows(self.gens, self.relations, self.modulus)

    def relation_hnf(self) -> tuple[tuple[int, ...], ...]:
        """HNF rows of the relation lattice, shared by equal presentations
        and so kept as tuples."""
        return _relation_hnf(self.gens, self.relations, self.modulus)

    # -- structure -----------------------------------------------------------

    def invariants(self) -> tuple[int, ...]:
        """Cyclic decomposition: torsion orders in a divisibility chain, 0 = free."""
        return _invariants(self.gens, self.relations, self.modulus)

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        n = 1
        for d in self.invariants():
            if d == 0:
                return None
            n *= d
        return n

    def is_zero(self) -> bool:
        return self.invariants() == ()


@dataclass(frozen=True)
class Morphism:
    """Module map source -> target given on generators by the rows of ``matrix``."""

    source: FPModule
    target: FPModule
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = [list(r) for r in self.matrix]
        if len(m) != self.source.gens:
            raise ValueError("matrix row count must equal source generator count")
        for row in m:
            if len(row) != self.target.gens:
                raise ValueError("matrix width must equal target generator count")

    @staticmethod
    def make(source: FPModule, target: FPModule, rows: list[list[int]]) -> "Morphism":
        return Morphism(source, target, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(m: FPModule) -> "Morphism":
        return Morphism.make(m, m, identity(m.gens))

    @staticmethod
    def multiplication(m: FPModule, scalar: int) -> "Morphism":
        return Morphism.make(m, m, [[scalar if i == j else 0 for j in range(m.gens)]
                                    for i in range(m.gens)])

    def mat(self) -> list[list[int]]:
        return [list(r) for r in self.matrix]

    def is_well_defined(self) -> bool:
        """Every source relation must map into the target relation lattice."""
        tgt = self.target.relation_hnf()
        cols = list(zip(*self.matrix))
        # without source generators every relation (an empty row) maps to 0
        return not self.source.gens or all(
            lattice_member(tgt, [sum(map(operator.mul, rel, col)) for col in cols])
            for rel in self.source.relation_rows())

    def compose(self, then: "Morphism") -> "Morphism":
        if self.target.gens != then.source.gens:
            raise ValueError("composition mismatch")
        return Morphism.make(self.source, then.target, mat_mul(self.mat(), then.mat()))

    def equals(self, other: "Morphism") -> bool:
        if self.source.gens != other.source.gens or self.target.gens != other.target.gens:
            return False
        tgt = self.target.relation_hnf()
        for i in range(self.source.gens):
            diff = [self.matrix[i][j] - other.matrix[i][j] for j in range(self.target.gens)]
            if not lattice_member(tgt, diff):
                return False
        return True

    # -- homological toolkit -------------------------------------------------

    def _preimage_lattice(self) -> list[list[int]]:
        """HNF rows spanning {x in Z^g : x*F lies in the target relation
        lattice}, as fresh lists; kernel, image and exactness checks share
        one computation, kept on the instance as tuples."""
        pre = self.__dict__.get("_preimage")
        if pre is None:
            rows = relations_among(self.mat(), self.target)
            pre = tuple(map(tuple, hnf_rows(rows))) if rows else ()
            object.__setattr__(self, "_preimage", pre)
        return [list(r) for r in pre]

    def kernel(self) -> tuple[FPModule, "Morphism"]:
        """Kernel as (module, inclusion into source)."""
        pre = self._preimage_lattice()
        ker = FPModule.from_presentation(relations_among(pre, self.source), gens=len(pre),
                                         modulus=self.source.modulus)
        return ker, Morphism.make(ker, self.source, pre)

    def image(self) -> tuple[FPModule, "Morphism"]:
        """Image as (module presented on the source generators, inclusion into target)."""
        pre = self._preimage_lattice()
        img = FPModule.from_presentation(pre, gens=self.source.gens,
                                         modulus=self.target.modulus)
        incl = Morphism.make(img, self.target, self.mat())
        return img, incl

    def cokernel(self) -> FPModule:
        rows = self.mat() + [list(r) for r in self.target.relations]
        return FPModule.from_presentation(rows, gens=self.target.gens,
                                          modulus=self.target.modulus)

    def is_injective(self) -> bool:
        ker, _ = self.kernel()
        return ker.is_zero()

    def is_surjective(self) -> bool:
        return self.cokernel().is_zero()

    def is_zero_morphism(self) -> bool:
        tgt = self.target.relation_hnf()
        return all(lattice_member(tgt, list(row)) for row in self.matrix)

    def is_isomorphism(self) -> bool:
        """A surjection between isomorphic finitely generated modules is
        injective (they are Hopfian: Vasconcelos, Trans. AMS 138, 1969)."""
        return self.is_surjective() and isomorphic(self.source, self.target)


def _relation_rows(gens: int, relations, modulus: int) -> list[list[int]]:
    rows = [list(r) for r in relations]
    if modulus:
        for i in range(gens):
            row = [0] * gens
            row[i] = modulus
            rows.append(row)
    return rows


@functools.cache
def _relation_hnf(gens: int, relations, modulus: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, hnf_rows(_relation_rows(gens, relations, modulus))))


@functools.cache
def _invariants(gens: int, relations, modulus: int) -> tuple[int, ...]:
    rows = _relation_rows(gens, relations, modulus)
    if not rows:
        return (0,) * gens
    nz = [d for d in smith_normal_form(rows) if d != 0]
    return canonical_invariants(nz, gens - len(nz))


def direct_sum(*mods: FPModule) -> FPModule:
    modulus = mods[0].modulus if mods else 0
    for m in mods:
        if m.modulus != modulus:
            raise ValueError("direct sum over mixed moduli")
    gens = sum(m.gens for m in mods)
    rows = []
    off = 0
    for m in mods:
        for rel in m.relations:
            row = [0] * gens
            row[off: off + m.gens] = list(rel)
            rows.append(row)
        off += m.gens
    return FPModule.from_presentation(rows, gens=gens, modulus=modulus)


def relations_among(rows: list[list[int]], ambient: FPModule) -> list[list[int]]:
    """Rows spanning the relations among ``rows`` in ``ambient``: the coefficient
    vectors c with c * rows in the relation lattice of ``ambient``."""
    if not rows:
        return []
    return [v[: len(rows)] for v in left_nullspace(rows + ambient.relation_rows())]


def factor_through_submodule(vectors: list[list[int]], sub_gens: list[list[int]],
                             ambient: FPModule) -> list[list[int]] | None:
    """Express each vector as a combination of sub_gens modulo ambient relations.

    Returns the coefficient matrix, or None if some vector is outside the
    submodule spanned by sub_gens (plus relations).
    """
    stacked = sub_gens + ambient.relation_rows()
    out = []
    for v in vectors:
        sol = solve_left(stacked, v)
        if sol is None:
            return None
        out.append(sol[: len(sub_gens)])
    return out


def submodules_equal(a_rows: list[list[int]], b_rows: list[list[int]],
                     ambient: FPModule) -> bool:
    """Equality of submodules of ``ambient`` spanned by the given row sets."""
    rel = ambient.relation_rows()
    la = hnf_rows(a_rows + rel)
    lb = hnf_rows(b_rows + rel)
    return la == lb


def is_exact_pair(f: Morphism, g: Morphism) -> bool:
    """Exactness of  . --f--> M --g--> .  at M (image of f equals kernel of g)."""
    if f.target.gens != g.source.gens:
        raise ValueError("maps are not composable around a joint")
    img = f.mat()
    ker = g._preimage_lattice()
    return submodules_equal(img, ker, f.target)


def isomorphic(a: FPModule, b: FPModule) -> bool:
    return a.invariants() == b.invariants()
