"""Finitely presented modules over Z and Z/N with exact homological toolkit.

An FPModule with g generators and relation rows R (over Z, plus N*I when
the modulus N is positive) is the quotient of Z^g by the row lattice of
its relations.  Elements are integer row vectors of length g; a morphism
is an integer matrix F acting by x -> x * F.

All submodule bookkeeping happens through row lattices in the ambient
generator space, so kernels, images, cokernels and exactness checks are
exact and deterministic.  Each morphism eliminates its stacked matrix
[F | I ; S | 0] once, with S the target's relation rows; no other
elimination in the package carries a transform.  The echelon form gives
the cokernel's relation HNF and the HNF of the preimage lattice, from which
the kernel, the image and injectivity are read.  Exactness of a pair
compares the first form of one map with the second form of the next, so it
eliminates nothing the two maps do not already hold.  The modules that
``cokernel`` and ``image`` return carry that HNF, and invariants start
their Smith passes from a module's relation HNF.  Maps serve whole modules
and certificate payloads; the cyclic factors that towers and Ext split into
are handled with gcds in their own modules.

FPModule and Morphism are named tuples, so creating the classes runs no
generated code: their fields are read-only, and equality and hashing go by
the fields.  Like any tuple they also iterate, compare equal to a plain
tuple of the same fields and serialize to JSON as lists.  Their
constructors take rows as tuples of int tuples: ``from_presentation`` and
``make`` convert lists, while ``cokernel``, ``kernel``, ``image``,
``multiplication`` and ``from_invariants`` build their tuples once and
pass them straight in.  Every construction checks the row widths, and a
module reduces its relations modulo N.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_left
from collections import namedtuple

from .intlinalg import (
    _diagonalize,
    _eliminate,
    _reduce_above_pivots,
    canonical_invariants,
    hnf_rows,
    identity,
    lattice_coordinates,
    lattice_member,
    mat_mul,
    zeros,
)


def merge_invariants(blocks) -> tuple[int, ...]:
    """Canonical invariants of a direct sum, given each summand's invariant
    list (0 = free)."""
    flat = [d for block in blocks for d in block]
    return canonical_invariants(flat, flat.count(0))


class FPModule(namedtuple("FPModule", "gens relations modulus")):
    """Presentation of a module over Z (modulus 0) or Z/N (modulus N > 0);
    relations are reduced modulo N."""

    _hnf = None   # the relation HNF, when the morphism that built it held it

    def __new__(cls, gens: int, relations: tuple[tuple[int, ...], ...] = (),
                modulus: int = 0):
        if modulus < 0:
            raise ValueError("modulus must be nonnegative")
        for row in relations:
            if len(row) != gens:
                raise ValueError("relation width does not match generator count")
        if modulus:
            relations = tuple(tuple(x % modulus for x in row) for row in relations)
        return tuple.__new__(cls, (gens, relations, modulus))

    @staticmethod
    def from_presentation(rows: list[list[int]], gens: int | None = None,
                          modulus: int = 0) -> "FPModule":
        g = gens if gens is not None else (len(rows[0]) if rows else 0)
        return FPModule(gens=g, relations=tuple(tuple(r) for r in rows), modulus=modulus)

    @staticmethod
    def from_invariants(factors: list[int] | tuple[int, ...], modulus: int = 0) -> "FPModule":
        """Direct sum of cyclic modules Z/d (d = 0 meaning a free summand)."""
        g = len(factors)
        zero = (0,) * g
        return FPModule(g, tuple(zero[:i] + (d,) + zero[i + 1:]
                                 for i, d in enumerate(factors) if d != 0), modulus)

    @staticmethod
    def zero(modulus: int = 0) -> "FPModule":
        return FPModule(gens=0, relations=(), modulus=modulus)

    # -- lattice of relations ------------------------------------------------

    def relation_rows(self) -> list[list[int]]:
        return _relation_rows(self.gens, self.relations, self.modulus)

    def relation_hnf(self) -> tuple[tuple[int, ...], ...]:
        """HNF rows of the relation lattice, shared by equal presentations
        and so kept as tuples.

        A module returned by ``Morphism.cokernel`` or ``Morphism.image``
        holds the HNF its morphism computed, as an instance attribute that
        is not a field (equality and hashing ignore it); any other module
        computes it from its presentation."""
        hnf = self._hnf
        return _relation_hnf(self.gens, self.relations, self.modulus) if hnf is None else hnf

    # -- structure -----------------------------------------------------------

    def invariants(self) -> tuple[int, ...]:
        """Cyclic decomposition: torsion orders in a divisibility chain, 0 = free.

        Keyed by the canonical relation HNF, so every presentation of one
        lattice shares the answer, and the Smith passes start from that HNF."""
        return _invariants(self.gens, self.relation_hnf())

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


class Morphism(namedtuple("Morphism", "source target matrix")):
    """Module map source -> target given on generators by the rows of ``matrix``."""

    _forms = None   # set by the first ``_hermite_forms`` call

    def __new__(cls, source: FPModule, target: FPModule,
                matrix: tuple[tuple[int, ...], ...]):
        if len(matrix) != source.gens:
            raise ValueError("matrix row count must equal source generator count")
        width = target.gens
        for row in matrix:
            if len(row) != width:
                raise ValueError("matrix width must equal target generator count")
        return tuple.__new__(cls, (source, target, matrix))

    @staticmethod
    def make(source: FPModule, target: FPModule, rows: list[list[int]]) -> "Morphism":
        return Morphism(source, target, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(m: FPModule) -> "Morphism":
        return Morphism.make(m, m, identity(m.gens))

    @staticmethod
    def multiplication(m: FPModule, scalar: int) -> "Morphism":
        zero = (0,) * m.gens
        return Morphism(m, m, tuple(zero[:i] + (scalar,) + zero[i + 1:]
                                    for i in range(m.gens)))

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
        if not then.source.gens:
            # through a module without generators: mat_mul cannot see the width
            return Morphism.make(self.source, then.target,
                                 zeros(self.source.gens, then.target.gens))
        return Morphism.make(self.source, then.target, mat_mul(self.mat(), then.mat()))

    def equals(self, other: "Morphism") -> bool:
        if self.source.gens != other.source.gens or self.target.gens != other.target.gens:
            return False
        return Morphism(self.source, self.target, tuple(
            tuple(map(operator.sub, a, b)) for a, b in zip(self.matrix, other.matrix))
        ).is_zero_morphism()

    # -- homological toolkit -------------------------------------------------

    def _hermite_forms(self) -> tuple[tuple[tuple[int, ...], ...],
                                      tuple[tuple[int, ...], ...]]:
        """(cokernel relation HNF, preimage HNF), both from one elimination
        of [F | I_g ; S | 0] over all h + g columns, kept on the instance
        for as long as the map lives.

        F is the g x h matrix and S the target's relation rows (N*I
        included).  The rows with a pivot in the first h columns are an
        echelon basis of the row lattice of [F ; S]: reduced above their
        pivots on those columns, they are the cokernel's relation HNF.  The
        other rows are zero there, and their last g entries are an echelon
        basis of the preimage lattice {x in Z^g : x*F in the row lattice of
        S}: reduced on that part, they are its HNF (Cohen, GTM 138, section
        2.4).
        """
        forms = self._forms
        if forms is None:
            h, g = self.target.gens, self.source.gens
            pad = [0] * g
            rows = []
            for i, row in enumerate(self.matrix):
                row = [*row, *pad]
                row[h + i] = 1
                rows.append(row)
            rows += [row + pad for row in self.target.relation_rows()]
            pivots = _eliminate(rows, h + g)
            r = bisect_left(pivots, h)
            coker = [row[:h] for row in rows[:r]]
            pre = [row[h:] for row in rows[r:len(pivots)]]
            if r > 1:
                _reduce_above_pivots(coker, pivots[:r])
            if len(pre) > 1:
                _reduce_above_pivots(pre, [c - h for c in pivots[r:]])
            forms = (tuple(map(tuple, coker)), tuple(map(tuple, pre)))
            self._forms = forms
        return forms

    def kernel(self) -> tuple[FPModule, "Morphism"]:
        """Kernel as (module, inclusion into source), for a well-defined map.

        ker f = P / R, with P the preimage lattice and R the source relation
        lattice, which P contains exactly when the map is well defined.  The
        generators are the rows of P's HNF (``_hermite_forms``), and the
        relations are the exact coordinates of the source's relation rows
        (N*I included) in that basis.  Raises ValueError when some source
        relation is outside P, i.e. the map is not well defined.
        """
        pre = self._hermite_forms()[1]
        relations = [lattice_coordinates(pre, row) for row in self.source.relation_rows()]
        if None in relations:
            raise ValueError("the kernel needs a well-defined map")
        ker = FPModule(len(pre), tuple(map(tuple, relations)), self.source.modulus)
        return ker, Morphism(ker, self.source, pre)

    def image(self) -> tuple[FPModule, "Morphism"]:
        """Image as (module presented on the source generators, inclusion into
        target).  Its relations are the preimage HNF (``_hermite_forms``),
        which contains N*Z^g over Z/N and so is also its relation HNF; the
        module carries it."""
        pre = self._hermite_forms()[1]
        img = FPModule(self.source.gens, pre, self.target.modulus)
        img._hnf = pre
        return img, Morphism(img, self.target, self.matrix)

    def cokernel(self) -> FPModule:
        """Cokernel, presented on the target generators by the map's rows and
        the target's relations.  It carries the relation HNF of
        ``_hermite_forms``, so its invariants need no elimination of their
        own before the Smith passes."""
        tgt = self.target
        coker = FPModule(tgt.gens, self.matrix + tgt.relations, tgt.modulus)
        coker._hnf = self._hermite_forms()[0]
        return coker

    def is_injective(self) -> bool:
        """For a well-defined map, ker f = P / R is zero exactly when the
        preimage lattice P equals the source relation lattice R, and their
        HNFs are canonical; P's comes from ``_hermite_forms``."""
        return self._hermite_forms()[1] == self.source.relation_hnf()

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
def _invariants(gens: int, hnf: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    diag = _diagonalize(hnf)
    return canonical_invariants(diag, gens - len(diag))


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


def is_exact_pair(f: Morphism, g: Morphism) -> bool:
    """Exactness of  . --f--> M --g--> .  at M (image of f equals kernel of g),
    for a well-defined g.

    f's cokernel relation HNF is the HNF of im f plus M's relation lattice R,
    and g's preimage HNF is the HNF of P_g = {x : x*G lies in the target's
    relation lattice}, with ker g = P_g / R.  Both are canonical, so the pair
    is exact exactly when they are equal (``_hermite_forms``).  When g is not
    well defined, P_g misses some relation of M and the answer is False.
    """
    if f.target.gens != g.source.gens:
        raise ValueError("maps are not composable around a joint")
    return f._hermite_forms()[0] == g._hermite_forms()[1]


def isomorphic(a: FPModule, b: FPModule) -> bool:
    return a.invariants() == b.invariants()
