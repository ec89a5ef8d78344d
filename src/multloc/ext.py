"""Ext groups for finite modules over Z and Z/N, with enumeration oracles.

Engine route: the free resolution of each cyclic factor, periodic over Z/N
(... -> Z/N --N/d--> Z/N --d--> Z/N -> Z/d -> 0), so
Ext^1(Z/d, B) = ker(N/d on B) / dB and Ext^2(Z/d, B) = ker(d on B) / (N/d)B.
Over Z (N = 0) it stops at 0 -> Z --d--> Z -> Z/d -> 0: the kill N/d is 0,
so Ext^1(Z/d, B) = B / dB, and Ext^2 = 0.
Each quotient is presented on the kernel's own generators: the kernel's
relations plus the coordinates of the image rows in its basis.  A step is a
function of (B, kill, scale) alone, and certificate checks ask for the same
steps many times over, so each is computed once per ``towers.clear_caches``.

Oracle route: extensions of A by B are classified by lifting the diagonal
relations of A into B; the class group is enumerated elementwise, with no
matrix normal forms involved.
"""

from __future__ import annotations

import functools
from itertools import product

from .fpmod import FPModule, Morphism, merge_invariants
from .intlinalg import lattice_coordinates


def ext1(a: FPModule, b: FPModule) -> tuple[int, ...]:
    """Invariant factors of Ext^1(A, B) over the common ground ring."""
    if a.modulus != b.modulus:
        raise ValueError("modules live over different rings")
    n = a.modulus
    # Z/N is free over Z/N, and Z over Z
    return merge_invariants(_resolution_step(b, n // d, d)
                            for d in a.invariants() if d != n)


def ext2(a: FPModule, b: FPModule) -> tuple[int, ...]:
    """Ext^2 over Z/N via the next step of the periodic resolution (0 over Z)."""
    if a.modulus != b.modulus:
        raise ValueError("modules live over different rings")
    n = a.modulus
    if n == 0:
        return ()                 # hereditary ring
    return merge_invariants(_resolution_step(b, d, n // d)
                            for d in a.invariants() if d != n)


@functools.cache
def _resolution_step(b: FPModule, kill: int, scale: int) -> tuple[int, ...]:
    """Invariants of ker(kill on B) / scale*B over Z/N, where kill * scale = N.

    The kernel is P / R, presented on the rows of P's HNF (its inclusion's
    matrix).  Since kill * scale = N, kill sends scale*e_i to N*e_i, which
    lies in R, so scale*e_i lies in P and has exact coordinates in that
    basis; with the kernel's own relations they present the quotient.
    """
    ker, incl = Morphism.multiplication(b, kill).kernel()
    image = [lattice_coordinates(incl.matrix, [scale * (i == j) for j in range(b.gens)])
             for i in range(b.gens)]
    return FPModule.from_presentation(list(ker.relations) + image, gens=ker.gens,
                                      modulus=ker.modulus).invariants()


def ext1_order(a: FPModule, b: FPModule) -> int:
    out = 1
    for d in ext1(a, b):
        out *= d
    return out


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


class _FiniteGroup:
    """Elementwise view of a product of cyclic groups, for enumeration."""

    def __init__(self, factors: list[int]):
        if any(f <= 0 for f in factors):
            raise ValueError("oracle needs finite factors")
        self.factors = factors

    def elements(self):
        return product(*[range(f) for f in self.factors])

    def scale(self, c: int, x):
        return tuple((c * xi) % f for xi, f in zip(x, self.factors))

    def subgroup(self, gens):
        seen = {tuple(0 for _ in self.factors)}
        frontier = list(seen)
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((a + b) % f for a, b, f in zip(cur, g, self.factors))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def ext1_order_oracle(a_factors: list[int], b_factors: list[int],
                      modulus: int = 0) -> int:
    """Number of extension classes of A by B, by direct enumeration.

    A relation d*x = 0 of A lifts to an arbitrary value in B subject to the
    cocycle constraint ((N/d) kills it over Z/N; no constraint over Z);
    changing the lift shifts the value by dB.  The class count is the
    product over A's cyclic factors of |cocycles| / |dB|.
    """
    if any(f <= 0 for f in a_factors) or any(f <= 0 for f in b_factors):
        raise ValueError("oracle is for finite modules")
    grp = _FiniteGroup(list(b_factors))
    total = 1
    for d in a_factors:
        if modulus:
            if d == modulus:
                continue
            cocycles = [x for x in grp.elements()
                        if all(((modulus // d) * xi) % f == 0
                               for xi, f in zip(x, grp.factors))]
        else:
            cocycles = list(grp.elements())
        boundary = grp.subgroup([grp.scale(d, e) for e in _unit_vectors(grp)])
        assert len(cocycles) % len(boundary) == 0
        total *= len(cocycles) // len(boundary)
    return total


def _unit_vectors(grp: _FiniteGroup):
    out = []
    for i in range(len(grp.factors)):
        e = [0] * len(grp.factors)
        e[i] = 1
        out.append(tuple(e))
    return out
