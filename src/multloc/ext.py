"""Ext groups for finite modules over Z and Z/N, with enumeration oracles.

Engine route: Ext is additive in both arguments, so it splits into the
cyclic factors Z/d of A and Z/e of B (``invariants``).  The free resolution
of Z/d over Z/N is periodic (... -> Z/N --N/d--> Z/N --d--> Z/N -> Z/d -> 0),
so Ext^1(Z/d, Z/e) = ker(N/d on Z/e) / d(Z/e), a subquotient of a cyclic
group and so cyclic.  The kernel has order gcd(e, N/d) and d(Z/e) has order
e / gcd(d, e), so the group has order gcd(e, N/d) gcd(d, e) / e.  Ext^2 is
ker(d on Z/e) / (N/d)(Z/e): kill and scale swap, and the order is the same.
Over Z (N = 0) the resolution stops at 0 -> Z --d--> Z -> Z/d -> 0, so
Ext^1(Z/d, Z/e) = (Z/e) / d(Z/e) = Z/gcd(d, e), which is Z/d for a free
e = 0, and Ext^2 = 0.  A free factor of A (d = N, which is 0 over Z)
contributes nothing.

Oracle route: extensions of A by B are classified by lifting the diagonal
relations of A into B; the class group is enumerated elementwise, with no
matrix normal forms involved.
"""

from __future__ import annotations

import math
from itertools import product

from .fpmod import FPModule, merge_invariants


def ext1(a: FPModule, b: FPModule) -> tuple[int, ...]:
    """Invariant factors of Ext^1(A, B) over the common ground ring."""
    if a.modulus != b.modulus:
        raise ValueError("modules live over different rings")
    n = a.modulus
    # Z/N is free over Z/N, and Z over Z; a free factor of B (e = 0, only
    # over Z) gives Z/d
    return merge_invariants((math.gcd(e, n // d) * math.gcd(d, e) // e if e else d,)
                            for d in a.invariants() if d != n for e in b.invariants())


def ext2(a: FPModule, b: FPModule) -> tuple[int, ...]:
    """Ext^2: over Z/N it is isomorphic to Ext^1 (same cyclic orders, see
    the module docstring); over Z it is 0 (hereditary ring)."""
    if a.modulus == b.modulus == 0:
        return ()
    return ext1(a, b)


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
