"""Exact integer linear algebra: one row elimination loop, which gives the
Hermite normal form and the row echelon form with its transform, and
invariant factors by alternating HNF.

Each canonical form is one pass over the output of the pass before it: the
HNF reduces above the pivots of an echelon form (``_reduce_above_pivots``),
and the invariant factors alternate transposed HNFs starting from an HNF
(``_diagonalize``).  A caller that already holds an echelon form or an HNF
starts from it.  The elimination ``_eliminate`` has two callers: ``hnf_rows``
here, and ``fpmod.Morphism._hermite_forms``, which eliminates a morphism's
stacked matrix [F | I ; S | 0] once and reads its cokernel HNF and its
preimage HNF (a left kernel modulo a lattice) from that one echelon form
with its transform.

A vector's coordinates in an echelon basis come from forward substitution
alone, with no elimination: membership tests and kernel presentations read
them that way.

Matrices are lists of lists of Python ints (rows).  Everything here is
exact; there is no floating point anywhere in the package.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list[list[int]]:
    return [[0] * c for _ in range(r)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product a * b, multiplying only nonzero entries of both factors."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    cols = len(b[0]) if b else 0
    support = [[j for j, x in enumerate(row) if x] for row in b]
    out = zeros(len(a), cols)
    for row, acc in zip(a, out):
        for aik, brow, js in zip(row, b, support):
            if aik:
                for j in js:
                    acc[j] += aik * brow[j]
    return out


def canonical_invariants(factors: list[int], rank: int = 0) -> tuple[int, ...]:
    """Canonical invariant list: torsion d_1 | d_2 | ... (> 1), then 0 per free rank.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), so pass i replaces each pair
    (entry i, later entry) by its (gcd, lcm); after it, entry i divides every
    later entry.  Nothing is factored.
    """
    chain = [d for d in factors if d not in (0, 1)]
    for i in range(len(chain) - 1):
        a = chain[i]
        for j in range(i + 1, len(chain)):
            if a == 1:
                break
            g = gcd(a, chain[j])
            chain[j] = a // g * chain[j]
            a = g
        chain[i] = a
    return tuple(d for d in chain if d != 1) + (0,) * rank


def _saturate_divisor(d: int, n: int) -> int:
    """Product of the full prime powers of n over the primes dividing d.

    Peels from n every prime it shares with d by repeated gcds, so n is
    never factored."""
    m = n
    g = gcd(m, d)
    while g > 1:
        m //= g
        g = gcd(m, g)
    return n // m


def smith_normal_form(a: list[list[int]]) -> list[int]:
    """Invariant factors of an integer matrix: the diagonal of its Smith normal
    form, nonnegative, each dividing the next, padded with zeros to min(shape).

    The Smith passes of ``_diagonalize`` start from ``hnf_rows(a)``, and the
    chain is then built from their diagonal by gcd and lcm.
    """
    diag = _diagonalize(hnf_rows(a))
    chain = canonical_invariants(diag)
    n = min(len(a), len(a[0])) if a else 0
    return [1] * (len(diag) - len(chain)) + list(chain) + [0] * (n - len(diag))


def _diagonalize(hnf: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero diagonal entries that alternating Hermite forms reach from
    ``hnf``, the HNF of a matrix, one per unit of its rank; not yet a
    divisibility chain.

    Hermite forms of the transpose and of the matrix alternate until every
    row has one nonzero entry (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    Each pass's first pivot divides the last one's, and once it divides its
    whole row and column the canonical HNF keeps both clear, so the loop ends.
    """
    m = hnf
    while any(len(row) - row.count(0) > 1 for row in m):
        m = hnf_rows([list(col) for col in zip(*m)])
    return [max(row) for row in m]


def hnf_rows(a: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of the row lattice of ``a``.

    Returns an echelon basis (no zero rows): pivots positive, entries
    above each pivot reduced into [0, pivot).  Two integer matrices span
    the same row lattice iff their hnf_rows agree.  It is ``_eliminate``
    followed by ``_reduce_above_pivots``.
    """
    if not a:
        return []
    basis = [row[:] for row in a if any(row)]
    pivots = _eliminate(basis, len(a[0]))
    del basis[len(pivots):]
    return _reduce_above_pivots(basis, pivots)


def _reduce_above_pivots(basis: list[list[int]], pivots: list[int]) -> list[list[int]]:
    """The HNF of an echelon basis: row k has its positive pivot in column
    ``pivots[k]``, and the entries above each pivot are brought into
    [0, pivot).  The rows are replaced in place, and ``basis`` is returned.
    """
    # reduce above-pivot entries bottom-up: each row against the already
    # reduced rows below it, in ascending pivot order, so no later step
    # disturbs an entry that was reduced earlier
    for k in range(len(basis) - 2, -1, -1):
        row = basis[k]
        for i in range(k + 1, len(basis)):
            q = row[pivots[i]] // basis[i][pivots[i]]
            if q:
                row = [x - q * y for x, y in zip(row, basis[i])]
        basis[k] = row
    return basis


def lattice_coordinates(basis: list[list[int]], x: list[int]) -> list[int] | None:
    """The coordinates c with c * basis = x, or None when x is not in the row
    lattice of ``basis``.

    ``basis`` is any echelon basis: no zero rows, each row's first nonzero
    entry right of the row above's (``hnf_rows``, or the preimage HNF that
    ``fpmod.Morphism.kernel`` reads).  Only the first len(x) columns are
    read, so rows may carry further columns.  Forward substitution fixes
    each coordinate by one exact division at its row's leading entry
    (Cohen, GTM 138, section 2.4).
    """
    v = list(x)
    coords = []
    lead = 0
    for row in basis:
        while not row[lead]:
            lead += 1
        q, rem = divmod(v[lead], row[lead])
        if rem:
            return None
        if q:
            v = [y - q * z for y, z in zip(v, row)]
        coords.append(q)
    return None if any(v) else coords


def lattice_member(basis: list[list[int]], x: list[int]) -> bool:
    """Is x in the row lattice of ``basis``, any echelon basis?"""
    return lattice_coordinates(basis, x) is not None


def _eliminate(rows: list[list[int]], cols: int) -> list[int]:
    """Bring the first ``cols`` columns of ``rows`` to row echelon form in
    place and return the pivot columns.

    Row k's pivot is positive and sits in column ``pivots[k]``; the rows from
    ``len(pivots)`` on are zero in the first ``cols`` columns.  Row operations
    act on all columns, so columns past ``cols`` record the transform; since
    the rows still being eliminated are zero before the current column, each
    operation rewrites only the tail from that column on.  Each column is
    cleared by repeated division by its smallest entry, which keeps the
    entries small (Cohen, GTM 138, section 2.4), and is left as soon as one
    live (nonzero) row remains in it.
    """
    n = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == n:
            break
        # the live rows (nonzero in column c) and the first one of least size
        live = []
        p, small = -1, 0
        for i in range(r, n):
            x = rows[i][c]
            if x:
                live.append(i)
                if x < 0:
                    x = -x
                if p < 0 or x < small:
                    p, small = i, x
        if p < 0:
            continue
        while len(live) > 1:
            # reduce the other live rows by row p; their remainders are all
            # smaller than it, so the next pivot is the first least of them
            prow = rows[p]
            pv = prow[c]
            ptail = prow[c:]
            rest = []
            nxt = p
            for i in live:
                if i != p:
                    row = rows[i]
                    q = row[c] // pv
                    row[c:] = [x - q * y for x, y in zip(row[c:], ptail)]
                    x = row[c]
                    if x:
                        rest.append(i)
                        if x < 0:
                            x = -x
                        if x < small:
                            nxt, small = i, x
            rest.append(p)
            live = rest
            p = nxt
        prow = rows[p]
        if prow[c] < 0:
            prow[c:] = [-x for x in prow[c:]]
        rows[p] = rows[r]
        rows[r] = prow
        pivots.append(c)
        r += 1
    return pivots
