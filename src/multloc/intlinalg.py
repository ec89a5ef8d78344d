"""Exact integer linear algebra: extended gcd, Hermite and Smith normal forms.

Matrices are lists of lists of Python ints (rows).  Everything here is
exact; there is no floating point anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def exgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list[list[int]]:
    return [[0] * c for _ in range(r)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        acc = out[i]
        for k in range(inner):
            aik = row[k]
            if aik:
                brow = b[k]
                for j in range(cols):
                    acc[j] += aik * brow[j]
    return out


def mat_copy(a: list[list[int]]) -> list[list[int]]:
    return [row[:] for row in a]


def determinant(a: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(a)
    if n == 0:
        return 1
    m = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass
class SNFResult:
    """Smith normal form U*A*V = D with U, V unimodular.

    ``factors`` is the canonical list of diagonal entries: nonnegative,
    each dividing the next, padded with zeros up to min(shape).
    """

    U: list[list[int]]
    D: list[list[int]]
    V: list[list[int]]
    factors: list[int]


def smith_normal_form(a: list[list[int]]) -> SNFResult:
    """Smith normal form of an arbitrary integer matrix.

    Row operations are tracked in U, column operations in V, so that
    U * A * V = D holds exactly with det(U), det(V) = +-1.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = mat_copy(a)
    u = identity(rows)
    v = identity(cols)

    def row_op(i: int, j: int, q: int) -> None:
        # row i -= q * row j
        di, dj = d[i], d[j]
        for k in range(cols):
            di[k] -= q * dj[k]
        ui, uj = u[i], u[j]
        for k in range(rows):
            ui[k] -= q * uj[k]

    def col_op(i: int, j: int, q: int) -> None:
        # col i -= q * col j
        for r in range(rows):
            d[r][i] -= q * d[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_gcd_transform(t: int, i: int) -> None:
        # unimodular 2x2 transform on rows (t, i) sending (d[t][t], d[i][t])
        # to (gcd, 0)
        a_, b_ = d[t][t], d[i][t]
        g, x, y = exgcd(a_, b_)
        aa, bb = a_ // g, b_ // g
        rt, ri = d[t], d[i]
        d[t] = [x * rt[k] + y * ri[k] for k in range(cols)]
        d[i] = [-bb * rt[k] + aa * ri[k] for k in range(cols)]
        ut, ui = u[t], u[i]
        u[t] = [x * ut[k] + y * ui[k] for k in range(rows)]
        u[i] = [-bb * ut[k] + aa * ui[k] for k in range(rows)]

    def col_gcd_transform(t: int, j: int) -> None:
        a_, b_ = d[t][t], d[t][j]
        g, x, y = exgcd(a_, b_)
        aa, bb = a_ // g, b_ // g
        for r in range(rows):
            ct, cj = d[r][t], d[r][j]
            d[r][t] = x * ct + y * cj
            d[r][j] = -bb * ct + aa * cj
        for r in range(cols):
            ct, cj = v[r][t], v[r][j]
            v[r][t] = x * ct + y * cj
            v[r][j] = -bb * ct + aa * cj

    n = min(rows, cols)
    t = 0
    while t < n:
        # find pivot: smallest nonzero absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # alternate gcd-clearing of column t and row t until both are clean;
        # the pivot strictly divides its previous value whenever it changes.
        # Entries are shear-reduced mod the pivot first, which keeps the 2x2
        # transform coefficients (and hence U, V growth) small.
        while True:
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    if q:
                        row_op(i, t, q)
                    if d[i][t] != 0:
                        row_gcd_transform(t, i)
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    if q:
                        col_op(j, t, q)
                    if d[t][j] != 0:
                        col_gcd_transform(t, j)
            if all(d[i][t] == 0 for i in range(t + 1, rows)):
                break
        t += 1

    # enforce the divisibility chain d_1 | d_2 | ... by gcd-absorption
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            x, y = d[k][k], d[k + 1][k + 1]
            if x != 0 and y % x == 0:
                continue
            if x == 0 and y == 0:
                continue
            # bring y into row k via column op, re-clear the 2x2 block
            col_op(k, k + 1, -1)  # col k += col k+1 (q = -1)
            g, s_, t_ = exgcd(d[k][k], d[k + 1][k])
            # row k := s_*row k + t_*row k+1 ; row k+1 adjusted to keep det
            rk = d[k][:]
            rk1 = d[k + 1][:]
            x0, x1 = d[k][k], d[k + 1][k]
            for j in range(cols):
                d[k][j] = s_ * rk[j] + t_ * rk1[j]
                d[k + 1][j] = -(x1 // g) * rk[j] + (x0 // g) * rk1[j]
            uk = u[k][:]
            uk1 = u[k + 1][:]
            for j in range(rows):
                u[k][j] = s_ * uk[j] + t_ * uk1[j]
                u[k + 1][j] = -(x1 // g) * uk[j] + (x0 // g) * uk1[j]
            # clear the off-diagonal garbage
            for j in range(cols):
                if j != k and d[k][j] != 0:
                    q = d[k][j] // d[k][k]
                    col_op(j, k, q)
            for i in range(rows):
                if i != k + 1 and d[i][k + 1] != 0 and d[k + 1][k + 1] != 0:
                    q = d[i][k + 1] // d[k + 1][k + 1]
                    row_op(i, k + 1, q)
            changed = True

    # normalize signs to nonnegative diagonal
    for k in range(n):
        if d[k][k] < 0:
            for j in range(cols):
                d[k][j] = -d[k][j]
            for j in range(rows):
                u[k][j] = -u[k][j]

    factors = [d[k][k] for k in range(n)]
    # move zeros to the end (they already are, but be safe)
    nz = [f for f in factors if f != 0]
    factors = nz + [0] * (len(factors) - len(nz))
    return SNFResult(U=u, D=d, V=v, factors=factors)


def hnf_rows(a: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of the row lattice of ``a``.

    Returns an echelon basis (no zero rows): pivots positive, entries
    above each pivot reduced into [0, pivot).  Two integer matrices span
    the same row lattice iff their hnf_rows agree.
    """
    if not a:
        return []
    rows = [row[:] for row in a if any(row)]
    cols = len(a[0])
    basis: list[list[int]] = []
    for col in range(cols):
        # select rows whose leading support starts here
        pool = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not pool:
            rows = rest
            continue
        piv = pool[0][:]
        for r in pool[1:]:
            g, x, y = exgcd(piv[col], r[col])
            pc, rc = piv[col], r[col]
            new_piv = [x * piv[j] + y * r[j] for j in range(cols)]
            new_r = [-(rc // g) * piv[j] + (pc // g) * r[j] for j in range(cols)]
            piv = new_piv
            if any(new_r):
                rest.append(new_r)
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        rows = rest
    # reduce above-pivot entries bottom-up: each row against the already
    # reduced rows below it, in ascending pivot order, so no later step
    # disturbs an entry that was reduced earlier
    leads = [next(j for j in range(cols) if row[j] != 0) for row in basis]
    for k in range(len(basis) - 2, -1, -1):
        row = basis[k]
        for i in range(k + 1, len(basis)):
            q = row[leads[i]] // basis[i][leads[i]]
            if q:
                row = [x - q * y for x, y in zip(row, basis[i])]
        basis[k] = row
    return basis


def lattice_member(basis_hnf: list[list[int]], x: list[int]) -> bool:
    """Is x in the row lattice given by an hnf_rows basis?"""
    v = x[:]
    cols = len(x)
    for row in basis_hnf:
        lead = next(j for j in range(cols) if row[j] != 0)
        if v[lead] % row[lead] == 0:
            q = v[lead] // row[lead]
            if q:
                v = [v[j] - q * row[j] for j in range(cols)]
    return not any(v)


def row_echelon(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Row echelon form with its transform: (E, U, pivots) with U * a = E.

    U is unimodular, E is in row echelon form with positive pivots, and
    ``pivots[k]`` is the column of row k's pivot; the rows of E from
    ``len(pivots)`` on are zero, so the matching rows of U span the left
    kernel of ``a`` (Cohen, GTM 138, section 2.4).  Each column is cleared by
    repeated division by its smallest entry, which keeps U's entries small.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    # each row carries its row of U behind it, so one operation updates both
    aug = [row[:] + [1 if i == j else 0 for j in range(rows)] for i, row in enumerate(a)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        live = [i for i in range(r, rows) if aug[i][c]]
        if not live:
            continue
        while True:
            p = min(live, key=lambda i: abs(aug[i][c]))
            prow = aug[p]
            pv = prow[c]
            rest = []
            for i in live:
                if i != p:
                    row = aug[i]
                    q = row[c] // pv
                    row = aug[i] = [x - q * y for x, y in zip(row, prow)]
                    if row[c]:
                        rest.append(i)
            if not rest:
                break
            live = rest + [p]
        aug[p] = aug[r]
        aug[r] = prow if pv > 0 else [-x for x in prow]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return [row[:cols] for row in aug], [row[cols:] for row in aug], pivots


def left_nullspace(a: list[list[int]]) -> list[list[int]]:
    """Basis (rows) of {v : v * a = 0} over the integers."""
    _, u, pivots = row_echelon(a)
    return u[len(pivots):]


def solve_left(a: list[list[int]], x: list[int]) -> list[int] | None:
    """Solve v * a = x over the integers; None if no solution."""
    e, u, pivots = row_echelon(a)
    # w * E = x by forward substitution on the pivots, then v = w * U; a
    # remainder left in rest means x is not in the row lattice of a
    rest, v = list(x), [0] * len(a)
    for k, c in enumerate(pivots):
        q = rest[c] // e[k][c]
        rest = [y - q * z for y, z in zip(rest, e[k])]
        v = [y + q * z for y, z in zip(v, u[k])]
    return None if any(rest) else v
