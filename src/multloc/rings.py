"""Concrete base rings Z and F_p[t], polynomials over them, and the
Artinian checks for the two multiplicative subsets of P[x]:
S1 = nonzero constants, S2 = polynomials of content 1.

BasePID, Poly and the report are named tuples, so creating the classes runs
no generated code.  Like any tuple they iterate, compare equal to a plain
tuple of the same fields and serialize to JSON as lists; the report's
document comes from ``to_document``.
"""

from __future__ import annotations

import math
from collections import namedtuple


class ZeroPolynomial(Exception):
    pass


class NotInS1(Exception):
    pass


class NotInS2(Exception):
    pass


class FactorizationBound(Exception):
    pass


class NotADivisor(Exception):
    pass


# ---------------------------------------------------------------------------
# base PIDs: Z, or F_p[t] with elements as dense coefficient tuples
# ---------------------------------------------------------------------------


class BasePID(namedtuple("BasePID", "p")):
    """Z when p is None, otherwise the polynomial ring F_p[t]."""

    __slots__ = ()

    def __new__(cls, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return tuple.__new__(cls, (p,))

    @property
    def is_integers(self) -> bool:
        return self.p is None

    # base elements are ints over Z, tuples of ints in [0, p) over F_p[t]

    def normalize(self, a):
        if self.is_integers:
            return int(a)
        coeffs = [c % self.p for c in a]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def zero(self):
        return 0 if self.is_integers else ()

    def one(self):
        return 1 if self.is_integers else (1,)

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_unit(self, a) -> bool:
        if self.is_integers:
            return a in (1, -1)
        return len(a) == 1

    def add(self, a, b):
        if self.is_integers:
            return a + b
        n = max(len(a), len(b))
        out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
               for i in range(n)]
        return self.normalize(out)

    def mul(self, a, b):
        if self.is_integers:
            return a * b
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self.normalize(out)

    def divmod(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError
        if self.is_integers:
            return divmod(a, b)
        a = list(a)
        q = [0] * max(0, len(a) - len(b) + 1)
        inv_lead = pow(b[-1], -1, self.p)
        for i in range(len(a) - len(b), -1, -1):
            c = (a[i + len(b) - 1] * inv_lead) % self.p
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % self.p
        return self.normalize(q), self.normalize(a)

    def gcd(self, a, b):
        """Normalized gcd: nonnegative over Z, monic over F_p[t]."""
        if self.is_integers:
            return math.gcd(a, b)
        a, b = self.normalize(a), self.normalize(b)
        while not self.is_zero(b):
            _, r = self.divmod(a, b)
            a, b = b, r
        if self.is_zero(a):
            return ()
        inv_lead = pow(a[-1], -1, self.p)
        return self.normalize([c * inv_lead for c in a])

    def factor(self, a, bound: int = 10 ** 6) -> list[tuple[object, int]]:
        """Factor a nonzero, non-unit base element into primes within the bound.

        Over Z, trial division; over F_p[t], trial division by monic
        polynomials of ascending degree.  ``bound`` caps the number of
        candidates inspected.
        """
        if self.is_zero(a):
            raise ZeroDivisionError("cannot factor zero")
        if self.is_integers:
            n = abs(int(a))
            out: list[tuple[object, int]] = []
            d = 2
            steps = 0
            while d * d <= n:
                steps += 1
                if steps > bound:
                    raise FactorizationBound(f"no factorization within {bound} steps")
                if n % d == 0:
                    e = 0
                    while n % d == 0:
                        n //= d
                        e += 1
                    out.append((d, e))
                d += 1
            if n > 1:
                out.append((n, 1))
            return out
        # trial division by monic polynomials of ascending degree; any hit at
        # the current degree is irreducible because smaller primes are gone
        a = self.normalize(a)
        lead_inv = pow(a[-1], -1, self.p)
        a = self.normalize([c * lead_inv for c in a])
        out = []
        steps = 0
        deg = 1
        while len(a) > 1:
            if deg > (len(a) - 1) // 2:
                out.append((a, 1))
                break
            found = False
            for cand in _monic_polys(self.p, deg):
                steps += 1
                if steps > bound:
                    raise FactorizationBound(f"no factorization within {bound} candidates")
                q, r = self.divmod(a, cand)
                if self.is_zero(r):
                    e = 1
                    a = q
                    while True:
                        q2, r2 = self.divmod(a, cand)
                        if not self.is_zero(r2):
                            break
                        a = q2
                        e += 1
                    out.append((cand, e))
                    found = True
                    break
            if not found:
                deg += 1
        return out


def _monic_polys(p: int, deg: int):
    """All monic polynomials of the given degree over F_p, ascending: the
    k-th one takes its lower coefficients from the base-p digits of k, most
    significant first, so nothing of size p is built."""
    for k in range(p ** deg):
        digits = []
        for _ in range(deg):
            k, c = divmod(k, p)
            digits.append(c)
        yield tuple(reversed(digits)) + (1,)


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError where it is not exact."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {n} is only decided below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials over the base in the outer variable x
# ---------------------------------------------------------------------------


class Poly(namedtuple("Poly", "base coefficients")):
    """Dense polynomial in x over the base PID, low-to-high coefficients,
    with zero top coefficients trimmed."""

    __slots__ = ()

    MAX_DEGREE = 64

    def __new__(cls, base: BasePID, coefficients: tuple = ()):
        coeffs = [base.normalize(c) for c in coefficients]
        while coeffs and base.is_zero(coeffs[-1]):
            coeffs.pop()
        if len(coeffs) - 1 > cls.MAX_DEGREE:
            raise ValueError(f"degree above the configured bound {cls.MAX_DEGREE}")
        return tuple.__new__(cls, (base, tuple(coeffs)))

    @staticmethod
    def over_z(coeffs: list[int]) -> "Poly":
        return Poly(BasePID(), tuple(coeffs))

    def is_zero(self) -> bool:
        return not self.coefficients

    def degree(self) -> int:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no degree")
        return len(self.coefficients) - 1

    def is_constant(self) -> bool:
        return len(self.coefficients) <= 1

    def mul(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.base, ())
        n = len(self.coefficients) + len(other.coefficients) - 1
        out = [self.base.zero()] * n
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] = self.base.add(out[i + j], self.base.mul(a, b))
        return Poly(self.base, tuple(out))


def content(f: Poly):
    """Normalized gcd of the coefficients (positive over Z, monic over F_p[t])."""
    if f.is_zero():
        raise ZeroPolynomial("content of the zero polynomial is undefined")
    g = f.base.zero()
    for c in f.coefficients:
        g = f.base.gcd(g, c)
    return g


def classify_S1_S2(f: Poly) -> tuple[bool, bool]:
    """(is a nonzero constant, has content 1)."""
    if f.is_zero():
        return (False, False)
    in_s1 = f.is_constant()
    in_s2 = content(f) == f.base.one()
    return (in_s1, in_s2)


# ---------------------------------------------------------------------------
# the Artinian quadruple for s in S1, t in S2
# ---------------------------------------------------------------------------


class ArtinianQuadrupleReport(namedtuple("ArtinianQuadrupleReport", "s_factors field_clause "
                                         "localization_mod_t per_prime verdict")):
    __slots__ = ()

    def to_document(self) -> dict:
        return {
            "s_factors": [[_fmt(p), e] for p, e in self.s_factors],
            "field_clause": self.field_clause,
            "localization_mod_t": self.localization_mod_t,
            "per_prime": self.per_prime,
            "verdict": self.verdict,
        }


def _fmt(x) -> str:
    return str(list(x)) if isinstance(x, tuple) else str(x)


def artinian_quadruple_check(s: Poly, t: Poly, factor_bound: int = 10 ** 6
                             ) -> ArtinianQuadrupleReport:
    """Verify that the four tensor rings built from s and t are Artinian.

    For the constant s, the check factors it over the base and reduces t
    modulo every prime factor; content 1 forces a nonzero reduction, so
    each quotient is a finite-dimensional algebra over the residue field.
    The full-fraction-field clause and the residue-function-field clause
    are recorded rather than recomputed.
    """
    base = s.base
    in_s1, _ = classify_S1_S2(s)
    if not in_s1:
        raise NotInS1(f"s must be a nonzero constant, got {s.coefficients}")
    _, t_in_s2 = classify_S1_S2(t)
    if not t_in_s2:
        got = "the zero polynomial" if t.is_zero() else f"content {_fmt(content(t))}"
        raise NotInS2(f"t must have content 1, got {got}")

    s_elt = s.coefficients[0]
    if base.is_unit(s_elt):
        factors: list[tuple[object, int]] = []
    else:
        factors = base.factor(s_elt, bound=factor_bound)

    # Gauss-instance witness for the "every nonzero element splits as
    # constant times content-1" argument behind (ST)^{-1}R being a field
    prod = s.mul(t)
    expected = base.gcd(base.mul(content(s), content(t)), base.zero())
    gauss_ok = content(prod) == expected
    field_clause = {
        "claim": "inverting all nonzero constants and all content-1 polynomials "
                 "inverts every nonzero element, so the double localization is a field",
        "gauss_sample_ok": bool(gauss_ok),
        "trusted": True,
    }

    localization_mod_t = {
        "ring": "Frac(P)[x]/(t)",
        "dimension_over_fraction_field": t.degree(),
        "artinian": True,
    }

    per_prime = []
    ok = True
    for prime, exp in factors:
        tbar = _reduce_mod_prime(t, prime)
        nonzero = bool(tbar)
        if not nonzero:
            ok = False
        deg = len(tbar) - 1 if tbar else None
        entry = {
            "prime": _fmt(prime),
            "exponent": exp,
            "t_mod_prime_nonzero": nonzero,
            "t_mod_prime_degree": deg,
            "residue_quotient_cardinality": _residue_card(s.base, prime, deg),
            "nilpotent_reduction": "higher powers of the prime form a nilpotent "
                                   "ideal; Artinian is decided on the reduction",
            "localized_residue_clause": {
                "ring": "k(x) by the unital-lift argument",
                "trusted": True,
            },
        }
        per_prime.append(entry)

    return ArtinianQuadrupleReport(
        s_factors=factors,
        field_clause=field_clause,
        localization_mod_t=localization_mod_t,
        per_prime=per_prime,
        verdict=ok,
    )


def _reduce_mod_prime(t: Poly, prime):
    """Coefficients of t modulo a prime of the base, dropping leading zeros."""
    base = t.base
    if base.is_integers:
        coeffs = [c % prime for c in t.coefficients]
    else:
        coeffs = [base.divmod(c, prime)[1] for c in t.coefficients]
    while coeffs and (coeffs[-1] == 0 if base.is_integers else not coeffs[-1]):
        coeffs.pop()
    return coeffs


def _residue_card(base: BasePID, prime, deg: int | None):
    if deg is None:
        return None
    if base.is_integers:
        return prime ** deg
    q = base.p ** (len(prime) - 1)
    return q ** deg


# ---------------------------------------------------------------------------
# projectivity over Z/s
# ---------------------------------------------------------------------------


def is_projective_over_Z_mod_s(d: int, s: int) -> bool:
    """Is Z/d projective as a Z/s-module?  Requires d | s.

    Decided by the coprimality rule gcd(d, s/d) = 1; the CRT idempotent
    then realizes Z/d as a direct summand of Z/s.
    """
    if d <= 0 or s <= 0 or s % d != 0:
        raise NotADivisor(f"{d} does not divide {s}")
    return math.gcd(d, s // d) == 1


def projectivity_oracle_direct_summand(d: int, s: int) -> bool:
    """Brute-force oracle: search for a split embedding Z/d -> Z/s -> Z/d.

    Enumerates all module maps i (image of 1 must be killed by d) and all
    retractions and looks for pi o i = id.
    """
    if d <= 0 or s <= 0 or s % d != 0:
        raise NotADivisor(f"{d} does not divide {s}")
    for x in range(s):
        if (d * x) % s != 0:
            continue
        for y in range(d):
            if (x * y) % d == 1 % d:
                return True
    return False
