"""Countable multiplicative subsets as generator schedules; quotient,
torsion and constant towers as per-factor chains; completion, the five-term
sequence and the telescope complex.

The schedule is round-robin over the generator list, so every generator
recurs infinitely often; t_n is the product of the first n scheduled
elements (t_0 = 1).  Every tower of a finitely generated module splits
along its cyclic factors Z/d (Z for d = 0), whose quotient, torsion and
constant towers have cyclic stages, so each tower is a ``Chain`` of stage
orders and transition scalars and no stage is presented as a module.  A
chain's inverse limit is the eventual stable image, checked by a
stability window spanning one full schedule period (a certificate only
once the stages stop growing; see ``Chain``), and ``chain_lim`` decides
both with gcds; limits that the truncation cannot confirm raise
NotStabilized.  A factor's five-term block is read off those limits with
gcds too: its terms are cyclic and its maps are scalars between them
(``_five_term_assemble``).  Each cyclic factor's completion (its quotient
limit) and its five-term block are two memos; a call that raises
NotStabilized stores nothing and raises afresh.
lim^1 is not computed: the torsion tower of a finitely generated module
has finite stages, where it is zero (``Lim1Verdict``).  The invariants of
the quotient stages M/t_nM merge those of the factors' quotient chains
(``quotient_stages``).

Schedules, chains, limits and reports are named tuples, so creating the
classes runs no generated code.  Like any tuple they iterate, compare
equal to a plain tuple of the same fields and serialize to JSON as lists;
their documents come from ``to_document``.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from itertools import accumulate

from .fpmod import (
    FPModule,
    Morphism,
    _invariants,
    _relation_hnf,
    canonical_invariants,
    merge_invariants,
)
from .intlinalg import _saturate_divisor, hnf_rows, identity, mat_mul, smith_normal_form

DEFAULT_DEPTH = 12


class NotStabilized(Exception):
    """Truncation depth too small to certify the limit; carries the evidence."""

    def __init__(self, message: str, chains=None):
        super().__init__(message)
        self.chains = chains or []


class MultSubsetSeq(namedtuple("MultSubsetSeq", "generators")):
    """Multiplicative subset given by nonzero integer generators, stored as
    a tuple; it acts on modules over Z and over Z/N alike."""

    __slots__ = ()

    def __new__(cls, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("at least one generator is required")
        if not all(isinstance(g, int) and not isinstance(g, bool) and g
                   for g in generators):
            raise ValueError("generators must be nonzero integers")
        return tuple.__new__(cls, (generators,))

    def s(self, n: int) -> int:
        """The n-th scheduled element (1-based), round-robin."""
        if n < 1:
            raise ValueError("schedule starts at 1")
        return self.generators[(n - 1) % len(self.generators)]

    def schedule(self, n: int) -> tuple[int, ...]:
        """s_1 .. s_n, a slice of the generators repeated round-robin."""
        k = len(self.generators)
        return (self.generators * -(-n // k))[:n] if n > 0 else ()

    def t(self, n: int) -> int:
        """Partial product t_n = s_1 ... s_n, with t_0 = 1 (as an integer)."""
        return math.prod(self.schedule(n))


def _check_depth(depth: int | None) -> None:
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")


def certified_depth(d: int, seq: MultSubsetSeq) -> int:
    """Least depth at which every chain of Z/d (``Chain``) certifies its
    limit and each limit is verified at the stage where the five-term
    sequence reads it.

    k is the schedule period, d_S the largest divisor of d built from primes
    dividing some generator (gcd peeling, no factoring), and step(a) the
    least n >= a with gcd(d, t_n / t_a) = d_S, found by a running product
    modulo d; n0 = step(0).  The depth is

        max(n0 + 2k, step(max(n0, k + 1)) + k),

    which equals max(n0 + 2k, step(n0) + k, step(k + 1) + k, 2k + 1)
    because step is monotone and step(a) >= a; it is 2k + 1 when d_S = 1.
    Stage i of each chain belongs to t_{i+1}, and a = v_p(d).

    - Quotient chain, orders gcd(d, t_{i+1}): a run of k + 1 equal stages
      means one full period leaves gcd(d, t) unchanged, which happens
      exactly once t saturates d_S.  So the only plateau the window accepts
      is the true one, from stage max(n0 - 1, 0) on, and certifying it
      needs the top confirmed stage N - k - 1 to lie k above it:
      N >= n0 + 2k.
    - Torsion and constant chains: the image of stage m in stage j has
      p-part p^max(0, a - v_p(t_{m+1} / t_{j+1})) once t_{m+1} saturates d
      (always, for the constant chain); before that the torsion image is
      all of p^v_p(t_{j+1}).  With t_{N-k} saturated, a window of one
      period therefore confirms stage j exactly when t_{N-k} / t_{j+1}
      saturates d_S, i.e. step(j + 1) <= N - k, and every confirmed image
      is the same (zero, resp. Z/(d/d_S)), so the limit sits at stage 0.
      The iso window needs stages 0..k confirmed (N >= step(k + 1) + k),
      and the five-term sequence reads every limit at n_star = n0 - 1,
      which must be confirmed too (N >= step(n0) + k).

    One stage fewer breaks the condition that set the maximum (the
    quotient window, or the confirmation of stage k or n_star), so no
    smaller depth certifies the five-term block.

    A free factor (d = 0) never stabilizes; it gets max(DEFAULT_DEPTH,
    3k + 4) stages of evidence.
    """
    k = len(seq.generators)
    if d == 0:
        return max(DEFAULT_DEPTH, 3 * k + 4)
    d_s = _saturate_divisor(math.prod(seq.generators), d)

    def step(a: int) -> int:
        n, r = a, 1
        while math.gcd(d, r) != d_s:
            n += 1
            r = r * seq.s(n) % d
        return n

    n0 = step(0)
    return max(n0 + 2 * k, step(max(n0, k + 1)) + k)


def cyclic_completion_oracle(d: int, generators) -> dict:
    """Closed form of the five-term terms of Z/d, d > 0, by gcd peeling
    alone: Hom(S^-1 R / R, Z/d) = 0 (a divisible group has no nonzero map
    into a finite one), Hom(S^-1 R, Z/d) = Z/(d/d_S), the completion
    Lambda = Delta = Z/d_S, and Ext = 0."""
    d_s = _saturate_divisor(math.prod(generators), d)
    return {"l1": (), "l2": canonical_invariants([d // d_s]),
            "lambda": canonical_invariants([d_s]), "ext": ()}


# ---------------------------------------------------------------------------
# towers and chains
# ---------------------------------------------------------------------------


def _partial_products(seq: MultSubsetSeq, depth: int) -> list[int]:
    """t_1 .. t_depth, each one step of a running product."""
    return list(accumulate(seq.schedule(depth), operator.mul))


def quotient_stages(module: FPModule, seq: MultSubsetSeq,
                    depth: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """t_1 .. t_depth and the invariants of the quotient stages M/t_1M ..
    M/t_depthM.  Stage n of the quotient chain of a cyclic factor Z/d is
    Z/gcd(d, t_n) (``quotient_chain``), so stage n of M merges those orders
    over the invariant factors of M.  The transitions are the identity on
    generators."""
    _check_depth(depth)
    tvals = _partial_products(seq, depth)
    inv = module.invariants()
    return tvals, [merge_invariants((math.gcd(d, t),) for d in inv) for t in tvals]


class Chain(namedtuple("Chain", "orders scalars period")):
    """A tower of cyclic stages Z/o_0 .. Z/o_{N-1} (order 0 meaning Z) whose
    transition Z/o_{i+1} -> Z/o_i multiplies the generator by scalars[i].

    The towers of a cyclic factor Z/d, with g_i = gcd(d, t_{i+1}):
    - quotient, M/t_{i+1}M: orders g_i, scalars 1;
    - torsion, ker(t_{i+1}) generated by d/g_i: orders g_i, scalars
      s_{i+2} g_i / g_{i+1} (multiplication by s_{i+2} in the module);
    - constant, M with multiplication by s_{i+2}: orders d, scalars s_{i+2}.
      Its limit realizes the maps from the localization into M.

    ``period`` is the schedule period; the stability window spans one full
    period.  A chain that is constant across one period is constant forever
    only once the stages have stopped growing (the module's p-exponents are
    exhausted): from then on one more period multiplies by the same
    product.  Before that a constant window proves nothing: for Z/64 with
    schedule (3, 5, 6) the image of every stage from 2 through 19 in the
    torsion stage 2 is the same, and the image of stage 20 is smaller.
    ``certified_depth`` gives, from gcds alone, the least depth at which the
    window of a cyclic factor's chains lies past that point wherever the
    limits are read (39 in this example).
    """

    __slots__ = ()


def quotient_chain(d: int, seq: MultSubsetSeq, depth: int) -> Chain:
    """The quotient tower of Z/d (Z for d = 0) to ``depth`` stages."""
    orders = [math.gcd(d, t) for t in _partial_products(seq, depth)]
    return Chain(orders, [1] * (depth - 1), len(seq.generators))


def _torsion_and_constant_chains(d: int, seq: MultSubsetSeq,
                                 depth: int) -> tuple[Chain, Chain]:
    """The torsion and constant towers of Z/d, d > 0, to ``depth`` stages."""
    g = quotient_chain(d, seq, depth).orders
    s = list(seq.schedule(depth)[1:])   # s[i] = s_{i+2}
    k = len(seq.generators)
    # g_{i+1} divides s_{i+2} g_i, so each torsion scalar is exact
    return (Chain(g, [x * a // b for x, a, b in zip(s, g, g[1:])], k),
            Chain([d] * depth, s, k))


# stable_index: 0-based stage index where the limit is read;
# verified_through: highest 0-based index with window-checked images
LimCertificate = namedtuple("LimCertificate", "stable_index verified_through")

# the limit is Z/order (Z when order is 0)
ChainLimit = namedtuple("ChainLimit", "order certificate")


def chain_lim(chain: Chain) -> ChainLimit:
    """Inverse limit of a truncated chain via eventual stable images.

    The carrier c_i, the product of the scalars from stage i to the top
    stage N - 1, sends the top generator to stage i.  So the image of the
    top in stage i is generated by c_i, which is Z/e_i with the level
    lattice e_i = o_i / gcd(o_i, c_i): the relations among the carrier.

    Level i is confirmed when the image from the top equals the image from
    one window w below, whose carrier b_i ends at stage N - 1 - w.  Since
    c_i is b_i times the window's scalars, the image from the top always
    lies in the one from below, and the two are equal exactly when
    gcd(c_i, o_i) divides b_i.  Counting stops at the first unconfirmed
    level; the confirmation is only as good as the window (see ``Chain``).
    The transition between stable images is the identity on the generator,
    an isomorphism exactly when e_{i+1} = e_i.  The limit is certified once
    that holds over at least one window of levels below the last confirmed
    one, and is Z/e_i at each level from ``stable_index`` through
    ``verified_through``.  This is the stable-image argument of
    ``Lim1Verdict`` on cyclic stages."""
    orders, scalars, w = chain
    n = len(orders)
    carrier = [1] * n
    for i in range(n - 2, -1, -1):
        carrier[i] = carrier[i + 1] * scalars[i]
    below = [1] * (n - w)
    for i in range(n - w - 2, -1, -1):
        below[i] = below[i + 1] * scalars[i]
    i_max = next((i for i, b in enumerate(below)
                  if b % math.gcd(carrier[i], orders[i])), len(below)) - 1
    if i_max < w:
        raise NotStabilized("image chains not confirmed within depth",
                            chains=[[list(merge_invariants([(o,)])) for o in orders]])

    lattice = [o // math.gcd(o, c) for o, c in zip(orders, carrier[:i_max + 1])]
    i0 = i_max
    while i0 > 0 and lattice[i0 - 1] == lattice[i0]:
        i0 -= 1
    if i_max - i0 < w:
        raise NotStabilized("stable images keep changing through the truncation",
                            chains=[[canonical_invariants([e]) for e in lattice]])
    return ChainLimit(lattice[i0], LimCertificate(stable_index=i0, verified_through=i_max))


class Lim1Verdict(namedtuple("Lim1Verdict", "verdict certificate_kind")):
    """lim^1 of the torsion tower of a finitely generated module, which is
    zero: the stages are finite, so every image chain stabilizes and the
    tower is Mittag-Leffler (Weibel, An Introduction to Homological Algebra,
    Prop. 3.5.7).  So verdict is always "zero", certificate_kind always
    "finite_stages"."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return self.verdict == "zero"

    def to_document(self) -> dict:
        return {"verdict": self.verdict,
                "certificate": self.certificate_kind,
                "witness_chain": None}


FINITE_STAGES = Lim1Verdict(verdict="zero", certificate_kind="finite_stages")


# ---------------------------------------------------------------------------
# telescope complex
# ---------------------------------------------------------------------------


class TelescopeComplex(namedtuple("TelescopeComplex", "n schedule companion differential "
                                   "two_term f0 f1 g0 g1 homotopy")):
    """Two-term free complex of rank (n, n) whose dual computes M/t_nM and the
    t_n-torsion of M.

    ``differential`` is the triangular substitution y_i = x_i - s_i x_{i-1}
    (unimodular: 1 on the diagonal, -s_i below); ``two_term`` is the matrix
    of the complex map itself in row convention, and ``companion`` is t_n,
    the single nontrivial invariant factor of the complex.  The witness
    maps f (to the reduced complex), g (back) and the homotopy h certify
    the equivalence with multiplication by t_n.
    """

    __slots__ = ()

    def verify_witnesses(self) -> dict:
        """Check unimodularity, both chain-map squares, the retraction
        f o g = id, and both homotopy identities for g o f ~ id."""
        n, t = self.n, self.companion
        ident = identity(n)
        out = {
            "substitution_unimodular": hnf_rows(self.differential) == ident,
            "f_chain_map": mat_mul(self.two_term, self.f1)
                            == [[t * x for x in row] for row in self.f0],
            "g_chain_map": mat_mul(self.g0, self.two_term)
                            == [[t * x for x in row] for row in self.g1],
            "fg_identity_deg0": mat_mul(self.g0, self.f0) == [[1]],
            "fg_identity_deg1": mat_mul(self.g1, self.f1) == [[1]],
            "homotopy_deg0": _mat_sub(ident, mat_mul(self.f0, self.g0))
                            == mat_mul(self.two_term, self.homotopy),
            "homotopy_deg1": _mat_sub(ident, mat_mul(self.f1, self.g1))
                            == mat_mul(self.homotopy, self.two_term),
            "invariant_factors": smith_normal_form(self.two_term),
        }
        out["invariants_ok"] = out["invariant_factors"] == [1] * (n - 1) + [abs(t)]
        out["all_ok"] = all(v for k, v in out.items()
                            if k not in ("invariant_factors",))
        return out


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def telescope_complex(seq: MultSubsetSeq, n: int) -> TelescopeComplex:
    if n < 1:
        raise ValueError("n must be >= 1")
    s = seq.schedule(n)   # s[0] = s_1
    tvals = [1, *_partial_products(seq, n)]   # t_0 .. t_n

    differential = [[0] * n for _ in range(n)]
    for i in range(n):
        differential[i][i] = 1
        if i >= 1:
            differential[i][i - 1] = -s[i - 1]

    two_term = _two_term(s)
    f0 = [[1 if c == 0 else 0] for c in range(n)]
    # f1[r] = -(s_{r+2} ... s_n), the suffix products, one running product
    suffix = list(accumulate(reversed(s[1:]), operator.mul, initial=1))
    f1 = [[-p] for p in reversed(suffix)]
    g0 = [tvals[:n]]
    g1 = [[-1 if r == n - 1 else 0 for r in range(n)]]
    # homotopy[r][c] = s_{r+2} ... s_c for r < c, a running product along row r
    homotopy = [[0] * (r + 1) + list(accumulate(s[r + 1:n - 1], operator.mul, initial=1))
                for r in range(n - 1)] + [[0] * n]
    return TelescopeComplex(n=n, schedule=s, companion=tvals[n],
                            differential=differential, two_term=two_term,
                            f0=f0, f1=f1, g0=g0, g1=g1, homotopy=homotopy)


def _two_term(s) -> list[list[int]]:
    """Row convention: x_c maps to -s_{c+1} y_{c+1} + y_c... concretely
    two_term[c][r] is the y_{r+1}-coefficient of the image of x_c."""
    n = len(s)
    two_term = [[0] * n for _ in range(n)]
    for c in range(n):
        two_term[c][c] = -s[c]
        if c >= 1:
            two_term[c][c - 1] = 1
    return two_term


class TelescopeHomologyReport(namedtuple("TelescopeHomologyReport",
                                          "h0_engine h1_engine h0_direct h1_direct")):
    __slots__ = ()

    def passed(self) -> bool:
        return self.h0_engine == self.h0_direct and self.h1_engine == self.h1_direct

    def to_document(self) -> dict:
        return {"h0_engine": list(self.h0_engine), "h0_direct": list(self.h0_direct),
                "h1_engine": list(self.h1_engine), "h1_direct": list(self.h1_direct),
                "pass": self.passed()}


@functools.cache
def _dual_factors(schedule: tuple[int, ...]) -> list[int]:
    return smith_normal_form(_two_term(schedule))


@functools.cache
def _telescope_dual_homology(schedule: tuple[int, ...], d: int):
    """Homology of the dual two-term matrix on (Z/d)^n (or Z^n for d = 0).

    Both groups come from the Smith factors of the matrix itself: modulo d
    the unimodular transforms stay invertible, so cokernel and kernel are
    the sums of those of the diagonal entries (Cohen, GTM 138, section 2.4).
    A matrix and its transpose have the same invariant factors, so the
    factors are read off the two-term matrix without transposing it.  A
    module over Z/N has every d dividing N, so N adds nothing.

    x acts on Z/d, d > 0, with cokernel and kernel both Z/gcd(x, d), so for
    a finite factor the two groups are one merge and one tuple.  On Z
    (d = 0) x has cokernel Z/x (free when x = 0) and kernel Z if x = 0,
    else 0.
    """
    factors = _dual_factors(schedule)
    h0 = merge_invariants([(math.gcd(x, d),) for x in factors])
    return h0, h0 if d else (0,) * factors.count(0)


def _hnf_order(module: FPModule) -> int:
    """|M| read off the relation HNF: the product of its pivots when it has
    one row per generator (a full-rank lattice, whose index is that product:
    Cohen, GTM 138, section 2.4), and 0 when M has free rank."""
    hnf = module.relation_hnf()
    if len(hnf) != module.gens:
        return 0
    # full rank: row i has its pivot in column i
    return math.prod(row[i] for i, row in enumerate(hnf))


@functools.cache
def _scalar_homology(module: FPModule, scalar: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invariants of the cokernel and the kernel of multiplication by
    ``scalar`` on M, from one elimination of the map."""
    mul = Morphism.multiplication(module, scalar)
    return mul.cokernel().invariants(), mul.kernel()[0].invariants()


def telescope_homology_check(seq: MultSubsetSeq, n: int,
                             module: FPModule) -> TelescopeHomologyReport:
    """Homology of the dualized telescope against quotient and torsion of M.

    Engine route: cokernel and kernel of the dual two-term matrix acting on
    each cyclic factor of M, both read off the matrix's Smith factors.  On a
    finite factor the two are equal (``_telescope_dual_homology``), so a
    finite module takes one merge for both and only a module with a free
    factor merges the kernels apart.

    Direct route: M/t_nM and the t_n-torsion from the multiplication map by
    gcd(t_n, a) (``_scalar_homology``), with a = |M| when M is finite and
    a = 0 otherwise (``_hnf_order``).  The reduction is exact: with L the
    relation lattice of M in Z^g, a Z^g lies in L (Lagrange), so
    t Z^g + L = gcd(t, a) Z^g + L, and t x lies in L exactly when
    gcd(t, a) x does; so both groups depend on t only through gcd(t, a),
    and the memo computes each distinct (M, gcd) once.  On a module with
    free rank the scalar is |t_n|.  The route reads the relation HNF of M
    and eliminates the map; it reads neither ``module.invariants()`` (the
    Smith form the engine splits M by) nor either memo of the engine route
    (``_dual_factors``, ``_telescope_dual_homology``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    schedule = seq.schedule(n)
    inv = module.invariants()
    blocks = [_telescope_dual_homology(schedule, d) for d in inv]
    h0_engine = merge_invariants(cok for cok, _ in blocks)
    h1_engine = merge_invariants(ker for _, ker in blocks) if 0 in inv else h0_engine

    h0_direct, h1_direct = _scalar_homology(
        module, math.gcd(math.prod(schedule), _hnf_order(module)))
    return TelescopeHomologyReport(h0_engine=h0_engine, h1_engine=h1_engine,
                                   h0_direct=h0_direct, h1_direct=h1_direct)


# ---------------------------------------------------------------------------
# completion: Delta and Lambda via the truncated towers
# ---------------------------------------------------------------------------


class DeltaReport(namedtuple("DeltaReport", "lim1 lambda_invariants lambda_stable_index "
                             "delta_invariants delta_equals_lambda")):
    __slots__ = ()

    def to_document(self) -> dict:
        return {"lim1": self.lim1.to_document(),
                "lambda_invariants": list(self.lambda_invariants),
                "lambda_stable_index": self.lambda_stable_index,
                "delta_invariants": list(self.delta_invariants),
                "delta_equals_lambda": self.delta_equals_lambda}


@functools.cache
def _lambda_cyclic(d: int, seq: MultSubsetSeq, depth: int | None) -> ChainLimit:
    """The quotient limit of Z/d, the completion Lambda, at ``depth`` stages,
    by default ``certified_depth(d, seq)``, where its plateau is certified.
    Raises NotStabilized when the chain keeps growing.  The limit is the
    same over Z and over any Z/N that d divides, so N is not a key."""
    depth = depth if depth is not None else certified_depth(d, seq)
    return chain_lim(quotient_chain(d, seq, depth))


def delta_truncated(module: FPModule, seq: MultSubsetSeq,
                    depth: int | None = None) -> DeltaReport:
    """Contramodule reflector as (lim^1 of torsion tower, lim of quotient tower).

    Computed per cyclic factor and merged (every tower splits along the
    factors).  The torsion tower of a finitely generated module has finite
    stages, so lim^1 vanishes (``Lim1Verdict``), the reflector agrees with
    the completion, and only the quotient limit is computed.  Raises
    NotStabilized when some factor's quotient tower keeps growing at depth.
    """
    _check_depth(depth)
    lims = [_lambda_cyclic(d, seq, depth) for d in module.invariants()]
    lam_inv = merge_invariants((lim.order,) for lim in lims)
    return DeltaReport(
        lim1=FINITE_STAGES,
        lambda_invariants=lam_inv,
        lambda_stable_index=max((lim.certificate.stable_index for lim in lims), default=0),
        delta_invariants=lam_inv,
        delta_equals_lambda=True,
    )


# ---------------------------------------------------------------------------
# the five-term sequence for finite modules
# ---------------------------------------------------------------------------


class FiveTermReport(namedtuple("FiveTermReport", "hom_loc_mod_r hom_loc module_invariants "
                                "delta_invariants ext_invariants exact_at_hom_loc "
                                "exact_at_module injective_start lim1 stable_index")):
    """hom_loc_mod_r: maps from the localization-over-ring quotient;
    hom_loc: maps from the localization."""

    __slots__ = ()

    def exact_everywhere(self) -> bool:
        return (self.injective_start and self.exact_at_hom_loc
                and self.exact_at_module)


def _five_term_assemble(d: int, seq: MultSubsetSeq, tor: Chain, con: Chain,
                        lims: list[ChainLimit]) -> FiveTermReport:
    """The five-term report of Z/d from its torsion and constant chains and
    the torsion, constant and quotient limits.  Raises NotStabilized when
    the common stage index lies above what some limit verified: a limit
    read there would not be certified, and the terms could be wrong.

    Otherwise n_star lies between each limit's ``stable_index`` and its
    ``verified_through``, where ``chain_lim`` has proved the level lattice
    constant.  So L1, L2 and Lambda are Z/e1, Z/e2 and Z/e3, the orders of
    the three limits, each on one generator: L1 and L2 on the torsion and
    constant carriers at n_star (the products of their chains' scalars
    from n_star up), and Lambda on the quotient stage n_star.  Every map
    between the terms is a scalar x from Z/m to Z/k (orders dividing d):
    it is well defined iff k | m x, its image plus k's relations is
    gcd(x, k) Z, and the preimage of its kernel is (k / gcd(k, x)) Z.

    - iota lifts a, the torsion carrier taken into Z/d through the stage's
      generator d / g_{n_star}, through c, the constant carrier: v c = a
      modulo d, solvable iff g = gcd(c, d) divides a.  Then v is
      (a / g) (c / g)^-1 modulo d / g = e2, unique in L2.
    - ev multiplies the constant carrier by t_{n_star + 1}: y = t c.
    - pi is 1 on the generator of Lambda, so its cokernel, the Ext term,
      is Z/gcd(1, e3) = 0.

    Exactness at L2 compares im iota (with L2's relations) with the
    preimage of ker ev, at the module im ev with the preimage of ker pi,
    and iota is injective when its kernel's preimage is L1's relations,
    which also makes it well defined (e2 divides e1 v).  A route
    independent of ``cyclic_completion_oracle``."""
    n_star = max(lim.certificate.stable_index for lim in lims)
    verified = [lim.certificate.verified_through for lim in lims]
    if n_star > min(verified):
        raise NotStabilized(f"carriers are realized at stage {n_star} but the torsion, "
                            f"constant and quotient limits are verified through {verified}",
                            chains=[verified])

    e1, e2, e3 = (lim.order for lim in lims)
    a = math.prod(tor.scalars[n_star:]) * (d // tor.orders[n_star])
    c = math.prod(con.scalars[n_star:])
    y = seq.t(n_star + 1) * c
    g = math.gcd(c, d)
    v = a // g * pow(c // g, -1, d // g) if a % g == 0 else None
    return FiveTermReport(
        hom_loc_mod_r=canonical_invariants([e1]),
        hom_loc=canonical_invariants([e2]),
        module_invariants=canonical_invariants([d]),
        delta_invariants=canonical_invariants([e3]),
        ext_invariants=(),
        exact_at_hom_loc=v is not None and math.gcd(v, e2) == d // math.gcd(d, y),
        exact_at_module=math.gcd(y, d) == e3,
        injective_start=v is not None and e2 // math.gcd(e2, v) == e1,
        lim1=FINITE_STAGES,
        stable_index=n_star,
    )


@functools.cache
def _five_term_cyclic(d: int, seq: MultSubsetSeq, depth: int | None) -> FiveTermReport:
    """The five-term report of Z/d, d > 0, from its torsion and constant
    chains and the quotient limit of ``_lambda_cyclic``.  Raises
    NotStabilized from the first of the torsion, constant and quotient
    limits that does not certify, or from ``_five_term_assemble``.  Every
    term is a cyclic group of order dividing d, so the block is the same
    over Z and over any Z/N that d divides, and N is not a key.

    By default the chains are ``certified_depth(d, seq)`` deep, where every
    limit certifies and is verified at the common stage index n_star (see
    there)."""
    tor, con = _torsion_and_constant_chains(
        d, seq, depth if depth is not None else certified_depth(d, seq))
    lims = [chain_lim(tor), chain_lim(con), _lambda_cyclic(d, seq, depth)]
    return _five_term_assemble(d, seq, tor, con, lims)


def five_term_check(module: FPModule, seq: MultSubsetSeq,
                    depth: int | None = None) -> FiveTermReport:
    """Assemble and check the five-term sequence for a finite module.

    The module is decomposed into cyclic factors (the sequence is additive
    and every tower splits along them), each factor is checked at its own
    stable index, and the terms are merged canonically.  Without ``depth``
    each factor's chains are built to its ``certified_depth``, where every
    limit certifies and is verified at the stage where the sequence reads
    it.  An explicit ``depth`` too small for that raises NotStabilized
    rather than returning terms read off unverified limits.
    """
    _check_depth(depth)
    if module.order() is None:
        raise ValueError("five-term check requires a finite module")
    blocks = [_five_term_cyclic(d, seq, depth) for d in module.invariants()]

    def merge(field):
        return merge_invariants(getattr(b, field) for b in blocks)

    return FiveTermReport(
        hom_loc_mod_r=merge("hom_loc_mod_r"),
        hom_loc=merge("hom_loc"),
        module_invariants=merge("module_invariants"),
        delta_invariants=merge("delta_invariants"),
        ext_invariants=merge("ext_invariants"),
        exact_at_hom_loc=all(b.exact_at_hom_loc for b in blocks),
        exact_at_module=all(b.exact_at_module for b in blocks),
        injective_start=all(b.injective_start for b in blocks),
        lim1=FINITE_STAGES,
        stable_index=max((b.stable_index for b in blocks), default=0),
    )


def clear_caches() -> None:
    """Empty the eight cross-call memos of the package: relation HNFs
    (``_relation_hnf``) and invariants (``_invariants``); the telescope
    engine's Smith factors (``_dual_factors``) and homology per factor
    (``_telescope_dual_homology``); the direct route's homology of a
    scalar (``_scalar_homology``); the per-factor quotient limits
    (``_lambda_cyclic``) and five-term blocks (``_five_term_cyclic``); and the
    certificate joints (``certs._joint_failure``, imported here: ``certs``
    imports this module).  Each holds a pure function of its arguments (a
    call that raises stores nothing), so this changes no answer."""
    from .certs import _joint_failure
    for memo in (_relation_hnf, _invariants, _dual_factors, _telescope_dual_homology,
                 _scalar_homology, _lambda_cyclic, _five_term_cyclic, _joint_failure):
        memo.cache_clear()


# ---------------------------------------------------------------------------
# weakly cotorsion decision for finitely generated modules over Z
# ---------------------------------------------------------------------------


def is_weakly_cotorsion_fg(module: FPModule, m: int) -> bool:
    """For C = Z^r + (finite torsion) and S = <m>: true iff r = 0 or m = 1."""
    if m <= 0:
        raise ValueError("m must be positive")
    if module.modulus != 0:
        raise ValueError("decision rule applies to modules over Z")
    r = sum(1 for d in module.invariants() if d == 0)
    return r == 0 or m == 1


def weakly_cotorsion_report(module: FPModule, m: int,
                            depth: int | None = None) -> dict:
    """Decision plus the supporting evidence.

    Torsion modules: the five-term Ext term vanishes (computed).  Modules
    with free rank and m >= 2: the completion tower of the free part grows
    strictly, which is reported as the non-vanishing witness.
    """
    decision = is_weakly_cotorsion_fg(module, m)
    seq = MultSubsetSeq(generators=(m,))
    inv = module.invariants()
    free_rank = sum(1 for d in inv if d == 0)
    out = {"decision": decision, "invariants": list(inv), "m": m}
    if free_rank == 0:
        rep = five_term_check(module, seq, depth)
        out["ext_invariants"] = list(rep.ext_invariants)
        out["oracle_agrees"] = (rep.ext_invariants == ()) == decision
        out["exact"] = rep.exact_everywhere()
    elif m == 1:
        out["note"] = "inverting 1 changes nothing; every module qualifies"
        out["oracle_agrees"] = decision
    else:
        # the quotient chain of Z: stage n is Z/m^n, never 1 for m >= 2
        _check_depth(depth)
        free = quotient_chain(0, seq, depth if depth is not None else DEFAULT_DEPTH)
        try:
            chain_lim(free)
            stabilized = True
        except NotStabilized:
            stabilized = False
        out["free_part_growth"] = [[o] for o in free.orders]
        out["free_part_stabilized"] = stabilized
        out["oracle_agrees"] = (not stabilized) == (not decision)
    return out
