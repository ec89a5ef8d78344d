"""Countable multiplicative subsets as generator schedules; towers of
finite modules; torsion, completion and the telescope complex.

The schedule is round-robin over the generator list, so every generator
recurs infinitely often; t_n is the product of the first n scheduled
elements (t_0 = 1).  Inverse limits of truncated towers are computed as
eventual stable images, checked by a stability window spanning one full
schedule period (a certificate only once the stages stop growing; see
Tower); limits that the truncation cannot confirm raise NotStabilized,
and lim^1 is only ever reported as Zero-with-certificate or Unknown.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

from .fpmod import (
    FPModule,
    Morphism,
    canonical_invariants,
    factor_through_submodule,
    merge_invariants,
    relations_among,
    submodules_equal,
)
from .intlinalg import determinant, hnf_rows, identity, mat_mul, smith_normal_form

DEFAULT_DEPTH = 12
STABLE_WINDOW = 2


class NotStabilized(Exception):
    """Truncation depth too small to certify the limit; carries the evidence."""

    def __init__(self, message: str, chains=None):
        super().__init__(message)
        self.chains = chains or []


@dataclass(frozen=True)
class MultSubsetSeq:
    """Multiplicative subset of Z (modulus 0) or Z/N given by generators."""

    generators: tuple[int, ...]
    modulus: int = 0

    def __post_init__(self):
        if not self.generators:
            raise ValueError("at least one generator is required")
        if any(g == 0 for g in self.generators):
            raise ValueError("generators must be nonzero integers")

    def s(self, n: int) -> int:
        """The n-th scheduled element (1-based), round-robin."""
        if n < 1:
            raise ValueError("schedule starts at 1")
        return self.generators[(n - 1) % len(self.generators)]

    def t(self, n: int) -> int:
        """Partial product t_n = s_1 ... s_n, with t_0 = 1 (as an integer)."""
        out = 1
        for k in range(1, n + 1):
            out *= self.s(k)
        return out

    def key(self):
        return (self.generators, self.modulus)


def _check_depth(depth: int | None) -> None:
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")


def adequate_depth(module: FPModule, seq: MultSubsetSeq,
                   minimum: int = DEFAULT_DEPTH) -> int:
    """Depth at which every tower of this module is certain to stabilize.

    A cyclic factor of order d needs its p-exponents exhausted; round-robin
    delivers each generator once per cycle, so the exponent count plus a
    period-sized certification window (plus slack) is always enough.
    """
    max_exp = 0
    for d in module.invariants():
        if d <= 1:
            continue
        m = d
        p = 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                max_exp = max(max_exp, e)
            p += 1
        if m > 1:
            max_exp = max(max_exp, 1)
    period = len(seq.generators)
    return max(minimum, period * (max_exp + 3) + 4)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


@dataclass
class Tower:
    """Stages M_1 .. M_N with transitions M_{n+1} -> M_n.

    ``stage_inclusions`` (when present) realize each stage inside a common
    ambient module, e.g. torsion stages inside the module itself.
    ``period`` is the schedule period for towers built from a generator
    schedule; the stability window spans one full period.  A chain that is
    constant across one period is constant forever only once the stages
    have stopped growing (the module's p-exponents are exhausted): from
    then on one more period multiplies by the same product.  Before that a
    constant window proves nothing: for Z/64 with schedule (3, 5, 6) the
    level-2 torsion chain stays constant for 18 stages and drops at stage 20.
    """

    stages: list[FPModule]
    transitions: list[Morphism]
    label: str = ""
    t_values: list[int] = field(default_factory=list)
    stage_inclusions: list[Morphism] | None = None
    period: int | None = None

    def window(self) -> int:
        return self.period if self.period else STABLE_WINDOW - 1

    @property
    def depth(self) -> int:
        return len(self.stages)

    def composite(self, to_index: int, from_index: int) -> list[list[int]]:
        """Matrix of the composite stages[from_index] -> stages[to_index]."""
        if from_index < to_index:
            raise ValueError("composite runs downwards")
        mat = [[1 if i == j else 0 for j in range(self.stages[from_index].gens)]
               for i in range(self.stages[from_index].gens)]
        for m in range(from_index - 1, to_index - 1, -1):
            mat = mat_mul(mat, self.transitions[m].mat())
        return mat

    def stage_invariants(self) -> list[tuple[int, ...]]:
        return [s.invariants() for s in self.stages]


def quotient_tower(module: FPModule, seq: MultSubsetSeq, depth: int = DEFAULT_DEPTH) -> Tower:
    """Stages M/t_n M with the canonical (identity-on-generators) surjections."""
    _check_depth(depth)
    stages = []
    tvals = []
    for n in range(1, depth + 1):
        t = seq.t(n)
        rows = [list(r) for r in module.relations]
        for i in range(module.gens):
            row = [0] * module.gens
            row[i] = t
            rows.append(row)
        stages.append(FPModule.from_presentation(rows, gens=module.gens,
                                                 modulus=module.modulus))
        tvals.append(t)
    transitions = [Morphism.make(stages[k + 1], stages[k],
                                 [[1 if i == j else 0 for j in range(module.gens)]
                                  for i in range(module.gens)])
                   for k in range(depth - 1)]
    inclusions = [Morphism.make(module, st,
                                [[1 if i == j else 0 for j in range(module.gens)]
                                 for i in range(module.gens)])
                  for st in stages]
    return Tower(stages=stages, transitions=transitions, label="quotient",
                 t_values=tvals, stage_inclusions=inclusions,
                 period=len(seq.generators))


def torsion_tower(module: FPModule, seq: MultSubsetSeq, depth: int = DEFAULT_DEPTH) -> Tower:
    """Stages ker(t_n : M -> M) with transition 'multiply by s_{n+1}'."""
    _check_depth(depth)
    stages: list[FPModule] = []
    inclusions: list[Morphism] = []
    tvals = []
    for n in range(1, depth + 1):
        t = seq.t(n)
        ker, incl = Morphism.multiplication(module, t).kernel()
        stages.append(ker)
        inclusions.append(incl)
        tvals.append(t)
    transitions = []
    for k in range(depth - 1):
        mult = seq.s(k + 2)
        src, tgt = stages[k + 1], stages[k]
        rows = [[mult * x for x in row] for row in inclusions[k + 1].mat()]
        coeffs = factor_through_submodule(rows, inclusions[k].mat(), module)
        if coeffs is None:
            raise AssertionError("torsion transition failed to factor")
        transitions.append(Morphism.make(src, tgt, coeffs))
    return Tower(stages=stages, transitions=transitions, label="torsion",
                 t_values=tvals, stage_inclusions=inclusions,
                 period=len(seq.generators))


def constant_hom_tower(module: FPModule, seq: MultSubsetSeq,
                       depth: int = DEFAULT_DEPTH) -> Tower:
    """Constant stages M with transition 'multiply by s_{n+1}'.

    Its limit realizes the module of maps from the localization into M; the
    projection to the 0-th (omitted) stage is multiplication by t_n.
    """
    _check_depth(depth)
    stages = [module for _ in range(depth)]
    transitions = [Morphism.multiplication(module, seq.s(k + 2))
                   for k in range(depth - 1)]
    inclusions = [Morphism.identity(module) for _ in range(depth)]
    return Tower(stages=stages, transitions=transitions, label="constant",
                 t_values=[seq.t(n) for n in range(1, depth + 1)],
                 stage_inclusions=inclusions, period=len(seq.generators))


# ---------------------------------------------------------------------------
# limits of truncated towers
# ---------------------------------------------------------------------------


@dataclass
class LimCertificate:
    stable_index: int            # 0-based stage index of the returned carrier
    verified_through: int        # highest 0-based index with window-checked images
    image_stable_at: list[int]   # per level, first source index giving the stable image


@dataclass
class TowerLimit:
    module: FPModule
    carrier_rows: list[list[int]]     # generators of the stable image inside the stage
    stage_index: int
    certificate: LimCertificate


def _carriers(tower: Tower, top: int) -> list[list[list[int]]]:
    """Composites stages[top] -> stages[i] for i = 0..top, built top-down."""
    out = [identity(tower.stages[top].gens)]
    for i in range(top - 1, -1, -1):
        out.append(mat_mul(out[-1], tower.transitions[i].mat()))
    out.reverse()
    return out


def _stable_image_chains(tower: Tower, top: list[list[list[int]]] | None = None):
    """Per level i, lazily: (stable lattice, first stage index giving it),
    or (None, None) when the final window does not confirm the chain.
    ``top`` may pass in ``_carriers(tower, depth - 1)`` when the caller has it.

    The composite images into a level form a decreasing lattice chain, so
    two HNFs confirm it (the top image equals the image one window below)
    and the first stage giving the stable image is found by an exponential
    search from the level itself, then bisection: every composite from that
    stage up gives the stable image, every lower one a larger lattice.
    Lower composites are built only as far as the search reaches.  The
    confirmation is only as good as the window; see ``Tower``.
    """
    n = tower.depth
    w = tower.window()
    confirmable = max(n - w, 0)       # levels with a full window above them
    if confirmable:
        mats = [f.mat() for f in tower.transitions]
        top = top if top is not None else _carriers(tower, n - 1)
        below = _carriers(tower, n - 1 - w)
    for i in range(confirmable):
        rel = tower.stages[i].relation_rows()
        stable = hnf_rows(top[i] + rel)
        if hnf_rows(below[i] + rel) != stable:
            yield None, None
            continue
        comps = [identity(tower.stages[i].gens)]

        def is_stable(k: int) -> bool:
            # composite from stage i + k, extended one stage up at a time
            while len(comps) <= k:
                comps.append(mat_mul(mats[i + len(comps) - 1], comps[-1]))
            return hnf_rows(comps[k] + rel) == stable

        lo, hi = 0, n - 1 - w - i
        probe = 0
        while probe < hi:
            if is_stable(probe):
                hi = probe
                break
            lo = probe + 1
            probe = 2 * probe + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if is_stable(mid):
                hi = mid
            else:
                lo = mid + 1
        yield stable, i + lo
    yield from [(None, None)] * (n - confirmable)


def _submodule_on_rows(stage: FPModule, rows: list[list[int]]) -> FPModule:
    return FPModule.from_presentation(relations_among(rows, stage), gens=len(rows),
                                      modulus=stage.modulus)


def tower_lim(tower: Tower) -> TowerLimit:
    """Inverse limit of the truncated tower via eventual stable images.

    Level i's stable image is Z^g / L_i, L_i the relations among the rows of
    its carrier (the composite from the top stage).  Since
    ``carrier[i] = carrier[i+1] * T_i`` exactly, the transition between
    stable images is the identity on generators with L_{i+1} inside L_i:
    an isomorphism exactly when L_{i+1} = L_i, i.e. when the canonical
    relation HNFs agree.  The limit is certified once those transitions are
    isomorphisms over a window of at least STABLE_WINDOW consecutive levels.
    """
    n = tower.depth
    w = tower.window()
    carrier = _carriers(tower, n - 1) if n > w else None
    stable_at = []
    for stable, at in _stable_image_chains(tower, carrier):
        if stable is None:
            break
        stable_at.append(at)
    i_max = len(stable_at) - 1
    if i_max < w:
        stage_invs = [list(s.invariants()) for s in tower.stages]
        raise NotStabilized("image chains not confirmed within depth",
                            chains=[stage_invs])

    @functools.cache
    def sub(i: int) -> FPModule:
        return _submodule_on_rows(tower.stages[i], carrier[i])

    iso_down_to = i_max
    for j in range(i_max - 1, -1, -1):
        if sub(j + 1).relation_hnf() == sub(j).relation_hnf():
            iso_down_to = j
        else:
            break
    if i_max - iso_down_to < w:
        raise NotStabilized(
            "stable images keep changing through the truncation",
            chains=[[canonical_invariants(list(sub(i).invariants()), 0)
                     for i in range(i_max + 1)]])

    i0 = iso_down_to
    cert = LimCertificate(
        stable_index=i0,
        verified_through=i_max,
        image_stable_at=stable_at,
    )
    return TowerLimit(module=sub(i0), carrier_rows=carrier[i0],
                      stage_index=i0, certificate=cert)


@dataclass
class Lim1Verdict:
    verdict: str                  # "zero" or "unknown"
    certificate_kind: str | None  # "finite_stages" or "mittag_leffler_within_depth"
    witness_chain: list | None = None

    def is_zero(self) -> bool:
        return self.verdict == "zero"

    def to_document(self) -> dict:
        return {"verdict": self.verdict,
                "certificate": self.certificate_kind,
                "witness_chain": self.witness_chain}


def tower_lim1(tower: Tower) -> Lim1Verdict:
    """Mittag-Leffler style verdict: Zero with a certificate, or Unknown.

    Towers of finite modules are always Zero: each image chain lives in a
    finite module, so it must stabilize.  Otherwise every image chain must
    show a stable window within the truncation.
    """
    if all(s.order() is not None for s in tower.stages):
        return Lim1Verdict(verdict="zero", certificate_kind="finite_stages")
    n = tower.depth
    for i, (stable, _) in zip(range(n - tower.window()), _stable_image_chains(tower)):
        if stable is None:
            # record the image invariants along the failing level
            witness = []
            for m in range(n - i):
                sub = _submodule_on_rows(tower.stages[i],
                                         tower.composite(i, i + m))
                witness.append(list(sub.invariants()))
            return Lim1Verdict(verdict="unknown", certificate_kind=None,
                               witness_chain=witness)
    return Lim1Verdict(verdict="zero",
                       certificate_kind="mittag_leffler_within_depth")


# ---------------------------------------------------------------------------
# torsion submodule and divisibility
# ---------------------------------------------------------------------------


@dataclass
class Gamma:
    """Maximal torsion part for the subset, with a bounding witness."""

    carrier: FPModule
    inclusion_rows: list[list[int]]
    witness: int | None
    stabilized_at: int

    def to_document(self) -> dict:
        return {"invariants": list(self.carrier.invariants()),
                "witness": self.witness,
                "stabilized_at": self.stabilized_at}


def torsion_submodule(module: FPModule, seq: MultSubsetSeq,
                      depth: int | None = None) -> Gamma:
    """Union of the kernels of t_n, certified by a constant kernel window."""
    _check_depth(depth)
    depth = depth if depth is not None else adequate_depth(module, seq)
    lattices = []
    w = len(seq.generators)
    for n in range(1, depth + 1):
        f = Morphism.multiplication(module, seq.t(n))
        lattices.append(hnf_rows(f._preimage_lattice() + module.relation_rows()))
    if depth <= w or lattices[-1] != lattices[-1 - w]:
        raise NotStabilized("kernel chain still grows at the truncation depth",
                            chains=[lattices])
    stable = lattices[-1]
    n0 = 1 + next(k for k in range(depth) if lattices[k] == stable)
    f = Morphism.multiplication(module, seq.t(n0))
    ker, incl = f.kernel()
    witness = seq.t(n0)
    scaled = Morphism.make(ker, module, [[witness * x for x in row] for row in incl.mat()])
    assert scaled.is_zero_morphism(), "witness must annihilate the torsion part"
    return Gamma(carrier=ker, inclusion_rows=incl.mat(), witness=witness,
                 stabilized_at=n0)


@dataclass
class DivisibilityReport:
    generator_flags: list[tuple[int, bool]]
    divisible: bool
    h_divisible: bool
    max_divisible_invariants: tuple[int, ...]
    stabilized_at: int | None
    note: str

    def to_document(self) -> dict:
        return {"generator_flags": [[g, ok] for g, ok in self.generator_flags],
                "divisible": self.divisible,
                "h_divisible": self.h_divisible,
                "max_divisible_invariants": list(self.max_divisible_invariants),
                "stabilized_at": self.stabilized_at,
                "note": self.note}


def divisibility_report(module: FPModule, seq: MultSubsetSeq,
                        depth: int | None = None) -> DivisibilityReport:
    """Per-generator surjectivity flags and the maximal divisible submodule."""
    _check_depth(depth)
    depth = depth if depth is not None else adequate_depth(module, seq)
    if module.order() is None:
        raise ValueError("divisibility report requires a finite module")
    flags = []
    for g in seq.generators:
        flags.append((g, Morphism.multiplication(module, g).is_surjective()))
    divisible = all(ok for _, ok in flags)

    lattices = []
    for n in range(1, depth + 1):
        t = seq.t(n)
        rows = [[t * x for x in row] for row in Morphism.identity(module).mat()]
        lattices.append(hnf_rows(rows + module.relation_rows()))
    w = len(seq.generators)
    stable_at = None
    if depth > w and lattices[-1] == lattices[-1 - w]:
        stable_at = 1 + next(k for k in range(depth) if lattices[k] == lattices[-1])
    rows = [[seq.t(stable_at or depth) * x for x in row]
            for row in Morphism.identity(module).mat()]
    sub = _submodule_on_rows(module, rows)
    return DivisibilityReport(
        generator_flags=flags,
        divisible=divisible,
        h_divisible=divisible,
        max_divisible_invariants=sub.invariants(),
        stabilized_at=stable_at,
        note="h-divisibility equals divisibility for a countable subset; "
             "recorded from that rule, not recomputed",
    )


# ---------------------------------------------------------------------------
# telescope complex
# ---------------------------------------------------------------------------


@dataclass
class TelescopeComplex:
    """Two-term free complex of rank (n, n) whose dual computes M/t_nM and the
    t_n-torsion of M.

    ``differential`` is the triangular substitution y_i = x_i - s_i x_{i-1}
    (unimodular: 1 on the diagonal, -s_i below); ``two_term`` is the matrix
    of the complex map itself in row convention, and ``companion`` is t_n,
    the single nontrivial invariant factor of the complex.  The witness
    maps f (to the reduced complex), g (back) and the homotopy h certify
    the equivalence with multiplication by t_n.
    """

    n: int
    schedule: tuple[int, ...]
    companion: int
    differential: list[list[int]]
    two_term: list[list[int]]
    f0: list[list[int]]
    f1: list[list[int]]
    g0: list[list[int]]
    g1: list[list[int]]
    homotopy: list[list[int]]

    def verify_witnesses(self) -> dict:
        """Check unimodularity, both chain-map squares, the retraction
        f o g = id, and both homotopy identities for g o f ~ id."""
        n, t = self.n, self.companion
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        out = {
            "substitution_unimodular": abs(determinant(self.differential)) == 1,
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
            "invariant_factors": smith_normal_form(self.two_term).factors,
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
    s = [seq.s(k) for k in range(1, n + 1)]   # s[0] = s_1
    t_n = seq.t(n)

    differential = [[0] * n for _ in range(n)]
    for i in range(n):
        differential[i][i] = 1
        if i >= 1:
            differential[i][i - 1] = -s[i - 1]

    # row convention: x_c maps to -s_{c+1} y_{c+1} + y_c... concretely
    # two_term[c][r] is the y_{r+1}-coefficient of the image of x_c
    two_term = [[0] * n for _ in range(n)]
    for c in range(n):
        two_term[c][c] = -s[c]
        if c >= 1:
            two_term[c][c - 1] = 1

    f0 = [[1 if c == 0 else 0] for c in range(n)]
    f1 = [[-_prod(s[r + 1:])] for r in range(n)]
    g0 = [[seq.t(c) for c in range(n)]]
    g1 = [[-1 if r == n - 1 else 0 for r in range(n)]]
    homotopy = [[_prod(s[r + 1: c]) if r < c else 0 for c in range(n)]
                for r in range(n)]
    return TelescopeComplex(n=n, schedule=tuple(s), companion=t_n,
                            differential=differential, two_term=two_term,
                            f0=f0, f1=f1, g0=g0, g1=g1, homotopy=homotopy)


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


@dataclass
class TelescopeHomologyReport:
    h0_engine: tuple[int, ...]
    h1_engine: tuple[int, ...]
    h0_direct: tuple[int, ...]
    h1_direct: tuple[int, ...]

    def passed(self) -> bool:
        return self.h0_engine == self.h0_direct and self.h1_engine == self.h1_direct

    def to_document(self) -> dict:
        return {"h0_engine": list(self.h0_engine), "h0_direct": list(self.h0_direct),
                "h1_engine": list(self.h1_engine), "h1_direct": list(self.h1_direct),
                "pass": self.passed()}


_TEL_MEMO: dict = {}
_TEL_SNF_MEMO: dict = {}


def _telescope_dual_homology(schedule: tuple[int, ...], d: int, modulus: int,
                             dual: list[list[int]]):
    """Homology of the dual two-term matrix on (Z/d)^n (or Z^n for d = 0).

    H0 comes from the stacked presentation [dual; d*I]; H1 uses the Smith
    factors of the matrix itself: modulo d the unimodular transforms stay
    invertible, so the kernel is the sum of the kernels of the diagonal
    entries.
    """
    key = (schedule, d, modulus)
    if key in _TEL_MEMO:
        return _TEL_MEMO[key]
    n = len(schedule)
    if schedule not in _TEL_SNF_MEMO:
        _TEL_SNF_MEMO[schedule] = smith_normal_form(dual).factors
    diag = _TEL_SNF_MEMO[schedule]

    rows = [list(r) for r in dual]
    if d:
        for i in range(n):
            row = [0] * n
            row[i] = d
            rows.append(row)
    h0 = FPModule.from_presentation(rows, gens=n, modulus=modulus).invariants()

    # x acts on Z/d with kernel Z/gcd(x, d); on Z with kernel Z if x = 0, else 0
    h1 = merge_invariants([(math.gcd(x, d),) for x in diag if d or x == 0])
    out = (h0, h1)
    _TEL_MEMO[key] = out
    return out


def telescope_homology_check(seq: MultSubsetSeq, n: int,
                             module: FPModule) -> TelescopeHomologyReport:
    """Homology of the dualized telescope against quotient and torsion of M.

    Engine route: cokernel/kernel of the dual two-term matrix acting on
    each cyclic factor of M (stacked-presentation SNF and toolkit kernel).
    Direct route: M/t_nM and the t_n-torsion from the multiplication map.
    """
    tc = telescope_complex(seq, n)
    dual = [list(col) for col in zip(*tc.two_term)]   # row-convention dual map

    blocks = [_telescope_dual_homology(tc.schedule, d, module.modulus, dual)
              for d in module.invariants()]
    h0_engine = merge_invariants(cok for cok, _ in blocks)
    h1_engine = merge_invariants(ker for _, ker in blocks)

    t = seq.t(n)
    mul = Morphism.multiplication(module, t)
    h0_direct = mul.cokernel().invariants()
    h1_direct = mul.kernel()[0].invariants()
    return TelescopeHomologyReport(h0_engine=h0_engine, h1_engine=h1_engine,
                                   h0_direct=h0_direct, h1_direct=h1_direct)


# ---------------------------------------------------------------------------
# completion: Delta and Lambda via the truncated towers
# ---------------------------------------------------------------------------


@dataclass
class DeltaReport:
    lim1: Lim1Verdict
    lambda_invariants: tuple[int, ...]
    lambda_stable_index: int
    delta_invariants: tuple[int, ...] | None
    delta_equals_lambda: bool

    def to_document(self) -> dict:
        return {"lim1": self.lim1.to_document(),
                "lambda_invariants": list(self.lambda_invariants),
                "lambda_stable_index": self.lambda_stable_index,
                "delta_invariants": (list(self.delta_invariants)
                                     if self.delta_invariants is not None else None),
                "delta_equals_lambda": self.delta_equals_lambda}


def delta_truncated(module: FPModule, seq: MultSubsetSeq,
                    depth: int | None = None) -> DeltaReport:
    """Contramodule reflector as (lim^1 of torsion tower, lim of quotient tower).

    Computed per cyclic factor and merged (all carriers are additive in the
    module).  When the lim^1 verdict is Zero with a certificate, the
    reflector agrees with the completion and the concrete module is the
    stable quotient stage.  Raises NotStabilized when some factor's
    quotient tower keeps growing at depth.
    """
    _check_depth(depth)
    blocks = [_unwrap(_cyclic_completion(d, module.modulus, seq, depth).delta)
              for d in module.invariants()]
    if not blocks:
        zero = Lim1Verdict(verdict="zero", certificate_kind="finite_stages")
        return DeltaReport(lim1=zero, lambda_invariants=(), lambda_stable_index=0,
                           delta_invariants=(), delta_equals_lambda=True)
    lam_inv = merge_invariants(b.lambda_invariants for b in blocks)
    lim1 = _merge_lim1([b.lim1 for b in blocks])
    return DeltaReport(
        lim1=lim1,
        lambda_invariants=lam_inv,
        lambda_stable_index=max(b.lambda_stable_index for b in blocks),
        delta_invariants=lam_inv if lim1.is_zero() else None,
        delta_equals_lambda=lim1.is_zero(),
    )


def _merge_lim1(verdicts: list[Lim1Verdict]) -> Lim1Verdict:
    zero = all(v.is_zero() for v in verdicts)
    kinds = {v.certificate_kind for v in verdicts}
    return Lim1Verdict(verdict="zero" if zero else "unknown",
                       certificate_kind=(kinds.pop() if zero and len(kinds) == 1
                                         else ("finite_stages" if zero else None)))


# ---------------------------------------------------------------------------
# the five-term sequence for finite modules
# ---------------------------------------------------------------------------


@dataclass
class FiveTermReport:
    hom_loc_mod_r: tuple[int, ...]     # maps from localization-over-ring quotient
    hom_loc: tuple[int, ...]           # maps from the localization
    module_invariants: tuple[int, ...]
    delta_invariants: tuple[int, ...]
    ext_invariants: tuple[int, ...]
    exact_at_hom_loc: bool
    exact_at_module: bool
    injective_start: bool
    lim1: Lim1Verdict
    stable_index: int
    blocks: list[dict] = field(default_factory=list)

    def exact_everywhere(self) -> bool:
        return (self.injective_start and self.exact_at_hom_loc
                and self.exact_at_module)

    def to_document(self) -> dict:
        return {"hom_from_localization_quotient": list(self.hom_loc_mod_r),
                "hom_from_localization": list(self.hom_loc),
                "module": list(self.module_invariants),
                "delta": list(self.delta_invariants),
                "ext": list(self.ext_invariants),
                "exact": self.exact_everywhere(),
                "lim1": self.lim1.to_document(),
                "stable_index": self.stable_index}


def _five_term_assemble(module: FPModule, seq: MultSubsetSeq, tor: Tower, con: Tower,
                        quo: Tower, lims: list[TowerLimit], verdict: Lim1Verdict) -> dict:
    """One cyclic factor's five-term block from its towers and their limits
    (torsion, constant, quotient)."""
    n_star = max(lim.stage_index for lim in lims)

    # realize every carrier at the common stage index
    tor_rows = tor.composite(n_star, tor.depth - 1)
    con_rows = con.composite(n_star, con.depth - 1)
    l1 = _submodule_on_rows(tor.stages[n_star], tor_rows)
    l2 = _submodule_on_rows(con.stages[n_star], con_rows)
    lam = quo.stages[n_star]
    t_star = seq.t(n_star + 1)

    # iota: torsion-limit carrier into the constant-limit carrier, through
    # the ambient module
    tor_in_module = mat_mul(tor_rows, tor.stage_inclusions[n_star].mat())
    iota_coeffs = factor_through_submodule(tor_in_module, con_rows, module)
    ok_struct = iota_coeffs is not None
    if ok_struct:
        iota = Morphism.make(l1, l2, iota_coeffs)
    ev = Morphism.make(l2, module, [[t_star * x for x in row] for row in con_rows])
    pi = Morphism.make(module, lam,
                       [[1 if i == j else 0 for j in range(lam.gens)]
                        for i in range(module.gens)])
    ext = pi.cokernel()

    injective_start = ok_struct and iota.is_well_defined() and iota.is_injective()
    exact_at_l2 = ok_struct and submodules_equal(
        iota.mat(), ev._preimage_lattice(), l2)
    exact_at_module = submodules_equal(ev.mat(), pi._preimage_lattice(), module)

    return {
        "l1": l1.invariants(),
        "l2": l2.invariants(),
        "module": module.invariants(),
        "lambda": lam.invariants(),
        "ext": ext.invariants(),
        "injective_start": injective_start,
        "exact_at_l2": exact_at_l2,
        "exact_at_module": exact_at_module,
        "lim1": verdict,
        "stable_index": n_star,
    }


def five_term_check(module: FPModule, seq: MultSubsetSeq,
                    depth: int | None = None) -> FiveTermReport:
    """Assemble and check the five-term sequence for a finite module.

    The module is decomposed into cyclic factors (the sequence is additive
    and all carriers are block-diagonal), each factor is checked at its own
    stable index, and the terms are merged canonically.
    """
    _check_depth(depth)
    if module.order() is None:
        raise ValueError("five-term check requires a finite module")
    inv = module.invariants()
    blocks = [_unwrap(_cyclic_completion(d, module.modulus, seq, depth).five_term)
              for d in inv]
    if not blocks:
        zero = Lim1Verdict(verdict="zero", certificate_kind="finite_stages")
        return FiveTermReport(hom_loc_mod_r=(), hom_loc=(), module_invariants=(),
                              delta_invariants=(), ext_invariants=(),
                              exact_at_hom_loc=True, exact_at_module=True,
                              injective_start=True, lim1=zero, stable_index=0)

    def merge(key):
        return merge_invariants(b[key] for b in blocks)

    return FiveTermReport(
        hom_loc_mod_r=merge("l1"),
        hom_loc=merge("l2"),
        module_invariants=merge("module"),
        delta_invariants=merge("lambda"),
        ext_invariants=merge("ext"),
        exact_at_hom_loc=all(b["exact_at_l2"] for b in blocks),
        exact_at_module=all(b["exact_at_module"] for b in blocks),
        injective_start=all(b["injective_start"] for b in blocks),
        lim1=_merge_lim1([b["lim1"] for b in blocks]),
        stable_index=max(b["stable_index"] for b in blocks),
        blocks=[{k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in b.items() if k != "lim1"} for b in blocks],
    )


# ---------------------------------------------------------------------------
# one completion record per cyclic factor, shared by Delta and five-term
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Failure:
    """Evidence of a NotStabilized, kept instead of the exception itself."""

    message: str
    chains: list


def _limit(tower: Tower) -> TowerLimit | _Failure:
    try:
        return tower_lim(tower)
    except NotStabilized as exc:
        return _Failure(str(exc), exc.chains)


def _unwrap(part):
    """The stored part, or a fresh NotStabilized built from stored evidence."""
    if isinstance(part, _Failure):
        raise NotStabilized(part.message, chains=copy.deepcopy(part.chains))
    return part


@dataclass(frozen=True)
class _CyclicCompletion:
    """What Delta and the five-term check read for one cyclic factor:
    invariants and verdicts only, never towers."""

    delta: DeltaReport | _Failure
    five_term: dict | _Failure | None      # None for a free factor


_COMPLETION_MEMO: dict = {}


def _cyclic_completion(d: int, modulus: int, seq: MultSubsetSeq,
                       depth: int | None) -> _CyclicCompletion:
    key = (d, modulus, seq.key(), depth)
    record = _COMPLETION_MEMO.get(key)
    if record is None:
        record = _COMPLETION_MEMO[key] = _complete_cyclic(d, modulus, seq, depth)
    return record


def _complete_cyclic(d: int, modulus: int, seq: MultSubsetSeq,
                     depth: int | None) -> _CyclicCompletion:
    """Each tower built once, each limit taken once.  Delta needs the
    quotient limit and the torsion lim^1; the five-term block also needs the
    torsion and constant limits and fails with the first of torsion,
    constant, quotient that does not stabilize."""
    module = FPModule.from_invariants([d], modulus=modulus)
    depth = depth if depth is not None else adequate_depth(module, seq)
    quo = quotient_tower(module, seq, depth)
    tor = torsion_tower(module, seq, depth)
    lim_quo = _limit(quo)
    verdict = tower_lim1(tor)
    if isinstance(lim_quo, _Failure):
        delta = lim_quo
    else:
        lam_inv = lim_quo.module.invariants()
        zero = verdict.is_zero()
        delta = DeltaReport(lim1=verdict, lambda_invariants=lam_inv,
                            lambda_stable_index=lim_quo.stage_index,
                            delta_invariants=lam_inv if zero else None,
                            delta_equals_lambda=zero)
    if d == 0:
        return _CyclicCompletion(delta=delta, five_term=None)
    con = constant_hom_tower(module, seq, depth)
    lims = [_limit(tor), _limit(con), lim_quo]
    failure = next((lim for lim in lims if isinstance(lim, _Failure)), None)
    five_term = failure or _five_term_assemble(module, seq, tor, con, quo, lims, verdict)
    return _CyclicCompletion(delta=delta, five_term=five_term)


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
        d = depth if depth is not None else DEFAULT_DEPTH
        free = FPModule.from_presentation([], gens=1)
        quo = quotient_tower(free, seq, d)
        growth = [list(s.invariants()) for s in quo.stages]
        try:
            tower_lim(quo)
            stabilized = True
        except NotStabilized:
            stabilized = False
        out["free_part_growth"] = growth
        out["free_part_stabilized"] = stabilized
        out["oracle_agrees"] = (not stabilized) == (not decision)
    return out
