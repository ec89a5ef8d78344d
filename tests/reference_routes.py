"""Routes that the package replaced, kept as references for its tests.

Exactness compared two lattices re-eliminated over the joint's relations,
the five-term sequence and the certificate seed presented a submodule by a
second left kernel of its generating rows, and Ext quotients solved the
image rows in the kernel's generators and took that left kernel again.
Left kernels and solves eliminated a matrix stacked over a lattice on a
second route (``echelon``) beside a morphism's Hermite form, and tower
levels went through it; today ``Morphism._hermite_forms`` is the only
elimination with a transform, and nothing in the package solves through a
map.  The five-term sequence and Ext groups of a cyclic factor were maps
and quotients of ``FPModule``s on one generator, the five-term iota a
solve; today both are gcd formulas (``towers._five_term_assemble``,
``ext.ext1``), and exactness of whole modules' maps reads the Hermite forms
the maps already hold.  The distinguishing verifier compared frozensets and
restricted the poset to Spec(R_{J,s}) for every (J, s) choice, the
canonical one of each pair included; today both run as ANDs of bitmasks,
and the restricted spectrum lives here only.

Tower limits were taken on matrices: the quotient, torsion and constant
towers were built as ``FPModule`` towers (``Tower``), each level's carrier
was the composite matrix from the top stage, and one Hermite elimination
per level both confirmed the level against the carrier from one window
below and presented its stable image (``tower_lim``).  That route takes the
limit of any tower, non-diagonal presentations and several generators
included.  Every limit the package takes is of a cyclic factor, so today
its towers are chains of stage orders and transition scalars, and
``towers.chain_lim`` decides the same window and isomorphism tests with
gcds; the tests compare the two.  The quotient stages M/t_nM were presented
by the relations of M and t_n times the identity (``quotient_tower``);
today ``towers.quotient_stages`` merges their invariants from the chains,
and only the omega certificate presents the few stages it prints.

The telescope complex took every entry of its witness f1 and its homotopy
as a product of a slice of the schedule (``telescope_complex_by_slices``);
today ``towers.telescope_complex`` builds each row from one running
product.  Matrix products summed every term of the entry formula; today
``intlinalg.mat_mul`` multiplies only the nonzero entries of both factors.

The certificate check proved every joint it reached inside one nested walk
(``instantiate_and_check_nested``); today the walk looks each joint up in
the memo ``certs._joint_failure``, keyed by the node's data.
"""

import functools
import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import product

from multloc.certs import CertNode, Certificate, PayloadMismatch
from multloc.fpmod import FPModule, Morphism, direct_sum, is_exact_pair, merge_invariants
from multloc.intlinalg import (_eliminate, canonical_invariants, hnf_rows, identity,
                               lattice_coordinates, lattice_member, mat_mul)
from multloc.poset import DistinguishReport, PrimePoset, _heights
from multloc.towers import (DEFAULT_DEPTH, FINITE_STAGES, FiveTermReport, LimCertificate,
                            MultSubsetSeq, NotStabilized, TelescopeComplex, _check_depth,
                            _partial_products)


def echelon(a: list[list[int]],
            lattice: Sequence[list[int]]) -> tuple[list[list[int]], int, list[int]]:
    """Row echelon form of ``a`` stacked over ``lattice``, with its transform.

    Eliminates ``[a | I ; lattice | 0]`` with ``I`` of size m = len(a) over
    the first cols columns only and returns (rows, cols, pivots):
    ``row[:cols]`` is an echelon row (positive pivot in column ``pivots[k]``
    for row k, zero rows from ``len(pivots)`` on) and ``row[cols:]``, m wide,
    is a transform t with t * a equal to the echelon row modulo the row
    lattice of ``lattice``.
    """
    m = len(a)
    cols = len(a[0]) if a else len(lattice[0]) if lattice else 0
    rows = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a)]
    rows += [list(row) + [0] * m for row in lattice]
    return rows, cols, _eliminate(rows, cols)


def left_nullspace(a: list[list[int]], lattice: Sequence[list[int]] = ()) -> list[list[int]]:
    """Rows spanning {v : v * a in the row lattice of ``lattice``}: the
    transform rows of ``echelon`` past the rank."""
    rows, cols, pivots = echelon(a, lattice)
    return [row[cols:] for row in rows[len(pivots):]]


def solve_left(a: list[list[int]], xs: list[list[int]],
               lattice: Sequence[list[int]] = ()) -> list[list[int]] | None:
    """Solve v * a = x modulo the row lattice of ``lattice`` for every x in
    ``xs`` by forward substitution on one ``echelon``; None if some x has no
    solution."""
    rows, _, pivots = echelon(a, lattice)
    out = []
    for x in xs:
        # the first len(x) entries keep what is left of x, the rest
        # accumulate -v
        n = len(x)
        t = list(x) + [0] * len(a)
        for k, c in enumerate(pivots):
            q = t[c] // rows[k][c]
            if q:
                t = [y - q * z for y, z in zip(t, rows[k])]
        if any(t[:n]):
            return None
        out.append([-y for y in t[n:]])
    return out


def factor_through_submodule(vectors: list[list[int]], sub_gens: list[list[int]],
                             ambient: FPModule) -> list[list[int]] | None:
    """Each vector as a combination of sub_gens modulo ambient relations, or
    None if some vector is outside the submodule they span."""
    return solve_left(sub_gens, vectors, ambient.relation_rows())


def composite(tower, to_index: int, from_index: int) -> list[list[int]]:
    """Matrix of the composite stages[from_index] -> stages[to_index]."""
    if from_index < to_index:
        raise ValueError("composite runs downwards")
    mat = identity(tower.stages[from_index].gens)
    for m in range(from_index - 1, to_index - 1, -1):
        mat = mat_mul(mat, tower.transitions[m].mat())
    return mat


class Tower(namedtuple("Tower", "stages transitions period t_values", defaults=((),))):
    """Stages M/t_1 M .. M/t_N M with the canonical surjections
    M/t_{n+1}M -> M/t_nM as ``fpmod`` modules and morphisms; ``period`` is
    the schedule period and ``t_values`` are t_1 .. t_N."""

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.stages)

    def stage_invariants(self) -> list[tuple[int, ...]]:
        return [s.invariants() for s in self.stages]


def quotient_tower(module: FPModule, seq: MultSubsetSeq, depth: int = DEFAULT_DEPTH) -> Tower:
    """Stages M/t_n M with the canonical (identity-on-generators) surjections."""
    _check_depth(depth)
    stages = []
    tvals = _partial_products(seq, depth)
    for t in tvals:
        rows = [list(r) for r in module.relations]
        for i in range(module.gens):
            row = [0] * module.gens
            row[i] = t
            rows.append(row)
        stages.append(FPModule.from_presentation(rows, gens=module.gens,
                                                 modulus=module.modulus))
    transitions = [Morphism.make(stages[k + 1], stages[k], identity(module.gens))
                   for k in range(depth - 1)]
    return Tower(stages=stages, transitions=transitions, t_values=tvals,
                 period=len(seq.generators))


class InclusionTower(namedtuple("InclusionTower", Tower._fields + ("stage_inclusions",))):
    """A ``Tower`` whose ``stage_inclusions`` realize each stage inside the
    module itself (torsion towers)."""

    __slots__ = ()
    depth = Tower.depth
    stage_invariants = Tower.stage_invariants


def torsion_tower(module: FPModule, seq: MultSubsetSeq,
                  depth: int = DEFAULT_DEPTH) -> InclusionTower:
    """Stages ker(t_n : M -> M) with transition 'multiply by s_{n+1}'.

    Stage k is generated by the HNF rows of P_k = {x : x * t_{k+1} in R}, R
    the relation lattice of M, and those rows are its inclusion into M.  For
    x in P_{k+1}, s_{k+2} * x lies in P_k itself (not just modulo R), so each
    transition is read off as exact coordinates in that HNF basis.
    """
    _check_depth(depth)
    stages: list[FPModule] = []
    inclusions: list[Morphism] = []
    tvals = _partial_products(seq, depth)
    for t in tvals:
        ker, incl = Morphism.multiplication(module, t).kernel()
        stages.append(ker)
        inclusions.append(incl)
    transitions = []
    for k in range(depth - 1):
        mult = seq.s(k + 2)
        basis = inclusions[k].matrix
        coeffs = [lattice_coordinates(basis, [mult * x for x in row])
                  for row in inclusions[k + 1].matrix]
        if None in coeffs:
            raise AssertionError("torsion transition failed to factor")
        transitions.append(Morphism.make(stages[k + 1], stages[k], coeffs))
    return InclusionTower(stages=stages, transitions=transitions, t_values=tvals,
                          stage_inclusions=inclusions, period=len(seq.generators))


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
    return Tower(stages=stages, transitions=transitions,
                 t_values=_partial_products(seq, depth), period=len(seq.generators))


# carriers: per stage i, the top stage's generators in stage i
TowerLimit = namedtuple("TowerLimit", "module carriers certificate")


def carriers(tower, top: int) -> list[list[list[int]]]:
    """Composites stages[top] -> stages[i] for i = 0..top, built top-down."""
    out = [identity(tower.stages[top].gens)]
    for i in range(top - 1, -1, -1):
        out.append(mat_mul(out[-1], tower.transitions[i].mat()))
    out.reverse()
    return out


def confirmed_levels(tower, level) -> int:
    """Number of leading levels whose image chain the final window confirms;
    ``level(i)`` is the map from a free module onto the top carrier rows in
    stage i (see ``tower_lim``).

    Level i is confirmed when the image from the top stage equals the image
    from one window below.  The top carrier at level i is the composite from
    the top stage down to stage depth - 1 - w times ``below[i]``, so the
    image from the top always lies in the image from below, and the two are
    equal exactly when every row of ``below[i]`` is in the lattice of the
    top carrier plus the relations.  Membership is tested on the echelon
    rows of level i's matrix stacked over the stage's relations
    (``echelon``).  Counting stops at the first unconfirmed level.
    """
    n = tower.depth
    w = tower.period
    if n <= w:
        return 0
    below = carriers(tower, n - 1 - w)
    for i in range(n - w):
        rows, _, pivots = echelon(level(i).mat(), level(i).target.relation_rows())
        if not all(lattice_member(rows[:len(pivots)], row) for row in below[i]):
            return i
    return n - w


def tower_lim(tower) -> TowerLimit:
    """Inverse limit of a truncated tower via eventual stable images.

    Level i is the map from one free module Z^g (g the top stage's
    generators) to stage i that sends the generators to the rows of the
    carrier, the composite from the top stage.  Its image is level i's
    stable image, Z^g / L_i with L_i its preimage lattice.  Since
    ``carrier[i] = carrier[i+1] * T_i`` exactly, the transition between
    stable images is the identity on generators with L_{i+1} inside L_i: an
    isomorphism exactly when the preimage HNFs agree.  The limit is
    certified once those transitions are isomorphisms over at least one
    window (``period``) of consecutive levels.
    """
    w = tower.period
    carrier = carriers(tower, tower.depth - 1)
    free = FPModule(gens=tower.stages[-1].gens)

    @functools.cache
    def level(i: int) -> Morphism:
        return Morphism.make(free, tower.stages[i], carrier[i])

    i_max = confirmed_levels(tower, level) - 1
    if i_max < w:
        stage_invs = [list(s.invariants()) for s in tower.stages]
        raise NotStabilized("image chains not confirmed within depth",
                            chains=[stage_invs])

    iso_down_to = i_max
    for j in range(i_max - 1, -1, -1):
        if level(j + 1)._hermite_forms()[1] == level(j)._hermite_forms()[1]:
            iso_down_to = j
        else:
            break
    if i_max - iso_down_to < w:
        raise NotStabilized(
            "stable images keep changing through the truncation",
            chains=[[canonical_invariants(list(level(i).image()[0].invariants()), 0)
                     for i in range(i_max + 1)]])

    cert = LimCertificate(stable_index=iso_down_to, verified_through=i_max)
    return TowerLimit(module=level(iso_down_to).image()[0], carriers=carrier,
                      certificate=cert)


def level_echelons(tower, carrier):
    """Per level i, the ``echelon`` of ``[carrier[i] | I ; relations of
    stage i | 0]``, computed on first use."""
    @functools.cache
    def level(i: int):
        return echelon(carrier[i], tower.stages[i].relation_rows())

    return level


def echelon_level_lim(tower) -> TowerLimit:
    """``tower_lim`` on ``level_echelons``: each level is confirmed on the
    echelon rows, and its stable image is presented by the transform rows
    past the rank, whose relation HNFs the iso scan compares."""
    n = tower.depth
    w = tower.period
    carrier = carriers(tower, n - 1)
    level = level_echelons(tower, carrier)
    confirmed = 0
    if n > w:
        below = carriers(tower, n - 1 - w)
        confirmed = n - w
        for i in range(n - w):
            rows, _, pivots = level(i)
            if not all(lattice_member(rows[:len(pivots)], row) for row in below[i]):
                confirmed = i
                break
    i_max = confirmed - 1
    if i_max < w:
        raise NotStabilized("image chains not confirmed within depth",
                            chains=[[list(s.invariants()) for s in tower.stages]])

    @functools.cache
    def sub(i: int) -> FPModule:
        rows, cols, pivots = level(i)
        return FPModule.from_presentation([row[cols:] for row in rows[len(pivots):]],
                                          gens=len(carrier[i]),
                                          modulus=tower.stages[i].modulus)

    iso_down_to = i_max
    for j in range(i_max - 1, -1, -1):
        if sub(j + 1).relation_hnf() != sub(j).relation_hnf():
            break
        iso_down_to = j
    if i_max - iso_down_to < w:
        raise NotStabilized("stable images keep changing through the truncation",
                            chains=[[canonical_invariants(list(sub(i).invariants()), 0)
                                     for i in range(i_max + 1)]])
    cert = LimCertificate(stable_index=iso_down_to, verified_through=i_max)
    return TowerLimit(module=sub(iso_down_to), carriers=carrier, certificate=cert)


def relations_among(rows: list[list[int]], ambient: FPModule) -> list[list[int]]:
    """Rows spanning the relations among ``rows`` in ``ambient``: the coefficient
    vectors c with c * rows in the relation lattice of ``ambient``."""
    if not rows:
        return []
    return left_nullspace(rows, ambient.relation_rows())


def submodule_on_rows(stage: FPModule, rows: list[list[int]]) -> FPModule:
    return FPModule.from_presentation(relations_among(rows, stage), gens=len(rows),
                                      modulus=stage.modulus)


def submodules_equal(a_rows: list[list[int]], b_rows: list[list[int]],
                     ambient: FPModule) -> bool:
    """Equality of submodules of ``ambient`` spanned by the given row sets."""
    rel = ambient.relation_rows()
    return hnf_rows(a_rows + rel) == hnf_rows(b_rows + rel)


def preimage_lattice(f: Morphism) -> list[list[int]]:
    """HNF rows spanning {x in Z^g : x*F lies in the target relation
    lattice}, as fresh lists."""
    return [list(r) for r in f._hermite_forms()[1]]


def exact_by_submodules(f: Morphism, g: Morphism) -> bool:
    """Exactness at the joint: im f and the preimage of g, each taken with
    the joint's relations, span the same submodule."""
    return submodules_equal(f.mat(), preimage_lattice(g), f.target)


def quotient_invariants(big_rows, small_rows, ambient: FPModule) -> tuple[int, ...]:
    """Invariants of (span big_rows) / (span small_rows) inside ambient."""
    if not big_rows:
        return ()
    coeffs = factor_through_submodule(small_rows, big_rows, ambient)
    if coeffs is None:
        raise ValueError("small submodule does not sit inside the big one")
    pres = relations_among(big_rows, ambient) + coeffs
    return FPModule.from_presentation(pres, gens=len(big_rows)).invariants()


def resolution_step(b: FPModule, kill: int, scale: int) -> tuple[int, ...]:
    """Invariants of ker(kill on B) / scale*B."""
    _, incl = Morphism.multiplication(b, kill).kernel()
    image_rows = [[scale * x for x in row] for row in Morphism.identity(b).mat()]
    return quotient_invariants(incl.mat(), image_rows, b)


def ext_by_quotients(a: FPModule, b: FPModule, degree: int) -> tuple[int, ...]:
    """Ext^1 or Ext^2 over Z/N from the periodic resolution, one
    ``resolution_step`` per cyclic factor of A."""
    n = a.modulus
    return merge_invariants(
        resolution_step(b, n // d, d) if degree == 1 else resolution_step(b, d, n // d)
        for d in a.invariants() if d != n)


def five_term_on_maps(d, modulus, seq, tor, con, lims) -> FiveTermReport:
    """One cyclic factor's five-term block from its torsion and constant
    chains (``towers.Chain``) and the three limits, with every term an
    ``FPModule`` on one generator over Z/modulus and every joint checked on
    ``fpmod`` maps: iota solves the torsion carrier through the constant
    carrier, and the exactness flags compare the maps' Hermite forms."""
    n_star = max(lim.certificate.stable_index for lim in lims)
    module = FPModule.from_invariants([d], modulus=modulus)
    l1, l2, lam = (FPModule(1, ((lim.order,),), modulus) for lim in lims)
    t_star = seq.t(n_star + 1)
    tor_in_module = math.prod(tor.scalars[n_star:]) * (d // tor.orders[n_star])
    con_row = math.prod(con.scalars[n_star:])
    iota_coeffs = factor_through_submodule([[tor_in_module]], [[con_row]], module)
    ok_struct = iota_coeffs is not None
    if ok_struct:
        iota = Morphism.make(l1, l2, iota_coeffs)
    ev = Morphism.make(l2, module, [[t_star * con_row]])
    pi = Morphism.make(module, lam, identity(1))
    return FiveTermReport(
        hom_loc_mod_r=l1.invariants(),
        hom_loc=l2.invariants(),
        module_invariants=module.invariants(),
        delta_invariants=lam.invariants(),
        ext_invariants=pi.cokernel().invariants(),
        exact_at_hom_loc=ok_struct and is_exact_pair(iota, ev),
        exact_at_module=is_exact_pair(ev, pi),
        injective_start=ok_struct and iota.is_well_defined() and iota.is_injective(),
        lim1=FINITE_STAGES,
        stable_index=n_star,
    )


def five_term_by_submodules(module, tor, con, quo, lims) -> FiveTermReport:
    """One cyclic factor's five-term block with L1 and L2 presented by the
    relations among the carrier rows at the common stage index, and both
    exactness flags read from re-eliminated submodules."""
    n_star = max(lim.certificate.stable_index for lim in lims)
    tor_rows = composite(tor, n_star, tor.depth - 1)
    con_rows = composite(con, n_star, con.depth - 1)
    l1 = submodule_on_rows(tor.stages[n_star], tor_rows)
    l2 = submodule_on_rows(con.stages[n_star], con_rows)
    lam = quo.stages[n_star]
    t_star = quo.t_values[n_star]
    tor_in_module = mat_mul(tor_rows, tor.stage_inclusions[n_star].mat())
    iota_coeffs = factor_through_submodule(tor_in_module, con_rows, module)
    ok_struct = iota_coeffs is not None
    if ok_struct:
        iota = Morphism.make(l1, l2, iota_coeffs)
    ev = Morphism.make(l2, module, [[t_star * x for x in row] for row in con_rows])
    pi = Morphism.make(module, lam, identity(module.gens))
    return FiveTermReport(
        hom_loc_mod_r=l1.invariants(),
        hom_loc=l2.invariants(),
        module_invariants=module.invariants(),
        delta_invariants=lam.invariants(),
        ext_invariants=pi.cokernel().invariants(),
        exact_at_hom_loc=ok_struct and exact_by_submodules(iota, ev),
        exact_at_module=exact_by_submodules(ev, pi),
        injective_start=ok_struct and iota.is_well_defined() and iota.is_injective(),
        lim1=FINITE_STAGES,
        stable_index=n_star,
    )


def comparable_pairs(poset) -> list[tuple[str, str]]:
    """All pairs (p, q) with p strictly contained in q, sorted."""
    return sorted((p, q) for p in poset.primes for q in poset.up[p] if q != p)


class BadChoice(Exception):
    """A chosen element is not a generator of the indicated subset."""


def restrict(poset, keep: set[str]) -> PrimePoset:
    """Induced subposet with heights recomputed inside the subset.

    The restriction of a closed, acyclic order is closed and acyclic,
    so the up-sets are only cut down to ``keep``.
    """
    primes = tuple(p for p in poset.primes if p in keep)
    up = {p: poset.up[p].intersection(keep) for p in primes}
    return PrimePoset(primes, up, _heights(primes, up))


def spectrum_of_R_Js(poset, family, J: set[int], s: dict) -> PrimePoset:
    """Subposet of primes avoiding the inverted subsets and containing each chosen s_k.

    J holds 0-based subset indices to invert; s maps every index outside J
    to a generator of that subset (the element to annihilate).
    """
    m = family.count
    J = set(J)
    for j in J:
        if not 0 <= j < m:
            raise BadChoice(f"index {j} out of range")
    complement = [k for k in range(m) if k not in J]
    for k in complement:
        if k not in s:
            raise BadChoice(f"missing element choice for index {k}")
        if s[k] not in family.subsets[k].generators:
            raise BadChoice(f"chosen element for index {k} is not a generator")
    keep = set(poset.primes).difference(*(family.subsets[j].hit_set() for j in J))
    keep.intersection_update(*(s[k].locus for k in complement))
    return restrict(poset, keep)


def verify_distinguishing_by_sets(poset, family, exhaustive_budget=512) -> DistinguishReport:
    """The verifier on frozensets: miss-sets per prime, and one restricted
    poset per canonical and per enumerated (J, s) choice."""
    hits = [sub.hit_set() for sub in family.subsets]
    m = family.count
    miss = {p: frozenset(j for j in range(m) if p not in hits[j]) for p in poset.primes}

    witnesses, failures, anti_failures = {}, [], []
    for p, q in comparable_pairs(poset):
        w = miss[p] - miss[q]
        if w:
            witnesses[(p, q)] = min(w)
        else:
            failures.append((p, q))
        if miss[p] != miss[q]:
            continue
        J = miss[q]
        s_choice = {k: next(g for g in family.subsets[k].generators if p in g.locus)
                    for k in range(m) if k not in J}
        sub = spectrum_of_R_Js(poset, family, J, s_choice)
        if q in sub.up.get(p, ()):
            anti_failures.append({"J": sorted(J),
                                  "s": {k: g.id for k, g in s_choice.items()},
                                  "pair": [p, q]})
    pairwise_ok = not failures

    checked = 0
    total = 1
    for sub in family.subsets:
        total *= len(sub.generators) + 1
    if total <= exhaustive_budget:
        gen_options = [list(sub.generators) + [None] for sub in family.subsets]
        for combo in product(*gen_options):
            J = {k for k, g in enumerate(combo) if g is None}
            s_choice = {k: g for k, g in enumerate(combo) if g is not None}
            sub = spectrum_of_R_Js(poset, family, J, s_choice)
            checked += 1
            for p, q in comparable_pairs(sub):
                rec = {"J": sorted(J), "s": {k: g.id for k, g in s_choice.items()},
                       "pair": [p, q]}
                if rec not in anti_failures:
                    anti_failures.append(rec)

    antichain_ok = not anti_failures
    return DistinguishReport(
        pairwise_ok=pairwise_ok, pairwise_witnesses=witnesses,
        pairwise_failures=failures, antichain_ok=antichain_ok,
        antichain_failures=anti_failures, agreement=pairwise_ok == antichain_ok,
        exhaustive_choices_checked=checked)


def telescope_complex_by_slices(seq: MultSubsetSeq, n: int) -> TelescopeComplex:
    """The telescope complex with every product a ``math.prod`` of a slice
    of the schedule s_1 .. s_n, and the matrices by their entry formulas."""
    s = tuple(seq.s(k) for k in range(1, n + 1))
    return TelescopeComplex(
        n=n, schedule=s, companion=math.prod(s),
        differential=[[1 if r == c else -s[c] if r == c + 1 else 0 for c in range(n)]
                      for r in range(n)],
        two_term=[[-s[c] if r == c else 1 if r == c - 1 else 0 for r in range(n)]
                  for c in range(n)],
        f0=[[1 if c == 0 else 0] for c in range(n)],
        f1=[[-math.prod(s[r + 1:])] for r in range(n)],
        g0=[[math.prod(s[:c]) for c in range(n)]],
        g1=[[-1 if r == n - 1 else 0 for r in range(n)]],
        homotopy=[[math.prod(s[r + 1:c]) if r < c else 0 for c in range(n)]
                  for r in range(n)])


def mat_mul_dense(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The matrix product by its entry formula, every term summed."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for row in a]


def instantiate_and_check_nested(cert: Certificate) -> dict:
    """The certificate check as one nested walk that proves every joint it
    reaches, repeats included, with the seed-tag check inline."""
    count = 0

    def need(node: CertNode, path: str) -> FPModule:
        if node.payload is None or "module" not in node.payload:
            raise PayloadMismatch(path, "payload with a module is required")
        return node.payload["module"]

    ring = need(cert.root, "root").modulus

    def same_ring(mod: FPModule, path: str, name: str) -> None:
        if mod.modulus != ring:
            raise PayloadMismatch(path, f"{name} has modulus {mod.modulus}, "
                                        f"not the root's {ring}")

    def mk_map(rows, src: FPModule, tgt: FPModule, path: str, name: str) -> Morphism:
        try:
            f = Morphism.make(src, tgt, [list(r) for r in rows])
        except ValueError as exc:
            raise PayloadMismatch(path, f"{name}: {exc}")
        if not f.is_well_defined():
            raise PayloadMismatch(path, f"{name} is not a well-defined module map")
        return f

    def check_seed_tag(node: CertNode, mod: FPModule, path: str) -> None:
        tag = node.tag or {}
        kind = tag.get("kind")
        if kind in ("QuotientRingModule", "AlmostCotorsionQuotient"):
            s = tag.get("s")
            if s is None:
                raise PayloadMismatch(path, "quotient seed tag needs the element s")
            if not Morphism.multiplication(mod, s).is_zero_morphism():
                raise PayloadMismatch(path, f"seed is not annihilated by {s}")
        elif kind in ("LocalizedRingModule", "AlmostCotorsionLocalized"):
            for g in tag.get("generators", ()):
                if not Morphism.multiplication(mod, g).is_isomorphism():
                    raise PayloadMismatch(path, f"generator {g} does not act invertibly")

    def walk(node: CertNode, path: str) -> FPModule:
        nonlocal count
        count += 1
        mod = need(node, path)
        same_ring(mod, path, "module")
        kids = [walk(c, f"{path}.{i}") for i, c in enumerate(node.children)]
        p = node.payload
        if node.kind == "Seed":
            check_seed_tag(node, mod, path)
        elif node.kind == "DirectSummand":
            into = mk_map(p["into"], mod, kids[0], path, "into")
            retract = mk_map(p["retract"], kids[0], mod, path, "retract")
            if not into.compose(retract).equals(Morphism.identity(mod)):
                raise PayloadMismatch(path, "retraction does not split the inclusion")
        elif node.kind == "Extension":
            inject = mk_map(p["inject"], kids[0], mod, path, "inject")
            project = mk_map(p["project"], mod, kids[1], path, "project")
            if not inject.is_injective():
                raise PayloadMismatch(path, "extension inclusion is not injective")
            if not project.is_surjective():
                raise PayloadMismatch(path, "extension projection is not surjective")
            if not is_exact_pair(inject, project):
                raise PayloadMismatch(path, "extension is not exact in the middle")
        elif node.kind == "CokernelOfInjection":
            f = mk_map(p["map"], kids[0], kids[1], path, "map")
            if not f.is_injective():
                raise PayloadMismatch(path, "map claimed injective is not")
            if f.cokernel().invariants() != mod.invariants():
                raise PayloadMismatch(path, "cokernel does not match the node module")
        elif node.kind == "KernelOfSurjection":
            f = mk_map(p["map"], kids[0], kids[1], path, "map")
            if not f.is_surjective():
                raise PayloadMismatch(path, "map claimed surjective is not")
            if f.kernel()[0].invariants() != mod.invariants():
                raise PayloadMismatch(path, "kernel does not match the node module")
        elif node.kind == "FiniteProduct":
            total = direct_sum(*kids) if kids else FPModule.zero(mod.modulus)
            if total.invariants() != mod.invariants():
                raise PayloadMismatch(path, "product does not match the node module")
        elif node.kind == "OmegaIteratedExtension":
            stages = p.get("stages")
            trans = p.get("transitions")
            if stages is None or trans is None or len(trans) != len(stages) - 1:
                raise PayloadMismatch(path, "stage/transition data is inconsistent")
            for i, stage in enumerate(stages):
                same_ring(stage, path, f"stage {i}")
            if len(stages) != len(kids):
                raise PayloadMismatch(path, "one child is required per tower kernel")
            if stages[0].invariants() != kids[0].invariants():
                raise PayloadMismatch(path, "first stage does not match the first kernel")
            for i, rows in enumerate(trans):
                f = mk_map(rows, stages[i + 1], stages[i], path, f"transition {i}")
                if not f.is_surjective():
                    raise PayloadMismatch(path, f"transition {i} is not surjective")
                if f.kernel()[0].invariants() != kids[i + 1].invariants():
                    raise PayloadMismatch(
                        path, f"kernel at stage {i + 1} does not match its child")
            if stages[-1].invariants() != mod.invariants():
                raise PayloadMismatch(path, "top stage does not match the node module")
        return mod

    root_mod = walk(cert.root, "root")
    return {"checked_nodes": count, "root_invariants": list(root_mod.invariants()),
            "ok": True}
