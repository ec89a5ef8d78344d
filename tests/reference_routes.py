"""Routes that the package replaced, kept as references for its tests.

Exactness compared two lattices re-eliminated over the joint's relations,
the five-term sequence and the certificate seed presented a submodule by a
second left kernel of its generating rows, and Ext quotients solved the
image rows in the kernel's generators and took that left kernel again.
Today each of these reads a Hermite form or a tower limit that the program
already holds.  The distinguishing verifier compared frozensets and
restricted the poset for every (J, s) choice; today it works on bitmasks.
"""

from itertools import product

from multloc.fpmod import FPModule, Morphism, factor_through_submodule, merge_invariants
from multloc.intlinalg import hnf_rows, identity, left_nullspace, mat_mul
from multloc.poset import DistinguishReport, spectrum_of_R_Js


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


def five_term_by_submodules(module, tor, con, quo, lims) -> dict:
    """One cyclic factor's five-term block with L1 and L2 presented by the
    relations among the carrier rows at the common stage index, and both
    exactness flags read from re-eliminated submodules."""
    n_star = max(lim.certificate.stable_index for lim in lims)
    tor_rows = tor.composite(n_star, tor.depth - 1)
    con_rows = con.composite(n_star, con.depth - 1)
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
    return {
        "l1": l1.invariants(),
        "l2": l2.invariants(),
        "module": module.invariants(),
        "lambda": lam.invariants(),
        "ext": pi.cokernel().invariants(),
        "injective_start": ok_struct and iota.is_well_defined() and iota.is_injective(),
        "exact_at_l2": ok_struct and exact_by_submodules(iota, ev),
        "exact_at_module": exact_by_submodules(ev, pi),
        "stable_index": n_star,
    }


def comparable_pairs(poset) -> list[tuple[str, str]]:
    """All pairs (p, q) with p strictly contained in q, sorted."""
    return sorted((p, q) for p in poset.primes for q in poset.up[p] if q != p)


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
        if sub.less(p, q):
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
