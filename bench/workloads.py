"""Inputs, operations and independent checks of the benchmark's workloads.

``make_inputs`` turns a seed into plain JSON data; it runs in the parent
process, so the worker processes that time the operations start with cold
module-level memos.  A worker passes the data through ``load`` (program
objects, built before the first timed call), times ``run`` on each item in
order, and then calls ``check``, which returns the item's canonical output
(invariant tuples, verdicts and pass flags, never matrices or timings) and a
list of disagreements with facts derived without the program's normal forms.

Every call into the program goes through a module attribute
(``fpmod.FPModule``, ``towers.delta_truncated``, ...) so that the tracer,
which rebinds those attributes, sees it.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import math
import random

from multloc import battery, certs, fpmod, poset, randomgen, towers

PRIMES = (2, 3, 5, 7)


def _canonical(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups of the given finite
    orders, by primary decomposition (orders here have small prime factors)."""
    primary: dict[int, list[int]] = {}
    for m in orders:
        p = 2
        while m > 1:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                primary.setdefault(p, []).append(q)
            p += 1
    depth = max((len(v) for v in primary.values()), default=0)
    for v in primary.values():
        v.sort(reverse=True)
        v.extend([1] * (depth - len(v)))
    return tuple(math.prod(v[i] for v in primary.values()) for i in reversed(range(depth)))


def _unchanged(items: list[dict]) -> list[dict]:
    return items


def _determinant(rows: list[list[int]]) -> int:
    """Bareiss elimination; kept here so that input selection and checks do
    not depend on the program's linear algebra."""
    m = [row[:] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            m[i] = row[:k + 1] + [(pivot * x - lead * y) // prev
                                  for x, y in zip(row[k + 1:], top)]
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def _cyclic(order: int) -> tuple[int, ...]:
    return (order,) if order > 1 else ()


# ---------------------------------------------------------------------------
# towers: completion queries on Z/d, one per (factor, schedule) pair
# ---------------------------------------------------------------------------

TOWER_GENERATOR_SETS = tuple(g for r in range(1, 6)
                             for g in itertools.combinations((2, 3, 5, 6, 7), r))
TOWER_MAX_EXPONENT = 4


def towers_inputs(seed: int) -> list[dict]:
    """For every generator set and every largest exponent 1..TOWER_MAX_EXPONENT,
    one Z/d with d a product of powers of 2, 3, 5 and 7.  Tower depth follows
    the largest exponent and the schedule period, so this stratification keeps
    the batch cost nearly seed-independent; no (d, schedule) pair repeats
    because the largest exponent differs within a generator set."""
    rng = random.Random(f"{seed}:towers")
    out = []
    for gens in TOWER_GENERATOR_SETS:
        for top in range(1, TOWER_MAX_EXPONENT + 1):
            exps = [rng.randint(0, top) for _ in PRIMES]
            exps[rng.randrange(len(PRIMES))] = top
            d = math.prod(p ** e for p, e in zip(PRIMES, exps))
            # a telescope length of at least one period keeps the telescope
            # memo key (schedule prefix, d) distinct across queries as well
            out.append({"d": d, "generators": list(gens),
                        "n": len(gens) + rng.randint(0, 3)})
    rng.shuffle(out)
    return out


def towers_run(q: dict):
    module = fpmod.FPModule.from_invariants([q["d"]])
    seq = towers.MultSubsetSeq(generators=tuple(q["generators"]))
    return (towers.delta_truncated(module, seq),
            towers.five_term_check(module, seq),
            towers.telescope_homology_check(seq, q["n"], module))


def towers_check(q: dict, res) -> tuple[list, list[str]]:
    delta, five, tel = res
    d, gens, n = q["d"], q["generators"], q["n"]
    # the completion of Z/d keeps exactly the primes that divide a generator
    lam = _cyclic(math.prod(p ** _valuation(d, p) for p in PRIMES
                            if any(g % p == 0 for g in gens)))
    t_n = math.prod(gens[k % len(gens)] for k in range(n))
    tel_expected = _cyclic(math.gcd(d, t_n))
    problems = []
    if delta.lambda_invariants != lam or five.delta_invariants != lam:
        problems.append(f"completion {delta.lambda_invariants}/{five.delta_invariants}"
                        f" != {lam}")
    if not (delta.lim1.is_zero() and delta.delta_equals_lambda):
        problems.append("Delta differs from Lambda")
    if five.ext_invariants != () or not five.exact_everywhere() or not five.lim1.is_zero():
        problems.append("five-term sequence not exact with vanishing Ext")
    if not tel.passed() or tel.h0_engine != tel_expected or tel.h1_engine != tel_expected:
        problems.append(f"telescope homology {tel.h0_engine}/{tel.h1_engine}"
                        f" != {tel_expected}")
    out = [d, gens, n, list(delta.lambda_invariants), delta.lim1.verdict,
           list(five.hom_loc_mod_r), list(five.hom_loc), list(five.ext_invariants),
           five.exact_everywhere(), five.stable_index,
           list(tel.h0_engine), list(tel.h1_engine), tel.passed()]
    return out, problems


def _valuation(d: int, p: int) -> int:
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# presentations: dense random relation matrices as maps of free modules
# ---------------------------------------------------------------------------

PRES_SIZES_Z = range(4, 13)
# Over Z/N the stacked N*I rows make Smith normal form coefficients explode at
# this commit: from 8 generators on, single operations take up to a second,
# from 10 on up to minutes, which no steady or bounded run can hold.  Sizes
# stop at 7 there, where Z/N operations already cost 3 to 8 times as much as
# Z operations of the same size.
PRES_SIZES_ZN = range(4, 8)
PRES_MODULI = (4, 6, 8, 9, 12, 16, 18, 24, 30, 36, 60, 72, 90, 120, 360)
PRES_PER_STRATUM = 32
PRES_POOL = 8
# square presentations over Z carry the factoring tail: twice the items, so
# that the operations above the tail percentile come from them, and a deeper
# pool, so that their cost quantiles are fine-grained; deepest from 10
# generators on, whose top quantiles make the tail percentile
PRES_PER_SQUARE_Z = 64
PRES_POOL_SQUARE_Z = 16
PRES_POOL_TAIL = 64
PRES_TAIL_SIZES = range(10, 13)


def presentations_inputs(seed: int) -> list[dict]:
    """PRES_PER_STRATUM relation matrices per (ring, generator count, square
    or not), PRES_PER_SQUARE_Z for square ones over Z; non-square ones have
    3 fewer to 3 more relations than generators.  Entries lie in [-9, 9].

    Over Z the cost is ruled by trial division of the invariant factors of
    square presentations, which is heavy-tailed (an operation's time grows
    about linearly with the trial divisions; rank correlation 0.91 on 250
    matrices of size 12); over Z/N it grows with N.  So each such stratum is
    drawn as a pool PRES_POOL (square over Z: PRES_POOL_SQUARE_Z, or
    PRES_POOL_TAIL from PRES_TAIL_SIZES on) times its size, sorted by the
    trial divisions the determinants need or by N, and one of every pool
    factor is kept: the batch follows the quantiles of the cost instead of
    a few lucky draws.  Non-square strata over Z have no such cost and are
    drawn directly."""
    rng = random.Random(f"{seed}:presentations")
    out = []
    for sizes, moduli in ((PRES_SIZES_Z, (0,)), (PRES_SIZES_ZN, PRES_MODULI)):
        for g in sizes:
            for square in (True, False):
                count, size = PRES_PER_STRATUM, PRES_POOL
                if moduli == (0,):
                    if square:
                        count = PRES_PER_SQUARE_Z
                        size = PRES_POOL_TAIL if g in PRES_TAIL_SIZES else PRES_POOL_SQUARE_Z
                    else:
                        size = 1
                pool = []
                for _ in range(size * count):
                    r = g if square else rng.choice(
                        [x for x in range(max(1, g - 3), g + 4) if x != g])
                    rows = _rand_matrix(rng, r, g)
                    n = rng.choice(moduli)
                    pool.append((n or _trial_division_cost(rows),
                                 {"modulus": n, "gens": g, "relations": rows}))
                pool.sort(key=lambda c: c[0])
                out += [item for _, item in pool[size // 2::size]]
    rng.shuffle(out)
    return out


def _rand_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    entries = rng.choices(range(-9, 10), k=rows * cols)
    return [entries[i:i + cols] for i in range(0, rows * cols, cols)]


def _trial_division_cost(rows: list[list[int]]) -> int:
    """Trial divisions needed to factor the determinant of a square matrix:
    the loop runs up to the second largest prime factor and to the square
    root of the largest.  The largest invariant factor is usually the whole
    determinant, so this ranks the factoring cost of ``invariants``."""
    if len(rows) != len(rows[0]):
        return 0
    primes = sorted(_prime_factors(abs(_determinant(rows))))
    return max(primes[-2] if len(primes) > 1 else 0, math.isqrt(primes[-1])) if primes else 0


_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))


def _prime_factors(n: int) -> list[int]:
    """Prime factors with multiplicity (none for 0 and 1): the primes below
    1000 by division, larger ones by Pollard's rho."""
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            return out + ([n] if n > 1 else [])
        while n % p == 0:
            out.append(p)
            n //= p
    return out + _large_prime_factors(n)


def _large_prime_factors(n: int) -> list[int]:
    if n < 2:
        return []
    if _is_prime(n):
        return [n]
    c = 1
    while True:
        x = y = 2
        f = 1
        while f == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            f = math.gcd(abs(x - y), n)
        if f != n:
            return _large_prime_factors(f) + _large_prime_factors(n // f)
        c += 1


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def presentations_run(p: dict):
    """The relation matrix as a map between free modules: the invariants of
    its cokernel (the presented module), its kernel and image, and the
    exactness of kernel inclusion followed by the map."""
    n = p["modulus"]
    rows = p["relations"]
    source = fpmod.FPModule.from_presentation([], gens=len(rows), modulus=n)
    target = fpmod.FPModule.from_presentation([], gens=p["gens"], modulus=n)
    f = fpmod.Morphism.make(source, target, rows)
    inv = f.cokernel().invariants()
    ker, incl = f.kernel()
    img, _ = f.image()
    return (inv, ker.invariants(), img.invariants(), incl.is_injective(),
            fpmod.is_exact_pair(incl, f))


def presentations_check(p: dict, res) -> tuple[list, list[str]]:
    inv, ker, img, injective, exact = res
    n, g, rows = p["modulus"], p["gens"], p["relations"]
    r = len(rows)
    problems = []
    if not (injective and exact):
        problems.append("kernel inclusion not injective or not exact")
    if any(d == 1 or d < 0 for d in inv):
        problems.append(f"invariants {inv} not canonical")
    if n == 0:
        if r == g:
            det = abs(_determinant(rows))
            content = math.gcd(*(x for row in rows for x in row))
            if det == 0:
                if 0 not in inv:
                    problems.append("singular square presentation without free part")
            elif math.prod(inv) != det:
                problems.append(f"product of {inv} != |det| = {det}")
            elif content != (inv[0] if len(inv) == g else 1):
                problems.append(f"first invariant factor of {inv} != gcd {content}")
        # over Z, kernel and image are free and their ranks add up
        if any(ker) or any(img) or len(ker) + len(img) != r:
            problems.append(f"kernel {ker} and image {img} not free of total rank {r}")
        if inv.count(0) != g - len(img):
            problems.append(f"free rank of {inv} != {g} - rank of the image")
    else:
        if any(n % d for d in inv) or 0 in inv:
            problems.append(f"invariants {inv} do not divide the modulus {n}")
        if math.prod(ker) * math.prod(img) != n ** r:
            problems.append("|ker| * |im| != |source|")
        if math.prod(img) * math.prod(inv) != n ** g:
            problems.append("|im| * |coker| != |target|")
    out = [n, g, r, list(inv), list(ker), list(img), injective, exact]
    return out, problems


# ---------------------------------------------------------------------------
# spectra-certs: distinguishing families, certificates, mutated documents
# ---------------------------------------------------------------------------

SPECTRA_DIMENSIONS = range(3, 7)
SPECTRA_SIZE_BANDS = ((None, 30), (31, 120), (121, 200))
SPECTRA_POSETS_PER_BAND = 8
SPECTRA_CERTS_PER_POSET = 4
CERT_MODULI = (4, 6, 8, 9, 12, 16, 18, 20, 24, 27, 28, 32, 36)


def spectra_inputs(seed: int) -> list[dict]:
    """Per poset, SPECTRA_CERTS_PER_POSET certificates and as many mutated
    documents follow it, alternating.  Posets are stratified by dimension and
    size band; certificates come from the program's seeded generator."""
    rng = random.Random(f"{seed}:spectra-certs")
    out = []
    for dim in SPECTRA_DIMENSIONS:
        for lo, hi in SPECTRA_SIZE_BANDS:
            lo = lo or dim + 1
            for i in range(SPECTRA_POSETS_PER_BAND):
                # evenly spread sizes: the poset work per band is the same
                # for every seed, only the shapes are random
                size = lo + (hi - lo) * (2 * i + 1) // (2 * SPECTRA_POSETS_PER_BAND)
                ranked = randomgen.random_ranked_poset(rng, dim, size)
                out.append({"kind": "poset", "dimension": dim,
                            "poset": ranked.to_document()})
                for _ in range(SPECTRA_CERTS_PER_POSET):
                    cert = _cert_item(rng, len(out))
                    out.append(cert)
                    out.append(_mutate(rng, cert, len(out)))
    return out


def _cert_item(rng: random.Random, index: int) -> dict:
    # modulus and tree depth cycle, so every seed gets the same mix of sizes
    n = CERT_MODULI[index % len(CERT_MODULI)]
    a, b = randomgen.coprime_split(rng, n)
    cert = randomgen.random_certificate(rng, n, a, depth=1 + index % 4)
    tests = randomgen.projective_test_modules(rng, n, b, count=rng.randint(1, 3))
    doc = cert.to_document()
    return {"kind": "cert", "modulus": n, "doc": doc,
            "tests": [list(t.invariants()) for t in tests],
            "level": cert.root.level,
            "nodes": len(_nodes(doc["root"])),
            "root_invariants": list(_diagonal_invariants(doc["root"]["payload"]["module"]))}


def _nodes(node: dict) -> list[dict]:
    out = [node]
    for c in node.get("children", []):
        out.extend(_nodes(c))
    return out


def _diagonal_invariants(mod: dict) -> tuple[int, ...]:
    """Invariants of a module whose relation rows have at most one nonzero
    entry, as every payload of the seeded generator has: generator j has
    order gcd(N, column j)."""
    cols = [mod["modulus"]] * mod["gens"]
    for row in mod["relations"]:
        for j, x in enumerate(row):
            cols[j] = math.gcd(cols[j], x)
    return _canonical(cols)


def _mutate(rng: random.Random, cert: dict, index: int) -> dict:
    """A corrupted copy of a certificate document and the rejection it must
    get; the kind of corruption cycles with the index."""
    doc = json.loads(json.dumps(cert["doc"]))
    nodes = _nodes(doc["root"])
    kind = index % 3
    kos = [x for x in nodes if x["kind"] == "KernelOfSurjection"]
    if kind == 0 and kos:
        rng.choice(kos)["level"] = 1          # below the derivable level 2
        expected = "LevelViolation"
    elif kind == 1:
        # a child gains a cyclic summand: its own joint or its parent's breaks
        mod = rng.choice(nodes[1:])["payload"]["module"]
        e = rng.choice([x for x in range(2, cert["modulus"] + 1)
                        if cert["modulus"] % x == 0])
        mod["relations"] = [r + [0] for r in mod["relations"]]
        mod["relations"].append([0] * mod["gens"] + [e])
        mod["gens"] += 1
        expected = "PayloadMismatch"
    else:
        rng.choice(nodes)["level"] = rng.choice([0, 3])
        expected = "MalformedTree"
    return {"kind": "mutated", "doc": doc, "expected": expected}


def spectra_load(items: list[dict]) -> list[dict]:
    out = []
    for it in items:
        it = dict(it)
        if it["kind"] == "poset":
            it["poset"] = poset.PrimePoset.from_document(it["poset"])
        elif it["kind"] == "cert":
            it["cert"] = certs.Certificate.from_document(it["doc"])
            it["tests"] = [fpmod.FPModule.from_invariants(t, modulus=it["modulus"])
                           for t in it["tests"]]
        out.append(it)
    return out


def spectra_run(it: dict):
    if it["kind"] == "poset":
        fam = poset.build_mu_family(it["poset"])
        return fam, poset.verify_distinguishing(it["poset"], fam)
    if it["kind"] == "cert":
        cert = it["cert"]
        return (certs.verify_certificate(cert), certs.instantiate_and_check(cert),
                certs.orthogonality_battery(cert, it["tests"]))
    try:
        cert = certs.Certificate.from_document(it["doc"])
        certs.verify_certificate(cert)
        certs.instantiate_and_check(cert)
    except (certs.MalformedTree, certs.LevelViolation, certs.PayloadMismatch) as exc:
        return type(exc).__name__
    return "accepted"


def spectra_check(it: dict, res) -> tuple[list, list[str]]:
    problems = []
    if it["kind"] == "poset":
        fam, rep = res
        d = it["dimension"]
        if fam.count != (d + 1) ** 2 // 4:
            problems.append(f"family of {fam.count} subsets in dimension {d}")
        if not (rep.passed() and rep.agreement):
            problems.append("distinguishing family rejected")
        out = ["poset", d, len(it["poset"].primes), fam.count, rep.passed(),
               rep.agreement, len(rep.pairwise_witnesses), rep.exhaustive_choices_checked]
    elif it["kind"] == "cert":
        level, inst, ortho = res
        if level != it["level"] or ortho["level"] != it["level"]:
            problems.append(f"level {level} != {it['level']}")
        if not (inst["ok"] and inst["checked_nodes"] == it["nodes"]
                and inst["root_invariants"] == it["root_invariants"]):
            problems.append(f"instantiation {inst} != {it['nodes']} nodes,"
                            f" {it['root_invariants']}")
        if not ortho["pass"] or len(ortho["checks"]) != len(it["tests"]):
            problems.append("orthogonality battery failed")
        out = ["cert", level, inst["checked_nodes"], inst["root_invariants"],
               ortho["pass"], ortho["seed_count"], [c["ext"] for c in ortho["checks"]]]
    else:
        if res != it["expected"]:
            problems.append(f"mutated document gave {res}, expected {it['expected']}")
        out = ["mutated", res]
    return out, problems


# ---------------------------------------------------------------------------
# battery: the quick acceptance battery, driven by the seed itself
# ---------------------------------------------------------------------------


def battery_inputs(seed: int) -> list[dict]:
    return [{"seed": seed}]


def battery_run(it: dict):
    return battery.run_battery(it["seed"], quick=True)


def battery_check(it: dict, res) -> tuple[list, list[str]]:
    doc, _timings = res
    failed = [c["criterion"] for c in doc["criteria"] if not c["pass"]]
    problems = [f"criteria {failed} fail"] if failed or not doc["all_pass"] else []
    # same bytes as `multloc battery --format structured` prints
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return [hashlib.sha256(text.encode()).hexdigest(), doc["all_pass"]], problems


def install_marks(name: str, mark, traced: bool) -> None:
    """Let the host-speed meter take its slices inside a battery, as it does
    between the operations of the other workloads: after each criterion and,
    untraced, after each call the battery makes into another layer (but not
    into ``mu``, whose 101 calls criterion 1 must finish within 1 ms).
    Installed after the tracer, so no traced span of a layer function or a
    criterion contains a slice; the two ``run_criteria_1_to_10`` spans
    contain about ten slices of some 2 ms each."""
    if name != "battery":
        return
    names = [f"criterion_{k}" for k in range(1, 11)]
    if not traced:
        names += [n for n, fn in vars(battery).items()
                  if inspect.isfunction(fn) and n != "mu"
                  and fn.__module__.startswith("multloc.")
                  and fn.__module__ != battery.__name__]
    for n in names:
        fn = getattr(battery, n)

        def then_mark(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            mark()
            return result
        setattr(battery, n, then_mark)


WORKLOADS = {
    "battery": (battery_inputs, _unchanged, battery_run, battery_check),
    "towers": (towers_inputs, _unchanged, towers_run, towers_check),
    "presentations": (presentations_inputs, _unchanged, presentations_run,
                      presentations_check),
    "spectra-certs": (spectra_inputs, spectra_load, spectra_run, spectra_check),
}
