"""Finite ranked models of prime spectra and distinguishing multiplicative subsets.

A PrimePoset records the strict containment order on a finite set of
prime-ideal labels together with height labels (longest chain below).
Ring elements are modeled generically: an element chosen inside a prime p
lies in exactly the primes containing p, so prime avoidance succeeds
whenever no forbidden prime contains the target.  This makes the
constructions below total, while the verifier only ever looks at
intersection patterns and is independent of the element model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product


class AvoidanceImpossible(Exception):
    """A forbidden prime contains the target prime."""


class DimensionMismatch(Exception):
    """Poset dimension incompatible with the requested construction."""


class BadChoice(Exception):
    """A chosen element is not a generator of the indicated subset."""


@dataclass(frozen=True)
class PrimePoset:
    """Strict containment order on prime labels, with validated heights."""

    primes: tuple[str, ...]
    lt: frozenset[tuple[str, str]]
    height: dict[str, int] = field(compare=False)

    @staticmethod
    def from_lt(primes: list[str], lt_pairs: set[tuple[str, str]]) -> "PrimePoset":
        primes_t = tuple(primes)
        pset = set(primes_t)
        if len(pset) != len(primes_t):
            raise ValueError("duplicate prime identifiers")
        for a, b in lt_pairs:
            if a not in pset or b not in pset:
                raise ValueError(f"lt pair ({a!r}, {b!r}) mentions unknown prime")
            if a == b:
                raise ValueError(f"lt is not irreflexive at {a!r}")
        closure = _transitive_closure(primes_t, lt_pairs)
        for a, b in closure:
            if (b, a) in closure:
                raise ValueError(f"lt has a cycle through {a!r}, {b!r}")
        heights = _longest_chain_heights(primes_t, closure)
        return PrimePoset(primes=primes_t, lt=frozenset(closure), height=heights)

    @staticmethod
    def from_covers(primes: list[str], covers: list[tuple[str, str]]) -> "PrimePoset":
        """Build from cover pairs [lower, upper]; the order is the transitive closure."""
        return PrimePoset.from_lt(primes, set((a, b) for a, b in covers))

    @staticmethod
    def from_document(doc: dict) -> "PrimePoset":
        """Parse {"primes": [...], "covers": [[lower, upper], ...]}; ValueError
        naming the field when its shape is wrong."""
        if not isinstance(doc, dict):
            raise ValueError("poset document must be an object")
        primes, covers = doc.get("primes"), doc.get("covers")
        if not isinstance(primes, list) or not all(isinstance(p, str) for p in primes):
            raise ValueError("primes: must be a list of strings")
        if not isinstance(covers, list) or not all(
                isinstance(c, list) and len(c) == 2 and all(isinstance(p, str) for p in c)
                for c in covers):
            raise ValueError("covers: must be a list of [lower, upper] string pairs")
        return PrimePoset.from_covers(primes, [tuple(c) for c in covers])

    def dimension(self) -> int:
        return max(self.height.values(), default=0)

    def less(self, a: str, b: str) -> bool:
        return (a, b) in self.lt

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self.lt

    def up_closure(self, p: str) -> frozenset[str]:
        return frozenset(q for q in self.primes if self.leq(p, q))

    def primes_of_height(self, h: int) -> list[str]:
        return [p for p in self.primes if self.height[p] == h]

    def comparable_pairs(self) -> list[tuple[str, str]]:
        """All pairs (p, q) with p strictly contained in q."""
        return [(a, b) for (a, b) in sorted(self.lt)]

    def canonical_order(self) -> list[str]:
        """Ascending height, then identifier: the default enumeration."""
        return sorted(self.primes, key=lambda p: (self.height[p], p))

    def restrict(self, keep: set[str]) -> "PrimePoset":
        """Induced subposet with heights recomputed inside the subset."""
        sub = [p for p in self.primes if p in keep]
        lt = {(a, b) for (a, b) in self.lt if a in keep and b in keep}
        return PrimePoset.from_lt(sub, lt)

    def to_document(self) -> dict:
        covers = _covers_of(self.primes, self.lt)
        return {"primes": list(self.primes), "covers": [list(c) for c in sorted(covers)]}


def _transitive_closure(primes, pairs):
    adj = {p: set() for p in primes}
    for a, b in pairs:
        adj[a].add(b)
    closure = set()
    for p in primes:
        seen = set()
        stack = list(adj[p])
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            stack.extend(adj[q])
        for q in seen:
            closure.add((p, q))
    return closure


def _longest_chain_heights(primes, closure):
    below = {p: [q for q in primes if (q, p) in closure] for p in primes}
    heights: dict[str, int] = {}

    def h(p):
        if p not in heights:
            heights[p] = 1 + max((h(q) for q in below[p]), default=-1)
        return heights[p]

    for p in primes:
        h(p)
    return heights


def _covers_of(primes, lt):
    covers = []
    for a, b in lt:
        if not any((a, c) in lt and (c, b) in lt for c in primes):
            covers.append((a, b))
    return covers


@dataclass(frozen=True)
class AbstractElement:
    """Generic ring element: ``locus`` is the set of primes containing it."""

    id: str
    locus: frozenset[str]


@dataclass(frozen=True)
class MultSubsetModel:
    """Multiplicative subset presented by generator elements.

    The subset meets a prime iff some generator lies in it; products never
    enter a prime all of whose factors avoid it.
    """

    generators: tuple[AbstractElement, ...] = ()

    def intersects(self, p: str) -> bool:
        return any(p in g.locus for g in self.generators)

    def hit_set(self) -> frozenset[str]:
        out: set[str] = set()
        for g in self.generators:
            out.update(g.locus)
        return frozenset(out)

    def to_document(self) -> list:
        return [sorted(g.locus) for g in self.generators]


@dataclass(frozen=True)
class DistinguishingFamily:
    subsets: tuple[MultSubsetModel, ...]
    dimension: int

    @property
    def count(self) -> int:
        return len(self.subsets)

    def to_document(self) -> list:
        return [s.to_document() for s in self.subsets]


def mu(d: int) -> int:
    """Number of subsets used in dimension d: d + (d-2) + (d-4) + ... (terms >= 1)."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    total = 0
    k = d
    while k >= 1:
        total += k
        k -= 2
    return total


def avoidance_element(poset: PrimePoset, target: str, forbidden: set[str],
                      id: str | None = None) -> AbstractElement:
    """Generic element of ``target`` avoiding every prime in ``forbidden``.

    Raises AvoidanceImpossible when some forbidden prime contains the target
    (then every element of the target lies in it).
    """
    if target not in poset.height:
        raise ValueError(f"unknown prime {target}")
    locus = poset.up_closure(target)
    bad = locus & frozenset(forbidden)
    if bad:
        raise AvoidanceImpossible(
            f"forbidden prime(s) {sorted(bad)} contain the target {target}")
    return AbstractElement(id=id or f"e[{target}]", locus=locus)


def build_one_dimensional(poset: PrimePoset) -> MultSubsetModel:
    """One generator inside every height-1 prime, avoiding all minimal primes."""
    if poset.dimension() != 1:
        raise DimensionMismatch(f"dimension {poset.dimension()} != 1")
    minimal = set(poset.primes_of_height(0))
    gens = []
    for p in sorted(poset.primes_of_height(1)):
        gens.append(avoidance_element(poset, p, minimal, id=f"s[{p}]"))
    return MultSubsetModel(generators=tuple(gens))


def _height1_tail(poset: PrimePoset) -> MultSubsetModel:
    """The odd-dimension tail: distinguish height-1 primes from minimal ones."""
    minimal = set(poset.primes_of_height(0))
    gens = []
    for p in sorted(poset.primes_of_height(1)):
        gens.append(avoidance_element(poset, p, minimal, id=f"tail[{p}]"))
    return MultSubsetModel(generators=tuple(gens))


def build_pair_dim2(poset: PrimePoset, order: list[str] | None = None
                    ) -> tuple[MultSubsetModel, MultSubsetModel]:
    """Grow two subsets so that a prime of height h meets exactly h of them.

    Processes primes in the given enumeration, keeping the running
    invariants: minimal primes meet neither set, height-1 primes meet at
    most one, and every new element avoids the other set's height-1
    "U-primes" and all minimal primes (automatic in the generic model,
    asserted here).
    """
    if poset.dimension() > 2:
        raise DimensionMismatch(f"dimension {poset.dimension()} > 2")
    order = list(order) if order is not None else poset.canonical_order()
    _check_order(poset, order)
    minimal = set(poset.primes_of_height(0))
    s_gens: list[AbstractElement] = []
    t_gens: list[AbstractElement] = []

    def u_primes(gens: list[AbstractElement]) -> set[str]:
        hits: set[str] = set()
        for g in gens:
            hits.update(g.locus)
        return {p for p in hits if poset.height[p] == 1}

    def meets(gens: list[AbstractElement], p: str) -> bool:
        return any(p in g.locus for g in gens)

    for step, p in enumerate(order):
        h = poset.height[p]
        if h == 0:
            continue
        if h == 1:
            if meets(s_gens, p) or meets(t_gens, p):
                continue
            e = avoidance_element(poset, p, minimal | u_primes(t_gens),
                                  id=f"S[{step}:{p}]")
            s_gens.append(e)
        else:
            if not meets(s_gens, p):
                e = avoidance_element(poset, p, minimal | u_primes(t_gens),
                                      id=f"S[{step}:{p}]")
                s_gens.append(e)
            if not meets(t_gens, p):
                e = avoidance_element(poset, p, minimal | u_primes(s_gens),
                                      id=f"T[{step}:{p}]")
                t_gens.append(e)
    return MultSubsetModel(tuple(s_gens)), MultSubsetModel(tuple(t_gens))


def build_wave(poset: PrimePoset, l: int, order: list[str] | None = None
               ) -> list[MultSubsetModel]:
    """l subsets distinguishing the primes of height l and l-1 downwards.

    Induction over the enumeration of height-(l-1) and height-l primes:
    at each step the smallest-index prime that does not yet meet
    height-many of the growing sets receives one new element, placed in
    the first set it avoids.  The new element must avoid every "saturated"
    prime of height <= l-1 (saturated: already meeting height-many sets),
    which the generic element model grants automatically.  The induction
    stops as soon as every height-l/l-1 prime is saturated.
    """
    if l < 2:
        raise DimensionMismatch(f"wave level l={l} must be >= 2")
    if l > poset.dimension():
        raise DimensionMismatch(f"l={l} exceeds dimension {poset.dimension()}")
    order = list(order) if order is not None else poset.canonical_order()
    _check_order(poset, order)

    targets = [p for p in order if poset.height[p] in (l - 1, l)]
    gens: list[list[AbstractElement]] = [[] for _ in range(l)]
    meet_count = {p: 0 for p in poset.primes}
    meets_set = [{p: False for p in poset.primes} for _ in range(l)]

    def saturated(p: str) -> bool:
        return meet_count[p] >= min(poset.height[p], l)

    step = 0
    while True:
        target = next((p for p in targets if not saturated(p)), None)
        if target is None:
            break
        k = next(i for i in range(l) if not meets_set[i][target])
        forbidden = {p for p in poset.primes
                     if poset.height[p] <= l - 1 and saturated(p)}
        e = avoidance_element(poset, target, forbidden,
                              id=f"W{l}.{k}[{step}:{target}]")
        gens[k].append(e)
        for q in e.locus:
            if not meets_set[k][q]:
                meets_set[k][q] = True
                meet_count[q] += 1
        step += 1

    return [MultSubsetModel(tuple(g)) for g in gens]


def build_mu_family(poset: PrimePoset, order: list[str] | None = None
                    ) -> DistinguishingFamily:
    """The full family: waves at levels d, d-2, ..., plus a height-1 tail for odd d.

    Waves are built independently on the same poset; the family has
    exactly mu(d) subsets.
    """
    d = poset.dimension()
    order = list(order) if order is not None else poset.canonical_order()
    subsets: list[MultSubsetModel] = []
    level = d
    while level >= 2:
        subsets.extend(build_wave(poset, level, order))
        level -= 2
    if d % 2 == 1:
        subsets.append(_height1_tail(poset))
    fam = DistinguishingFamily(subsets=tuple(subsets), dimension=d)
    assert fam.count == mu(d)
    return fam


def _check_order(poset: PrimePoset, order: list[str]) -> None:
    if sorted(order) != sorted(poset.primes):
        raise ValueError("order must list every prime exactly once")


def spectrum_of_R_Js(poset: PrimePoset, family: DistinguishingFamily,
                     J: set[int], s: dict[int, AbstractElement]) -> PrimePoset:
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
    hits = [sub.hit_set() for sub in family.subsets]
    keep = set()
    for p in poset.primes:
        if any(p in hits[j] for j in J):
            continue
        if all(p in s[k].locus for k in complement):
            keep.add(p)
    return poset.restrict(keep)


@dataclass
class DistinguishReport:
    """Result of verify_distinguishing, as plain data."""

    pairwise_ok: bool
    pairwise_witnesses: dict[tuple[str, str], int]
    pairwise_failures: list[tuple[str, str]]
    antichain_ok: bool
    antichain_failures: list[dict]
    agreement: bool
    exhaustive_choices_checked: int

    def passed(self) -> bool:
        return self.pairwise_ok and self.antichain_ok and self.agreement

    def to_document(self) -> dict:
        return {
            "pairwise_ok": self.pairwise_ok,
            "pairwise_witnesses": {f"{p}<{q}": j for (p, q), j
                                   in sorted(self.pairwise_witnesses.items())},
            "pairwise_failures": [list(x) for x in self.pairwise_failures],
            "antichain_ok": self.antichain_ok,
            "antichain_failures": self.antichain_failures,
            "agreement": self.agreement,
            "exhaustive_choices_checked": self.exhaustive_choices_checked,
            "pass": self.passed(),
        }


def verify_distinguishing(poset: PrimePoset, family: DistinguishingFamily,
                          exhaustive_budget: int = 512) -> DistinguishReport:
    """Check the pairwise property and the antichain property of all R_{J,s} spectra.

    (a) For every containment p < q some subset must miss p and meet q.
    (b) No choice of (J, s) may leave a comparable pair in the subposet.
        A pair survives some choice iff it survives the canonical one
        J = {j : subset j misses q} (any valid J is squeezed between the
        miss-sets of p and q, which must then coincide), so scanning the
        canonical choice per pair is complete.  On top of that, all (J, s)
        choices are enumerated outright while their number stays within
        ``exhaustive_budget``.
    """
    hits = [sub.hit_set() for sub in family.subsets]
    m = family.count

    witnesses: dict[tuple[str, str], int] = {}
    failures: list[tuple[str, str]] = []
    for p, q in poset.comparable_pairs():
        w = next((j for j in range(m) if p not in hits[j] and q in hits[j]), None)
        if w is None:
            failures.append((p, q))
        else:
            witnesses[(p, q)] = w
    pairwise_ok = not failures

    anti_failures: list[dict] = []
    for p, q in poset.comparable_pairs():
        miss_p = frozenset(j for j in range(m) if p not in hits[j])
        miss_q = frozenset(j for j in range(m) if q not in hits[j])
        if miss_p != miss_q:
            continue
        J = set(miss_q)
        s_choice: dict[int, AbstractElement] = {}
        ok = True
        for k in range(m):
            if k in J:
                continue
            gen = next((g for g in family.subsets[k].generators if p in g.locus), None)
            if gen is None:
                ok = False
                break
            s_choice[k] = gen
        if not ok:
            continue
        sub = spectrum_of_R_Js(poset, family, J, s_choice)
        if sub.less(p, q):
            anti_failures.append({
                "J": sorted(J),
                "s": {k: g.id for k, g in s_choice.items()},
                "pair": [p, q],
            })

    checked = 0
    sizes = [len(sub.generators) + 1 for sub in family.subsets]
    total = 1
    for x in sizes:
        total *= x
        if total > exhaustive_budget:
            break
    if total <= exhaustive_budget:
        gen_options = [list(sub.generators) + [None] for sub in family.subsets]
        for combo in product(*gen_options):
            J = {k for k, g in enumerate(combo) if g is None}
            s_choice = {k: g for k, g in enumerate(combo) if g is not None}
            sub = spectrum_of_R_Js(poset, family, J, s_choice)
            checked += 1
            for p, q in sub.comparable_pairs():
                rec = {"J": sorted(J), "s": {k: g.id for k, g in s_choice.items()},
                       "pair": [p, q]}
                if rec not in anti_failures:
                    anti_failures.append(rec)

    antichain_ok = not anti_failures
    return DistinguishReport(
        pairwise_ok=pairwise_ok,
        pairwise_witnesses=witnesses,
        pairwise_failures=failures,
        antichain_ok=antichain_ok,
        antichain_failures=anti_failures,
        agreement=(pairwise_ok == antichain_ok),
        exhaustive_choices_checked=checked,
    )

