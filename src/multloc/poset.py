"""Finite ranked models of prime spectra and distinguishing multiplicative subsets.

A PrimePoset records the containment order on a finite set of prime-ideal
labels as up-sets (for each prime, the primes containing it) together with
height labels (longest chain below).  Ring elements are modeled
generically: an element chosen inside a prime p lies in exactly the primes
containing p, its up-set, so prime avoidance succeeds whenever no
forbidden prime contains the target.  This makes the constructions below
total, while the verifier only ever looks at intersection patterns and is
independent of the element model.  For the length of one call the verifier
numbers the primes as bits, so its sets are ints; a PrimePoset keeps its
up-sets as frozensets, its one representation of the order.
"""

from __future__ import annotations

from collections.abc import Iterable
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
    """Containment order on prime labels, kept as up-sets, with validated heights.

    ``up[p]`` holds the primes containing p, p included; it is also the
    locus of a generic element of p.  ``height[p]`` is the length of the
    longest chain below p.  Two posets are equal when they have the same
    primes and the same order.
    """

    primes: tuple[str, ...]
    up: dict[str, frozenset[str]] = field(hash=False)
    height: dict[str, int] = field(compare=False)

    @staticmethod
    def from_lt(primes: list[str], lt_pairs: Iterable[tuple[str, str]]) -> "PrimePoset":
        """Order generated by ``lt_pairs``.  Pairs are checked in the order
        given and a cycle is named by its first prime in ``primes``, so an
        error names the same culprit in every process."""
        primes_t = tuple(primes)
        if len(set(primes_t)) != len(primes_t):
            raise ValueError("duplicate prime identifiers")
        succ: dict[str, set[str]] = {p: set() for p in primes_t}
        for a, b in lt_pairs:
            if a not in succ or b not in succ:
                raise ValueError(f"lt pair ({a!r}, {b!r}) mentions unknown prime")
            if a == b:
                raise ValueError(f"lt is not irreflexive at {a!r}")
            succ[a].add(b)
        up = {}
        for p in primes_t:
            above: set[str] = set()
            stack = list(succ[p])
            while stack:
                q = stack.pop()
                if q not in above:
                    above.add(q)
                    stack.extend(succ[q])
            if p in above:
                raise ValueError(f"lt has a cycle through {p!r}")
            above.add(p)
            up[p] = frozenset(above)
        return PrimePoset(primes_t, up, _heights(primes_t, up))

    @staticmethod
    def from_covers(primes: list[str], covers: list[tuple[str, str]]) -> "PrimePoset":
        """Build from cover pairs [lower, upper]; the order is the transitive closure."""
        return PrimePoset.from_lt(primes, covers)

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
        return a != b and b in self.up.get(a, ())

    def primes_of_height(self, h: int) -> list[str]:
        return [p for p in self.primes if self.height[p] == h]

    def canonical_order(self) -> list[str]:
        """Ascending height, then identifier: the default enumeration."""
        return sorted(self.primes, key=lambda p: (self.height[p], p))

    def restrict(self, keep: set[str]) -> "PrimePoset":
        """Induced subposet with heights recomputed inside the subset.

        The restriction of a closed, acyclic order is closed and acyclic,
        so the up-sets are only cut down to ``keep``.
        """
        primes = tuple(p for p in self.primes if p in keep)
        up = {p: self.up[p].intersection(keep) for p in primes}
        return PrimePoset(primes, up, _heights(primes, up))

    def to_document(self) -> dict:
        covers = []
        for p in self.primes:
            above = self.up[p] - {p}
            covers += [[p, q] for q in above
                       if not any(q in self.up[r] for r in above if r != q)]
        return {"primes": list(self.primes), "covers": sorted(covers)}


def _heights(primes, up):
    """Longest chain below each prime.  A prime's up-set is strictly larger
    than that of every prime above it, so larger up-sets are final first."""
    height = dict.fromkeys(primes, 0)
    for p in sorted(primes, key=lambda p: -len(up[p])):
        for q in up[p]:
            if q != p and height[q] <= height[p]:
                height[q] = height[p] + 1
    return height


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
    """Number of subsets used in dimension d: d + (d-2) + (d-4) + ... (terms >= 1),
    which sums to floor((d+1)^2 / 4)."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return (d + 1) ** 2 // 4


def avoidance_element(poset: PrimePoset, target: str, forbidden: set[str],
                      id: str | None = None) -> AbstractElement:
    """Generic element of ``target`` avoiding every prime in ``forbidden``.

    Raises AvoidanceImpossible when some forbidden prime contains the target
    (then every element of the target lies in it).
    """
    if target not in poset.up:
        raise ValueError(f"unknown prime {target}")
    locus = poset.up[target]
    bad = locus.intersection(forbidden)
    if bad:
        raise AvoidanceImpossible(
            f"forbidden prime(s) {sorted(bad)} contain the target {target}")
    return AbstractElement(id=id or f"e[{target}]", locus=locus)


def build_one_dimensional(poset: PrimePoset) -> MultSubsetModel:
    """One generator inside every height-1 prime, avoiding all minimal primes."""
    if poset.dimension() != 1:
        raise DimensionMismatch(f"dimension {poset.dimension()} != 1")
    return _height1_subset(poset, "s")


def _height1_subset(poset: PrimePoset, prefix: str) -> MultSubsetModel:
    """Distinguish height-1 primes from minimal ones; also the odd-dimension tail."""
    minimal = set(poset.primes_of_height(0))
    return MultSubsetModel(tuple(
        avoidance_element(poset, p, minimal, id=f"{prefix}[{p}]")
        for p in sorted(poset.primes_of_height(1))))


def build_pair_dim2(poset: PrimePoset, order: list[str] | None = None
                    ) -> tuple[MultSubsetModel, MultSubsetModel]:
    """Grow two subsets so that a prime of height h meets exactly h of them.

    Processes primes in the given enumeration, keeping the running
    invariants: minimal primes meet neither set, height-1 primes meet at
    most one, and every new element avoids the other set's height-1
    "U-primes" and all minimal primes (automatic in the generic model,
    asserted here).  Hit sets and avoided primes are kept as they grow.
    """
    if poset.dimension() > 2:
        raise DimensionMismatch(f"dimension {poset.dimension()} > 2")
    order = list(order) if order is not None else poset.canonical_order()
    _check_order(poset, order)
    minimal = poset.primes_of_height(0)
    gens: tuple[list[AbstractElement], ...] = ([], [])
    hit: tuple[set[str], ...] = (set(), set())
    # per set: minimal primes plus the height-1 primes the other set meets
    avoid = (set(minimal), set(minimal))

    def grow(k: int, p: str, step: int) -> None:
        e = avoidance_element(poset, p, avoid[k], id=f"{'ST'[k]}[{step}:{p}]")
        gens[k].append(e)
        hit[k].update(e.locus)
        avoid[1 - k].update(q for q in e.locus if poset.height[q] == 1)

    for step, p in enumerate(order):
        h = poset.height[p]
        if h == 1 and p not in hit[0] and p not in hit[1]:
            grow(0, p, step)
        elif h == 2:
            if p not in hit[0]:
                grow(0, p, step)
            if p not in hit[1]:
                grow(1, p, step)
    return MultSubsetModel(tuple(gens[0])), MultSubsetModel(tuple(gens[1]))


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

    Meeting counts only grow, so ``missing`` (sets a prime still has to
    meet) and the ``forbidden`` set are kept as they change, and the first
    unsaturated target only moves forward.
    """
    if l < 2:
        raise DimensionMismatch(f"wave level l={l} must be >= 2")
    if l > poset.dimension():
        raise DimensionMismatch(f"l={l} exceeds dimension {poset.dimension()}")
    order = list(order) if order is not None else poset.canonical_order()
    _check_order(poset, order)

    gens: list[list[AbstractElement]] = [[] for _ in range(l)]
    hit: list[set[str]] = [set() for _ in range(l)]
    missing = {p: min(h, l) for p, h in poset.height.items()}
    forbidden = set(poset.primes_of_height(0))
    step = 0
    for target in order:
        if poset.height[target] not in (l - 1, l):
            continue
        while missing[target] > 0:
            k = next(i for i in range(l) if target not in hit[i])
            e = avoidance_element(poset, target, forbidden,
                                  id=f"W{l}.{k}[{step}:{target}]")
            gens[k].append(e)
            for q in e.locus - hit[k]:
                missing[q] -= 1
                if missing[q] == 0 and poset.height[q] < l:
                    forbidden.add(q)
            hit[k].update(e.locus)
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
        subsets.append(_height1_subset(poset, "tail"))
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
    keep = set(poset.primes).difference(*(family.subsets[j].hit_set() for j in J))
    keep.intersection_update(*(s[k].locus for k in complement))
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

    Within the call each prime is a bit, assigned in label order, so sets of
    primes and of subset indices are ints and ascending bits are ascending
    labels.  A choice keeps the AND of its chosen loci and the complements
    of its inverted hit sets; restriction keeps the order, so the pairs that
    survive it are the comparable pairs with both ends kept.
    """
    labels = sorted(poset.primes)
    bit = {p: 1 << i for i, p in enumerate(labels)}
    masks: dict[frozenset[str], int] = {}

    def mask(primes: frozenset[str]) -> int:
        # generator loci are the poset's own up-set objects, so each distinct
        # set is converted once; labels outside the poset play no part
        if primes not in masks:
            masks[primes] = sum(bit[p] for p in primes if p in bit)
        return masks[primes]

    above = [mask(poset.up[p]) ^ bit[p] for p in labels]
    hits = [mask(sub.hit_set()) for sub in family.subsets]
    m = family.count
    miss = [sum(1 << j for j in range(m) if not hits[j] & b) for b in bit.values()]

    witnesses: dict[tuple[str, str], int] = {}
    failures: list[tuple[str, str]] = []
    anti_failures: list[dict] = []
    for i, p in enumerate(labels):
        for j in _bits(above[i]):
            q = labels[j]
            w = miss[i] & ~miss[j]
            if w:
                witnesses[(p, q)] = (w & -w).bit_length() - 1
            else:
                failures.append((p, q))
            if miss[i] != miss[j]:
                continue
            # k outside J = miss[p] means p lies in subset k's hit set, so
            # some generator of subset k contains p
            J = set(_bits(miss[j]))
            s_choice = {k: next(g for g in family.subsets[k].generators if p in g.locus)
                        for k in range(m) if k not in J}
            sub = spectrum_of_R_Js(poset, family, J, s_choice)
            if sub.less(p, q):
                anti_failures.append({
                    "J": sorted(J),
                    "s": {k: g.id for k, g in s_choice.items()},
                    "pair": [p, q],
                })
    pairwise_ok = not failures

    checked = 0
    sizes = [len(sub.generators) + 1 for sub in family.subsets]
    total = 1
    for x in sizes:
        total *= x
        if total > exhaustive_budget:
            break
    if total <= exhaustive_budget:
        everything = (1 << len(labels)) - 1
        options = [[(mask(g.locus), g) for g in sub.generators] + [(everything & ~hit, None)]
                   for sub, hit in zip(family.subsets, hits)]
        for combo in product(*options):
            keep = everything
            for locus, _ in combo:
                keep &= locus
            checked += 1
            for i in _bits(keep):
                for j in _bits(above[i] & keep):
                    rec = {"J": [k for k, (_, g) in enumerate(combo) if g is None],
                           "s": {k: g.id for k, (_, g) in enumerate(combo) if g is not None},
                           "pair": [labels[i], labels[j]]}
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


def _bits(x: int):
    """Positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low
