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

The classes are named tuples, so creating them runs no generated code.
Like any tuple they iterate, compare equal to a plain tuple of the same
fields and serialize to JSON as lists; documents come from
``to_document``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import product


class AvoidanceImpossible(Exception):
    """A forbidden prime contains the target prime."""


class DimensionMismatch(Exception):
    """Poset dimension incompatible with the requested construction."""


class PrimePoset(namedtuple("PrimePoset", "primes up height")):
    """Containment order on prime labels, kept as up-sets, with validated heights.

    ``up[p]`` holds the primes containing p, p included; it is also the
    locus of a generic element of p.  ``height[p]`` is the length of the
    longest chain below p.  Two posets are equal when they have the same
    primes and the same order; the hash reads the primes only.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, PrimePoset):
            return NotImplemented
        return self.primes == other.primes and self.up == other.up

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.primes)

    @staticmethod
    def from_covers(primes: list[str], covers: Iterable[tuple[str, str]]) -> "PrimePoset":
        """Order generated by the pairs [lower, upper] in ``covers``, covers or
        any other strict pairs: the order is their transitive closure.  Pairs
        are checked in the order given and a cycle is named by its first prime
        in ``primes``, so an error names the same culprit in every process."""
        primes_t = tuple(primes)
        if len(set(primes_t)) != len(primes_t):
            raise ValueError("duplicate prime identifiers")
        succ: dict[str, set[str]] = {p: set() for p in primes_t}
        for a, b in covers:
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

    def primes_of_height(self, h: int) -> list[str]:
        return [p for p in self.primes if self.height[p] == h]

    def canonical_order(self) -> list[str]:
        """Ascending height, then identifier: the order the builders enumerate."""
        return sorted(self.primes, key=lambda p: (self.height[p], p))

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


# generic ring element: ``locus`` is the set of primes containing it
AbstractElement = namedtuple("AbstractElement", "id locus")


class MultSubsetModel(namedtuple("MultSubsetModel", "generators")):
    """Multiplicative subset presented by generator elements.

    The subset meets a prime iff some generator lies in it; products never
    enter a prime all of whose factors avoid it.
    """

    __slots__ = ()

    def intersects(self, p: str) -> bool:
        return any(p in g.locus for g in self.generators)

    def hit_set(self) -> frozenset[str]:
        out: set[str] = set()
        for g in self.generators:
            out.update(g.locus)
        return frozenset(out)

    def to_document(self) -> list:
        return [sorted(g.locus) for g in self.generators]


class DistinguishingFamily(namedtuple("DistinguishingFamily", "subsets dimension")):
    __slots__ = ()

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


def build_pair_dim2(poset: PrimePoset) -> tuple[MultSubsetModel, MultSubsetModel]:
    """Grow two subsets so that a prime of height h meets exactly h of them.

    Processes primes in ``poset.canonical_order()``, keeping the running
    invariants: minimal primes meet neither set, height-1 primes meet at
    most one, and every new element avoids the other set's height-1
    "U-primes" and all minimal primes (automatic in the generic model,
    asserted here).  Hit sets and avoided primes are kept as they grow.
    """
    if poset.dimension() > 2:
        raise DimensionMismatch(f"dimension {poset.dimension()} > 2")
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

    for step, p in enumerate(poset.canonical_order()):
        h = poset.height[p]
        if h == 1 and p not in hit[0] and p not in hit[1]:
            grow(0, p, step)
        elif h == 2:
            if p not in hit[0]:
                grow(0, p, step)
            if p not in hit[1]:
                grow(1, p, step)
    return MultSubsetModel(tuple(gens[0])), MultSubsetModel(tuple(gens[1]))


def build_wave(poset: PrimePoset, l: int) -> list[MultSubsetModel]:
    """l subsets distinguishing the primes of height l and l-1 downwards.

    Induction over the height-(l-1) and height-l primes in
    ``poset.canonical_order()``: at each step the smallest-index prime that
    does not yet meet height-many of the growing sets receives one new
    element, placed in the first set it avoids.  The new element must avoid every "saturated"
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
    gens: list[list[AbstractElement]] = [[] for _ in range(l)]
    hit: list[set[str]] = [set() for _ in range(l)]
    missing = {p: min(h, l) for p, h in poset.height.items()}
    forbidden = set(poset.primes_of_height(0))
    step = 0
    for target in poset.canonical_order():
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


def build_mu_family(poset: PrimePoset) -> DistinguishingFamily:
    """The full family: waves at levels d, d-2, ..., plus a height-1 tail for odd d.

    Waves are built independently on the same poset; the family has
    exactly mu(d) subsets.
    """
    d = poset.dimension()
    subsets: list[MultSubsetModel] = []
    level = d
    while level >= 2:
        subsets.extend(build_wave(poset, level))
        level -= 2
    if d % 2 == 1:
        subsets.append(_height1_subset(poset, "tail"))
    fam = DistinguishingFamily(subsets=tuple(subsets), dimension=d)
    assert fam.count == mu(d)
    return fam


class DistinguishReport(namedtuple("DistinguishReport", "pairwise_ok pairwise_witnesses "
                                   "pairwise_failures antichain_ok antichain_failures "
                                   "agreement exhaustive_choices_checked")):
    """Result of verify_distinguishing, as plain data."""

    __slots__ = ()

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
    (b) No choice of (J, s) may leave a comparable pair in its spectrum:
        the primes avoiding every subset in J and containing the chosen
        generator s_k of every other subset k.  A pair survives some choice
        iff it survives the canonical one J = {j : subset j misses q} (any
        valid J is squeezed between the miss-sets of p and q, which must
        then coincide), with s_k the first generator of subset k containing
        p: an element's locus is an up-set, so it contains q too.  So
        scanning the canonical choice per pair is complete.  On top of that, all (J, s)
        choices are enumerated outright while their number stays within
        ``exhaustive_budget``.

    Within the call each prime is a bit, assigned in label order, so sets of
    primes and of subset indices are ints and ascending bits are ascending
    labels.  A choice is a combo of one (mask, generator) option per subset,
    generator None for an inverted subset; it keeps the AND of its masks,
    and since restriction keeps the order, the pairs that survive it are
    the comparable pairs with both ends kept.  The canonical and the
    enumerated choices go through the same combos.
    """
    labels = sorted(poset.primes)
    bit = {p: 1 << i for i, p in enumerate(labels)}
    everything = (1 << len(labels)) - 1
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
            # k outside J = miss[q] = miss[p] means p lies in subset k's hit
            # set, so some generator of subset k contains p
            combo = [(everything & ~hits[k], None) if miss[j] >> k & 1 else
                     next((mask(g.locus), g) for g in sub.generators if p in g.locus)
                     for k, sub in enumerate(family.subsets)]
            keep = _kept(combo, everything)
            if keep >> i & keep >> j & 1:
                anti_failures.append(_failure(combo, p, q))
    pairwise_ok = not failures

    checked = 0
    sizes = [len(sub.generators) + 1 for sub in family.subsets]
    total = 1
    for x in sizes:
        total *= x
        if total > exhaustive_budget:
            break
    if total <= exhaustive_budget:
        options = [[(mask(g.locus), g) for g in sub.generators] + [(everything & ~hit, None)]
                   for sub, hit in zip(family.subsets, hits)]
        for combo in product(*options):
            keep = _kept(combo, everything)
            checked += 1
            for i in _bits(keep):
                for j in _bits(above[i] & keep):
                    rec = _failure(combo, labels[i], labels[j])
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


def _kept(combo, everything: int) -> int:
    """Primes a (J, s) choice keeps: the AND of its combo's masks."""
    keep = everything
    for locus, _ in combo:
        keep &= locus
    return keep


def _failure(combo, p: str, q: str) -> dict:
    """Record of a comparable pair p < q that the choice ``combo`` keeps."""
    return {"J": [k for k, (_, g) in enumerate(combo) if g is None],
            "s": {k: g.id for k, (_, g) in enumerate(combo) if g is not None},
            "pair": [p, q]}


def _bits(x: int):
    """Positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low
