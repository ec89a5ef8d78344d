"""Finite ranked models of prime spectra and distinguishing multiplicative subsets.

A PrimePoset records the containment order on a finite set of prime-ideal
labels as up-sets (for each prime, the primes containing it) together with
height labels (longest chain below).  Ring elements are modeled
generically: an element chosen inside a prime p lies in exactly the primes
containing p, its up-set, so prime avoidance succeeds whenever no
forbidden prime contains the target.  This makes the constructions below
total, while the verifier only ever looks at intersection patterns and is
independent of the element model.

Every set of primes is an int bit mask: bit i stands for the i-th label of
``sorted(primes)``, so ascending bits are ascending labels.  A PrimePoset
keeps its up-set masks and heights as tuples indexed by bit; the masks
are its one representation of the order.  Element loci are those masks,
and the builders and the verifier keep their hit, forbidden and kept sets
as masks too.  Labels appear only in documents, error messages and the
label-facing lookups, which find a label's bit by bisection.

The classes are named tuples, so creating them runs no generated code.
Like any tuple they iterate, compare and hash by their fields, compare
equal to a plain tuple of the same fields and serialize to JSON as lists;
documents come from ``to_document``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable
from itertools import product


class AvoidanceImpossible(Exception):
    """A forbidden prime contains the target prime."""


class DimensionMismatch(Exception):
    """Poset dimension incompatible with the requested construction."""


class PrimePoset(namedtuple("PrimePoset", "primes labels up height")):
    """Containment order on prime labels, kept as up-set masks, with validated heights.

    ``labels`` is ``sorted(primes)``; bit i of a mask stands for
    ``labels[i]``, and ``up`` and ``height`` are indexed by bit.  ``up[i]``
    is the mask of the primes containing ``labels[i]``, itself included;
    it is also the locus of a generic element of that prime.
    ``height[i]`` is the length of the longest chain below it.  Equality
    and the hash are the tuple's, field by field; for posets from
    ``from_covers`` the labels follow from the primes and the heights from
    the up-sets, so two are equal when they have the same primes and the
    same order.
    """

    __slots__ = ()

    @staticmethod
    def from_covers(primes: list[str], covers: Iterable[tuple[str, str]]) -> "PrimePoset":
        """Order generated by the pairs [lower, upper] in ``covers``, covers or
        any other strict pairs: the order is their transitive closure.  Pairs
        are checked in the order given and a cycle is named by its first prime
        in ``primes``, so an error names the same culprit in every process.

        One pass takes the primes lowest first, each once every pair below it
        is taken, so a height is the longest path of pairs below; the reverse
        pass ORs each prime's bit with its successors' up-sets."""
        primes_t = tuple(primes)
        labels = tuple(sorted(primes_t))
        index = {p: i for i, p in enumerate(labels)}
        if len(index) != len(primes_t):
            raise ValueError("duplicate prime identifiers")
        succ: list[list[int]] = [[] for _ in labels]
        pending = [0] * len(labels)          # pairs below each prime not yet taken
        for a, b in covers:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise ValueError(f"lt pair ({a!r}, {b!r}) mentions unknown prime")
            if i == j:
                raise ValueError(f"lt is not irreflexive at {a!r}")
            succ[i].append(j)
            pending[j] += 1
        order = [i for i, c in enumerate(pending) if not c]
        height = [0] * len(labels)
        for i in order:                      # grows while it is walked
            h = height[i] + 1
            for j in succ[i]:
                if height[j] < h:
                    height[j] = h
                pending[j] -= 1
                if not pending[j]:
                    order.append(j)
        if len(order) < len(labels):
            raise ValueError(f"lt has a cycle through {_first_on_cycle(primes_t, index, succ)!r}")
        up = [0] * len(labels)
        for i in reversed(order):
            mask = 1 << i
            for j in succ[i]:
                mask |= up[j]
            up[i] = mask
        return PrimePoset(primes_t, labels, tuple(up), tuple(height))

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
        return max(self.height, default=0)

    def to_document(self) -> dict:
        """Primes as given and the covers, sorted: q covers p when q lies
        strictly above p and strictly above no prime strictly above p."""
        labels = self.labels
        strict = [up ^ (1 << i) for i, up in enumerate(self.up)]
        covers = []
        for i, p in enumerate(labels):
            beyond = 0
            for j in _bits(strict[i]):
                beyond |= strict[j]
            # p ascends with i and q with j, so the list comes out sorted
            covers += [[p, labels[j]] for j in _bits(strict[i] & ~beyond)]
        return {"primes": list(self.primes), "covers": covers}


def _first_on_cycle(primes: tuple[str, ...], index: dict[str, int],
                    succ: list[list[int]]) -> str:
    """First prime in ``primes`` that a path of pairs leads back to."""
    for p in primes:
        start = index[p]
        seen: set[int] = set()
        stack = list(succ[start])
        while stack:
            j = stack.pop()
            if j == start:
                return p
            if j not in seen:
                seen.add(j)
                stack.extend(succ[j])


# generic ring element: ``locus`` is the mask of the primes containing it
AbstractElement = namedtuple("AbstractElement", "id locus")


class MultSubsetModel(namedtuple("MultSubsetModel", "generators labels")):
    """Multiplicative subset presented by generator elements.

    Generator loci are masks over the sorted prime labels ``labels``.  The
    subset meets a prime iff some generator lies in it; products never
    enter a prime all of whose factors avoid it.
    """

    __slots__ = ()

    def intersects(self, p: str) -> bool:
        i = _bit(self.labels, p)
        return i is not None and any(g.locus >> i & 1 for g in self.generators)

    def hit_mask(self) -> int:
        out = 0
        for g in self.generators:
            out |= g.locus
        return out

    def to_document(self) -> list:
        return [[self.labels[i] for i in _bits(g.locus)] for g in self.generators]


class DistinguishingFamily(namedtuple("DistinguishingFamily", "subsets")):
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


def avoidance_element(poset: PrimePoset, target: str, forbidden: int,
                      id: str | None = None) -> AbstractElement:
    """Generic element of ``target`` avoiding every prime in the mask ``forbidden``.

    Raises AvoidanceImpossible when some forbidden prime contains the target
    (then every element of the target lies in it).
    """
    i = _bit(poset.labels, target)
    if i is None:
        raise ValueError(f"unknown prime {target}")
    locus = poset.up[i]
    bad = locus & forbidden
    if bad:
        raise AvoidanceImpossible(
            f"forbidden prime(s) {[poset.labels[i] for i in _bits(bad)]} "
            f"contain the target {target}")
    return AbstractElement(id or f"e[{target}]", locus)


def _bit(labels: tuple[str, ...], p: str) -> int | None:
    """Bit of the label p in the sorted ``labels``, or None when p is none of them."""
    i = bisect_left(labels, p)
    return i if i < len(labels) and labels[i] == p else None


def _level_mask(heights: tuple[int, ...], h: int) -> int:
    """Mask of the primes of height h, from the heights in bit order."""
    return sum(1 << i for i, x in enumerate(heights) if x == h)


def build_one_dimensional(poset: PrimePoset) -> MultSubsetModel:
    """One generator inside every height-1 prime, avoiding all minimal primes."""
    if poset.dimension() != 1:
        raise DimensionMismatch(f"dimension {poset.dimension()} != 1")
    return _height1_subset(poset, "s")


def _height1_subset(poset: PrimePoset, prefix: str) -> MultSubsetModel:
    """Distinguish height-1 primes from minimal ones; also the odd-dimension tail."""
    minimal = _level_mask(poset.height, 0)
    return MultSubsetModel(tuple(
        avoidance_element(poset, p, minimal, id=f"{prefix}[{p}]")
        for p, h in zip(poset.labels, poset.height) if h == 1), poset.labels)


def build_pair_dim2(poset: PrimePoset) -> tuple[MultSubsetModel, MultSubsetModel]:
    """Two subsets that a prime of height h meets exactly h of: the level-2
    wave in dimension 2, and below it the height-1 subset and an empty one."""
    d = poset.dimension()
    if d > 2:
        raise DimensionMismatch(f"dimension {d} > 2")
    if d == 2:
        return tuple(build_wave(poset, 2))
    return _height1_subset(poset, "S"), MultSubsetModel((), poset.labels)


def build_wave(poset: PrimePoset, l: int) -> list[MultSubsetModel]:
    """l subsets distinguishing the primes of height l and l-1 downwards.

    Induction over the height-(l-1) and then the height-l primes, each level
    by label: at each step the first prime that does not yet meet
    height-many of the growing sets receives one new element, placed in the
    first set it avoids.  The new element must avoid every "saturated"
    prime of height <= l-1 (saturated: already meeting height-many sets),
    which the generic element model grants automatically.  The induction
    stops as soon as every height-l/l-1 prime is saturated.

    Meeting counts only grow, so ``missing`` (sets a prime still has to
    meet, per bit) and the ``forbidden`` mask are kept as they change, and
    the first unsaturated target only moves forward.
    """
    if l < 2:
        raise DimensionMismatch(f"wave level l={l} must be >= 2")
    if l > poset.dimension():
        raise DimensionMismatch(f"l={l} exceeds dimension {poset.dimension()}")
    labels, heights = poset.labels, poset.height
    gens: list[list[AbstractElement]] = [[] for _ in range(l)]
    hit = [0] * l
    missing = [h if h < l else l for h in heights]
    below = sum(1 << i for i, h in enumerate(heights) if h < l)
    forbidden = _level_mask(heights, 0)
    # the two levels in order: height l-1, then height l, each by label
    targets = [i for i, h in enumerate(heights) if h == l - 1]
    targets += [i for i, h in enumerate(heights) if h == l]
    step = 0
    for i in targets:
        target = labels[i]
        while missing[i] > 0:
            k = 0
            while hit[k] >> i & 1:
                k += 1
            e = avoidance_element(poset, target, forbidden,
                                  id=f"W{l}.{k}[{step}:{target}]")
            gens[k].append(e)
            new = e.locus & ~hit[k]
            hit[k] |= new
            while new:
                low = new & -new
                q = low.bit_length() - 1
                missing[q] -= 1
                if not missing[q]:
                    forbidden |= low & below
                new ^= low
            step += 1

    return [MultSubsetModel(tuple(g), labels) for g in gens]


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
    fam = DistinguishingFamily(tuple(subsets))
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

    Sets of primes are the poset's masks and sets of subset indices are ints
    too.  The primes above p fall into classes by their miss vector, so a
    witness is found once per class, and the canonical choice, which
    depends on p alone, is built once per p.  A choice is a combo of one
    (mask, generator) option per subset, generator None for an inverted
    subset; it keeps the AND of its masks, and since restriction keeps the
    order, the pairs that survive it are the comparable pairs with both ends
    kept.  The canonical and the enumerated choices go through the same
    combos, and a failure is recorded once, in the order first found.
    """
    labels = poset.labels
    everything = (1 << len(labels)) - 1
    above = [up ^ (1 << i) for i, up in enumerate(poset.up)]
    hits = [sub.hit_mask() for sub in family.subsets]
    inverted = [everything & ~hit for hit in hits]
    # the classes of primes by miss vector, split subset by subset
    classes = [(0, everything)]
    for k, hit in enumerate(hits):
        split = []
        for vector, members in classes:
            if members & hit:
                split.append((vector, members & hit))
            if members & ~hit:
                split.append((vector | 1 << k, members & ~hit))
        classes = split
    members_of = dict(classes)
    miss = [0] * len(labels)
    for vector, members in classes:
        for i in _bits(members):
            miss[i] = vector

    witnesses: dict[tuple[str, str], int] = {}
    failures: list[tuple[str, str]] = []
    anti_failures: list[dict] = []
    found: set[tuple] = set()
    for i, p in enumerate(labels):
        rest, unseparated = above[i], 0
        while rest:
            vector = miss[(rest & -rest).bit_length() - 1]
            pairs = rest & members_of[vector]
            rest ^= pairs
            w = miss[i] & ~vector
            if w:
                j = (w & -w).bit_length() - 1
                while pairs:
                    low = pairs & -pairs
                    witnesses[(p, labels[low.bit_length() - 1])] = j
                    pairs ^= low
            else:
                unseparated |= pairs
        if not unseparated:
            continue
        failures += [(p, labels[q]) for q in _bits(unseparated)]
        same = unseparated & members_of[miss[i]]
        if not same:
            continue
        # k outside J = miss[p] means p lies in subset k's hit set, so some
        # generator of subset k contains p
        combo = [(inverted[k], None) if miss[i] >> k & 1 else
                 next((g.locus, g) for g in sub.generators if g.locus >> i & 1)
                 for k, sub in enumerate(family.subsets)]
        keep = _kept(combo, everything)
        key = _choice_key(combo)
        for q in _bits(same & keep):
            found.add((key, i, q))
            anti_failures.append(_failure(combo, p, labels[q]))
    pairwise_ok = not failures

    checked = 0
    sizes = [len(sub.generators) + 1 for sub in family.subsets]
    total = 1
    for x in sizes:
        total *= x
        if total > exhaustive_budget:
            break
    if total <= exhaustive_budget:
        options = [[(g.locus, g) for g in sub.generators] + [(outside, None)]
                   for sub, outside in zip(family.subsets, inverted)]
        for combo in product(*options):
            keep = _kept(combo, everything)
            checked += 1
            key = None
            for i in _bits(keep):
                for q in _bits(above[i] & keep):
                    key = key or _choice_key(combo)
                    if (key, i, q) not in found:
                        found.add((key, i, q))
                        anti_failures.append(_failure(combo, labels[i], labels[q]))

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


def _choice_key(combo) -> tuple:
    """What a failure record reads of a choice: J and the chosen generators' ids."""
    return tuple(None if g is None else g.id for _, g in combo)


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
