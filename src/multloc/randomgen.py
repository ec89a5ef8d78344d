"""Seeded generators for test corpora: ranked posets and certificate trees."""

from __future__ import annotations

import math
import random

from .certs import CertNode, Certificate, omega_from_quotient_tower, verify_certificate
from .fpmod import FPModule, direct_sum
from .poset import PrimePoset


def random_ranked_poset(rng: random.Random, dimension: int,
                        n_primes: int | None = None) -> PrimePoset:
    """Random poset whose height labels realize exactly the given dimension.

    Nodes live on levels 0..dimension; every node above level 0 covers at
    least one node on the previous level, which pins its height to its
    level.  Extra edges may skip levels downward; they never change heights.
    """
    if dimension < 0:
        raise ValueError("dimension must be >= 0")
    levels = dimension + 1
    if n_primes is None:
        n_primes = rng.randint(levels, max(levels, 4 * levels))
    n_primes = max(n_primes, levels)
    # distribute primes over levels, at least one per level
    sizes = [1] * levels
    for _ in range(n_primes - levels):
        sizes[rng.randrange(levels)] += 1
    names: list[list[str]] = []
    counter = 0
    for lv in range(levels):
        row = []
        for _ in range(sizes[lv]):
            row.append(f"p{counter:03d}")
            counter += 1
        names.append(row)
    covers: list[tuple[str, str]] = []
    for lv in range(1, levels):
        for node in names[lv]:
            parents = rng.sample(names[lv - 1], k=min(len(names[lv - 1]),
                                                      rng.randint(1, 2)))
            for par in parents:
                covers.append((par, node))
            # occasional level-skipping edge; heights stay pinned by level
            if lv >= 2 and rng.random() < 0.25:
                low = rng.choice(names[rng.randrange(0, lv - 1)])
                covers.append((low, node))
    primes = [p for row in names for p in row]
    return PrimePoset.from_covers(primes, sorted(set(covers)))


def diamond_poset() -> PrimePoset:
    return PrimePoset.from_covers(
        ["q", "p1", "p2", "m"],
        [("q", "p1"), ("q", "p2"), ("p1", "m"), ("p2", "m")])


def chain_poset(length: int) -> PrimePoset:
    """Chain c0 < c1 < ... of the given number of strict containments."""
    primes = [f"c{i}" for i in range(length + 1)]
    covers = [(f"c{i}", f"c{i+1}") for i in range(length)]
    return PrimePoset.from_covers(primes, covers)


def antichain_poset(n: int) -> PrimePoset:
    return PrimePoset.from_covers([f"a{i}" for i in range(n)], [])


# ---------------------------------------------------------------------------
# random certificates over Z/N with concrete payloads
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


def coprime_split(rng: random.Random, n: int) -> tuple[int, int]:
    """Split N = a * b with gcd(a, b) = 1 and a > 1; b may be 1."""
    candidates = []
    for a in _divisors(n):
        b = n // a
        if math.gcd(a, b) == 1:
            candidates.append((a, b))
    return rng.choice(candidates)


def random_certificate(rng: random.Random, modulus: int, ann: int,
                       depth: int = 3):
    """Random valid certificate over Z/modulus whose every payload module is
    annihilated by ``ann``.

    All construction payloads are concrete: extensions and products use
    split middles, kernels of surjections use coordinate projections, and
    omega nodes present the quotient stages M/ann^n M of a random module M
    for n = 1 .. 2 to 4, with their transition kernels computed.
    """
    divisors = [d for d in _divisors(ann)]

    def rand_module() -> FPModule:
        k = rng.randint(0, 2)
        if not divisors or k == 0:
            return FPModule.from_invariants([], modulus=modulus)
        return FPModule.from_invariants(sorted(rng.choice(divisors) for _ in range(k)),
                                        modulus=modulus)

    def seed(mod: FPModule | None = None) -> CertNode:
        mod = mod if mod is not None else rand_module()
        return CertNode(kind="Seed", level=1,
                        tag={"kind": "QuotientRingModule", "s": ann},
                        payload={"module": mod})

    def inc_rows(part: FPModule, total: FPModule, offset: int):
        rows = [[0] * total.gens for _ in range(part.gens)]
        for i in range(part.gens):
            rows[i][offset + i] = 1
        return rows

    def proj_rows(total: FPModule, part: FPModule, offset: int):
        rows = [[0] * part.gens for _ in range(total.gens)]
        for i in range(part.gens):
            rows[offset + i][i] = 1
        return rows

    def build(d: int) -> CertNode:
        if d <= 0:
            return seed()
        op = rng.choice(["Extension", "FiniteProduct", "DirectSummand",
                         "CokernelOfInjection", "KernelOfSurjection",
                         "OmegaIteratedExtension"])
        if op == "Extension":
            left, right = build(d - 1), build(d - 1)
            a, c = left.payload["module"], right.payload["module"]
            middle = direct_sum(a, c)
            return CertNode(kind="Extension",
                            level=max(left.level, right.level),
                            children=[left, right],
                            payload={"module": middle,
                                     "inject": inc_rows(a, middle, 0),
                                     "project": proj_rows(middle, c, a.gens)})
        if op == "FiniteProduct":
            kids = [build(d - 1) for _ in range(rng.randint(1, 3))]
            mods = [k.payload["module"] for k in kids]
            return CertNode(kind="FiniteProduct",
                            level=max((k.level for k in kids), default=1),
                            children=kids,
                            payload={"module": direct_sum(*mods)})
        if op == "DirectSummand":
            extra = rand_module()
            part = rand_module()
            ambient = direct_sum(part, extra)
            child = seed(ambient)
            return CertNode(kind="DirectSummand", level=1, children=[child],
                            payload={"module": part,
                                     "into": inc_rows(part, ambient, 0),
                                     "retract": proj_rows(ambient, part, 0)})
        if op == "CokernelOfInjection":
            src = build(d - 1)
            m1 = src.payload["module"]
            m2 = rand_module()
            target_mod = direct_sum(m1, m2)
            target = CertNode(kind="FiniteProduct", level=1,
                              children=[seed(FPModule.from_invariants(
                                  list(m1.invariants()), modulus=modulus)),
                                  seed(m2)],
                              payload={"module": target_mod})
            return CertNode(kind="CokernelOfInjection",
                            level=target.level,
                            children=[src, target],
                            payload={"module": m2,
                                     "map": inc_rows(m1, target_mod, 0)})
        if op == "KernelOfSurjection":
            target = seed()
            kernel_mod = rand_module()
            y = target.payload["module"]
            source_mod = direct_sum(kernel_mod, y)
            source = CertNode(kind="FiniteProduct", level=1,
                              children=[seed(kernel_mod), seed(y)],
                              payload={"module": source_mod})
            return CertNode(kind="KernelOfSurjection", level=2,
                            children=[source, target],
                            payload={"module": kernel_mod,
                                     "map": proj_rows(source_mod, y,
                                                      kernel_mod.gens)})
        # OmegaIteratedExtension: two to four quotient stages of a random module
        base = rand_module()
        return omega_from_quotient_tower(base, rng.randint(2, 4) - 1, ann)

    cert = Certificate(root=build(depth))
    verify_certificate(cert)
    return cert


def projective_test_modules(rng: random.Random, modulus: int, b: int,
                            count: int = 2):
    """Projective test modules supported on the complementary factor b."""
    out = []
    for _ in range(count):
        k = rng.randint(1, 2)
        if b == 1:
            out.append(FPModule.from_invariants([modulus] * k, modulus=modulus))
        else:
            out.append(FPModule.from_invariants([b] * k, modulus=modulus))
    return out
