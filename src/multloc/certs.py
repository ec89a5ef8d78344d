"""Derivation certificates for the right-obtainability calculus.

A certificate is a tree.  Leaves are seeds (level 1); inner nodes apply
one of the generation rules: direct summand, extension, cokernel of an
injection, finite product and omega-indexed iterated extension preserve
the level; kernel of a surjection onto a level-1 node yields level 2, and
cokernel of an injection of a level-2 node into a level-1 node yields
level 1.  Nodes may carry concrete payloads (presentations and maps over
Z or Z/N), which the instantiation checker validates joint by joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fpmod import (
    FPModule,
    Morphism,
    canonical_invariants,
    direct_sum,
    is_exact_pair,
)
from .ext import ext1, ext2
from .towers import (
    MultSubsetSeq,
    adequate_depth,
    is_weakly_cotorsion_fg,
    quotient_tower,
    tower_lim,
    _submodule_on_rows,
)


class MalformedTree(Exception):
    pass


class LevelViolation(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class PayloadMismatch(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class NotWeaklyCotorsion(Exception):
    pass


class PreconditionFailed(Exception):
    def __init__(self, test_inv, seed_inv, ext_inv):
        super().__init__(
            f"test module {list(test_inv)} has nonvanishing first extension group "
            f"{list(ext_inv)} against seed {list(seed_inv)}")
        self.test_inv = test_inv
        self.seed_inv = seed_inv
        self.ext_inv = ext_inv


KINDS = ("Seed", "DirectSummand", "Extension", "CokernelOfInjection",
         "FiniteProduct", "OmegaIteratedExtension", "KernelOfSurjection")

ARITY = {"Seed": (0, 0), "DirectSummand": (1, 1), "Extension": (2, 2),
         "CokernelOfInjection": (2, 2), "FiniteProduct": (0, None),
         "OmegaIteratedExtension": (1, None), "KernelOfSurjection": (2, 2)}

SEED_TAGS = ("QuotientRingModule", "LocalizedRingModule",
             "AlmostCotorsionQuotient", "AlmostCotorsionLocalized", "Custom")


@dataclass
class CertNode:
    kind: str
    level: int
    children: list["CertNode"] = field(default_factory=list)
    tag: dict | None = None          # seeds only
    payload: dict | None = None      # module, maps, stages...

    def module(self) -> FPModule | None:
        if self.payload is None:
            return None
        return self.payload.get("module")


@dataclass
class Certificate:
    root: CertNode

    def to_document(self) -> dict:
        return {"root": _node_to_doc(self.root)}

    @staticmethod
    def from_document(doc: dict) -> "Certificate":
        """Parse a certificate document; ValueError naming the node path when
        its shape is wrong.  Level values are left to ``verify_certificate``."""
        if not isinstance(doc, dict) or "root" not in doc:
            raise ValueError("certificate document must be an object with a root")
        return Certificate(root=_node_from_doc(doc["root"], "root"))


def _mod_to_doc(m: FPModule) -> dict:
    return {"gens": m.gens, "modulus": m.modulus,
            "relations": [list(r) for r in m.relations]}


def _mod_from_doc(doc: dict) -> FPModule:
    return FPModule.from_presentation([list(r) for r in doc["relations"]],
                                      gens=doc["gens"], modulus=doc["modulus"])


def _node_to_doc(node: CertNode) -> dict:
    out: dict = {"kind": node.kind, "level": node.level,
                 "children": [_node_to_doc(c) for c in node.children]}
    if node.tag is not None:
        out["tag"] = node.tag
    if node.payload is not None:
        p = {}
        for key, val in node.payload.items():
            if isinstance(val, FPModule):
                p[key] = _mod_to_doc(val)
            elif key == "stages":
                p[key] = [_mod_to_doc(s) for s in val]
            else:
                p[key] = val
        out["payload"] = p
    return out


def _node_from_doc(doc: dict, path: str) -> CertNode:
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: node must be an object")
    if not isinstance(doc.get("kind"), str):
        raise ValueError(f"{path}: kind must be a string")
    level = doc.get("level")
    if not isinstance(level, int) or isinstance(level, bool):
        raise ValueError(f"{path}: level must be an integer")
    children = doc.get("children", [])
    if not isinstance(children, list):
        raise ValueError(f"{path}: children must be a list")
    for key in ("tag", "payload"):
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            raise ValueError(f"{path}: {key} must be an object")
    payload = None
    if doc.get("payload") is not None:
        payload = {}
        for key, val in doc["payload"].items():
            if key == "module":
                payload[key] = _mod_from_doc(val)
            elif key == "stages":
                payload[key] = [_mod_from_doc(s) for s in val]
            else:
                payload[key] = val
    return CertNode(kind=doc["kind"], level=level,
                    children=[_node_from_doc(c, f"{path}.{i}")
                              for i, c in enumerate(children)],
                    tag=doc.get("tag"), payload=payload)


# ---------------------------------------------------------------------------
# structural verification (levels)
# ---------------------------------------------------------------------------


def verify_certificate(cert: Certificate) -> int:
    """Minimal valid level of the root; LevelViolation or MalformedTree on breach."""
    seen: set[int] = set()

    def walk(node: CertNode, path: str) -> int:
        if id(node) in seen:
            raise MalformedTree(f"{path}: node appears twice (not a tree)")
        seen.add(id(node))
        if node.kind not in KINDS:
            raise MalformedTree(f"{path}: unknown kind {node.kind!r}")
        lo, hi = ARITY[node.kind]
        n = len(node.children)
        if n < lo or (hi is not None and n > hi):
            raise MalformedTree(f"{path}: {node.kind} cannot have {n} children")
        if node.level not in (1, 2):
            raise MalformedTree(f"{path}: level must be 1 or 2, got {node.level}")
        if node.kind == "Seed":
            if not node.tag or node.tag.get("kind") not in SEED_TAGS:
                raise MalformedTree(f"{path}: seed without a valid class tag")
            minimal = 1
        else:
            child_levels = [walk(c, f"{path}.{i}") for i, c in enumerate(node.children)]
            if node.kind in ("DirectSummand", "Extension", "FiniteProduct",
                             "OmegaIteratedExtension"):
                minimal = max(child_levels, default=1)
            elif node.kind == "CokernelOfInjection":
                minimal = child_levels[1]
            else:  # KernelOfSurjection
                if child_levels[1] != 1:
                    raise LevelViolation(
                        path, "kernel of a surjection requires a level-1 target")
                minimal = 2
        if node.level < minimal:
            raise LevelViolation(
                path, f"claimed level {node.level} below the derivable level {minimal}")
        return minimal

    return walk(cert.root, "root")


# ---------------------------------------------------------------------------
# concrete instantiation checks
# ---------------------------------------------------------------------------


def instantiate_and_check(cert: Certificate) -> dict:
    """Validate the concrete payloads: every construction joint is checked
    with exact presentation arithmetic.  Raises PayloadMismatch with the
    first failing joint."""
    count = 0

    def need(node: CertNode, path: str) -> FPModule:
        if node.payload is None or "module" not in node.payload:
            raise PayloadMismatch(path, "payload with a module is required")
        return node.payload["module"]

    def mk_map(rows, src: FPModule, tgt: FPModule, path: str, name: str) -> Morphism:
        try:
            f = Morphism.make(src, tgt, [list(r) for r in rows])
        except ValueError as exc:
            raise PayloadMismatch(path, f"{name}: {exc}")
        if not f.is_well_defined():
            raise PayloadMismatch(path, f"{name} is not a well-defined module map")
        return f

    def walk(node: CertNode, path: str) -> FPModule:
        nonlocal count
        count += 1
        mod = need(node, path)
        kids = [walk(c, f"{path}.{i}") for i, c in enumerate(node.children)]
        p = node.payload
        if node.kind == "Seed":
            _check_seed_tag(node, mod, path)
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
            total = direct_sum(*[k for k in kids]) if kids else FPModule.zero(mod.modulus)
            if total.invariants() != mod.invariants():
                raise PayloadMismatch(path, "product does not match the node module")
        elif node.kind == "OmegaIteratedExtension":
            stages = p.get("stages")
            trans = p.get("transitions")
            if stages is None or trans is None or len(trans) != len(stages) - 1:
                raise PayloadMismatch(path, "stage/transition data is inconsistent")
            if len(stages) != len(kids):
                raise PayloadMismatch(path, "one child is required per tower kernel")
            if stages[0].invariants() != kids[0].invariants():
                raise PayloadMismatch(path, "first stage does not match the first kernel")
            for i, rows in enumerate(trans):
                f = mk_map(rows, stages[i + 1], stages[i], path, f"transition {i}")
                if not f.is_surjective():
                    raise PayloadMismatch(path, f"transition {i} is not surjective")
                ker_inv = f.kernel()[0].invariants()
                if ker_inv != kids[i + 1].invariants():
                    raise PayloadMismatch(
                        path, f"kernel at stage {i + 1} does not match its child")
            if stages[-1].invariants() != mod.invariants():
                raise PayloadMismatch(path, "top stage does not match the node module")
        return mod

    root_mod = walk(cert.root, "root")
    return {"checked_nodes": count, "root_invariants": list(root_mod.invariants()),
            "ok": True}


def _check_seed_tag(node: CertNode, mod: FPModule, path: str) -> None:
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


# ---------------------------------------------------------------------------
# producers
# ---------------------------------------------------------------------------


def decompose_weakly_cotorsion(module: FPModule, m: int,
                               depth: int | None = None) -> Certificate:
    """Certificate for a finite module over Z with the subset generated by m:
    an extension of its completion (an omega-iterated extension of quotient
    stage kernels) by its divisible part (on which m acts invertibly)."""
    if not is_weakly_cotorsion_fg(module, m):
        raise NotWeaklyCotorsion(
            "modules with free rank are not weakly cotorsion for m >= 2")
    if module.order() is None:
        raise NotWeaklyCotorsion("decomposition requires a finite module")
    seq = MultSubsetSeq(generators=(m,))
    depth = depth if depth is not None else adequate_depth(module, seq)
    canon = FPModule.from_invariants(module.invariants(), modulus=module.modulus)

    if canon.is_zero():
        seed = CertNode(kind="Seed", level=1,
                        tag={"kind": "LocalizedRingModule", "generators": [m]},
                        payload={"module": canon})
        return Certificate(root=seed)

    quo = quotient_tower(canon, seq, depth)
    lim = tower_lim(quo)
    n0 = lim.certificate.stable_index
    t_star = seq.t(n0 + 1)

    div_rows = [[t_star * (1 if i == j else 0) for j in range(canon.gens)]
                for i in range(canon.gens)]
    div = _submodule_on_rows(canon, div_rows)
    lam = quo.stages[n0]

    omega = _omega_node_from_quotients(canon, quo, n0, seq)
    div_seed = CertNode(kind="Seed", level=1,
                        tag={"kind": "LocalizedRingModule", "generators": [m]},
                        payload={"module": div})

    if div.is_zero():
        cert = Certificate(root=omega)
    elif lam.is_zero():
        cert = Certificate(root=CertNode(
            kind="Seed", level=1,
            tag={"kind": "LocalizedRingModule", "generators": [m]},
            payload={"module": canon}))
    else:
        ident = [[1 if i == j else 0 for j in range(canon.gens)]
                 for i in range(canon.gens)]
        root = CertNode(kind="Extension", level=1,
                        children=[div_seed, omega],
                        payload={"module": canon, "inject": div_rows,
                                 "project": ident})
        cert = Certificate(root=root)

    assert verify_certificate(cert) == 1
    instantiate_and_check(cert)
    return cert


def _omega_node_from_quotients(canon: FPModule, quo, n0: int,
                               seq: MultSubsetSeq) -> CertNode:
    top = min(n0 + 1, quo.depth - 1)
    stages = [quo.stages[i] for i in range(top + 1)]
    trans = [quo.transitions[i].mat() for i in range(top)]
    children = [CertNode(kind="Seed", level=1,
                         tag={"kind": "QuotientRingModule", "s": seq.t(1)},
                         payload={"module": FPModule.from_invariants(
                             stages[0].invariants(), modulus=canon.modulus)})]
    for i in range(top):
        f = Morphism.make(stages[i + 1], stages[i], trans[i])
        ker_inv = f.kernel()[0].invariants()
        children.append(CertNode(
            kind="Seed", level=1,
            tag={"kind": "QuotientRingModule", "s": seq.s(i + 2)},
            payload={"module": FPModule.from_invariants(ker_inv,
                                                        modulus=canon.modulus)}))
    return CertNode(kind="OmegaIteratedExtension", level=1, children=children,
                    payload={"module": stages[-1], "stages": stages,
                             "transitions": trans})


def _saturate_divisor(d: int, n: int) -> int:
    """Product of the full prime powers of n over the primes dividing d.

    Peels from n every prime it shares with d by repeated gcds, so n is
    never factored."""
    m = n
    g = math.gcd(m, d)
    while g > 1:
        m //= g
        g = math.gcd(m, g)
    return n // m


def embed_two_obtainable(module: FPModule) -> Certificate:
    """Realize a Z/N-module as the kernel of a surjection between modules of
    the injective class: its injective envelope and the quotient by it."""
    n = module.modulus
    if n < 2:
        raise ValueError("a modulus N >= 2 is required")
    inv = [d for d in module.invariants()]
    canon = FPModule.from_invariants(inv, modulus=n)
    b_factors = [_saturate_divisor(d, n) for d in inv]
    big = FPModule.from_invariants(b_factors, modulus=n)
    embed_rows = [[(b_factors[i] // inv[i]) if i == j else 0
                   for j in range(len(inv))] for i in range(len(inv))]
    inject = Morphism.make(canon, big, embed_rows)
    assert inject.is_well_defined() and inject.is_injective()
    quot = inject.cokernel()
    ident = [[1 if i == j else 0 for j in range(big.gens)] for i in range(big.gens)]

    root = CertNode(
        kind="KernelOfSurjection", level=2,
        children=[
            CertNode(kind="Seed", level=1,
                     tag={"kind": "Custom", "label": "injective envelope"},
                     payload={"module": big}),
            CertNode(kind="Seed", level=1,
                     tag={"kind": "Custom", "label": "envelope quotient"},
                     payload={"module": quot}),
        ],
        payload={"module": canon, "map": ident})
    cert = Certificate(root=root)
    assert verify_certificate(cert) == 2
    instantiate_and_check(cert)
    return cert


# ---------------------------------------------------------------------------
# orthogonality battery
# ---------------------------------------------------------------------------


def collect_seed_modules(cert: Certificate) -> list[FPModule]:
    out = []

    def walk(node: CertNode):
        if node.kind == "Seed":
            mod = node.module()
            if mod is None:
                raise PayloadMismatch("seed", "seed without a concrete module")
            out.append(mod)
        for c in node.children:
            walk(c)

    walk(cert.root)
    return out


def orthogonality_battery(cert: Certificate, tests: list[FPModule]) -> dict:
    """Check that every test module is orthogonal to the certificate root.

    Precondition (checked): the first extension group of each test module
    against every seed vanishes.  Conclusion (checked): against the root,
    the first extension group vanishes for a level-1 root, the second for
    a level-2 root.
    """
    level = verify_certificate(cert)
    instantiate_and_check(cert)
    seeds = collect_seed_modules(cert)
    for f in tests:
        for e in seeds:
            witness = ext1(f, e)
            if witness != ():
                raise PreconditionFailed(f.invariants(), e.invariants(), witness)
    root_mod = cert.root.module()
    checks = []
    ok = True
    for f in tests:
        val = ext1(f, root_mod) if level == 1 else ext2(f, root_mod)
        checks.append({"test": list(f.invariants()),
                       "ext_power": 1 if level == 1 else 2,
                       "ext": list(val)})
        if val != ():
            ok = False
    return {"level": level, "checks": checks, "pass": ok,
            "seed_count": len(seeds)}
