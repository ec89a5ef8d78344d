"""Derivation certificates for the right-obtainability calculus.

A certificate is a tree.  Leaves are seeds (level 1); inner nodes apply
one of the generation rules: direct summand, extension, cokernel of an
injection, finite product and omega-indexed iterated extension preserve
the level; kernel of a surjection onto a level-1 node yields level 2, and
cokernel of an injection of a level-2 node into a level-1 node yields
level 1.  Nodes may carry concrete payloads (presentations and maps over
Z or Z/N), which the instantiation checker validates joint by joint.

A node is a plain mutable object and a Certificate a named tuple, so
creating the classes runs no generated code.  Like any tuple a Certificate
iterates and compares equal to a plain tuple holding the same root; its
document comes from ``to_document``.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .fpmod import (
    FPModule,
    Morphism,
    direct_sum,
    is_exact_pair,
)
from .ext import ext1, ext2
from .intlinalg import _saturate_divisor, identity
from .towers import (
    MultSubsetSeq,
    certified_depth,
    delta_truncated,
    is_weakly_cotorsion_fg,
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


class CertNode:
    def __init__(self, kind: str, level: int, children: list[CertNode] | None = None,
                 tag: dict | None = None, payload: dict | None = None):
        self.kind = kind
        self.level = level
        self.children = [] if children is None else children
        self.tag = tag              # seeds only
        self.payload = payload      # module, maps, stages...

    def module(self) -> FPModule | None:
        if self.payload is None:
            return None
        return self.payload.get("module")


class Certificate(namedtuple("Certificate", "root")):
    __slots__ = ()

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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_rows(rows, width: int | None = None) -> bool:
    """A list of integer lists, each of length ``width`` when one is given."""
    return isinstance(rows, list) and all(
        isinstance(r, list) and (width is None or len(r) == width) and all(map(_is_int, r))
        for r in rows)


def _mod_from_doc(doc, path: str) -> FPModule:
    """Module from its document; ValueError naming ``path`` when its shape is
    wrong."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: module must be an object")
    for key in ("gens", "modulus"):
        if not _is_int(doc.get(key)) or doc[key] < 0:
            raise ValueError(f"{path}: {key} must be a non-negative integer")
    rows = doc.get("relations")
    if not _is_int_rows(rows, doc["gens"]):
        raise ValueError(f"{path}: relations must be a list of integer lists "
                         f"of width {doc['gens']}")
    return FPModule.from_presentation(rows, gens=doc["gens"], modulus=doc["modulus"])


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
    if not _is_int(level):
        raise ValueError(f"{path}: level must be an integer")
    children = doc.get("children", [])
    if not isinstance(children, list):
        raise ValueError(f"{path}: children must be a list")
    for key in ("tag", "payload"):
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            raise ValueError(f"{path}: {key} must be an object")
    tag = doc.get("tag") or {}
    if "s" in tag and not _is_int(tag["s"]):
        raise ValueError(f"{path}.tag.s: must be an integer")
    if "generators" in tag and not (isinstance(tag["generators"], list)
                                    and all(map(_is_int, tag["generators"]))):
        raise ValueError(f"{path}.tag.generators: must be a list of integers")
    payload = None
    if doc.get("payload") is not None:
        payload = {}
        for key, val in doc["payload"].items():
            where = f"{path}.payload.{key}"
            if key == "module":
                payload[key] = _mod_from_doc(val, where)
            elif key == "stages":
                if not isinstance(val, list):
                    raise ValueError(f"{where}: stages must be a list")
                payload[key] = [_mod_from_doc(s, f"{where}.{i}") for i, s in enumerate(val)]
            elif key in ("into", "retract", "inject", "project", "map") \
                    and not _is_int_rows(val):
                raise ValueError(f"{where}: must be a list of integer lists")
            elif key == "transitions" and not (isinstance(val, list)
                                               and all(map(_is_int_rows, val))):
                raise ValueError(f"{where}: must be a list of integer matrices")
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
    """Validate the concrete payloads: every node module and tower stage is
    over the root module's ring, and every construction joint is checked
    with exact presentation arithmetic, once per key (``_joint_failure``).
    Raises PayloadMismatch with the first failing node in post-order."""
    count = 0

    def need(node: CertNode, path: str) -> FPModule:
        if node.payload is None or "module" not in node.payload:
            raise PayloadMismatch(path, "payload with a module is required")
        return node.payload["module"]

    # the calculus is for modules over one ring R
    ring = need(cert.root, "root").modulus

    def same_ring(mod: FPModule, path: str, name: str) -> None:
        if mod.modulus != ring:
            raise PayloadMismatch(path, f"{name} has modulus {mod.modulus}, "
                                        f"not the root's {ring}")

    def walk(node: CertNode, path: str) -> FPModule:
        nonlocal count
        count += 1
        mod = need(node, path)
        same_ring(mod, path, "module")
        kids = tuple([walk(c, f"{path}.{i}") for i, c in enumerate(node.children)])
        p = node.payload
        if node.kind == "OmegaIteratedExtension":
            stages, trans = p.get("stages"), p.get("transitions")
            if stages is None or trans is None or len(trans) != len(stages) - 1:
                raise PayloadMismatch(path, "stage/transition data is inconsistent")
            for i, stage in enumerate(stages):
                same_ring(stage, path, f"stage {i}")
        failure = _joint_failure(node.kind, mod, kids, _entries_key(node))
        if failure is not None:
            raise PayloadMismatch(path, failure)
        return mod

    root_mod = walk(cert.root, "root")
    return {"checked_nodes": count, "root_invariants": list(root_mod.invariants()),
            "ok": True}


_READS = {"Seed": ("kind", "s", "generators"), "DirectSummand": ("into", "retract"),
          "Extension": ("inject", "project"), "CokernelOfInjection": ("map",),
          "KernelOfSurjection": ("map",), "OmegaIteratedExtension": ("stages", "transitions")}


def _entries_key(node: CertNode) -> tuple:
    """The (key, value) pairs of a seed's tag or another node's payload that
    its joint check reads (``_READS``), lists as tuples with one C-level call
    per row; entries no check reads stay out."""
    reads = _READS.get(node.kind, ())
    entries = node.tag or {} if node.kind == "Seed" else node.payload
    return tuple([(k, v if k in ("kind", "s") else tuple(v) if k in ("stages", "generators")
                   else tuple([tuple(map(tuple, m)) for m in v]) if k == "transitions"
                   else tuple(map(tuple, v)))
                  for k, v in entries.items() if k in reads])


class _Broken(Exception):
    """A payload map that is not a module map."""


def _map(rows: tuple, src: FPModule, tgt: FPModule, name: str) -> Morphism:
    try:
        f = Morphism(src, tgt, rows)
    except ValueError as exc:
        raise _Broken(f"{name}: {exc}")
    if not f.is_well_defined():
        raise _Broken(f"{name} is not a well-defined module map")
    return f


@functools.cache
def _joint_failure(kind: str, mod: FPModule, kids: tuple, entries: tuple) -> str | None:
    """Why the joint of a ``kind`` node with module ``mod`` over the children's
    modules ``kids`` fails, or None; ``entries`` is the node's ``_entries_key``.
    An exception other than a failed joint stores nothing."""
    p = dict(entries)
    try:
        if kind == "Seed":
            if p.get("kind") in ("QuotientRingModule", "AlmostCotorsionQuotient"):
                s = p.get("s")
                if s is None:
                    return "quotient seed tag needs the element s"
                if not Morphism.multiplication(mod, s).is_zero_morphism():
                    return f"seed is not annihilated by {s}"
            elif p.get("kind") in ("LocalizedRingModule", "AlmostCotorsionLocalized"):
                for g in p.get("generators", ()):
                    if not Morphism.multiplication(mod, g).is_isomorphism():
                        return f"generator {g} does not act invertibly"
        elif kind == "DirectSummand":
            into = _map(p["into"], mod, kids[0], "into")
            retract = _map(p["retract"], kids[0], mod, "retract")
            if not into.compose(retract).equals(Morphism.identity(mod)):
                return "retraction does not split the inclusion"
        elif kind == "Extension":
            inject = _map(p["inject"], kids[0], mod, "inject")
            project = _map(p["project"], mod, kids[1], "project")
            if not inject.is_injective():
                return "extension inclusion is not injective"
            if not project.is_surjective():
                return "extension projection is not surjective"
            if not is_exact_pair(inject, project):
                return "extension is not exact in the middle"
        elif kind == "CokernelOfInjection":
            f = _map(p["map"], kids[0], kids[1], "map")
            if not f.is_injective():
                return "map claimed injective is not"
            if f.cokernel().invariants() != mod.invariants():
                return "cokernel does not match the node module"
        elif kind == "KernelOfSurjection":
            f = _map(p["map"], kids[0], kids[1], "map")
            if not f.is_surjective():
                return "map claimed surjective is not"
            if f.kernel()[0].invariants() != mod.invariants():
                return "kernel does not match the node module"
        elif kind == "FiniteProduct":
            total = direct_sum(*kids) if kids else FPModule.zero(mod.modulus)
            if total.invariants() != mod.invariants():
                return "product does not match the node module"
        elif kind == "OmegaIteratedExtension":
            stages = p["stages"]
            if len(stages) != len(kids):
                return "one child is required per tower kernel"
            if stages[0].invariants() != kids[0].invariants():
                return "first stage does not match the first kernel"
            for i, rows in enumerate(p["transitions"]):
                f = _map(rows, stages[i + 1], stages[i], f"transition {i}")
                if not f.is_surjective():
                    return f"transition {i} is not surjective"
                if f.kernel()[0].invariants() != kids[i + 1].invariants():
                    return f"kernel at stage {i + 1} does not match its child"
            if stages[-1].invariants() != mod.invariants():
                return "top stage does not match the node module"
    except _Broken as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# producers
# ---------------------------------------------------------------------------


def _checked(cert: Certificate, level: int) -> Certificate:
    """A built certificate, once it verifies at ``level`` and its payloads
    check; raises LevelViolation or PayloadMismatch otherwise."""
    found = verify_certificate(cert)
    if found != level:
        raise LevelViolation("root", f"built certificate has level {found}, not {level}")
    instantiate_and_check(cert)
    return cert


def decompose_weakly_cotorsion(module: FPModule, m: int,
                               depth: int | None = None) -> Certificate:
    """Certificate for a finite module over Z with the subset generated by m:
    an extension of its completion by its divisible part t*M (on which m acts
    invertibly), t = m^(n0 + 1).  The completion's stable index n0, and
    whether it is zero, come from ``delta_truncated``; the completion is the
    omega-iterated extension of the quotient stages up to n0 + 2."""
    if not is_weakly_cotorsion_fg(module, m):
        raise NotWeaklyCotorsion(
            "modules with free rank are not weakly cotorsion for m >= 2")
    if module.order() is None:
        raise NotWeaklyCotorsion("decomposition requires a finite module")
    seq = MultSubsetSeq(generators=(m,))
    canon = FPModule.from_invariants(module.invariants(), modulus=module.modulus)

    if canon.is_zero():
        seed = CertNode(kind="Seed", level=1,
                        tag={"kind": "LocalizedRingModule", "generators": [m]},
                        payload={"module": canon})
        return Certificate(root=seed)

    # the quotient tower of a sum stabilizes where its slowest factor does
    depth = depth if depth is not None else max(
        certified_depth(d, seq) for d in canon.invariants())
    delta = delta_truncated(canon, seq, depth)
    n0 = delta.lambda_stable_index
    t_star = seq.t(n0 + 1)

    # the divisible part t*M, presented by its canonical relation HNF
    mult = Morphism.multiplication(canon, t_star)
    div = mult.image()[0]

    omega = omega_from_quotient_tower(canon, min(n0 + 1, depth - 1), m)
    div_seed = CertNode(kind="Seed", level=1,
                        tag={"kind": "LocalizedRingModule", "generators": [m]},
                        payload={"module": div})

    if div.is_zero():
        cert = Certificate(root=omega)
    elif delta.lambda_invariants == ():
        cert = Certificate(root=CertNode(
            kind="Seed", level=1,
            tag={"kind": "LocalizedRingModule", "generators": [m]},
            payload={"module": canon}))
    else:
        ident = identity(canon.gens)
        root = CertNode(kind="Extension", level=1,
                        children=[div_seed, omega],
                        payload={"module": canon, "inject": mult.mat(),
                                 "project": ident})
        cert = Certificate(root=root)

    return _checked(cert, 1)


def omega_from_quotient_tower(module: FPModule, top: int, s: int) -> CertNode:
    """Omega-iterated extension over the quotient stages M/s^n M, n = 1 ..
    top + 1, each presented by the relations of M and s^n times the
    identity, with identity-on-generators transitions: seeds of the first
    stage and of each transition kernel, tagged QuotientRingModule with s."""
    ident = identity(module.gens)
    relations = list(module.relations)
    stages = [FPModule.from_presentation(relations + [[s ** n * x for x in row] for row in ident],
                                         gens=module.gens, modulus=module.modulus)
              for n in range(1, top + 2)]
    pieces = [stages[0]] + [Morphism.make(up, down, ident).kernel()[0]
                            for up, down in zip(stages[1:], stages)]
    children = [CertNode(kind="Seed", level=1,
                         tag={"kind": "QuotientRingModule", "s": s},
                         payload={"module": FPModule.from_invariants(
                             piece.invariants(), modulus=piece.modulus)})
                for piece in pieces]
    return CertNode(kind="OmegaIteratedExtension", level=1, children=children,
                    payload={"module": stages[-1], "stages": stages,
                             "transitions": [identity(module.gens) for _ in range(top)]})


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
    ident = identity(big.gens)

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
    return _checked(Certificate(root=root), 2)


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
