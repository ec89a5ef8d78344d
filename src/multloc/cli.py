"""Command line front end.

Commands: mu, distinguish, artinian, complete, telescope, wc-check,
verify-cert, battery.  Exit codes: 0 all checks pass, 1 a verification
failed (a report is still emitted), 2 usage or input errors, 141 (128 +
SIGPIPE, as the shell reports a program that SIGPIPE ended) when the reader
of stdout went away before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import RULE_REFS
from .certs import (
    Certificate,
    LevelViolation,
    MalformedTree,
    PayloadMismatch,
    PreconditionFailed,
    _mod_from_doc,
    instantiate_and_check,
    orthogonality_battery,
    verify_certificate,
)
from .fpmod import FPModule
from .intlinalg import identity
from .poset import (
    DimensionMismatch,
    PrimePoset,
    build_mu_family,
    build_one_dimensional,
    build_pair_dim2,
    build_wave,
    mu,
    verify_distinguishing,
    DistinguishingFamily,
)
from .rings import (
    BasePID,
    FactorizationBound,
    NotInS1,
    NotInS2,
    Poly,
    artinian_quadruple_check,
)
from .towers import (
    DEFAULT_DEPTH,
    MultSubsetSeq,
    NotStabilized,
    certified_depth,
    delta_truncated,
    quotient_stages,
    telescope_complex,
    telescope_homology_check,
    weakly_cotorsion_report,
)

PASS, FAIL, USAGE, BROKEN_PIPE = 0, 1, 2, 141


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        _render_text(doc)


def _render_text(doc: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, val in doc.items():
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _render_text(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}:")
            for item in val:
                _render_text(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {val}")


def _parse_module(spec: str, modulus: int) -> FPModule:
    """Module literal: comma-separated invariant factors, 0 for a free summand.

    Over Z/N (a positive ``modulus``) each nonzero factor must divide N, since
    Z/d over Z/N is Z/gcd(d, N) and any other d would answer for a different
    module."""
    spec = spec.strip()
    if not spec:
        return FPModule.zero(modulus)
    factors = [int(x) for x in spec.split(",")]
    for d in factors:
        if d < 0:
            raise ValueError(f"--module: factor {d} is negative")
        if modulus > 0 and d and modulus % d:
            raise ValueError(f"--module: factor {d} does not divide --modulus {modulus}")
    return FPModule.from_invariants(factors, modulus=modulus)


def _load_module(args) -> FPModule:
    """Module from --presentation (a JSON file) or the --module literal."""
    if getattr(args, "presentation", None):
        with open(args.presentation) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            doc = {"relations": [], "modulus": args.modulus, **doc}
        return _mod_from_doc(doc, "presentation")
    return _parse_module(args.module, args.modulus)


def _parse_coeffs(spec: str) -> list[int]:
    return [int(x) for x in spec.split(",")] if spec.strip() else []


def cmd_mu(args) -> int:
    doc = {"d": args.d, "mu": mu(args.d), "rule_refs": [RULE_REFS[1]]}
    _emit(doc, args.format)
    return PASS


def cmd_distinguish(args) -> int:
    with open(args.poset) as fh:
        poset = PrimePoset.from_document(json.load(fh))
    mode = args.mode
    if mode == "dim1":
        family = DistinguishingFamily(subsets=(build_one_dimensional(poset),),
                                      dimension=poset.dimension())
    elif mode == "dim2":
        s, t = build_pair_dim2(poset)
        family = DistinguishingFamily(subsets=(s, t), dimension=poset.dimension())
    elif mode.startswith("wave:"):
        level = int(mode.split(":", 1)[1])
        family = DistinguishingFamily(subsets=tuple(build_wave(poset, level)),
                                      dimension=poset.dimension())
    elif mode == "mu":
        family = build_mu_family(poset)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    report = verify_distinguishing(poset, family)
    doc = {"mode": mode, "dimension": poset.dimension(),
           "subsets": family.to_document(),
           "report": report.to_document(),
           "rule_refs": [RULE_REFS[2]]}
    _emit(doc, args.format)
    return PASS if report.passed() else FAIL


def cmd_artinian(args) -> int:
    if args.base == "int":
        base = BasePID()
        s = Poly(base, tuple(_parse_coeffs(args.s)))
        t = Poly(base, tuple(_parse_coeffs(args.t)))
    elif args.base.startswith("gfp:"):
        base = BasePID(p=int(args.base[len("gfp:"):]))
        s = Poly(base, tuple(tuple(_parse_coeffs(c)) for c in args.s.split(";")))
        t = Poly(base, tuple(tuple(_parse_coeffs(c)) for c in args.t.split(";")))
    else:
        raise ValueError(f"--base must be int or gfp:P, got {args.base!r}")
    report = artinian_quadruple_check(s, t, factor_bound=args.factor_bound)
    doc = report.to_document()
    doc["rule_refs"] = [RULE_REFS[4]]
    _emit(doc, args.format)
    return PASS if report.verdict else FAIL


def cmd_complete(args) -> int:
    module = _load_module(args)
    seq = MultSubsetSeq(generators=tuple(_parse_coeffs(args.generators)))
    # without --depth, deep enough that every cyclic factor's limit certifies
    depth = args.depth if args.depth is not None else max(
        [DEFAULT_DEPTH] + [certified_depth(d, seq) for d in module.invariants()])
    t_values, stages = quotient_stages(module, seq, depth)
    # the quotient tower's transitions are the identity on generators
    doc = {"stages": [list(inv) for inv in stages],
           "t_values": t_values,
           "transitions": [identity(module.gens) for _ in t_values[1:]],
           "rule_refs": [RULE_REFS[6]]}
    code = PASS
    try:
        doc["delta"] = delta_truncated(module, seq, depth).to_document()
    except NotStabilized as exc:
        doc["delta"] = {"not_stabilized": str(exc), "chains": exc.chains}
        code = FAIL
    _emit(doc, args.format)
    return code


def cmd_telescope(args) -> int:
    seq = MultSubsetSeq(generators=tuple(_parse_coeffs(args.generators)))
    tc = telescope_complex(seq, args.n)
    doc = {"n": tc.n, "schedule": list(tc.schedule), "companion": tc.companion,
           "differential": tc.differential, "two_term": tc.two_term,
           "witnesses": {k: v for k, v in tc.verify_witnesses().items()},
           "rule_refs": [RULE_REFS[5]]}
    ok = doc["witnesses"]["all_ok"]
    if args.module is not None:
        module = _parse_module(args.module, args.modulus)
        rep = telescope_homology_check(seq, args.n, module)
        doc["homology"] = rep.to_document()
        ok = ok and rep.passed()
    _emit(doc, args.format)
    return PASS if ok else FAIL


def cmd_wc_check(args) -> int:
    args.modulus = 0
    module = _load_module(args)
    report = weakly_cotorsion_report(module, args.m, args.depth)
    report["rule_refs"] = [RULE_REFS[7]]
    _emit(report, args.format)
    return PASS if report["oracle_agrees"] else FAIL


def cmd_verify_cert(args) -> int:
    with open(args.certificate) as fh:
        cert = Certificate.from_document(json.load(fh))
    doc: dict = {"rule_refs": [RULE_REFS[9]]}
    try:
        level = verify_certificate(cert)
        doc["level"] = level
        has_payloads = cert.root.payload is not None
        if has_payloads:
            doc["instantiation"] = instantiate_and_check(cert)
        else:
            doc["instantiation"] = "structural only"
        if args.tests:
            with open(args.tests) as fh:
                specs = json.load(fh)
            if not isinstance(specs, list):
                raise ValueError("tests: must be a list of module presentations")
            tests = [_mod_from_doc(t, f"tests.{i}") for i, t in enumerate(specs)]
            doc["orthogonality"] = orthogonality_battery(cert, tests)
            doc["rule_refs"].append(RULE_REFS[10])
            if not doc["orthogonality"]["pass"]:
                _emit(doc, args.format)
                return FAIL
        _emit(doc, args.format)
        return PASS
    except (MalformedTree, LevelViolation, PayloadMismatch, PreconditionFailed) as exc:
        doc["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        _emit(doc, args.format)
        return FAIL


def cmd_battery(args) -> int:
    # imported here: no other command needs the battery and its corpora
    from .battery import run_battery
    doc, timings = run_battery(seed=args.seed, quick=args.quick)
    if args.format == "structured":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for crit, secs in zip(doc["criteria"], timings):
            status = "PASS" if crit["pass"] else "FAIL"
            name = doc["rule_refs"][str(crit["criterion"])]
            print(f"criterion {crit['criterion']:>2} [{name}]: {status}"
                  f"  ({secs:.2f}s)")
        print("all pass" if doc["all_pass"] else "FAILURES PRESENT")
    return PASS if doc["all_pass"] else FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="multloc",
                                 description="exact checks for spectrum "
                                             "combinatorics, completions and "
                                             "obtainability certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")

    p = sub.add_parser("mu", help="subset count for a given dimension")
    p.add_argument("d", type=int)
    common(p)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("distinguish",
                       help="build and verify a distinguishing family")
    p.add_argument("poset", help="JSON file with primes and covers")
    p.add_argument("--mode", default="mu",
                   help="dim1 | dim2 | wave:L | mu")
    common(p)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("artinian", help="the four-ring check for s, t")
    p.add_argument("--s", required=True,
                   help="coefficients of s, low to high (constant)")
    p.add_argument("--t", required=True, help="coefficients of t, low to high")
    p.add_argument("--base", default="int", help="int | gfp:P")
    p.add_argument("--factor-bound", type=int, default=10 ** 6,
                   dest="factor_bound")
    common(p)
    p.set_defaults(func=cmd_artinian)

    p = sub.add_parser("complete", help="completion tower and its limit data")
    p.add_argument("--module", default="",
                   help="invariant factors, e.g. '12' or '2,4'; 0 = free")
    p.add_argument("--presentation", default=None,
                   help="JSON file {gens, modulus, relations} instead of --module")
    p.add_argument("--modulus", type=int, default=0)
    p.add_argument("--generators", required=True, help="e.g. '2' or '2,3'")
    p.add_argument("--depth", type=int, default=None,
                   help="tower stages (default: the largest certified depth of the "
                        "module's cyclic factors, at least 12)")
    common(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("telescope", help="telescope complex and homology check")
    p.add_argument("--generators", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--module", default=None)
    p.add_argument("--modulus", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_telescope)

    p = sub.add_parser("wc-check", help="weakly-cotorsion decision with evidence")
    p.add_argument("--module", default="")
    p.add_argument("--presentation", default=None,
                   help="JSON file {gens, modulus, relations} instead of --module")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_wc_check)

    p = sub.add_parser("verify-cert", help="check an obtainability certificate")
    p.add_argument("certificate")
    p.add_argument("--tests", default=None,
                   help="JSON list of test module presentations")
    common(p)
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("battery", help="run the acceptance battery")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--quick", action="store_true")
    common(p)
    p.set_defaults(func=cmd_battery)

    return ap


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        # flush here, so a reader that has gone shows up inside this try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail too (the SIGPIPE note in the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


def _glue_negative_lists(argv: list[str]) -> list[str]:
    """Glue a list value that starts with a minus sign to its option
    ('--t=-1,2'): argparse would take '-1,2' for an option of its own."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--generators", "--module", "--s", "--t") \
                and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _dispatch(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_negative_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        return args.func(args)
    except BrokenPipeError:
        # an OSError from the output side, which main handles
        raise
    except (OSError, RecursionError, json.JSONDecodeError, KeyError) as exc:
        # a path that is not a readable file, or a document that is not JSON
        # or is nested deeper than the JSON reader recurses
        print(f"input error: {exc!r}", file=sys.stderr)
        return USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (DimensionMismatch, NotInS1, NotInS2, FactorizationBound,
            NotStabilized) as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}},
              getattr(args, "format", "text"))
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
