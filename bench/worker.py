"""One benchmark batch in a fresh process.

The worker loads the inputs the parent wrote, turns them into program
objects, optionally installs the tracer, and then runs every operation of
the workload in order on one thread, each starting when the previous one
returned.  A ``HostSpeed`` times a short fixed slice of work between
operations (inside a battery, also after criteria and calls into other
layers), and the timings are scaled by it to the reference host speed.  It prints one JSON line: the monotonic
time of its first timed call (the parent subtracts its spawn time to get the
set-up time), the scaled wall time of the batch including every output
check, each operation's scaled latency, the raw wall time and slice times,
failures, a digest of the canonical outputs, peak resident memory and, when
traced, the trace summary.  With ``--setup-only`` it stops at the first
timed call.

    python3 bench/worker.py --workload towers --inputs FILE [--trace FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put the checkout's sources first on the path and make sure they are
    the ones imported; exits with code 2 when they are missing."""
    sys.path.insert(0, str(SRC))
    try:
        import multloc
    except ImportError as exc:
        print(f"cannot import multloc from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(multloc.__file__).resolve().parents:
        print(f"multloc imported from {multloc.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--trace", type=Path, help="trace, and write the spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import workloads
    _, load, run, check = workloads.WORKLOADS[args.workload]
    items = load(json.loads(args.inputs.read_text()))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])

    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return 0

    spans = []
    outputs = []
    failures = []
    clock = time.perf_counter
    speed = HostSpeed()
    workloads.install_marks(args.workload, speed.mark, traced=tracer is not None)
    t_begin = clock()
    for index, item in enumerate(items):
        t0 = clock()
        try:
            result = run(item)
        except Exception as exc:   # an unexpected raise is a failed operation
            spans.append((t0, clock()))
            outputs.append(["raised", type(exc).__name__])
            failures.append(f"operation {index} raised {exc!r}")
            speed.mark()
            continue
        spans.append((t0, clock()))
        out, problems = check(item, result)
        outputs.append(out)
        failures.extend(f"operation {index}: {p}" for p in problems[:1])
        speed.mark()
    t_end = clock()
    speed.close()
    scales = speed.scales()

    report = {
        "first_call": first_call,
        "wall_s": speed.spent(t_begin, t_end, scales),
        "latencies_s": [speed.spent(a, b, scales) for a, b in spans],
        "raw_wall_s": speed.spent(t_begin, t_end),
        "slices_s": speed.slices,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        tracer.dump(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
