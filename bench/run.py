"""multloc benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload towers --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run makes the workload's inputs from the seed, then starts fresh worker
processes one after another (never two at once): a few that only set up, to
time set-up, and then batches, each replaying the same inputs with cold
module-level memos, until ``--seconds`` have passed.  Timings are scaled to
a reference host speed measured between operations (``hostspeed.py``) and
reported as medians.  With ``--trace 1`` batches alternate between untraced
and traced; the traced ones give the per-layer metrics and the untraced ones
the tracing overhead.

It prints a summary per workload (each metric with its unit and sample
count, the failure ratio, the output digest) and, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits
with 1 when an output check fails or a worker dies, and with 2 when the
program's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 20
HARD_LIMIT_S = 170.0     # a run always ends before the 180 s the contract allows
NAMES = ("battery", "towers", "presentations", "spectra-certs")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def tail_percentile(samples: int) -> float | None:
    """Highest percentile (to 0.1) with at least ten samples beyond it."""
    if samples <= 10:
        return None
    return math.floor(1000 * (1 - 10 / samples)) / 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def host_slice() -> float:
    """Median of a few host-speed slices taken in this process."""
    return statistics.median(hostspeed.slice_time() for _ in range(9))


class WorkerFailed(Exception):
    pass


def spawn(workload: str, inputs: Path, deadline: float, trace: Path | None = None,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs)]
    if trace:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} worker killed at the {HARD_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["first_call"] - t_spawn
    return report


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{workload}.json"
    make_inputs = workloads.WORKLOADS[workload][0]
    inputs.write_text(json.dumps(make_inputs(seed)))
    start = time.monotonic()
    spans = OUT / f"spans-{workload}.bin"

    setups, plain, traced, errors = [], [], [], []
    try:
        # each set-up probe is scaled by host-speed slices taken on both sides
        before = host_slice()
        for _ in range(SETUP_PROBES):
            raw = spawn(workload, inputs, deadline, setup_only=True)["setup_s"]
            after = host_slice()
            setups.append(raw * 2 * hostspeed.REFERENCE_SLICE_S / (before + after))
            before = after
        while True:
            use_trace = trace and len(plain) > len(traced)
            batch = spawn(workload, inputs, deadline, trace=spans if use_trace else None)
            (traced if use_trace else plain).append(batch)
            if time.monotonic() - start >= seconds and (traced or not trace):
                break
    except WorkerFailed as exc:
        errors.append(str(exc))

    batches = plain + traced
    failures = [f for b in batches for f in b["failures"]] + errors
    digests = {b["digest"] for b in batches}
    if len(digests) > 1:
        failures.append(f"batches disagree on the output digest: {sorted(digests)}")
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches) + len(errors) + (len(digests) > 1)
    result = {"workload": workload, "seed": seed, "attempted": max(attempted, 1),
              "failed": failed, "failures": failures, "digest": sorted(digests),
              "batches": len(plain), "traced_batches": len(traced)}
    if not plain:
        return result

    # Timings are scaled to the reference host speed (hostspeed.py), which
    # takes out the host's drift; what is left is the odd stall, so every
    # timing is a median: each operation's over its replays, the wall time's
    # over batches, set-up's over its probes.
    per_op = [statistics.median(col) for col in zip(*(b["latencies_s"] for b in plain))]
    p_tail = tail_percentile(len(per_op))
    result.update(
        tail=p_tail,
        raw_wall_s=statistics.median(b["raw_wall_s"] for b in plain),
        slowdown=statistics.median(x for b in plain for x in b["slices_s"])
        / hostspeed.REFERENCE_SLICE_S,
        metrics={
            "setup_s": (statistics.median(setups), len(setups)),
            "wall_s": (statistics.median(b["wall_s"] for b in plain), len(plain)),
            "op_p50_ms": (1000 * statistics.median(per_op), len(per_op)),
            "op_tail_ms": (1000 * (percentile(per_op, p_tail) if p_tail else max(per_op)),
                           len(per_op)),
            "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in plain), len(plain)),
        })
    if traced:
        import tracer
        overhead = (statistics.median(b["wall_s"] for b in traced)
                    / result["metrics"]["wall_s"][0])
        result["layers"] = tracer.layer_metrics([b["trace"] for b in traced], overhead)
        result["layer_s"] = {k: statistics.mean(b["trace"]["layer_s"][k] for b in traced)
                             for k in tracer.LAYERS}
        result["trace_missing"] = traced[0]["trace"]["missing"]
    return result


def print_summary(r: dict) -> None:
    print(f"workload {r['workload']}  seed {r['seed']}  batches {r['batches']}"
          f" (+{r['traced_batches']} traced)  digest {','.join(d[:16] for d in r['digest'])}")
    notes = {"setup_s": "median of set-up probes",
             "wall_s": "median batch",
             "op_p50_ms": "median op, each op its median replay",
             "op_tail_ms": (f"p{r['tail']}" if r.get("tail") else "max") + " op, each op"
                           " its median replay",
             "peak_rss_mb": "median of batches"}
    if "slowdown" in r:
        print(f"  timings at the reference host speed; the host ran {r['slowdown']:.2f}x"
              f" slower (raw median wall {r['raw_wall_s']:.3f} s)")
    for name, (value, n) in r.get("metrics", {}).items():
        unit = dict(END_TO_END)[name]
        print(f"  {name:<12} {value:>12.4f} {unit:<3} n={n:<6} ({notes[name]})")
    print(f"  {'fail_ratio':<12} {r['failed'] / r['attempted']:>12.4f} -   "
          f" n={r['attempted']:<6} ({r['failed']} failed of {r['attempted']} attempted)")
    for f in r["failures"][:5]:
        print(f"  FAILURE: {f}")
    if "layer_s" in r:
        cover = ", ".join(f"{k} {v:.3f}" for k, v in
                          sorted(r["layer_s"].items(), key=lambda kv: -kv[1]) if v)
        print(f"  time inside each layer's spans (s per traced batch): {cover}")
        if r["trace_missing"]:
            print(f"  NOT TRACED (not found): {', '.join(r['trace_missing'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from worker import import_program
    import_program()
    names = NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(r)
        results.append(r)

    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        if args.trace:
            from tracer import per_layer_metrics
            for name, unit, _ in per_layer_metrics():
                if "layers" in r:
                    metrics[prefix + name] = {"value": r["layers"][name], "unit": unit}
        else:
            for name, unit in END_TO_END:
                if "metrics" in r:
                    metrics[prefix + name] = {"value": r["metrics"][name][0], "unit": unit}
    correct = all(r["failed"] == 0 and "metrics" in r for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
