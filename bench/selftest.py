"""Tests of the benchmark itself.

    python3 bench/selftest.py

They check that inputs are deterministic per seed, that the independent
checks reject wrong outputs, that tracing changes no output digest, that a
short traced run attributes each workload's time to the layer predicted for
it and reports every per-layer metric, that BENCHMARK.json names exactly the
metrics the benchmark prints, and that the benchmark fails cleanly in a
directory without the program's sources.  The file name keeps pytest from
collecting it with the repository's tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402



def short_inputs(name: str) -> list:
    """A spread-out eighth of a workload's inputs, enough for the trace tests;
    spectra-certs keeps whole blocks of a poset and its certificates."""
    items = workloads.WORKLOADS[name][0](11)
    if name != "spectra-certs":
        return items[::8]
    block = 1 + 2 * workloads.SPECTRA_CERTS_PER_POSET
    return [it for b in range(0, len(items), 8 * block) for it in items[b:b + block]]


def run_worker(workload: str, items: list, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"selftest-{workload}.json"
    inputs.write_text(json.dumps(items))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs)]
    if trace:
        cmd += ["--trace", str(OUT / f"selftest-{workload}.spans")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, (make, *_rest) in workloads.WORKLOADS.items():
            with self.subTest(name):
                self.assertEqual(make(7), make(7))
                self.assertNotEqual(make(7), make(8))

    def test_tower_queries_never_repeat(self):
        qs = workloads.towers_inputs(3)
        self.assertEqual(len({(q["d"], tuple(q["generators"])) for q in qs}), len(qs))
        schedules = {(q["d"], tuple(q["generators"][k % len(q["generators"])]
                                    for k in range(q["n"]))) for q in qs}
        self.assertEqual(len(schedules), len(qs))

    def test_workload_names_match(self):
        self.assertEqual(set(run.NAMES), set(workloads.WORKLOADS))


class HostSpeedScaling(unittest.TestCase):
    def meter(self, starts, ends, slices):
        h = hostspeed.HostSpeed.__new__(hostspeed.HostSpeed)
        h.starts, h.ends, h.slices = starts, ends, slices
        return h

    def test_spent_skips_slices_and_scales_each_segment(self):
        # segments [0, 1] and [2, 4], a slice in between and after
        h = self.meter([0.0, 2.0, 5.0], [1.0, 4.0], [0.002, 0.002, 0.002])
        self.assertAlmostEqual(h.spent(0.5, 4.5), 0.5 + 2.0)
        self.assertAlmostEqual(h.spent(0.5, 4.5, [2.0, 0.5]), 0.5 * 2.0 + 2.0 * 0.5)
        self.assertAlmostEqual(h.spent(2.5, 3.0, [2.0, 0.5]), 0.25)

    def test_scale_is_the_reference_over_the_median_slice_around(self):
        ref = hostspeed.REFERENCE_SLICE_S
        slices = [ref, 2 * ref, 2 * ref, 100 * ref, 2 * ref]
        h = self.meter([0.0, 1.0, 2.0, 3.0, 4.0], [0.9, 1.9, 2.9, 3.9], slices)
        # segment 1 sits between slices 1 and 2; slices 0-3 set its speed and
        # the outlier slice 3 does not move the median
        self.assertAlmostEqual(h.scales()[1], 0.5)
        self.assertEqual(len(h.scales()), 4)

    def test_marks_cut_segments_only_after_segment_s(self):
        h = hostspeed.HostSpeed()
        h.mark()
        self.assertEqual(h.ends, [])
        h.starts[-1] -= hostspeed.SEGMENT_S
        h.mark()
        self.assertEqual(len(h.ends), 1)
        self.assertEqual(len(h.slices), 2)


class Checks(unittest.TestCase):
    """Each independent check flags a wrong answer."""

    def test_towers(self):
        q = workloads.towers_inputs(1)[0]
        res = workloads.towers_run(q)
        self.assertEqual(workloads.towers_check(q, res)[1], [])
        wrong = dict(q, generators=[11])   # no generator prime divides d
        self.assertNotEqual(workloads.towers_check(wrong, res)[1], [])

    def test_presentations(self):
        for p in workloads.presentations_inputs(1)[:60]:
            res = workloads.presentations_run(p)
            self.assertEqual(workloads.presentations_check(p, res)[1], [])
            inv = res[0] + (p["modulus"],)     # one more free or Z/N summand
            self.assertNotEqual(workloads.presentations_check(p, (inv,) + res[1:])[1], [])

    def test_spectra_certs(self):
        items = workloads.spectra_load(workloads.spectra_inputs(1)[:9])
        kinds = set()
        for it in items:
            res = workloads.spectra_run(it)
            self.assertEqual(workloads.spectra_check(it, res)[1], [])
            kinds.add(it["kind"])
            if it["kind"] == "mutated":
                self.assertNotEqual(workloads.spectra_check(it, "accepted")[1], [])
            elif it["kind"] == "cert":
                level, inst, ortho = res
                self.assertNotEqual(
                    workloads.spectra_check(it, (3 - level, inst, ortho))[1], [])
        self.assertEqual(kinds, {"poset", "cert", "mutated"})

    def test_diagonal_invariants(self):
        mod = {"gens": 3, "modulus": 12, "relations": [[4, 0, 0], [0, 6, 0], [0, 0, 0]]}
        self.assertEqual(workloads._diagonal_invariants(mod), (2, 12, 12))
        self.assertEqual(workloads._canonical([4, 6]), (2, 12))


class Tracing(unittest.TestCase):
    """Short traced runs: digests, dominant layers, metric coverage."""

    # the layers through which each workload's time enters the program
    PREDICTED = {"towers": {"towers"}, "presentations": {"intlinalg", "fpmod"},
                 "spectra-certs": {"poset", "certs"}}

    @classmethod
    def setUpClass(cls):
        cls.reports = {}
        for name in workloads.WORKLOADS:
            items = short_inputs(name)
            cls.reports[name] = (run_worker(name, items, trace=False),
                                 run_worker(name, items, trace=True))

    def test_tracing_keeps_the_digest(self):
        for name, (plain, traced) in self.reports.items():
            with self.subTest(name):
                self.assertEqual(plain["failed"], 0, plain["failures"])
                self.assertEqual(plain["digest"], traced["digest"])

    def test_scaled_operations_fit_in_the_scaled_wall(self):
        for name, (plain, _) in self.reports.items():
            with self.subTest(name):
                self.assertGreater(plain["wall_s"], 0)
                self.assertLessEqual(sum(plain["latencies_s"]), plain["wall_s"] * (1 + 1e-9))
                self.assertGreater(len(plain["slices_s"]), 1)

    def test_predicted_dominant_layer(self):
        for name, layers in self.PREDICTED.items():
            with self.subTest(name):
                entered = self.reports[name][1]["trace"]["root_s"]
                self.assertTrue(all(entered[layer] > 0 for layer in layers), entered)
                share = sum(entered[layer] for layer in layers) / sum(entered.values())
                self.assertGreater(share, 0.95, entered)

    def test_every_traced_function_found(self):
        for name, (_, traced) in self.reports.items():
            self.assertEqual(traced["trace"]["missing"], [])

    def test_battery_metrics(self):
        summary = self.reports["battery"][1]["trace"]
        metrics = tracer.layer_metrics([summary], 1.1)
        self.assertEqual(set(metrics), {m[0] for m in tracer.per_layer_metrics()})
        self.assertGreater(metrics["battery.cold_pass_s"], metrics["battery.warm_pass_s"])
        # the battery touches every layer function
        for layer, fns in tracer.LAYERS.items():
            for fn in fns if layer != "battery" else ():
                with self.subTest(f"{layer}.{fn}"):
                    self.assertGreater(metrics[f"{layer}.{fn}.calls"], 0)

    def test_self_times_split_the_outermost_time(self):
        for name, (_, traced) in self.reports.items():
            with self.subTest(name):
                summary = traced["trace"]
                self_times = [s for _, s in summary["functions"].values()]
                self.assertGreaterEqual(min(self_times), 0.0)
                # roots are outermost spans; tracer time around children is
                # charged to no function, so self times sum to a bit less
                self.assertLessEqual(sum(self_times), sum(summary["layer_s"].values()))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         tracer.per_layer_metrics())
        self.assertTrue(all(m["bound"] <= 0.25 for m in doc["end_to_end"]))

    def test_fails_without_the_program(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "towers", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
