"""Span tracing of multloc's layer functions, installed from outside the package.

``Tracer.install`` replaces each listed public function by a wrapper that
records one span (name, start, end, parent) per call.  Module functions are
rebound in every module that holds them, since ``from .x import y`` copies
the name (calls from ``fpmod`` into ``intlinalg`` would be missed otherwise);
methods are patched on their class.  Spans live in flat arrays until the
batch ends.  A span's self time is its duration minus the time its child
spans cover; the tracer's own bookkeeping around a child counts as covered,
so it is charged to no layer.

A few counters are taken at the same boundaries: the largest coefficient
bit length returned by ``intlinalg``, tower stages built and used, memo hits
of the per-(factor, schedule) tower memos, and certificate rejections.
"""

from __future__ import annotations

import sys
import time
from array import array
from itertools import chain

LAYERS = {
    "intlinalg": ("smith_normal_form", "hnf_rows", "left_nullspace", "solve_left"),
    "fpmod": ("FPModule.invariants", "canonical_invariants", "Morphism.kernel",
              "factor_through_submodule", "submodules_equal"),
    "towers": ("quotient_tower", "torsion_tower", "constant_hom_tower", "tower_lim",
               "tower_lim1", "delta_truncated", "five_term_check",
               "telescope_homology_check"),
    "poset": ("build_mu_family", "verify_distinguishing", "spectrum_of_R_Js",
              "build_pair_dim2"),
    "certs": ("verify_certificate", "instantiate_and_check", "orthogonality_battery",
              "decompose_weakly_cotorsion", "embed_two_obtainable"),
    "ext": ("ext1", "ext2", "ext1_order_oracle"),
    "rings": ("artinian_quadruple_check", "projectivity_oracle_direct_summand"),
    "battery": tuple(f"criterion_{k}" for k in range(1, 11)) + ("run_criteria_1_to_10",),
}

# private memo dicts of towers, keyed per (factor, schedule); a call that
# leaves its memo the same size was answered from it
TOWER_MEMOS = (("_delta_cyclic", "_DELTA_MEMO"), ("_five_term_cyclic", "_FIVE_TERM_MEMO"),
               ("_telescope_dual_homology", "_TEL_MEMO"))


def _max_bits(rows) -> int:
    return max(map(abs, chain.from_iterable(rows)), default=0).bit_length()


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric ``layer_metrics`` reports."""
    out = []
    for layer, fns in LAYERS.items():
        if layer == "battery":
            continue
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
    out += [("intlinalg.max_bits", "bits", "lower"),
            ("fpmod.invariants.hit_ratio", "ratio", "higher"),
            ("towers.stages_built", "count", "lower"),
            ("towers.stage_use_ratio", "ratio", "higher"),
            ("towers.memo_hit_ratio", "ratio", "higher"),
            ("certs.rejections", "count", "higher")]
    out += [(f"battery.criterion_{k}.s", "s", "lower") for k in range(1, 11)]
    out += [("battery.cold_pass_s", "s", "lower"), ("battery.warm_pass_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.overhead = array("d")     # tracer time spent around the call
        self._stack = [-1]
        self.counters = {"max_bits": 0, "stages_built": 0, "use_num": 0, "use_den": 0,
                         "memo_calls": 0, "memo_hits": 0, "rejections": 0}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        import importlib
        from multloc import certs, towers
        pkg = [m for n, m in sys.modules.items()
               if m is not None and (n == "multloc" or n.startswith("multloc."))]
        holders = pkg + list(extra_modules)
        c = self.counters

        def note_bits(_args, result):
            if hasattr(result, "U"):
                bits = max(_max_bits(result.U), _max_bits(result.D), _max_bits(result.V))
            elif result and isinstance(result[0], list):
                bits = _max_bits(result)
            else:
                bits = _max_bits([result or ()])
            if bits > c["max_bits"]:
                c["max_bits"] = bits

        def note_stages(_args, result):
            c["stages_built"] += len(result.stages)

        def note_use(args, result):
            tower = args[0]
            c["use_num"] += result.certificate.stable_index + tower.window() + 1
            c["use_den"] += tower.depth

        rejected = (certs.MalformedTree, certs.LevelViolation, certs.PayloadMismatch)

        def counting_rejections(fn):
            def call(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except rejected:
                    c["rejections"] += 1
                    raise
            return call

        after = {"intlinalg": note_bits, "quotient_tower": note_stages,
                 "torsion_tower": note_stages, "constant_hom_tower": note_stages,
                 "tower_lim": note_use}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"multloc.{layer}")
            for fn in fns:
                owner_name, _, attr = fn.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fn}")
                    continue
                inner = counting_rejections(orig) if fn in (
                    "verify_certificate", "instantiate_and_check") else orig
                wrapped = self._span(f"{layer}.{fn}", inner,
                                     after.get(fn, after.get(layer)))
                if owner_name:
                    self._set(owner, attr, wrapped)
                else:
                    for mod in holders:
                        for name, val in list(vars(mod).items()):
                            if val is orig:
                                self._set(mod, name, wrapped)
        for fn_name, memo_name in TOWER_MEMOS:
            orig, memo = getattr(towers, fn_name, None), getattr(towers, memo_name, None)
            if orig is None or memo is None:
                self.missing.append(f"towers.{fn_name}")
                continue
            self._set(towers, fn_name, self._memo_counter(orig, memo))

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _span(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, over = (self.name_id, self.parent, self.start,
                                            self.end, self.overhead)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            c0 = clock()
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            over.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(args, result)
            over[i] = (t0 - c0) + (clock() - t1)
            return result

        return traced

    def _memo_counter(self, fn, memo):
        c = self.counters

        def call(*args, **kwargs):
            before = len(memo)
            try:
                return fn(*args, **kwargs)
            finally:
                c["memo_calls"] += 1
                if len(memo) == before:
                    c["memo_hits"] += 1

        return call

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per function; per layer, the time inside its
        spans (``layer_s``) and in spans the workload called directly
        (``root_s``); the counters; the battery's criterion and pass spans."""
        n = len(self.name_id)
        ids, parents, starts, ends, over = (self.name_id, self.parent, self.start,
                                            self.end, self.overhead)
        layer_bit = {}
        layers = list(LAYERS)
        for k, name in enumerate(self.names):
            layer_bit[k] = 1 << layers.index(name.split(".", 1)[0])
        covered = [0.0] * n
        mask = [0] * n
        snf_child = [False] * n
        snf = self.names.index("intlinalg.smith_normal_form")
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i] + over[i]
                mask[i] = mask[p] | layer_bit[ids[p]]
                if ids[i] == snf:
                    snf_child[p] = True
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        layer_s = dict.fromkeys(layers, 0.0)
        root_s = dict.fromkeys(layers, 0.0)
        first: dict[str, list[float]] = {}
        inv = self.names.index("fpmod.FPModule.invariants")
        inv_hits = 0
        for i in range(n):
            k = ids[i]
            dur = ends[i] - starts[i]
            calls[k] += 1
            self_s[k] += dur - covered[i]
            layer = self.names[k].split(".", 1)[0]
            if not mask[i] & layer_bit[k]:
                layer_s[layer] += dur
            if parents[i] < 0:
                root_s[layer] += dur
            if k == inv and not snf_child[i]:
                inv_hits += 1
            if self.names[k].startswith("battery."):
                first.setdefault(self.names[k], []).append(dur)
        c = self.counters
        return {
            "spans": n,
            "functions": {name: [calls[k], self_s[k]] for k, name in enumerate(self.names)},
            "layer_s": layer_s,
            "root_s": root_s,
            "max_bits": c["max_bits"],
            "invariants_hit_ratio": inv_hits / calls[inv] if calls[inv] else 0.0,
            "stages_built": c["stages_built"],
            "stage_use_ratio": c["use_num"] / c["use_den"] if c["use_den"] else 0.0,
            "memo_hit_ratio": c["memo_hits"] / c["memo_calls"] if c["memo_calls"] else 0.0,
            "rejections": c["rejections"],
            "battery": first,
            "missing": self.missing,
        }

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        import json
        header = {"names": self.names, "count": len(self.name_id),
                  "arrays": ["name_id:H", "parent:l", "start:d", "end:d", "overhead:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end, self.overhead):
                arr.tofile(fh)


def layer_metrics(summaries: list[dict], overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of a traced run: means over its traced batches (each
    batch replays the same inputs in a fresh process), the largest bit length
    over all of them, and the battery's spans from its first, cold pass."""
    k = len(summaries)

    def mean(get):
        return sum(get(s) for s in summaries) / k

    out = {}
    for layer, fns in LAYERS.items():
        if layer == "battery":
            continue
        for fn in fns:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = mean(lambda s: s["functions"].get(name, [0, 0.0])[0])
            out[f"{name}.self_s"] = mean(lambda s: s["functions"].get(name, [0, 0.0])[1])
    out["intlinalg.max_bits"] = max(s["max_bits"] for s in summaries)
    out["fpmod.invariants.hit_ratio"] = mean(lambda s: s["invariants_hit_ratio"])
    out["towers.stages_built"] = mean(lambda s: s["stages_built"])
    out["towers.stage_use_ratio"] = mean(lambda s: s["stage_use_ratio"])
    out["towers.memo_hit_ratio"] = mean(lambda s: s["memo_hit_ratio"])
    out["certs.rejections"] = mean(lambda s: s["rejections"])

    def span(name, index):
        return mean(lambda s: (s["battery"].get(name, []) + [0.0, 0.0])[index])

    for c in range(1, 11):
        out[f"battery.criterion_{c}.s"] = span(f"battery.criterion_{c}", 0)
    out["battery.cold_pass_s"] = span("battery.run_criteria_1_to_10", 0)
    out["battery.warm_pass_s"] = span("battery.run_criteria_1_to_10", 1)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
