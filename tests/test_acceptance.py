"""Acceptance suite: one test per criterion, driven by the shared battery.

Each test prints a single pass/fail line (visible with -s or in captured
output); the battery itself runs once per session at full scale with the
fixed seed 42.
"""

import hashlib
import itertools
import json
from types import SimpleNamespace

import pytest

from multloc import battery as battery_module
from multloc.battery import RULE_REFS, run_battery
from multloc.randomgen import chain_poset


@pytest.fixture(scope="module")
def battery():
    doc, timings = run_battery(seed=42, quick=False)
    return doc


def _criterion(battery_doc, k):
    crit = battery_doc["criteria"][k - 1]
    assert crit["criterion"] == k
    status = "PASS" if crit["pass"] else "FAIL"
    print(f"ACCEPTANCE {k:>2} [{RULE_REFS[k]}]: {status}")
    return crit


def test_criterion_01_mu_values(battery):
    crit = _criterion(battery, 1)
    assert crit["details"]["listed"] == [0, 1, 2, 4, 6]
    assert crit["details"]["closed_form_to_100"]
    assert crit["details"]["under_1ms"]
    assert crit["pass"]


def test_criterion_02_distinguishing_constructions(battery):
    crit = _criterion(battery, 2)
    assert crit["details"]["runs"] == 600
    assert crit["details"]["failures"] == []
    assert crit["details"]["under_5s"]
    assert crit["pass"]


def test_criterion_03_exact_height(battery):
    crit = _criterion(battery, 3)
    assert crit["details"]["failures"] == []
    assert crit["pass"]


def test_criterion_04_artinian_quadruple(battery):
    crit = _criterion(battery, 4)
    assert crit["details"]["failures"] == []
    assert crit["details"]["content_rejections"] == 4
    assert crit["details"]["under_2s"]
    assert crit["pass"]


def test_criterion_05_telescope_homology(battery):
    crit = _criterion(battery, 5)
    assert crit["details"]["failures"] == []
    assert crit["details"]["under_10s"]
    assert crit["pass"]


def test_criterion_06_delta_lambda_exactness(battery):
    crit = _criterion(battery, 6)
    assert crit["details"]["failures"] == []
    assert crit["pass"]


def test_criterion_07_weakly_cotorsion_decision(battery):
    crit = _criterion(battery, 7)
    assert crit["details"]["failures"] == []
    assert crit["pass"]


def test_criterion_08_projectivity_rule(battery):
    crit = _criterion(battery, 8)
    assert crit["details"]["mismatches"] == []
    assert crit["details"]["under_5s"]
    assert crit["pass"]


def test_criterion_09_certificate_calculus(battery):
    crit = _criterion(battery, 9)
    assert crit["details"]["failures"] == []
    assert crit["details"]["mutation_failures"] == []
    assert crit["pass"]


def test_criterion_09_fails_without_certificates_to_mutate(monkeypatch):
    # when every builder call of a class fails there is nothing to mutate:
    # the criterion fails with the builder errors instead of raising
    def broken(module):
        raise RuntimeError("builder down")
    monkeypatch.setattr(battery_module, "embed_two_obtainable", broken)
    crit = battery_module.criterion_9(42, groups=[(2,), (4,)], quick=True)
    assert not crit["pass"]
    kinds = [f["kind"] for f in crit["details"]["failures"]]
    assert crit["details"]["embed_certs"] == 0
    assert kinds.count("embed") == len(battery_module._embed_corpus(18))
    assert {"kind": "mutations-embed", "skipped": "no certificate built"} in \
        crit["details"]["failures"]
    assert crit["details"]["decompose_certs"] == 6
    assert not [m for m in crit["details"]["mutation_failures"] if m["class"] == "decompose"]


def test_criterion_10_orthogonality_soundness(battery):
    crit = _criterion(battery, 10)
    assert crit["details"]["runs"] == 200
    assert crit["details"]["failures"] == []
    assert crit["details"]["oracle_mismatches"] == []
    assert crit["pass"]


def test_criterion_11_determinism(battery):
    crit = _criterion(battery, 11)
    assert crit["details"]["identical"]
    assert crit["pass"]
    # the whole structured document is serializable and stable under key sort
    blob = json.dumps(battery, sort_keys=True)
    assert json.loads(blob) == battery


def _criterion_11_after(monkeypatch, change):
    """Criterion 11 of a battery whose second pass is the first with
    ``change`` applied to it."""
    passes = []

    def fake_pass(seed, quick=False):
        results = [{"criterion": 1, "pass": True, "_elapsed": 1e-4,
                    "details": {"listed": [0, 1, 2, 4, 6], "closed_form_to_100": True,
                                "under_1ms": True}},
                   {"criterion": 5, "pass": True, "_elapsed": 1.0,
                    "details": {"checks": 96, "failures": [], "under_10s": True}}]
        if passes:
            change(results)
        passes.append(results)
        return results

    monkeypatch.setattr(battery_module, "run_criteria_1_to_10", fake_pass)
    doc, _ = run_battery(seed=42, quick=True)
    assert len(passes) == 2
    return doc["criteria"][-1]


def _stall(results):
    # what a host stall does to criterion 1: its gate fails, and so its pass
    results[0]["details"]["under_1ms"] = False
    results[0]["pass"] = False


def _wrong_value(results):
    results[1]["details"]["checks"] = 95


def test_criterion_11_ignores_a_flipped_wall_clock_flag(monkeypatch):
    crit = _criterion_11_after(monkeypatch, _stall)
    assert crit["pass"] and crit["details"]["identical"]


def test_criterion_11_fails_on_any_other_detail(monkeypatch):
    crit = _criterion_11_after(monkeypatch, _wrong_value)
    assert not crit["pass"] and not crit["details"]["identical"]


def _clock(monkeypatch, step):
    """Give the battery a clock that advances ``step`` seconds per reading."""
    ticks = itertools.count(step=step)
    monkeypatch.setattr(battery_module, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))


# each gated criterion on a tiny input, with its flag
GATED = {
    1: ("under_1ms", lambda: battery_module.criterion_1()),
    2: ("under_5s", lambda: battery_module.criterion_2({1: [chain_poset(1)]})),
    4: ("under_2s", lambda: battery_module.criterion_4()),
    5: ("under_10s", lambda: battery_module.criterion_5(groups=[(2,)])),
    8: ("under_5s", lambda: battery_module.criterion_8()),
}


@pytest.mark.parametrize("k", sorted(GATED))
def test_gate_fails_its_own_criterion_past_its_bound(monkeypatch, k):
    flag, run = GATED[k]
    _clock(monkeypatch, 0.0)
    crit = run()
    assert crit["criterion"] == k and crit["pass"] and crit["details"][flag]
    _clock(monkeypatch, 100.0)
    crit = run()
    assert crit["details"][flag] is False and crit["pass"] is False


def test_ungated_criterion_passes_a_slow_clock(monkeypatch):
    _clock(monkeypatch, 100.0)
    crit = battery_module.criterion_3(42, {1: [chain_poset(1)]})
    assert crit["pass"] and crit["_elapsed"] == 100.0
    assert not any(k.startswith("under_") for k in crit["details"])


def test_runner_calls_criteria_through_module_globals(monkeypatch):
    calls = []
    for k in range(1, 11):
        def spy(*args, k=k, **kwargs):
            calls.append(k)
            return {"criterion": k, "pass": True, "details": {}, "_elapsed": 0.0}
        monkeypatch.setattr(battery_module, f"criterion_{k}", spy)
    results = battery_module.run_criteria_1_to_10(42, quick=True)
    assert calls == list(range(1, 11))
    assert [r["criterion"] for r in results] == calls


def test_all_pass_flag(battery):
    assert battery["all_pass"]


# sha256 of the seed-42 criteria without the wall-clock flags, so a host
# stall cannot fail these; a change that alters the battery document on
# purpose updates the pin and says why
PINNED_FULL = "3ef29250d5ea6e09d2f288c43680bc35aa5695c26dfb3fcc2ab770156acbf52c"
PINNED_QUICK = "2915bf01387cb2059f7efd75c61564fde9bca47d6da9eaa85d174392697618df"


def _digest(doc):
    return hashlib.sha256(battery_module._without_gates(doc["criteria"]).encode()).hexdigest()


def test_full_document_pinned(battery):
    assert _digest(battery) == PINNED_FULL


def test_quick_document_pinned():
    doc, _ = run_battery(seed=42, quick=True)
    assert _digest(doc) == PINNED_QUICK
