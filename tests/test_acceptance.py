"""Acceptance suite: one test per criterion, driven by the shared battery.

Each test prints a single pass/fail line (visible with -s or in captured
output); the battery itself runs once per session at full scale with the
fixed seed 42.
"""

import contextlib
import hashlib
import itertools
import json
import os
import signal
import time
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
    """Criterion 11 and its time, of a battery whose second pass, in the
    forked child, is the first with ``change`` applied to it."""
    parent_pid = os.getpid()

    def fake_pass(seed, quick=False):
        results = [{"criterion": 1, "pass": True, "_elapsed": 1e-4,
                    "details": {"listed": [0, 1, 2, 4, 6], "closed_form_to_100": True,
                                "under_1ms": True}},
                   {"criterion": 5, "pass": True, "_elapsed": 1.0,
                    "details": {"checks": 96, "failures": [], "under_10s": True}}]
        if os.getpid() != parent_pid:
            change(results)
        return results

    monkeypatch.setattr(battery_module, "run_criteria_1_to_10", fake_pass)
    with _deadline(60):
        doc, timings = run_battery(seed=42, quick=True)
    _assert_no_child_left()
    return doc["criteria"][-1], timings[-1]


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in this process if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stall(results):
    # what a host stall does to criterion 1: its gate fails, and so its pass
    results[0]["details"]["under_1ms"] = False
    results[0]["pass"] = False


def _wrong_value(results):
    results[1]["details"]["checks"] = 95


def _raise(results):
    raise RuntimeError("second pass down")


def _exit_status_3(results):
    # the child writes the same text as the first pass, then exits with 3
    exit_now = os._exit
    os._exit = lambda code: exit_now(3)


def test_criterion_11_ignores_a_flipped_wall_clock_flag(monkeypatch):
    crit, _ = _criterion_11_after(monkeypatch, _stall)
    assert crit["pass"] and crit["details"]["identical"]


def test_criterion_11_fails_on_any_other_detail(monkeypatch):
    crit, _ = _criterion_11_after(monkeypatch, _wrong_value)
    assert not crit["pass"] and not crit["details"]["identical"]


def test_criterion_11_fails_on_an_injected_nondeterminism(monkeypatch):
    crit, _ = _criterion_11_after(
        monkeypatch, lambda results: results[0]["details"].update(pid=os.getpid()))
    assert not crit["pass"] and not crit["details"]["identical"]


@pytest.mark.parametrize("change", [_raise, _exit_status_3])
def test_criterion_11_fails_when_the_child_does_not_exit_cleanly(monkeypatch, change):
    crit, _ = _criterion_11_after(monkeypatch, change)
    assert not crit["pass"] and not crit["details"]["identical"]


def test_criterion_11_times_its_wait_for_the_child(monkeypatch):
    crit, seconds = _criterion_11_after(monkeypatch, lambda results: time.sleep(0.3))
    assert crit["pass"] and seconds >= 0.2


def test_a_raise_in_the_first_pass_propagates_and_leaves_no_child(monkeypatch):
    parent_pid = os.getpid()

    def fake_pass(seed, quick=False):
        if os.getpid() == parent_pid:
            raise RuntimeError("first pass down")
        time.sleep(60)     # the parent must not wait for this

    monkeypatch.setattr(battery_module, "run_criteria_1_to_10", fake_pass)
    with _deadline(30), pytest.raises(RuntimeError, match="first pass down"):
        run_battery(seed=42, quick=True)
    _assert_no_child_left()


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
