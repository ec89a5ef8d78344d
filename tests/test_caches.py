"""The one memo mechanism: every cross-call memo in ``src/multloc`` is a
``functools.cache`` that ``towers.clear_caches`` empties, and the battery
run empties them before its first pass."""

import ast
import importlib
import pkgutil
from pathlib import Path

import multloc
from multloc import battery, towers
from multloc.certs import CertNode, Certificate, instantiate_and_check
from multloc.ext import ext1
from multloc.fpmod import FPModule
from multloc.towers import MultSubsetSeq, clear_caches

SRC = Path(multloc.__file__).resolve().parent


def module_memos() -> list:
    """Every module-level function of the package that carries a cache."""
    memos = {}
    for info in pkgutil.iter_modules(multloc.__path__):
        module = importlib.import_module(f"multloc.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                memos[id(value)] = value
    return list(memos.values())


def fill_memos():
    module = FPModule.from_invariants([4, 12])
    towers.five_term_check(module, MultSubsetSeq(generators=(2, 3)))
    towers.telescope_homology_check(MultSubsetSeq(generators=(2, 3)), 4, module)
    ext1(FPModule.from_invariants([2], modulus=4), FPModule.from_invariants([2, 4], modulus=4))
    instantiate_and_check(Certificate(CertNode(
        "Seed", 1, tag={"kind": "QuotientRingModule", "s": 2},
        payload={"module": FPModule.from_invariants([2], modulus=4)})))


def test_clear_caches_empties_every_memo():
    fill_memos()
    memos = module_memos()
    assert memos
    assert all(memo.cache_info().currsize > 0 for memo in memos)
    clear_caches()
    assert {memo.__qualname__: memo.cache_info().currsize for memo in memos} == {
        memo.__qualname__: 0 for memo in memos}


def test_clear_caches_skips_a_memo_patched_with_a_plain_function(monkeypatch):
    """The memos are found, not listed: one patched over is passed by, and
    the others are still emptied."""
    fill_memos()
    monkeypatch.setattr(towers, "_scalar_homology", lambda module, scalar: ((), ()))
    clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo in module_memos())


def test_run_battery_clears_before_its_first_pass(monkeypatch):
    """Both passes, this process's and the forked child's, start from empty
    memos, though each pass fills them."""
    memos = module_memos()
    fill_memos()

    def one_pass(seed, quick=False):
        sizes = {memo.__qualname__: memo.cache_info().currsize for memo in memos}
        fill_memos()
        return [{"criterion": 1, "pass": True, "details": {"memo_sizes": sizes},
                 "_elapsed": 0.0}]

    monkeypatch.setattr(battery, "run_criteria_1_to_10", one_pass)
    doc, _ = battery.run_battery(7, quick=True)
    first, determinism = doc["criteria"]
    assert determinism["details"]["identical"]
    assert set(first["details"]["memo_sizes"].values()) == {0}
    assert doc["all_pass"]


EMPTY_CALLS = {"dict", "list", "set"}


def empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (getattr(node, "keys", None) or getattr(node, "elts", None))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in EMPTY_CALLS and not node.args and not node.keywords)


def test_no_module_level_memo_globals():
    """A module-level name bound to an empty container is a memo (or a
    registry) outside the one mechanism."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if empty_container(node.value):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
