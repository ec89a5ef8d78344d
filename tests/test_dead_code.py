"""Every public function, class and method in ``src/multloc`` has a reader.

A definition counts as read when its name appears as a name or an attribute
anywhere in ``src/`` or ``bench/`` other than at its own definition.  Tests
do not count: a helper that only its tests call is dead code.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED: dict[str, str] = {}


def public_definitions(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


def test_no_public_definition_is_unread():
    refs = Counter()
    defs = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
        if path.parent.name == "multloc":
            defs += public_definitions(tree, path.stem)
    assert set(ALLOWED) <= {qual for qual, _ in defs}, "allowlist names a deleted definition"
    unread = sorted(qual for qual, name in defs
                    if not name.startswith("_") and refs[name] == 0
                    and qual not in ALLOWED)
    assert unread == []

