"""Every function, class and method in ``src/multloc`` has a reader, private
ones included; dunder methods, which the language calls, are exempt.

A definition counts as read when its name appears as a name or an attribute
anywhere in ``src/`` or ``bench/`` other than at its own definition.  Tests
do not count: a helper that only its tests call is dead code.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED: dict[str, str] = {}


def definitions(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


def unread_definitions() -> list[str]:
    """Qualified names of the definitions no name or attribute reads."""
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
            defs += definitions(tree, path.stem)
    assert set(ALLOWED) <= {qual for qual, _ in defs}, "allowlist names a deleted definition"
    return sorted(qual for qual, name in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and refs[name] == 0 and qual not in ALLOWED)


def test_no_public_definition_is_unread():
    assert [q for q in unread_definitions() if not q.rsplit(".", 1)[1].startswith("_")] == []


def test_no_private_definition_is_unread():
    assert [q for q in unread_definitions() if q.rsplit(".", 1)[1].startswith("_")] == []
