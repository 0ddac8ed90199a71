"""The public API holds only what the package, its demos or its benchmark use.

A helper that only the tests call belongs in tests/helpers.py: exported
from the package, it would be public surface that nothing runs.
"""

import ast
from pathlib import Path

import pacavity as pv

ROOT = Path(__file__).resolve().parent.parent


def used_names(path: Path) -> set[str]:
    """Names a file reads, as bare names or attributes; definitions, imports,
    strings and comments do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_is_used_outside_the_tests():
    files = [p for p in sorted((ROOT / "src" / "pacavity").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(p) for p in files))
    assert sorted(set(pv.__all__) - used) == []
