"""The public API holds only what the package, its demos or its benchmark use,
and the modules depend on each other only through public names.

A helper that only the tests call belongs in tests/helpers.py: exported
from the package, it would be public surface that nothing runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import pacavity as pv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pacavity"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


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
    files = [p for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(p) for p in files))
    assert sorted(set(pv.__all__) - used) == []


def test_all_is_every_public_name_the_package_binds():
    # __all__ is computed, not kept by hand: the public names __init__ binds,
    # sorted, without the modules that binding them also binds
    bound = sorted(name for name, value in vars(pv).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert pv.__all__ == bound
    assert "ModuleType" not in pv.__all__
    assert not any(isinstance(getattr(pv, name), ModuleType) for name in pv.__all__)
    assert "reverse_own_trace" in pv.__all__ and "fdtd" not in pv.__all__


def package_imports(module: str) -> list[tuple[str, str]]:
    """(sibling module, name) for each use of another package module in
    src/pacavity/<module>.py: a name imported from it, an attribute read
    through it, or "" for the module itself."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found, bound = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        path = node.module or ""
        if not (node.level or path.startswith("pacavity")):
            continue
        path = path.removeprefix("pacavity").lstrip(".")
        for alias in node.names:
            if path:
                found.append((path.split(".")[0], alias.name))
            else:  # from . import fdtd
                found.append((alias.name, ""))
                bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            found.append((bound[node.value.id], node.attr))
    return found


def reached(module: str) -> set[str]:
    """The package modules that importing module imports, directly or not."""
    seen, todo = set(), [module]
    while todo:
        for other, _ in package_imports(todo.pop()):
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return seen


@pytest.mark.parametrize("module", ["spectral", "phantom", "io"])
def test_data_modules_do_not_reach_the_solver(module):
    # the modules that make, perturb and store measurement data must not
    # depend on the scheme that inverts them
    assert "fdtd" not in reached(module)


def test_no_module_uses_a_private_name_of_another():
    private = [(m, other, name) for m in MODULES for other, name in package_imports(m)
               if name.startswith("_")]
    assert private == []


def test_import_loads_no_scipy():
    # numpy is the package's only runtime dependency: importing it and its
    # command line loads no scipy module
    code = ("import sys, pacavity, pacavity.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_import_builds_nothing():
    # the compiled step is built on the first march, never at import: in a
    # fresh interpreter, importing the package and its command line starts
    # no process, opens no library and loads neither ctypes nor subprocess
    # beyond what numpy loads itself
    code = ("import sys, numpy; base = set(sys.modules); events = []; "
            "sys.addaudithook(lambda e, a: events.append(e) if e.startswith("
            "('subprocess.', 'os.fork', 'os.exec', 'os.posix_spawn', 'os.spawn', "
            "'os.system', 'ctypes.dlopen')) else None); "
            "import pacavity, pacavity.cli; "
            "added = sorted({'ctypes', 'subprocess'} & (set(sys.modules) - base)); "
            "print(events, added, pacavity.fdtd._compiled)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[] [] None"
