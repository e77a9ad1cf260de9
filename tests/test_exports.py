"""Every name a module lists in ``__all__`` exists: a deleted function left
listed there would break ``from ... import *`` only when someone tries it,
and the type hints of every class it lists or defines resolve.
The package carries no dead surface: no import it never reads, no private
function nothing calls.  And no production module loads verification code."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import conetorsion

MODULES = ["conetorsion"] + [f"conetorsion.{info.name}"
                             for info in pkgutil.iter_modules(conetorsion.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_class_resolves_its_type_hints(name):
    # annotations are strings (``from __future__ import annotations``), so a
    # name the module never imports fails only when a tool resolves them
    module = importlib.import_module(name)
    listed = [getattr(module, attr) for attr in getattr(module, "__all__", ())]
    defined = [obj for obj in vars(module).values() if getattr(obj, "__module__", None) == name]
    for obj in listed + defined:
        if inspect.isclass(obj):
            typing.get_type_hints(obj)      # NameError on a name the module lacks


# ---------------------------------------------------------------------------
# no dead surface: every import is read, every private function is called

SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in Path(conetorsion.__file__).parent.glob("*.py")}


def _reads(tree, skip=None) -> set[str]:
    """Every name and attribute read in ``tree`` outside the node ``skip``,
    with the names a module lists in ``__all__``."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(ast.literal_eval(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_import_is_read(name):
    # a name another module imports from this one counts as read (re-export)
    reexported = {alias.name for tree in SOURCES.values() for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module == name for alias in node.names}
    read = _reads(SOURCES[name]) | reexported
    unused = [alias.asname or alias.name.split(".")[0]
              for node in ast.walk(SOURCES[name])
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in read]
    assert not unused, f"conetorsion.{name} imports names it never reads: {unused}"


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_private_function_is_referenced(name):
    # a reference inside the function's own body (recursion) does not count;
    # a __dunder__ function (a module __getattr__) is an interpreter hook, not private
    dead = [node.name for node in SOURCES[name].body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not any(node.name in _reads(tree, skip=node) for tree in SOURCES.values())]
    assert not dead, f"conetorsion.{name} defines private functions nothing calls: {dead}"


# ---------------------------------------------------------------------------
# verification code stays off the production path

def _siblings(tree) -> set[str]:
    """The package modules that ``tree`` imports (the package imports
    itself only relatively)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module.split(".")[0]] if node.module
                       else [alias.name for alias in node.names])
    return out


def test_only_the_cli_loads_the_self_test_and_only_it_loads_the_derivation_layer():
    importers = {mod: sorted(name for name, tree in SOURCES.items() if mod in _siblings(tree))
                 for mod in ("selftest", "derivation")}
    assert importers == {"selftest": ["cli"], "derivation": ["selftest"]}
    # the zero solver feeds only verification routes
    assert "besselzero" not in _siblings(SOURCES["torsion"])


def test_fresh_torsion_import_loads_neither_the_zero_solver_nor_scipy():
    # modelops, which torsion imports, loads the solver on first use only
    src = str(Path(conetorsion.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import json, sys, conetorsion.torsion\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "                        or m == 'conetorsion.besselzero')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert json.loads(proc.stdout.splitlines()[-1]) == [], proc.stderr
