"""Every name a module lists in ``__all__`` exists: a deleted function left
listed there would break ``from ... import *`` only when someone tries it.
And the package carries no dead surface: no import it never reads, no
private function nothing calls."""

import ast
import importlib
import pkgutil
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
    # a reference inside the function's own body (recursion) does not count
    dead = [node.name for node in SOURCES[name].body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not any(node.name in _reads(tree, skip=node) for tree in SOURCES.values())]
    assert not dead, f"conetorsion.{name} defines private functions nothing calls: {dead}"
