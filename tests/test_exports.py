"""Every name a module lists in ``__all__`` exists: a deleted function left
listed there would break ``from ... import *`` only when someone tries it."""

import importlib
import pkgutil

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
