"""The import surface: every name a module lists in `__all__` exists, so
`from aced.<module> import *` works for each of them."""

import importlib
import pkgutil

import pytest

import aced

MODULES = sorted(m.name for m in pkgutil.iter_modules(aced.__path__, "aced."))


def test_every_module_is_found():
    assert "aced.cli" in MODULES and "aced.sid" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
