import importlib
import pkgutil

import pytest

import confgauss

MODULES = ["confgauss"] + [f"confgauss.{m.name}" for m in pkgutil.iter_modules(confgauss.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ fails only at ``from module import *``
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
