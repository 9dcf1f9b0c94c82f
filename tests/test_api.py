"""Every name the package and its modules export in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import cone_sobolev

MODULES = [module for module in (
    [cone_sobolev] + [importlib.import_module(f"cone_sobolev.{info.name}")
                      for info in pkgutil.iter_modules(cone_sobolev.__path__)])
    if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
