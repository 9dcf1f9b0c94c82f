"""Every name the package and its modules export in ``__all__`` exists,
and every name a module imports is used or exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cone_sobolev

MODULES = [module for module in (
    [cone_sobolev] + [importlib.import_module(f"cone_sobolev.{info.name}")
                      for info in pkgutil.iter_modules(cone_sobolev.__path__)])
    if hasattr(module, "__all__")]

SOURCES = sorted(Path(cone_sobolev.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - exported - {"annotations"}
    assert not unused
