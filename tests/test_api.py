"""Every name the package and its modules export in ``__all__`` exists,
every name a module imports is used or exported, and every definition is
used, exported or traced."""

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
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _traced_names() -> set[str]:
    """The qualified names in perfbench's ``layertrace.WRAPPED``, read
    from its source: the tracer wraps them by name."""
    tree = ast.parse((PERFBENCH / "layertrace.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAPPED"
                        for t in node.targets)):
            return {qual for _, qual in ast.literal_eval(node.value)}
    raise AssertionError("layertrace.WRAPPED not found")


def test_every_definition_is_used_exported_or_traced():
    """Each top-level function or class and each non-dunder method of the
    package is used by name or attribute in the package or perfbench, is
    in an ``__all__``, or is a layer that perfbench's tracer wraps."""
    used: set[str] = set()
    for path in SOURCES + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {name for module in MODULES for name in module.__all__}
    traced = _traced_names()
    unused = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used | exported | traced:
                unused.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__"))
                    and item.name not in used
                    and f"{node.name}.{item.name}" not in traced]
    assert not unused


@pytest.mark.parametrize("module, name, value", [
    ("segments", "_REL_TOL", 1e-12), ("quadrature", "_REL_TOL", 1e-12),
    ("tanhsinh", "_REL_TOL", 1e-12), ("bernstein", "_CERT_SLACK", 1e-9),
    ("lorentz", "_HARDY_SLACK", 1e-9), ("sobolev", "_UPPER_SLACK", 1e-9),
    ("cli", "_ROUTE_RTOL", 1e-10), ("segments", "_ORDER_RTOL", 1e-9),
    ("segments", "_SIGN_RTOL", 1e-12)])
def test_accuracy_contracts_are_fixed(module, name, value):
    """The accuracy contracts are fixed values, not settings: loosening one
    changes what every result promises, so it fails here on purpose."""
    assert getattr(importlib.import_module(f"cone_sobolev.{module}"),
                   name) == value
