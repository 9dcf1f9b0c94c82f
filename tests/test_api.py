"""Every name the package and its modules export in ``__all__`` exists,
every name a module imports is used or exported, every definition is
used, exported or traced, and every traced name resolves."""

import ast
import dataclasses
import importlib
import math
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


def _wrapped() -> tuple[tuple[str, str], ...]:
    """The (module, qualified name) pairs of perfbench's
    ``layertrace.WRAPPED``, read from its source: the tracer wraps them by
    name."""
    tree = ast.parse((PERFBENCH / "layertrace.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAPPED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("layertrace.WRAPPED not found")


@pytest.mark.parametrize("module, qual", _wrapped())
def test_every_traced_name_resolves(module, qual):
    """Each traced layer resolves the way the tracer's ``install`` reads
    it: ``Class.attr`` as an entry of the class's own ``__dict__``, any
    other name as a module attribute.  So deleting a traced name fails
    here, not only in perfbench's own tests."""
    holder = importlib.import_module(f"cone_sobolev.{module}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert attr in vars(getattr(holder, cls_name))
    else:
        assert callable(getattr(holder, qual, None))


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
    traced = {qual for _, qual in _wrapped()}
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


def test_public_entries_return_python_scalars(halfplane):
    """Every number and verdict these entries return is a Python float,
    int or bool, never a numpy scalar: reports and the benchmark's output
    check compare values by type, and an np.bool_ verdict counts there as
    a number."""
    from cone_sobolev import (LorentzParams, bernstein_lower_bound,
                              bump_superposition_field, certify_span,
                              construct_system, ell_q_norm, embedding_norm,
                              from_knots, gradient_density,
                              gradient_upper_certificate, hardy_check,
                              lorentz_norm_distributional,
                              lorentz_norm_rearranged,
                              lorentz_norms_distributional,
                              polya_szego_check, quotient, restricted_norm,
                              superadditivity_certificate)

    params = LorentzParams(2.0, 1.5, halfplane)
    star = params.star_params()
    prof = from_knots(halfplane, [(0.5, 1.0), (1.0, 0.7), (2.0, 0.3),
                                  (2.5, 0.0)])
    psi = gradient_density(prof)
    report = quotient(prof, params)
    values = {
        "rearranged": lorentz_norm_rearranged(prof, star),
        "distributional": lorentz_norm_distributional(psi, params),
        "batch": lorentz_norms_distributional([psi, prof], params),
        "hardy": hardy_check(prof, params),
        "restricted": restricted_norm(prof, star, 1.0),
        "ell_q": [ell_q_norm([1.0, -2.0], q) for q in (1.0, 1.5, math.inf)]
        + [ell_q_norm([], 2.0), ell_q_norm([0.0], 2.0)],
        "quotient": [getattr(report, f.name)
                     for f in dataclasses.fields(report)],
    }
    pair = LorentzParams(2.0, 1.0)
    system = construct_system(halfplane, pair, 2,
                              0.5 * embedding_norm(halfplane, pair), 0.05,
                              0.05)
    sweep = certify_span(system, 3, 4, 0)
    bound = bernstein_lower_bound(system, 4, 0)
    values.update({
        "superadditivity": superadditivity_certificate(system, [1.0, -0.5]),
        "gradient_upper": gradient_upper_certificate(system, [1.0, -0.5]),
        "certify_span": [*sweep[:2], *sweep[3:]]
        + [getattr(sweep.bound, f.name)
           for f in dataclasses.fields(sweep.bound)],
        "bernstein_lower_bound": [getattr(bound, f.name)
                                  for f in dataclasses.fields(bound)],
        "polya_szego": polya_szego_check(bump_superposition_field(
            halfplane, [(0.0, 3.0), (-1.5, 1.5)], (16, 16), 2, seed=0),
            LorentzParams(2.0, 1.0)),
    })
    wrong = {}
    for name, value in values.items():
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if type(v) not in (float, int, bool):
                wrong.setdefault(name, []).append(type(v).__name__)
    assert not wrong
