"""The acceptance suite: eleven executable claims about the library.

Each criterion is a standalone function returning a CriterionResult with a
pass verdict, the measured runtime, and the key numbers.  The pytest
suite asserts each one; the CLI ``selftest`` command runs the same
functions, so the repository's claims are executable either way.

All randomness is seeded and every tolerance is written next to the check
it guards.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bernstein import (absolute_continuity_witness, bernstein_lower_bound,
                        certify_span, construct_system, verify_system)
from .cones import QuadratureConfig, WeightedCone, ball_measure
from .errors import InternalConsistencyError
from .lorentz import (_HARDY_SLACK, LorentzParams, hardy_check,
                      lorentz_norm_distributional, lorentz_norm_rearranged)
from .profiles import alvino_profile, from_knots, scale
from .rearrangement import (SampledField, StepFunction1D, rearrangement)
from .sobolev import (_PS_TOL_FACTOR, _UPPER_SLACK, alvino_search,
                      bump_superposition_field, embedding_norm,
                      polya_szego_check, quotient)

__all__ = ["CriterionResult", "CRITERIA", "run_criteria", "result_line"]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    runtime: float
    budget: float | None
    details: dict = field(default_factory=dict)


def _timed(number: int, title: str, budget: float | None, fn) -> CriterionResult:
    start = time.perf_counter()
    passed, details = fn()
    runtime = time.perf_counter() - start
    if budget is not None and runtime > budget:
        passed = False
        details["runtime_exceeded"] = True
    return CriterionResult(number, title, passed, runtime, budget, details)


# -- shared fixtures ---------------------------------------------------------

_CONE_ORACLES = {
    "halfplane-x1": (dict(d=2, exponents=((0, 1.0),)), 2.0 / 3.0),
    "quadrant-x1x2": (dict(d=2, exponents=((0, 1.0), (1, 1.0))), 1.0 / 8.0),
    "disc-unweighted": (dict(d=2, exponents=(), extension_unweighted=True),
                        math.pi),
}


@lru_cache(maxsize=None)
def _product_cone(name: str) -> WeightedCone:
    spec, _ = _CONE_ORACLES[name]
    return WeightedCone.create(**spec)


@lru_cache(maxsize=None)
def _shell_system(m: int, lam_frac: float):
    cone = _product_cone("halfplane-x1")
    params = LorentzParams(2.0, 1.0, cone)
    lam = lam_frac * embedding_norm(cone, params)
    return construct_system(cone, params, m, lam, 0.05, 0.05)


def _random_affine_profile(cone: WeightedCone, rng: np.random.Generator):
    n = int(rng.integers(2, 11))
    ts = np.sort(rng.uniform(0.05, 4.0, n))
    while np.any(np.diff(ts) <= 0):
        ts = np.sort(rng.uniform(0.05, 4.0, n))
    drops = rng.uniform(0.05, 1.0, n - 1)
    vals = np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    return from_knots(cone, list(zip(ts, vals)))


# -- criteria ----------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Unit-ball sector measures against closed-form oracles, both routes."""

    def body():
        details, ok = {}, True
        for name, (spec, oracle) in _CONE_ORACLES.items():
            cone = WeightedCone.create(**spec)
            err = abs(cone.c_d - oracle)
            mc = WeightedCone.create(**spec, quad=QuadratureConfig(
                mode="monte-carlo", samples=10 ** 6, seed=0))
            dev = abs(mc.c_d - oracle)
            within = dev <= 3.0 * mc.c_d_error or dev == 0.0
            details[name] = {
                "oracle": oracle, "product": cone.c_d,
                "product_rel_err": err / oracle, "monte_carlo": mc.c_d,
                "product_error_bound": cone.c_d_error,
                "monte_carlo_std_err": mc.c_d_error,
            }
            ok = (ok and err <= cone.c_d_error <= 1e-13 * oracle
                  and within)
        return ok, details

    return _timed(1, "sector measure oracles (product rule and Monte Carlo)",
                  15.0, body)


def criterion_2() -> CriterionResult:
    """Sharp constant arithmetic on the half-plane at p = q = 1."""

    def body():
        cone = _product_cone("halfplane-x1")
        got = embedding_norm(cone, LorentzParams(1.0, 1.0, cone))
        want = 0.5 * 1.5 ** (1.0 / 3.0)
        rel = abs(got - want) / want
        return rel <= 1e-9, {"value": got, "oracle": want, "rel_err": rel}

    return _timed(2, "sharp constant oracle at p = q = 1", None, body)


def criterion_3() -> CriterionResult:
    """No random profile beats the constant: 2000 quotient evaluations."""

    def body():
        rng = np.random.default_rng(0)
        cases = [(name, 1.0, 1.0) for name in _CONE_ORACLES]
        cases.append(("quadrant-x1x2", 2.0, 1.0))
        details, ok = {}, True
        for name, p, q in cases:
            cone = _product_cone(name)
            params = LorentzParams(p, q, cone)
            bound = embedding_norm(cone, params) * (1.0 + _UPPER_SLACK)
            worst, passes = 0.0, 0
            for _ in range(500):
                prof = _random_affine_profile(cone, rng)
                val = quotient(prof, params).quotient
                worst = max(worst, val)
                passes += val <= bound
            details[f"{name} p={p} q={q}"] = {
                "trials": 500, "passes": passes, "worst_quotient": worst,
                "bound": bound,
            }
            ok = ok and passes == 500
        return ok, details

    return _timed(3, "quotient upper bound on random affine profiles",
                  10.0, body)


def criterion_4() -> CriterionResult:
    """The truncated power family climbs toward the constant."""

    def body():
        cone = _product_cone("halfplane-x1")
        params = LorentzParams(1.5, 1.0, cone)
        ratios = [1e2, 1e4, 1e8, 1e40]
        reports = alvino_search(cone, params, ratios)
        fracs = [r.ratio for r in reports]
        increasing = all(b > a for a, b in zip(fracs, fracs[1:]))
        ok = increasing and fracs[2] >= 0.9 and fracs[3] >= 0.99
        return ok, {
            "range_ratios": ratios,
            "quotient_fractions": fracs,
            "strictly_increasing": increasing,
        }

    return _timed(4, "maximizing family approaches the sharp constant",
                  1.0, body)


def criterion_5() -> CriterionResult:
    """Rearranged and distributional norms agree on random steps."""

    def body():
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 12))
            bps = np.cumsum(rng.uniform(0.05, 1.5, n))
            vals = rng.uniform(0.01, 5.0, n)
            f = StepFunction1D(tuple(bps), tuple(vals))
            p = float(rng.uniform(1.0, 4.0))
            q = float(rng.uniform(1.0, p))
            params = LorentzParams(p, q)
            dist = lorentz_norm_distributional(f, params)
            rear = lorentz_norm_rearranged(rearrangement(f), params)
            worst = max(worst, abs(dist - rear) / rear)
        return worst <= 1e-10, {"trials": 200, "worst_rel_gap": worst}

    return _timed(5, "two Lorentz norm routes agree on step functions",
                  None, body)


def criterion_6() -> CriterionResult:
    """Quotients are invariant under the scaling family."""

    def body():
        cone = _product_cone("halfplane-x1")
        params = LorentzParams(1.5, 1.0, cone)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            prof = _random_affine_profile(cone, rng)
            base = quotient(prof, params).quotient
            for kappa in (0.5, 2.0, 10.0):
                val = quotient(scale(prof, kappa), params).quotient
                worst = max(worst, abs(val - base) / base)
        return worst <= 1e-12, {"trials": 50, "kappas": [0.5, 2.0, 10.0],
                                "worst_rel_change": worst}

    return _timed(6, "scaling invariance of the quotient", None, body)


def _ascending_gradient_norm(field: SampledField,
                             params: LorentzParams) -> float:
    """Deliberately wrong rearrangement: ascending instead of descending."""
    order = np.argsort(field.gradient_magnitude.ravel(), kind="stable")
    vals = field.gradient_magnitude.ravel()[order]
    meas = field.cell_measures.ravel()[order]
    keep = vals > 0
    f = StepFunction1D(np.cumsum(meas[keep]), vals[keep])
    # the t-route moment without its nonincreasing check, which would
    # reject this input
    return f.moment(params.q / params.p, params.q) ** (1.0 / params.q)


def criterion_7() -> CriterionResult:
    """Rearrangement does not increase gradient norms, on sampled grids."""

    def body():
        cone = _product_cone("halfplane-x1")
        params = LorentzParams(2.0, 1.0, cone)
        box = [(0.0, 3.0), (-1.5, 1.5)]
        shape = (64, 64)
        fails, worst = 0, 0.0
        for seed in range(100):
            fieldv = bump_superposition_field(
                cone, box, shape, n_bumps=1 + seed % 4, seed=seed)
            lhs, rhs, ok = polya_szego_check(fieldv, params)
            fails += not ok
            if rhs > 0:
                worst = max(worst, lhs / rhs)
        # radial equality case: a nonincreasing radial profile
        prof = alvino_profile(cone, params.p_star, 0.05 * cone.c_d,
                              ball_measure(cone, 2.0))
        radial = SampledField.from_function(
            cone, [(0.0, 2.2), (-2.2, 2.2)], shape,
            lambda pts: prof.radial_value(np.linalg.norm(pts, axis=1)))
        lhs_eq, rhs_eq, _ = polya_szego_check(radial, params)
        h = radial.max_cell_diameter
        equality_gap = abs(lhs_eq - rhs_eq) / rhs_eq
        # mutation: an ascending rearrangement must break the inequality
        rhs_mut = _ascending_gradient_norm(radial, params)
        mutation_fails = not (lhs_eq <= rhs_mut * (1.0 + _PS_TOL_FACTOR * h))
        ok = (fails == 0 and equality_gap <= _PS_TOL_FACTOR * h
              and mutation_fails)
        return ok, {
            "random_fields": 100, "failures": fails,
            "worst_lhs_over_rhs": worst,
            "equality_rel_gap": equality_gap, "grid_h": h,
            "mutated_check_fails": mutation_fails,
        }

    return _timed(7, "gradient norms never grow under rearrangement",
                  60.0, body)


def criterion_8() -> CriterionResult:
    """Hardy inequality: exact indicator oracle and random steps."""

    def body():
        cone = _product_cone("halfplane-x1")
        params = LorentzParams(1.0, 1.0, cone)  # p* = 3/2, q = 1
        indicator = StepFunction1D((1.0,), (1.0,))
        lhs, rhs = hardy_check(indicator, params)
        oracle_ok = abs(lhs - 0.9) <= 1e-12 and abs(rhs - 0.9) <= 1e-12
        rng = np.random.default_rng(3)
        params2 = LorentzParams(2.0, 1.0, cone)
        worst = 0.0
        for k in range(100):
            n = int(rng.integers(1, 10))
            bps = np.cumsum(rng.uniform(0.05, 1.0, n))
            vals = rng.uniform(0.01, 3.0, n)
            f = StepFunction1D(tuple(bps), tuple(vals))
            l, r = hardy_check(f, params if k % 2 else params2)
            worst = max(worst, l / r)
        return oracle_ok and worst <= 1.0 + _HARDY_SLACK, {
            "indicator_lhs": lhs, "indicator_rhs": rhs,
            "random_trials": 100, "worst_lhs_over_rhs": worst,
        }

    return _timed(8, "Hardy inequality oracle and random steps", None, body)


def criterion_9() -> CriterionResult:
    """Six-shell system: invariants, certificates, certified lower bound."""

    def body():
        system = _shell_system(6, 0.9)
        verify_system(system)
        sweep = certify_span(system, 5000, 5000, 0)
        bound = sweep.bound
        formula = system.lam / 1.05 - 0.05
        ok = (sweep.super_failures == 0 and sweep.grad_failures == 0
              and abs(bound.certified - formula) <= 1e-12
              and bound.empirical_minimum >= bound.certified)
        return ok, {
            "lambda": system.lam,
            "superadditivity_failures": sweep.super_failures,
            "gradient_upper_failures": sweep.grad_failures,
            "superadditivity_margin": sweep.super_margin,
            "gradient_upper_margin": sweep.grad_margin,
            "certified": bound.certified,
            "empirical_minimum": bound.empirical_minimum,
            "directions": bound.directions,
        }

    return _timed(9, "shell system certificates and Bernstein bound",
                  30.0, body)


def criterion_10() -> CriterionResult:
    """Restricted norms vanish along the twelve-shell supports."""

    def body():
        system = _shell_system(12, 0.9)
        cone = system.cone
        g = alvino_profile(cone, system.params.p_star, 1e-8 * cone.c_d,
                           cone.c_d)
        norms = absolute_continuity_witness(system, g)
        g_norm = lorentz_norm_rearranged(g, system.params.star_params())
        decreasing = all(a > b for a, b in zip(norms, norms[1:]))
        ok = decreasing and norms[-1] <= 1e-3 * g_norm
        return ok, {
            "witness_norm": g_norm, "restricted_norms": norms,
            "strictly_decreasing": decreasing,
            "final_fraction": norms[-1] / g_norm,
        }

    return _timed(10, "absolute continuity along shrinking supports",
                  None, body)


def criterion_11() -> CriterionResult:
    """Certified bounds march toward the constant in lambda, for every m."""

    def body():
        details, ok = {}, True
        prev_bound = 0.0
        for frac in (0.5, 0.7, 0.9):
            system = _shell_system(6, frac)
            formula = system.lam / 1.05 - 0.05
            per_m = []
            for m in range(1, 7):
                sub = system.prefix(m)
                verify_system(sub)
                bound = bernstein_lower_bound(sub, directions=200, seed=5)
                agree = abs(bound.certified - formula) <= 1e-12
                per_m.append({
                    "m": m, "certified": bound.certified,
                    "empirical_minimum": bound.empirical_minimum,
                })
                ok = ok and agree and \
                    bound.empirical_minimum >= bound.certified
            details[f"lambda_fraction={frac}"] = {
                "certified": formula, "per_m": per_m,
            }
            ok = ok and formula > prev_bound
            prev_bound = formula
        return ok, details

    return _timed(11, "lower bounds independent of m, monotone in lambda",
                  None, body)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_criteria(numbers=None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), in order."""
    if numbers is None:
        numbers = sorted(CRITERIA)
    results = []
    for n in numbers:
        if n not in CRITERIA:
            raise InternalConsistencyError(f"unknown criterion {n}")
        results.append(CRITERIA[n]())
    return results


def result_line(result: CriterionResult) -> str:
    verdict = "PASS" if result.passed else "FAIL"
    return (f"criterion {result.number:2d} [{verdict}] "
            f"{result.title} ({result.runtime:.2f}s)")
