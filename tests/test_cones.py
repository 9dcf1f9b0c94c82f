"""Weighted cone measures: oracles, homogeneity, admissibility probes."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_sobolev import (BUILTIN_CONE_NAMES, DomainError,
                          QuadratureConfig,
                          ValidationError, WeightedCone, ball_measure,
                          builtin_cone, concavity_probe,
                          unit_ball_measure, weight_eval)

# closed forms: integrate the monomial over the unit sector
ORACLES = {
    "halfplane-x1": 2.0 / 3.0,
    "quadrant-x1x2": 1.0 / 8.0,
    "disc-unweighted": math.pi,
}


@pytest.mark.parametrize("name", BUILTIN_CONE_NAMES)
def test_product_rule_matches_oracle(name):
    cone = builtin_cone(name)
    oracle = ORACLES[name]
    assert abs(cone.c_d - oracle) / oracle <= 2e-15
    assert abs(cone.c_d - oracle) <= cone.c_d_error <= 1e-13 * oracle


def _sector_quadrature(d, exps, theta_range, phi_range=None):
    """mu(B_1 cap S) at 40 digits by angular quadrature.

    Polar (d = 2) or spherical (d = 3) coordinates with x_0 = cos(theta)
    sin(phi), x_1 = sin(theta) sin(phi), x_2 = cos(phi); the radial factor
    integrates to 1/D.
    """
    power = [mpmath.mpf(0)] * 3
    for axis, p in exps:
        power[axis] = mpmath.mpf(p)
    with mpmath.workdps(40):
        value = mpmath.quad(lambda t: mpmath.cos(t) ** power[0]
                            * mpmath.sin(t) ** power[1], theta_range)
        if d == 3:
            value *= mpmath.quad(
                lambda f: mpmath.sin(f) ** (1 + power[0] + power[1])
                * mpmath.cos(f) ** power[2], phi_range)
        return value / (d + sum(power))


HALF_PI = mpmath.pi / 2


@pytest.mark.parametrize("d, exps, ranges", [
    (2, [(0, 0.37)], [(-HALF_PI, HALF_PI)]),
    (2, [(0, 1.3), (1, 2.6)], [(0, HALF_PI)]),
    (3, [(0, 1.0)], [(-HALF_PI, HALF_PI), (0, mpmath.pi)]),
    (3, [(0, 0.5), (2, 2.7)], [(-HALF_PI, HALF_PI), (0, HALF_PI)]),
])
def test_closed_form_matches_sector_quadrature(d, exps, ranges):
    cone = WeightedCone.create(d, exps)
    exact = _sector_quadrature(d, exps, *ranges)
    err = abs(cone.c_d - exact)
    assert err <= 2e-15 * exact
    assert err <= cone.c_d_error


def _gamma_product_40(d, exps):
    power = {axis: mpmath.mpf(p) for axis, p in exps}
    with mpmath.workdps(40):
        top = mpmath.fprod(mpmath.gamma((power.get(i, 0) + 1) / 2)
                           for i in range(d))
        big_d = d + sum(power.values())
        return top / (2 ** len(exps) * mpmath.gamma(big_d / 2 + 1))


def test_error_bound_covers_the_closed_form_on_random_cones():
    rng = random.Random(20261018)
    specs = [(2, [(0, 400.0)])]
    for _ in range(1200):
        d = rng.randint(2, 8)
        axes = rng.sample(range(d), rng.randint(0, d))
        specs.append((d, [(a, 10.0 ** rng.uniform(-3.0, 2.0))
                          for a in axes]))
    checked = 0
    for d, exps in specs:
        cone = WeightedCone.create(d, exps, extension_unweighted=not exps)
        if cone.c_d < sys.float_info.min:
            continue  # underflowed: no relative accuracy to check
        checked += 1
        assert abs(cone.c_d - _gamma_product_40(d, exps)) <= cone.c_d_error, \
            (d, exps)
    assert checked >= 1000


def test_library_imports_without_scipy():
    src = Path(__import__("cone_sobolev").__file__).resolve().parents[1]
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from cone_sobolev import BUILTIN_CONE_NAMES, builtin_cone\n"
            "print([builtin_cone(n).c_d for n in BUILTIN_CONE_NAMES])\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", BUILTIN_CONE_NAMES)
def test_monte_carlo_within_three_standard_errors(name):
    cone = builtin_cone(name)
    cfg = QuadratureConfig(mode="monte-carlo", samples=200_000, seed=7)
    value, err = unit_ball_measure(cone, cfg)
    deviation = abs(value - ORACLES[name])
    assert deviation <= 3.0 * err or deviation == 0.0


def test_monte_carlo_partitioning_is_reproducible(halfplane):
    cfg = QuadratureConfig(mode="monte-carlo", samples=50_000, seed=11)
    assert unit_ball_measure(halfplane, cfg) == unit_ball_measure(
        halfplane, cfg)


def test_effective_dimension_bookkeeping(halfplane, quadrant, disc):
    assert (halfplane.alpha, halfplane.big_d) == (1.0, 3.0)
    assert (quadrant.alpha, quadrant.big_d) == (2.0, 4.0)
    assert (disc.alpha, disc.big_d) == (0.0, 2.0)
    assert disc.extension_unweighted


@given(r=st.floats(min_value=1e-3, max_value=1e3))
def test_ball_measure_homogeneity(r):
    cone = builtin_cone("halfplane-x1")
    assert ball_measure(cone, r) == pytest.approx(
        cone.c_d * r ** cone.big_d, rel=1e-14)
    assert cone.radius_of_measure(ball_measure(cone, r)) == pytest.approx(
        r, rel=1e-12)


def test_weight_eval_monomial_and_boundary(halfplane):
    assert weight_eval(halfplane, [2.0, -1.0]) == 2.0
    assert weight_eval(halfplane, [0.0, 1.0]) == 0.0
    vals = weight_eval(halfplane, np.array([[1.0, 0.0], [0.0, 0.0],
                                            [0.25, 3.0]]))
    assert np.allclose(vals, [1.0, 0.0, 0.25])


def test_weight_eval_rejects_points_outside_the_closure(halfplane):
    with pytest.raises(DomainError):
        weight_eval(halfplane, [-0.5, 1.0])
    with pytest.raises(ValidationError):
        weight_eval(halfplane, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("name", BUILTIN_CONE_NAMES)
def test_concavity_probe_accepts_monomial_weights(name):
    report = concavity_probe(builtin_cone(name), trials=500, seed=1)
    assert report.passed
    assert report.violations == 0


def test_concavity_probe_accepts_fractional_powers():
    cone = WeightedCone.create(3, [(0, 0.5), (2, 1.5)])
    report = concavity_probe(cone, trials=500, seed=2)
    assert report.passed


def test_concavity_probe_rejects_non_concave_weight():
    # w = x1^2 / x2 has alpha = 1 and is convex on the quadrant, not
    # concave: an inadmissible weight, which ``create`` refuses, so the
    # cone is built field by field
    with pytest.raises(ValidationError):
        WeightedCone.create(2, [(0, 2.0), (1, -1.0)])
    cone = WeightedCone(2, ((0, 2.0), (1, -1.0)), 1.0, 3.0, math.nan,
                        math.nan)
    report = concavity_probe(cone, trials=500, seed=3)
    assert not report.passed
    assert report.violations > 0
    assert report.worst_margin < -1e-6


def test_serialization_roundtrip(quadrant):
    clone = WeightedCone.from_json_dict(quadrant.to_json_dict())
    assert clone.d == quadrant.d
    assert clone.exponents == quadrant.exponents
    assert clone.c_d == pytest.approx(quadrant.c_d, rel=1e-12)


@pytest.mark.parametrize("spec", [
    dict(d=1),
    dict(d=2, exponents=[(0, 1.0), (0, 2.0)]),
    dict(d=2, exponents=[(2, 1.0)]),
    dict(d=2, exponents=[(0, 0.0)]),
    dict(d=2, exponents=[(0, -1.0)]),
])
def test_invalid_cone_specs_are_rejected(spec):
    with pytest.raises(ValidationError):
        WeightedCone.create(**spec)


def test_unweighted_cone_requires_extension_flag():
    with pytest.raises(ValidationError):
        WeightedCone.create(2, [])
    assert WeightedCone.create(2, [], extension_unweighted=True).alpha == 0.0


@pytest.mark.parametrize("cfg", [
    dict(mode="trapezoid"),
    dict(mode="monte-carlo", samples=-1),
    dict(samples=0),
])
def test_quadrature_config_validation(cfg):
    with pytest.raises(ValidationError):
        QuadratureConfig(**cfg)


@settings(max_examples=10, deadline=None)
@given(power=st.floats(min_value=0.25, max_value=3.0),
       seed=st.integers(min_value=0, max_value=100))
def test_random_weighted_halfspace_routes_agree(power, seed):
    """Product rule and Monte Carlo agree on arbitrary single-axis powers."""
    cone = WeightedCone.create(2, [(0, power)])
    cfg = QuadratureConfig(mode="monte-carlo", samples=40_000, seed=seed)
    mc, err = unit_ball_measure(cone, cfg)
    assert abs(mc - cone.c_d) <= 4.0 * err
