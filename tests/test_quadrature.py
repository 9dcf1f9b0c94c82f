"""Adaptive Gauss-Legendre quadrature and its origin substitution."""

import math

import mpmath
import numpy as np
import pytest

from cone_sobolev.errors import DivergentIntegralError, NumericalError
from cone_sobolev.quadrature import integrate_adaptive, substitute_origin


def test_thousands_of_panels_meet_the_tolerance():
    calls = []

    def f(t):
        calls.append(t.size)
        return 2.0 + np.cos(3000.0 * t)

    got = integrate_adaptive(f, 0.0, 10.0, rel_tol=1e-12)
    with mpmath.workdps(40):
        want = 20 + mpmath.sin(mpmath.mpf(30000)) / 3000
    # two rule evaluations per panel made
    assert len(calls) > 2 * 2000
    assert abs(got - want) <= 1e-12 * abs(want)


def test_panel_budget_exhaustion_raises():
    # about 480k oscillations: far more than the fixed 8192-panel budget
    # can resolve
    with pytest.raises(NumericalError):
        integrate_adaptive(lambda t: 2.0 + np.cos(3e5 * t), 0.0, 10.0)


@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_origin_substitution_matches_high_precision(t0):
    # h(t) = t^-0.7 sqrt(1 + t) has local order L = -0.7 at the origin;
    # with gamma = 1.2 the integrand t^-0.5 sqrt(1 + t) is singular there
    gamma, order = 1.2, -0.7
    f, a, b = substitute_origin(lambda t: t ** order * np.sqrt(1.0 + t),
                                gamma, t0, 2.0, order)
    got = integrate_adaptive(f, a, b, rel_tol=1e-12)
    with mpmath.workdps(40):
        want = mpmath.quad(
            lambda t: t ** (mpmath.mpf(gamma) - 1 + mpmath.mpf(order))
            * mpmath.sqrt(1 + t), [t0, 2])
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("gamma", [0.7, 0.5])
def test_origin_substitution_rejects_divergence(gamma):
    with pytest.raises(DivergentIntegralError):
        substitute_origin(lambda t: t ** -0.7, gamma, 0.0, 1.0, -0.7)


def test_geometric_split_of_panels_below_1e154():
    # the geometric midpoint sqrt(lo * hi) of a panel on [s, 1000 s]
    # underflows to 0 at s = 1e-170; the panel must still be split, not
    # accepted unconverged
    s = 1e-170
    got = integrate_adaptive(lambda t: 1.0 / t, s, 1000.0 * s)
    assert abs(got - math.log(1000.0)) <= 1e-12 * math.log(1000.0)
