"""Adaptive Gauss-Legendre quadrature: accuracy with many panels."""

import mpmath
import numpy as np
import pytest

from cone_sobolev.errors import NumericalError
from cone_sobolev.quadrature import integrate_adaptive


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
    with pytest.raises(NumericalError):
        integrate_adaptive(lambda t: 2.0 + np.cos(3000.0 * t), 0.0, 10.0,
                           max_panels=500)
