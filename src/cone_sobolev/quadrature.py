"""Deterministic adaptive Gauss-Legendre integration.

The adaptive integrator below is the t-route's numeric fallback, used
whenever a segment moment (or a Hardy tail) has no closed form; the
lambda route has its own tanh-sinh rule in ``tanhsinh`` and never calls
it.  Its callers build their integrands with ``substitute_origin``, the
one place the origin-regularizing substitution t = u^(1/m) is written.
Design constraints:

* deterministic: no randomness, panel decisions depend only on relative
  error estimates, so repeated runs agree bit for bit;
* scale equivariant: panels are split at midpoints, or geometrically when a
  panel spans many octaves, so rescaling the integrand domain by a constant
  reproduces the same panel tree and the result scales exactly;
* endpoint tolerant: integrable algebraic endpoint behaviour is handled by
  panel refinement toward the endpoint (depth-limited bisection), after
  ``substitute_origin`` has made an algebraic singularity at 0 bounded.

Error control compares a 32 point rule against an embedded 16 point rule on
each panel; panels are split, worst first, until the summed discrepancy
falls below the relative tolerance times the integral estimate; a fixed
budget of 8192 splits (``_MAX_PANELS``) bounds the work.  Both sums
are kept as running totals and recomputed exactly before any return, so
the returned value is always the exact sum over the final panels.  There is
no fixed-rule path: every fallback integral carries this error estimate.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Callable

import numpy as np

from .errors import DivergentIntegralError, NumericalError

_MAX_PANELS = 8192

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached by order."""
    got = _NODE_CACHE.get(order)
    if got is None:
        got = np.polynomial.legendre.leggauss(order)
        _NODE_CACHE[order] = got
    return got


def substitute_origin(h: Callable[[np.ndarray], np.ndarray], gamma: float,
                      t0: float, t1: float, order: float
                      ) -> tuple[Callable[[np.ndarray], np.ndarray],
                                 float, float]:
    """Integrand and interval for integral over (t0, t1) of t^(gamma-1) h(t).

    ``order`` is the local algebraic order L of h at 0 (h(t) ~ t^L).  For
    t0 > 0 the integrand is returned as is.  Otherwise t = u^(1/m) with
    m = gamma + L turns it into (1/m) u^(gamma/m - 1) h(u^(1/m)) on
    (0, t1^m), which is bounded at u = 0; m <= 0 means the integral
    diverges there and raises DivergentIntegralError.
    """
    if t0 > 0.0:
        return (lambda t: t ** (gamma - 1.0) * h(t)), t0, t1
    m = gamma + order
    if m <= 0.0:
        raise DivergentIntegralError(
            f"integral diverges at the left endpoint of (0, {t1})")

    def g(u: np.ndarray) -> np.ndarray:
        return (1.0 / m) * u ** (gamma / m - 1.0) * h(u ** (1.0 / m))

    return g, 0.0, t1 ** m


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                       rel_tol: float = 1e-12) -> float:
    """Integrate f over [a, b] to a relative tolerance.

    f must accept a 1-d numpy array and return values of the same shape.
    The error target never drops below 1e-300, so an integral that is
    genuinely zero converges without infinite refinement.
    Raises NumericalError when the budget of _MAX_PANELS splits is
    exhausted before the tolerance is met.
    """
    if not (b > a):
        return 0.0
    x16, w16 = gauss_nodes(16)
    x32, w32 = gauss_nodes(32)

    def both(lo: float, hi: float) -> tuple[float, float]:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        c = float(half * np.dot(w32, f(mid + half * x32)))
        r = float(half * np.dot(w16, f(mid + half * x16)))
        return c, abs(c - r)

    coarse, err = both(a, b)
    if err <= max(rel_tol * abs(coarse), 1e-300):
        return coarse
    # live panels (lo, hi, value, err, depth) keyed by insertion number;
    # the dict keeps insertion order, so exact sums run over the panels in
    # the order they were made.  The heap of (-err, key) yields the worst
    # panel, the earliest one on ties.  Running totals decide when to
    # recompute the exact sums: each split costs O(log n), not O(n).
    panels: dict[int, tuple[float, float, float, float, int]] = {}
    heap: list[tuple[float, int]] = []
    keys = itertools.count()
    run_total = run_err = 0.0
    unresolved = 0          # panels still below the depth cap

    def add(lo: float, hi: float, value: float, err: float,
            depth: int) -> None:
        nonlocal run_total, run_err, unresolved
        key = next(keys)
        panels[key] = (lo, hi, value, err, depth)
        heapq.heappush(heap, (-err, key))
        run_total += value
        run_err += err
        unresolved += depth < 52

    def exact_sums() -> tuple[float, float]:
        return (sum(p[2] for p in panels.values()),
                sum(p[3] for p in panels.values()))

    add(a, b, coarse, err, 0)
    peak_err = err          # largest running error since the last resync
    for _ in range(_MAX_PANELS):
        if (run_err <= max(rel_tol * abs(run_total), 1e-300)
                or run_err < 1e-3 * peak_err):
            # running sums drift by rounding relative to their past size:
            # recompute them before a verdict and after every thousandfold
            # drop, so the drift never reaches the tolerance
            run_total, run_err = exact_sums()
            peak_err = run_err
            if run_err <= max(rel_tol * abs(run_total), 1e-300):
                return run_total
        peak_err = max(peak_err, run_err)
        # split the worst panel; geometric split keeps scale equivariance
        # when a panel spans many octaves, midpoint split otherwise
        _, key = heapq.heappop(heap)
        lo, hi, value, err, depth = panels.pop(key)
        run_total -= value
        run_err -= err
        unresolved -= depth < 52
        if depth >= 52:
            # endpoint-singular leftovers below resolvable width: accept
            add(lo, hi, value, err, 99)
            if not unresolved:
                return exact_sums()[0]
            continue
        if lo > 0.0 and hi / lo > 64.0:
            # lo * hi underflows for panels below about 1e-154
            mid = lo * hi
            mid = (math.sqrt(mid) if mid >= sys.float_info.min
                   else math.sqrt(lo) * math.sqrt(hi))
        else:
            mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            add(lo, hi, value, err, 99)
            continue
        add(lo, mid, *both(lo, mid), depth + 1)
        add(mid, hi, *both(mid, hi), depth + 1)
    total, total_err = exact_sums()
    if total_err <= max(10.0 * rel_tol * abs(total), 1e-300):
        return total
    raise NumericalError(
        f"adaptive quadrature did not converge on [{a}, {b}]: "
        f"estimate {total:.6e}, residual error {total_err:.3e}")
