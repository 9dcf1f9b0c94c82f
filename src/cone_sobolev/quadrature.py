"""Deterministic adaptive Gauss-Kronrod integration.

The adaptive integrator below is the t-route's numeric fallback, used
for the segment moments that are Appell F1 integrals (a law off the
origin at non-integer q and gamma), for a moment whose incomplete beta
series cannot certify its bound, and for a Hardy tail without a closed
form; the lambda route has its own tanh-sinh rule in ``tanhsinh`` and
never calls it.  Its callers build their integrands with
``substitute_origin``, the one place the origin-regularizing
substitution t = u^(1/m) is written.
Design constraints:

* deterministic: no randomness, panel decisions depend only on relative
  error estimates, so repeated runs agree bit for bit;
* scale equivariant: panels are split at midpoints, or geometrically when a
  panel spans many octaves, so rescaling the integrand domain by a constant
  reproduces the same panel tree and the result scales exactly;
* endpoint tolerant: integrable algebraic endpoint behaviour is handled by
  panel refinement toward the endpoint (depth-limited bisection), after
  ``substitute_origin`` has made an algebraic singularity at 0 bounded.

Each panel is ruled by the nested Gauss-Kronrod pair of QUADPACK's QAG
(Piessens et al., 1983): its value is the 31 point Kronrod rule K31 and
its error estimate |K31 - G15|, where the 15 point Gauss rule reuses 15 of
the same 31 integrand values.  The worst panel is split, in one integrand
call on 62 nodes, until the exact sums over the live panels (taken in the
order the panels were made, after every split) meet the relative
tolerance, within a budget of 8192 splits (``_MAX_PANELS``); an integral
that spends the budget, or whose worst panel cannot be split, raises
NumericalError instead of returning an unconverged value.  A split
scans the panel list, so only an integral that spends the budget is
quadratic: no grid check, affine profile, alvino sweep or integer-q shell
system reaches this rule.  Every fallback integral carries this error
estimate; there is no fixed-rule path.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import DivergentIntegralError, NumericalError

_MAX_PANELS = 8192
# the relative tolerance of every integral: a fixed accuracy contract, not
# a setting (the lambda route's rule in ``tanhsinh`` states the same)
_REL_TOL = 1e-12

# QUADPACK qk31: Kronrod abscissae on [0, 1) descending, their weights, and
# the weights of the Gauss nodes among them (every second abscissa, from
# the second; the last is the centre).  Literals, not an eigen-solve, so
# the tables are the same to the bit on every machine.
_XGK = (0.998002298693397060285172840152271, 0.987992518020485428489565718586613,
        0.967739075679139134257347978784337, 0.937273392400705904307758947710209,
        0.897264532344081900882509656454496, 0.848206583410427216200648320774217,
        0.790418501442465932967649294817947, 0.724417731360170047416186054613938,
        0.650996741297416970533735895313275, 0.570972172608538847537226737253911,
        0.485081863640239680693655740232351, 0.394151347077563369897207370981045,
        0.299180007153168812166780024266389, 0.201194093997434522300628303394596,
        0.101142066918717499027074231447392, 0.0)
_WGK = (0.005377479872923348987792051430128, 0.015007947329316122538374763075807,
        0.025460847326715320186874001019653, 0.035346360791375846222037948478360,
        0.044589751324764876608227299373280, 0.053481524690928087265343147239430,
        0.062009567800670640285139230960803, 0.069854121318728258709520077099147,
        0.076849680757720378894432777482659, 0.083080502823133021038289247286104,
        0.088564443056211770647275443693774, 0.093126598170825321225486872747346,
        0.096642726983623678505179907627589, 0.099173598721791959332393173484603,
        0.100769845523875595044946662617570, 0.101330007014791549017374792767493)
_WG = (0.030753241996117268354628393577204, 0.070366047488108124709267416450667,
       0.107159220467171935011869546685869, 0.139570677926154314447804794511028,
       0.166269205816993933553200860481209, 0.186161000015562211026800561866423,
       0.198431485327111576456118326443839, 0.202578241925561272880620199967519)

# the 31 Kronrod nodes on [-1, 1] ascending, with the Gauss nodes at the
# odd indices; the weight matrix holds K31 in column 0 and G15 in column 1
_K31_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_K31_WEIGHTS = np.zeros((31, 2))
_K31_WEIGHTS[:, 0] = _WGK[:-1] + _WGK[::-1]
_K31_WEIGHTS[1::2, 1] = _WG[:-1] + _WG[::-1]

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


def _rule_panels(f: Callable[[np.ndarray], np.ndarray],
                 ends: tuple[float, ...]) -> list[tuple[float, float]]:
    """(K31 value, |K31 - G15|) of each panel between consecutive ends.

    One call of f on 31 nodes per panel.  Each node and each panel sum is
    computed as it would be for that panel alone: a stacked matmul rules
    every panel by itself, where one (n, 31) product would sum a panel's
    values in an order that depends on n.
    """
    half = [0.5 * (hi - lo) for lo, hi in zip(ends, ends[1:])]
    x = np.multiply.outer(half, _K31_NODES)
    x += np.array([0.5 * (lo + hi) for lo, hi in zip(ends, ends[1:])])[:, None]
    sums = (f(x.ravel()).reshape(-1, 1, 31) @ _K31_WEIGHTS).reshape(-1, 2)
    return [(h * k, abs(h * k - h * g))
            for h, (k, g) in zip(half, sums.tolist())]


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float,
                       b: float) -> float:
    """Integrate f over [a, b] to the relative tolerance _REL_TOL.

    f must accept a 1-d numpy array and return values of the same shape.
    Precondition: f is smooth on the open interval (a, b), which the
    t-route's integrands are once ``substitute_origin`` has been applied.
    An interior kink can make a panel's |K31 - G15| vanish and a wrong
    value pass as converged; the strict xfail
    ``test_kinks_meet_the_tolerance`` pins this with |sin t| on [0, 300].
    Panels are ruled by the nested G15/K31 pair; f is called once on 31
    nodes for [a, b] and once on 62 nodes per split, at most
    _MAX_PANELS + 1 times in all.  The exact sums are taken after every
    split, and the worst panel (the earliest of equal errors) is split
    next, at O(n) scans over n live panels.
    The error target never drops below 1e-300, so an integral that is
    genuinely zero converges without infinite refinement.
    A panel is split at most 52 times.  When the worst panel cannot be
    split (at that depth, or with no float strictly inside), or the budget
    of _MAX_PANELS splits is spent, NumericalError is raised, naming the
    panel that could not be split: a value is returned only once its
    error estimate meets the tolerance.
    """
    if not (b > a):
        return 0.0
    # live panels (lo, hi, depth) in the order they were made, with their
    # values and error estimates in parallel lists: the exact sums run over
    # the panels in that order, and the worst panel is the first maximum
    [(value, err)] = _rule_panels(f, (a, b))
    panels, values, errs = [(a, b, 0)], [value], [err]
    stuck = ""
    for split in range(_MAX_PANELS + 1):
        total, total_err = sum(values), sum(errs)
        if total_err <= max(_REL_TOL * abs(total), 1e-300):
            return total
        if split == _MAX_PANELS:
            break   # the budget of splits is spent
        # split the worst panel; geometric split keeps scale equivariance
        # when a panel spans many octaves, midpoint split otherwise
        worst = errs.index(max(errs))
        lo, hi, depth = panels[worst]
        if lo > 0.0 and hi / lo > 64.0:
            # lo * hi underflows for panels below about 1e-154
            mid = lo * hi
            mid = (math.sqrt(mid) if mid >= sys.float_info.min
                   else math.sqrt(lo) * math.sqrt(hi))
        else:
            mid = 0.5 * (lo + hi)
        if depth >= 52 or not lo < mid < hi:
            # the worst panel cannot be refined: no split can help
            stuck = f"; panel [{lo}, {hi}] cannot be split"
            break
        del panels[worst], values[worst], errs[worst]
        (left, left_err), (right, right_err) = _rule_panels(f, (lo, mid, hi))
        panels += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
        values += [left, right]
        errs += [left_err, right_err]
    raise NumericalError(
        f"adaptive quadrature did not converge on [{a}, {b}]: "
        f"estimate {total:.6e}, residual error {total_err:.3e}{stuck}")
