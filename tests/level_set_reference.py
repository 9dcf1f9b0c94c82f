"""The object event sweep over piece value ranges: the reference builder.

``sweep`` builds the lambda-strata of a piece list the slow way, with one
``Law`` per term and one ``Stratum`` per stratum, keeping the straddle
constants and term coefficients in running Shewchuk expansions.  It
shares no strata code with ``segments.level_set_strata``, which the tests
check against it; ``rows_of`` turns its strata into the rule's table.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from cone_sobolev import ValidationError
from cone_sobolev.segments import (Law, Strata, level_set_qth_powers)
from cone_sobolev.tanhsinh import Rows


class _Accumulator:
    """Exact running sum kept as a Shewchuk partials expansion.

    Values that enter and later leave the sweep can differ by fifty or
    more orders of magnitude, and survivors can be smaller than one ulp
    of the largest transient; the partials list represents the sum
    exactly at every scale at once (the incremental form of math.fsum).
    """

    __slots__ = ("partials",)

    def __init__(self) -> None:
        self.partials: list[float] = []

    def add(self, x: float) -> None:
        ps = self.partials
        i = 0
        for y in ps:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo != 0.0:
                ps[i] = lo
                i += 1
            x = hi
        ps[i:] = [x]

    @property
    def value(self) -> float:
        return math.fsum(self.partials)


@dataclass(frozen=True)
class Stratum:
    """m(lam) = const + sum of term laws on (lam0, lam1)."""

    lam0: float
    lam1: float
    const: float
    terms: tuple[Law, ...]

    def distribution(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.full(lam.shape if lam.shape else (1,), self.const)
        for term in self.terms:
            out = out + np.asarray(term.value(np.atleast_1d(lam)))
        return out if lam.shape else float(out[0])


def _evaluation_scale(p) -> float:
    law = p.law
    if law.is_constant:
        return abs(law.constant_value())
    scale = abs(law.shift)
    for t in (p.t0, p.t1):
        if math.isinf(t):
            continue
        arg = law.orient * (t - law.base)
        if arg <= 0.0:
            continue
        term = abs(law.coef) * arg ** law.expo
        if math.isfinite(term):
            scale = max(scale, term)
    return scale


def sweep(pieces) -> tuple[list[Stratum], float]:
    """The strata and lam_max of a nonnegative piece list.

    A piece is fully above the level until lam reaches its lower value,
    straddles it up to its upper value (contributing a shifted inverse
    law), then drops out.  Fully-above mass is read off suffix sums over
    the pieces sorted by lower value.
    """
    pieces = [p for p in pieces if not (
        p.law.is_constant and p.law.constant_value() == 0.0)]
    cuts = {0.0}
    lows: list[float] = []
    lengths: list[float] = []
    events: dict[float, list] = {}
    has_inf = False
    init: list[tuple[float, tuple, float]] = []
    for p in pieces:
        lo, hi = p.value_range()
        if lo < -1e-12 * max(1.0, _evaluation_scale(p)):
            raise ValidationError("level sets require a nonnegative function")
        lo = max(lo, 0.0)
        cuts.add(lo)
        lows.append(lo)
        lengths.append(p.length)
        if math.isinf(hi):
            has_inf = True
        else:
            cuts.add(hi)
        if p.law.is_constant:
            continue
        inv = p.law.inverse()
        key = (inv.expo, inv.base, inv.orient)
        if p.law.monotone_direction() < 0:
            straddle, d_coef = inv.shift - p.t0, inv.coef
        else:
            straddle, d_coef = p.t1 - inv.shift, -inv.coef
        if lo <= 0.0:
            init.append((straddle, key, d_coef))
        else:
            events.setdefault(lo, []).append((straddle, key, d_coef, +1.0))
        if not math.isinf(hi):
            events.setdefault(hi, []).append((straddle, key, d_coef, -1.0))
    order = sorted(range(len(lows)), key=lambda i: lows[i])
    sorted_lows = [lows[i] for i in order]
    suffix = np.concatenate([
        np.cumsum([lengths[i] for i in reversed(order)])[::-1], [0.0]])
    finite = sorted(cuts)
    lam_max = math.inf if has_inf else finite[-1]
    bounds = list(zip(finite[:-1], finite[1:]))
    if has_inf:
        bounds.append((finite[-1], math.inf))
    strata: list[Stratum] = []
    acc_const = _Accumulator()
    coef_accs: dict[tuple, _Accumulator] = {}
    key_counts: dict[tuple, int] = {}
    straddling = 0
    for straddle, key, d_coef in init:
        acc_const.add(straddle)
        coef_accs.setdefault(key, _Accumulator()).add(d_coef)
        key_counts[key] = key_counts.get(key, 0) + 1
        straddling += 1
    for lam0, lam1 in bounds:
        for straddle, key, d_coef, sign in events.get(lam0, ()):
            acc_const.add(sign * straddle)
            coef_accs.setdefault(key, _Accumulator()).add(sign * d_coef)
            key_counts[key] = key_counts.get(key, 0) + int(sign)
            straddling += int(sign)
            if key_counts[key] == 0:
                del coef_accs[key], key_counts[key]
        if straddling == 0:
            acc_const = _Accumulator()
        above = suffix[bisect.bisect_left(sorted_lows, lam1)]
        const = float(above) + acc_const.value
        terms = tuple(Law(acc.value, e, b, o, 0.0)
                      for (e, b, o), acc in coef_accs.items()
                      if acc.value != 0.0)
        if not terms and const <= 0.0:
            continue
        strata.append(Stratum(lam0, lam1, const, terms))
    return strata, lam_max


def rows_of(strata) -> Rows:
    """The rule's table of strata with terms."""
    terms = [t for s in strata for t in s.terms]
    return Rows(np.array([s.lam0 for s in strata], dtype=float),
                np.array([s.lam1 for s in strata], dtype=float),
                np.array([s.const for s in strata], dtype=float),
                np.array([len(s.terms) for s in strata], dtype=int),
                np.array([t.coef for t in terms], dtype=float),
                np.array([t.expo for t in terms], dtype=float),
                np.array([t.base for t in terms], dtype=float),
                np.array([t.orient for t in terms], dtype=float))


def qth_power(pieces, p: float, q: float) -> float:
    """p * integral lam^(q-1) m(lam)^(q/p) over the swept strata."""
    strata, lam_max = sweep(pieces)
    ruled = [s for s in strata if s.terms]
    lam0, lam1, const = np.array(
        [(s.lam0, s.lam1, s.const) for s in strata if not s.terms],
        dtype=float).reshape(-1, 3).T
    (total,) = level_set_qth_powers(Strata(
        rows_of(ruled), np.zeros(len(ruled), dtype=int),
        (np.zeros(len(lam0), dtype=int), lam0, lam1, const),
        np.array([lam_max])), p, q)
    return total


def norm(pieces, params) -> float:
    """The lambda-route Lorentz norm of a piece list through the sweep."""
    return qth_power(pieces, params.p, params.q) ** (1.0 / params.q)
