"""Closed-form algebra for piecewise power laws and their level sets.

Everything downstream (rearranged profiles, gradient densities, span sums)
is a finite union of segments on each of which the value follows a single

    law(t) = coef * (orient * (t - base))**expo + shift

with orient in {+1, -1} and the argument nonnegative on the segment.  The
class is closed under differentiation, argument shifts and dilations,
amplitude scaling, and (for monotone data) inversion, which is what makes
two independent norm routes possible:

* the t-space route integrates t^{gamma-1} law(t)^q directly, with exact
  primitives whenever the integrand is elementary and incomplete beta
  series with a certified truncation bound otherwise;
* the lambda-space route inverts each monotone segment into a law in
  lambda (as arrays, inside ``level_set_strata``) and integrates the
  distribution function stratum by stratum.

Exact primitives use a log/expm1 form of the power rule so that segments
spanning many orders of magnitude (ratios like 1e40) lose no precision.
The two routes share no integration code, since their agreement is the
main self-check:

* the t-route's non-elementary moments are incomplete beta integrals
  (DLMF 8.17): a base-0 law in x = t^expo, a law off the origin through
  the binomial of an integer q or gamma.  ``_moment_integrals`` takes a
  ``PieceTable``, makes each row's ``Law`` itself, and sums each moment
  about the nearer singular end (0, or the law's zero), all rows of a
  norm, or of one side of the Hardy check, in one array kernel
  (``_beta_series``) with a bound per moment.
  Only an off-origin moment with non-integer q and gamma (an Appell F1
  integral), or one whose series cannot certify 1e-12, takes the
  deterministic adaptive quadrature in ``quadrature``, after
  ``quadrature.substitute_origin`` removes an algebraic singularity at the
  origin (mirrored onto the right end when a law blows up there);
* the lambda route builds the strata of one or many level sets with one
  array builder (``level_set_strata``), for profiles, gradient densities,
  steps, sampled fields and span batches alike, all given as columns; a
  batch of piece tables (``table_strata``, any of these but spans, of one
  (p, q)) is one call, and one table is its one-element case.  It
  integrates every finite stratum with terms by its own batched tanh-sinh
  rule (``tanhsinh.row_integrals``), all strata at once
  (``level_set_qth_powers``), and uses the power rule only for constant
  strata (``power_primitives``) and pure-power infinite tails.

Both meet the fixed relative tolerance 1e-12 with an error bound or
estimate, or raise NumericalError; there is no fixed-rule path and no
looser setting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (DivergentIntegralError, InternalConsistencyError,
                     NumericalError, ValidationError)
from .quadrature import integrate_adaptive, substitute_origin
from .tanhsinh import Rows, array_power, row_integrals

__all__ = [
    "Law",
    "Piece",
    "PieceTable",
    "LevelSet",
    "Strata",
    "power_primitive",
    "power_primitives",
    "moment_integral",
    "level_set_strata",
    "table_strata",
    "level_set_qth_powers",
]

_BEFORE = np.array([-1, 0])  # a stratum's (lam0, lam1): the cut before its end
_JOIN_EPS = 8.0 * 2.0 ** -52  # a junction's rounding, per law magnitude
# the order and sign rules: how far a value may rise past another, or fall
# below 0, relative to the magnitude it is rounded from (``PieceTable.ends``)
_ORDER_RTOL = 1e-9
_SIGN_RTOL = 1e-12
# the sign rule's absolute part: a few rounding units of subnormal
# arithmetic, whose absolute error no relative bound covers
_SIGN_ABS = 4.0 * 2.0 ** -1074


def rises_past(before, after, before_size, after_size):
    """Whether ``after`` exceeds ``before`` by more than 1e-9 of the larger
    of their magnitudes, elementwise.  An infinite value has magnitude 0,
    so inf rises past every finite value and none rises past inf."""
    return after - before > _ORDER_RTOL * np.maximum(before_size, after_size)


def dips_below_zero(value, size):
    """Whether ``value`` falls below 0 by more than 1e-12 of its magnitude
    ``size`` plus 4 * 2^-1074, elementwise (-inf, of magnitude 0, always
    does).  The absolute part is the rounding of subnormal results: at
    magnitude 7e-323 a law can end at -2^-1074, where 1e-12 of its size
    underflows to 0."""
    return value < -_SIGN_RTOL * size - _SIGN_ABS


def tiling_slack(end):
    """How far a piece may start from ``end``, where the piece before it
    ends, and still tile with it: 1e-15 of max(1, end), elementwise."""
    return 1e-15 * np.maximum(end, 1.0)


# -- the law ---------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """value(t) = coef * (orient * (t - base))**expo + shift.

    ``expo == 0`` denotes the constant law coef + shift.  The argument
    orient * (t - base) must be nonnegative wherever the law is evaluated;
    tiny negative rounding is clamped to zero.
    """

    coef: float
    expo: float
    base: float = 0.0
    orient: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.orient not in (1.0, -1.0):
            raise ValidationError("law orientation must be +1 or -1")

    @staticmethod
    def constant(value: float) -> "Law":
        return Law(float(value), 0.0)

    @property
    def is_constant(self) -> bool:
        return self.expo == 0.0 or self.coef == 0.0

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.is_constant:
            out = np.full(t.shape, self.constant_value())
            return out if out.shape else float(out)
        arg = np.maximum(self.orient * (t - self.base), 0.0)
        out = self.coef * np.power(arg, self.expo) + self.shift
        return out if out.shape else float(out)

    def constant_value(self) -> float:
        if not self.is_constant:
            raise InternalConsistencyError("law is not constant")
        return self.coef + self.shift if self.expo == 0.0 else self.shift


# -- exact power primitive -------------------------------------------------

def power_primitive(t0: float, t1: float, rho: float) -> float:
    """integral of t**rho over (t0, t1), 0 <= t0 <= t1 <= inf, exactly.

    With r1 = rho + 1 and x = r1 log(t1/t0), uses the larger endpoint's
    power: t0^r1 expm1(x) / r1, or t1^r1 (-expm1(-x)) / r1 once x > 1,
    so the result keeps full relative precision (and stays finite where
    it is) even when t1/t0 is enormous or the exponent nearly cancels.
    Divergent combinations raise DivergentIntegralError naming the
    offending segment.

    ``power_primitives`` is the same rule for arrays.  The scalar copy
    stays because the t-route calls it one segment at a time, about 4000
    times per profile-batch round of the benchmark, and a call here is a
    few float operations where a one-element array call pays numpy's
    fixed cost for each of its array operations.
    """
    if not 0.0 <= t0 <= t1:
        raise ValidationError(f"bad integration segment ({t0}, {t1})")
    if t0 == t1:
        return 0.0
    r1 = rho + 1.0
    if t0 == 0.0:
        if r1 <= 0.0:
            raise DivergentIntegralError(
                f"integral of t^{rho} diverges at the left endpoint of "
                f"(0, {t1})")
        if math.isinf(t1):
            raise DivergentIntegralError(
                f"integral of t^{rho} over (0, inf) diverges")
        return t1 ** r1 / r1
    if math.isinf(t1):
        if r1 >= 0.0:
            raise DivergentIntegralError(
                f"integral of t^{rho} diverges at the right endpoint of "
                f"({t0}, inf)")
        return -(t0 ** r1) / r1
    gap = (t1 - t0) / t0
    log_ratio = (math.log1p(gap) if math.isfinite(gap)
                 else math.log(t1) - math.log(t0))
    if r1 == 0.0:
        return log_ratio
    x = r1 * log_ratio
    if x > 1.0:
        return -(t1 ** r1) * math.expm1(-x) / r1
    return t0 ** r1 * math.expm1(x) / r1


def power_primitives(t0, t1, r1: float) -> np.ndarray:
    """integral of t**(r1-1) over each of the arrays' segments (t0, t1),
    finite 0 <= t0 < t1, for r1 > 0: the power rule for arrays.
    t1^r1 (-expm1(-x)) / r1 with x = r1 log1p((t1 - t0)/t0) keeps full
    precision for every x >= 0; t0 = 0 gives x = inf.  Where (t1 - t0)/t0
    overflows, x = inf would drop a share (t0/t1)^r1 < e^(-709 r1), above
    an ulp for r1 < 0.052, so below r1 = 1/16 x is log(t1) - log(t0) there.
    """
    with np.errstate(divide="ignore", over="ignore"):
        x = np.log1p((t1 - t0) / t0)
        if r1 < 0.0625:
            x = np.where(x < np.inf, x, np.log(t1) - np.log(t0))
        x *= -r1
        return np.expm1(x, out=x) * t1 ** r1 / -r1


# -- moment integrals ------------------------------------------------------

_EPS = 2.0 ** -52
# every moment's error bound, relative: the t-route's contract, as the
# rules in ``quadrature`` and ``tanhsinh`` state it for theirs
_REL_TOL = 1e-12
_SPLITTER = 134217729.0   # 2^27 + 1: Veltkamp's split of a double
_MAX_TERMS = 4096
_TERMS = np.arange(float(_MAX_TERMS))
_INV_TERMS = 1.0 / np.maximum(_TERMS, 1.0)


def _moment_exact(t0: float, t1: float, law: Law, gamma: float, q: float
                  ) -> float | None:
    """Exact value of integral t^(gamma-1) law(t)^q dt, or None.

    Elementary cases: constant laws (0 within the sign rule, a
    ValidationError below it); pure powers (no shift, base 0) for any real
    q; and nonnegative-integer q with base 0 (binomial expansion in t).
    Everything else, and a binomial whose terms cancel near the law's zero,
    is left to ``_moment_integrals``.
    """
    if law.is_constant:
        v = law.constant_value()
        if v <= 0.0:   # |coef| is 0 where the constant is the shift
            if dips_below_zero(v, abs(law.coef) + abs(law.shift)):
                raise ValidationError("law negative on the segment")
            return 0.0
        return v ** q * power_primitive(t0, t1, gamma - 1.0)
    if law.base == 0.0 and law.orient == 1.0:
        if law.shift == 0.0:
            return law.coef ** q * power_primitive(
                t0, t1, gamma - 1.0 + q * law.expo)
        if q == int(q) and q >= 0:
            n = int(q)
            terms = [math.comb(n, k) * law.coef ** k * law.shift ** (n - k)
                     * power_primitive(t0, t1, gamma - 1.0 + k * law.expo)
                     for k in range(n + 1)]
            # None where the terms' own rounding, len(terms) eps sum|term|,
            # exceeds 1e-12 of their sum: they cancel near the law's zero,
            # and the series expands about the zero instead
            total = math.fsum(terms)
            if not len(terms) * _EPS * sum(map(abs, terms)) > _REL_TOL * abs(
                    total):
                return total
    return None


def _fma(a: float, b: float, c: float) -> float:
    """a + b*c rounded once (Dekker's exact product, added by math.fsum),
    so an exponent that the parameters make 0 is exactly 0."""
    p = b * c
    bh = _SPLITTER * b
    bh -= bh - b
    ch = _SPLITTER * c
    ch -= ch - c
    bl, cl = b - bh, c - ch
    return math.fsum((a, p, ((bh * ch - p) + bh * cl + bl * ch) + bl * cl))


def _log_ratio(num: float, den: float) -> float:
    """log(1 + num/den): the log of the ratio of two ends from their
    difference, at full precision; inf where den is 0."""
    return math.log1p(num / den) if den > 0.0 else math.inf


def _beta_parts(parts: list, sign: float, scale: tuple, err: float,
                x0: float, x1: float, width: float, d0: float, d1: float,
                xs: float, a: float, b: float, sigma: float, rising: bool,
                rounded: float = 0.0) -> None:
    """Append the series parts of sign * scale times the integral over
    (x0, x1) of x^(a-1) d^(b-1) dx, with d = |x - xs| (d0 and d1 at the
    ends, rising with x if ``rising``), ``width`` = x1 - x0 and
    sigma = a + b - 1; ``scale`` is (exponent, base) pairs of a product of
    powers and ``err`` the relative error of its other factors.

    It is |xs|^sigma times an incomplete beta integral over the segment's
    image in v: x/xs below xs, xs/x above it, x/d for xs < 0.  Where the
    image holds the cut v = 1/2, the segment is cut at the x there, and
    each side is a part in the variable that is at most 1/2 on it, so that
    its series is about the nearer singular end: v, with exponents
    (a', b'), or 1 - v, with (b', a').  Every end is a ratio of x, d and
    xs, so none is a difference of nearly equal values, and the log of
    their ratio comes from the segment's width, so a short segment keeps
    its precision.  A part is (near, far, g, alpha, beta, factor, err):
    the factor is sign * scale * |xs|^sigma end^alpha, end the part's far
    end for alpha > 0 and its near end otherwise (``_beta_series`` divides
    by that power), as powers of x, d and xs (``_powers``).

    ``rounded`` is the relative error of x at the segment's ends where d
    comes from a rounded x (``_power_parts``): d there is off by
    rounded * x, which moves a part, relative, by at most
    (1 + |a| + |b| + |sigma|) rounded x / d with x and d the largest on the
    part (its ends move within its width, and its far end's scale), to the
    power b where b < 1, as d^(b-1) then blows up at the zero.
    """
    mag = abs(xs)
    weight = rounded * (1.0 + abs(a) + abs(b) + abs(sigma))
    # the cut v = 1/2, where each side's variable is at most 1/2
    if not rising:
        xm = dm = 0.5 * xs
    elif xs > 0.0:
        xm, dm = 2.0 * xs, xs
    else:
        xm, dm = mag, 2.0 * mag
    if x0 < xm < x1:
        wa = xm - x0
        spans = ((x0, xm, d0, dm, wa, True),
                 (xm, x1, dm, d1, width - wa, False))
    else:
        spans = ((x0, x1, d0, d1, width, x1 <= xm),)
    for xa, xb, da, db, w, low in spans:
        # the part's variable, exponents and factor |xs|^sigma end^alpha
        if not rising:     # v = x/xs
            if low:
                part = (xa / xs, xb / xs, _log_ratio(w, xa), a, b)
                powers = ((b - 1.0, mag), (a, xb if a > 0.0 else xa))
            else:
                part = (db / xs, da / xs, _log_ratio(w, db), b, a)
                powers = ((a - 1.0, mag), (b, da if b > 0.0 else db))
        elif xs > 0.0:     # v = xs/x, so 1 - v = d/x
            if low:
                part = (da / xa, db / xb, _log_ratio(w * xs, da * xb), b,
                        -sigma)
                xe, de = (xb, db) if b > 0.0 else (xa, da)
                powers = ((sigma, mag), (b, de), (-b, xe))
            else:
                part = (xs / xb, xs / xa, _log_ratio(w, xa), -sigma, b)
                powers = ((sigma, xa if sigma < 0.0 else xb),)
        else:              # v = x/d, so 1 - v = |xs|/d
            if low:
                part = (xa / da, xb / db, _log_ratio(w * mag, xa * db), a,
                        -sigma)
                xe, de = (xb, db) if a > 0.0 else (xa, da)
                powers = ((sigma, mag), (a, xe), (-a, de))
            else:
                part = (mag / db, mag / da, _log_ratio(w, da), -sigma, a)
                powers = ((sigma, da if sigma < 0.0 else db),)
        if part[2] == math.inf and part[3] <= 0.0:   # the near end is 0
            raise DivergentIntegralError(
                "moment integral diverges at an end of its segment")
        factor, factor_err = _powers(scale + powers)
        if weight:
            # the part's largest x over its largest d, 1 where x is infinite
            ratio = 1.0 if xb == math.inf else xb / max(da, db)
            factor_err += (weight * ratio) ** min(1.0, b)
        parts.append((*part, sign * factor, err + factor_err))


def _powers(pairs: tuple) -> tuple[float, float]:
    """The product of base^expo over (expo, base) pairs, bases positive,
    and a bound on its relative error for bases and exponents within a few
    ulps; from the summed logs where the product leaves the normal range
    (a power may over- or underflow while the product does not)."""
    value, size = 1.0, 0.0
    for expo, base in pairs:
        if expo != 0.0:
            try:
                value *= base ** expo
            except OverflowError:
                value = math.inf
            size += 1.0 + 2.0 * abs(expo) * (1.0 + abs(math.log(base)))
    if not 1e-290 < value < 1e290:
        value = math.exp(math.fsum(expo * math.log(base)
                                   for expo, base in pairs if expo != 0.0))
    return value, _EPS * size


def _power_parts(parts: list, sign: float, scale: tuple, err: float,
                 t0: float, t1: float, span: float, law: Law, gamma: float,
                 q: float, rounded: float) -> None:
    """Series parts of sign * scale times the integral over (t0, t1) of
    t^(gamma-1) (coef t^expo + shift)^q dt, the law's base 0 and shift
    nonzero: with x = t^expo it is |coef|^q / |expo| times the integral of
    x^(gamma/expo - 1) d^q, d = |x - xs| = law / |coef| and xs = -shift/coef
    the law's zero in x.

    ``span`` is the segment's width as the caller has it: off the origin
    t0 and t1 are the rounded u0 and u1, whose difference is not.
    ``rounded`` is the relative error of x at the ends (``_beta_parts``
    counts it).
    """
    coef, expo, shift = law.coef, law.expo, law.shift
    lo, hi = (t0, t1) if expo > 0.0 else (t1, t0)
    x0 = lo ** expo if lo > 0.0 or expo > 0.0 else math.inf
    x1 = hi ** expo if hi > 0.0 or expo > 0.0 else math.inf
    ratio = abs(expo) * _log_ratio(span, t0)
    width = x0 * math.expm1(ratio) if ratio <= 1.0 else x1 - x0
    mag = abs(coef)
    ends = []
    for x in (x0, x1):
        term = coef * x
        value = term + shift
        if abs(value) < 0.5 * abs(shift):   # near the zero: round once
            value = _fma(shift, coef, x)
        if value < 0.0:
            # the magnitude the value is rounded from; a limit has none
            size = abs(term) + abs(shift) if value > -math.inf else 0.0
            if dips_below_zero(value, size):
                raise ValidationError("law negative on the segment")
            value = 0.0
        ends.append(value / mag)
    if not any(ends):   # 0 at both ends, so (monotone) 0 between
        if rounded:     # ... or within the rounding of x, unknown
            raise NumericalError("law vanishes to rounding on the segment")
        return
    _beta_parts(parts, sign, scale + ((q, mag), (-1.0, abs(expo))), err,
                x0, x1, width, *ends,
                -shift / coef, gamma / expo, q + 1.0,
                _fma(gamma, q, expo) / expo, coef > 0.0, rounded)


def _offbase_parts(parts: list, sign: float, scale: tuple, err: float,
                   t0: float, t1: float, law: Law, gamma: float, n: float
                   ) -> None:
    """Series parts of sign * scale times the integral over (t0, t1) of
    t^(gamma-1) u^p dt with p = n expo and u = orient (t - base), the law's
    argument: the integral of x^(a-1) d^(b-1) with x = t, d = u, xs = base."""
    ends = [max(law.orient * (t - law.base), 0.0) for t in (t0, t1)]
    _beta_parts(parts, sign, scale, err, t0, t1, t1 - t0, *ends,
                law.base, gamma, _fma(1.0, n, law.expo),
                _fma(gamma, n, law.expo), law.orient > 0.0)


def _moment_parts(parts: list, t0: float, t1: float, law: Law,
                  gamma: float, q: float) -> float | None:
    """Append the series parts of a moment that is not elementary and
    return its elementary rest, or None for an Appell F1 integral (base
    off the origin, shift nonzero, q and gamma both non-integer).

    A base-0 law is one incomplete beta integral in x = t^expo.  Off the
    origin, with u = orient (t - base) the law's argument: a pure power is
    one in t and u; at a positive-integer gamma, t^(gamma-1) is a
    polynomial in u and each of its terms a base-0 moment in u; at an
    integer q the binomial of law^q is a sum of incomplete beta integrals
    in t and u.
    """
    if law.base == 0.0 and law.orient == 1.0:
        # x = t^expo is t itself at expo 1, and pow's rounding otherwise
        _power_parts(parts, 1.0, (), 0.0, t0, t1, t1 - t0, law, gamma, q,
                     0.0 if law.expo == 1.0 else _EPS)
        return 0.0
    if law.shift == 0.0:
        _offbase_parts(parts, math.copysign(1.0, law.coef),
                       ((q, abs(law.coef)),), 0.0, t0, t1, law, gamma, q)
        return 0.0
    if gamma == int(gamma) and gamma >= 1:
        m = int(gamma) - 1
        # the u = orient (t - base) interval, positively oriented
        u0, u1 = sorted(max(0.0, law.orient * (t - law.base))
                        for t in (t0, t1))
        for k in range(m + 1):
            c_k = math.comb(m, k) * law.base ** (m - k) * law.orient ** k
            # x = u^expo carries u's rounding expo times, and pow's
            _power_parts(parts, c_k, (), (m + 2) * _EPS, u0, u1, t1 - t0,
                         law, k + 1.0, q, (1.0 + abs(law.expo)) * _EPS)
        return 0.0
    if q == int(q) and q >= 0:
        n = int(q)
        for j in range(1, n + 1):
            _offbase_parts(parts, math.comb(n, j) * law.coef ** j
                           * law.shift ** (n - j), (), (n + 2) * _EPS, t0,
                           t1, law, gamma, float(j))
        return law.shift ** n * power_primitive(t0, t1, gamma - 1.0)
    return None


def _beta_series(near: np.ndarray, far: np.ndarray, g: np.ndarray,
                 alpha: np.ndarray, beta: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Integral over (near, far) of v^(alpha-1) (1-v)^(beta-1) dv divided
    by end^alpha (end = far where alpha > 0, near elsewhere), and a bound
    on its error, for arrays of parts with 0 <= near < far <= 1/2 and
    g = log(far/near), all parts in one table.

    The series is sum over k of d_k P_k / end^alpha, with d_k =
    (1-beta)_k / k! the binomial coefficients of (1-v)^(beta-1) and P_k
    the integral of v^(r-1), r = alpha + k, over the part, relative to the
    part's own ends: for r > 0 it is far^k (1 - e^(-r g)) / r times
    e^(alpha g) if alpha < 0; for r < 0 near^k (1 - e^(r g)) / -r; for
    r = 0 near^k g, the log case.  |d_(k+1) P_(k+1)| <= rho |d_k P_k| with
    rho = far (1 + |beta|/(k+1)) once r > 0, so the terms after the last
    one kept sum to at most |last| rho/(1 - rho); terms are added until
    that is below 2^-56 of sum|term| in every part, or 4096 terms; a part
    that does not get there has an infinite bound.  The bound adds that
    to each term's rounding, its growth with k and r, and the effect of a
    few ulps in alpha (min(g, 1/alpha) per unit) and in beta (log 2).
    """
    low = float(alpha.min()) <= 0.0   # a log term or negative powers
    top = max(float(far.max()), 5e-324)   # far may underflow
    size_beta = np.abs(beta)
    count = min(4 + max(int(39.5 / -math.log(top)),
                        int(4.0 * float(size_beta.max()))
                        + int(max(0.0, -float(alpha.min())))), _MAX_TERMS)
    while True:
        k = _TERMS[:count]
        r = alpha[:, None] + k
        coefs = 1.0 - beta[:, None] * _INV_TERMS[1:count]
        if low:
            terms = _low_terms(near, far, g, alpha, r, k)
        else:
            terms = r * -g[:, None]
            np.expm1(terms, out=terms)
            terms /= r    # -P_k / far^r
            coefs *= far[:, None]
        np.multiply.accumulate(coefs, axis=1, out=coefs)
        terms[:, 1:] *= coefs
        size = np.abs(terms)
        total = size.sum(axis=1)
        rho = far * (1.0 + size_beta / count)
        with np.errstate(invalid="ignore"):
            tail = size[:, -1] * rho / (1.0 - rho)
            done = (rho < 1.0) & (tail <= 2.0 ** -56 * total)
        if count == _MAX_TERMS or done.all():
            break
        count = min(2 * count, _MAX_TERMS)
    if low:
        with np.errstate(divide="ignore"):
            lam = np.where(alpha > 0.0, np.minimum(g, 1.0 / alpha), g)
    else:
        lam = np.minimum(g, 1.0 / alpha)
    weight = 16.0 + count + 2.0 * size_beta + (8.0 + 3.0 * lam) * np.abs(alpha)
    bound = tail + _EPS * (total * weight + (10.0 + lam) * (size @ k))
    bound[~done] = math.inf
    return -terms.sum(axis=1), bound


def _low_terms(near: np.ndarray, far: np.ndarray, g: np.ndarray,
               alpha: np.ndarray, r: np.ndarray, k: np.ndarray
               ) -> np.ndarray:
    """-P_k / end^alpha of ``_beta_series`` where some alpha <= 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = r * g[:, None]
        rise = np.where(alpha < 0.0, alpha * g, 0.0)
        terms = np.where(r > 0.0,
                         far[:, None] ** k * np.exp(rise)[:, None]
                         * np.expm1(-x),
                         near[:, None] ** k * -np.expm1(x)) / r
        zero = r == 0.0
        terms[zero] = -(near[:, None] ** k * g[:, None])[zero]
    return terms


def _origin_order(law: Law, q: float) -> float:
    """Algebraic order at 0+ of law(t)^q.

    Only a base-0 law is singular or vanishing there: singular when its
    exponent is negative, vanishing when it also has no shift.
    """
    if law.base == 0.0 and (law.expo < 0.0 or law.shift == 0.0):
        return q * law.expo
    return 0.0


def _moment_adaptive(t0: float, t1: float, law: Law, gamma: float, q: float
                     ) -> float:
    """The adaptive rule on a moment the series leaves to it."""
    if math.isinf(t1):
        raise NumericalError(
            "no exact route for a moment integral on an infinite segment")
    right = 0.0
    if law.orient < 0 and law.base <= t1 and q * law.expo < 0:
        # the law blows up at t1: mirror the origin substitution onto
        # u = t1 - t, which is the law's argument itself, on the right half
        mid = 0.5 * (t0 + t1)

        def h(u: np.ndarray) -> np.ndarray:
            return ((t1 - u) ** (gamma - 1.0)
                    * (law.coef * u ** law.expo + law.shift) ** q)

        f, a, b = substitute_origin(h, 1.0, 0.0, t1 - mid, q * law.expo)
        right = integrate_adaptive(f, a, b)
        t1 = mid
    f, a, b = substitute_origin(lambda t: np.asarray(law.value(t)) ** q,
                                gamma, t0, t1, _origin_order(law, q))
    return integrate_adaptive(f, a, b) + right


def _moment_integrals(table: PieceTable, gamma: float, q: float
                      ) -> list[float]:
    """``moment_integral`` of each row of ``table``, whose ``Law`` the
    kernel makes itself.

    Elementary moments keep their closed forms (``_moment_exact``).  Every
    other moment but an Appell F1 integral is a sum of incomplete beta
    integrals (DLMF 8.17; 8.17.8 and 15.8.1 for the hypergeometric form),
    and all their series parts go through one call of ``_beta_series``.
    The Appell integrals (off the origin, q and gamma non-integer) take the
    adaptive rule, and so does a moment whose series bound exceeds 1e-12 of
    its value: a binomial off the origin that cancels near the law's zero,
    an exponent above about 4 whose series alternates on its side of the
    cut, or a short segment at a law's zero whose x = t^expo or u^expo is
    rounded (``_power_parts``).  The rule raises NumericalError where it
    cannot meet 1e-12 either.
    """
    values: list[float | None] = []
    parts: list[tuple] = []
    series = []
    for t0, t1, coef, shift, expo, base, orient in zip(
            *[col.tolist() for col in table]):
        law = Law(coef, expo, base, orient, shift)
        if not 0.0 <= t0 <= t1:
            raise ValidationError(f"bad integration segment ({t0}, {t1})")
        if law.coef < 0.0 and not law.shift:   # below 0 past any rounding
            raise ValidationError("law negative on the segment")
        value = 0.0 if t0 == t1 else _moment_exact(t0, t1, law, gamma, q)
        if value is None:
            first = len(parts)
            rest = _moment_parts(parts, t0, t1, law, gamma, q)
            if rest is None:
                value = _moment_adaptive(t0, t1, law, gamma, q)
            else:
                series.append((len(values), first, rest, (t0, t1, law)))
        values.append(value)
    if not series:
        return values
    terms, bounds = _part_sums(parts) if parts else ([], [])
    for (slot, first, rest, seg), end in zip(
            series, [s[1] for s in series[1:]] + [len(parts)]):
        value = math.fsum([rest, *terms[first:end]])
        bound = 8.0 * _EPS * abs(rest) + sum(bounds[first:end])
        if not bound <= _REL_TOL * abs(value):
            value = _moment_adaptive(*seg, gamma, q)
        values[slot] = value
    return values


def _part_sums(parts: list[tuple]) -> tuple[list[float], list[float]]:
    """Each series part's value and error bound, from one call of
    ``_beta_series`` on all of them."""
    near, far, g, alpha, beta, factor, err = np.array(parts).T
    sums, bounds = _beta_series(near, far, g, alpha, beta)
    return ((factor * sums).tolist(),
            (np.abs(factor) * (bounds + err * np.abs(sums))).tolist())


def moment_integral(t0: float, t1: float, law: Law, gamma: float, q: float
                    ) -> float:
    """integral over (t0, t1) of t^(gamma-1) * law(t)^q, the law
    nonnegative on the segment: ``_moment_integrals`` on a one-row table, so
    exact if elementary, an incomplete beta series within a certified
    1e-12 bound otherwise, and the adaptive rule only for an Appell F1
    integral or a series that cannot certify that bound."""
    (value,) = _moment_integrals(PieceTable(*np.array(
        [t0, t1, law.coef, law.shift, law.expo, law.base, law.orient],
        dtype=float)[:, None]), gamma, q)
    return value


# -- pieces ----------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """One segment (t0, t1) carrying a single law: the input record of the
    public entries, which ``PieceTable.of`` turns into table rows."""

    t0: float
    t1: float
    law: Law

    def __post_init__(self) -> None:
        if not 0.0 <= self.t0 < self.t1:
            raise ValidationError(
                f"piece endpoints must satisfy 0 <= t0 < t1, got "
                f"({self.t0}, {self.t1})")
        law = self.law   # its argument must stay nonnegative on the piece
        if not law.is_constant and (
                self.t0 < law.base - 1e-15 * max(1.0, abs(law.base))
                if law.orient > 0 else
                self.t1 > law.base + 1e-15 * max(1.0, abs(law.base))):
            raise ValidationError("law argument negative on the segment")


class PieceTable(NamedTuple):
    """Pieces as the columns ``level_set_strata`` takes, the one form from
    profile to strata: piece i is (t0[i], t1[i]) with the law coef[i] *
    (orient[i] (t - base[i]))**expo[i] + shift[i]."""

    t0: np.ndarray
    t1: np.ndarray
    coef: np.ndarray
    shift: np.ndarray
    expo: np.ndarray
    base: np.ndarray
    orient: np.ndarray

    @staticmethod
    def of(pieces: Iterable[Piece]) -> "PieceTable":
        return PieceTable(*np.array(
            [(p.t0, p.t1, p.law.coef, p.law.shift, p.law.expo, p.law.base,
              p.law.orient) for p in pieces], dtype=float).reshape(-1, 7).T)

    def ends(self) -> np.ndarray:
        """((va, vb), (ma, mb)), (2, 2, n): the pieces' values at t0+ and
        t1-, limits where the law's argument is 0 or inf, and the
        magnitudes |coef u^expo| + |shift| they are rounded from (0 at an
        infinite limit), which scale the order and sign rules of the
        profile checks and the rearranged route's check; the span templates
        take the values.  Where expo is not 0 or 1 and the argument is
        positive and finite they come from Python's pow, as numpy's can
        miss by an ulp (an arc and its tail t_max ** e cancel exactly)."""
        t0, t1, coef, shift, expo, base, orient = self
        ends = np.empty((2, 2, t0.size))
        values, sizes = ends
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            terms = coef * np.maximum(orient * (np.array((t0, t1)) - base),
                                      0.0) ** expo
            np.add(terms, shift, out=values)
            np.abs(terms, out=sizes)
        sizes += np.abs(shift)
        power = (expo * (expo - 1.0)).nonzero()[0]   # expo not 0 or 1
        for i, a, b, c, s, e, g, o in zip(power.tolist(), *np.array(
                self)[:, power].tolist()) if power.size else ():
            for k, u in enumerate((o * (a - g), math.inf if math.isinf(b)
                                   else o * (b - g))):
                if not c:
                    ends[:, k, i] = s, abs(s)
                elif 0.0 < u < math.inf:
                    term = c * u ** e
                    ends[:, k, i] = term + s, abs(term) + abs(s)
        np.copyto(sizes, 0.0, where=np.isinf(values))
        return ends

    def clip(self, t_lo: float, t_hi: float) -> "PieceTable":
        """The pieces restricted to the window (t_lo, t_hi)."""
        if not 0.0 <= t_lo <= t_hi:
            raise ValidationError(f"bad clip window ({t_lo}, {t_hi})")
        cols = np.array(self)
        np.maximum(cols[0], t_lo, out=cols[0])
        np.minimum(cols[1], t_hi, out=cols[1])
        return PieceTable(*cols[:, cols[0] < cols[1]])


# -- level sets ------------------------------------------------------------

class Strata(NamedTuple):
    """The lambda-strata of len(top) level sets, as arrays.

    On a stratum (lam0, lam1) the distribution function m(lam), the
    measure of {f > lam}, is const plus a sum of term laws in lam with
    zero shift.  Strata with terms are the rows of ``rows``, row i in level
    set owner[i]; constant strata are the arrays ``flat``: (level set,
    lam0, lam1, const).  ``top`` is each level set's last cut, lam_max.
    """

    rows: Rows
    owner: np.ndarray
    flat: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    top: np.ndarray


def level_set_strata(t0, t1, coef, shift, expo, base, orient, va, vb
                     ) -> Strata:
    """The strata of the level sets of f_0 .. f_(count-1).

    ``coef``, ``shift`` and the end values ``va``, ``vb`` (limits at t0+
    and t1-) are (count, n) arrays, row d giving f_d the n pieces (t0, t1)
    with laws coef * (orient (t - base))**expo + shift; t0, t1, ``expo``,
    ``base`` and ``orient`` are (n,) arrays, shared by every row, or
    (count, n), one row per level set (``table_strata``).  Pieces may be
    signed: every value-range end is clamped at 0, so a piece counts only
    where it lies above a level lam >= 0, and f stacked with -f gives the
    level sets of |f|.  A constant law has equal end values, so it never
    straddles a level; an empty piece (t0 == t1) has no length.

    The cuts of a level set are 0 and its pieces' value-range ends, sorted
    per level set; on the stratum between consecutive distinct cuts a
    piece is above the level (its length counts), straddles it (its
    inverse law is a term, with a constant) or lies below it.  The
    fully-above mass is a suffix sum of lengths along the sorted cuts.
    Only (stratum, straddling piece) pairs are made, from the sorted
    positions of each piece's range ends, so the cost is near-linear in
    the pieces plus the output.  A stratum's straddle constants, and the
    coefficients of its terms that share a law key (expo, base, orient),
    are added by math.fsum, so each sum is correctly rounded however its
    parts cancel.  Every step is per level set, so no stratum depends on
    the other rows.  A call is about 100 array operations whatever the
    size, so its fixed cost is per call, not per piece.
    """
    count, n = coef.shape
    m = 2 * n + 1
    # entry 0 of a level set is the cut at 0, entries 1..n its pieces'
    # lower values, the rest their upper values; lengths sit at the lower
    entries, lengths = np.zeros((2, count, m))
    np.minimum(va, vb, out=entries[:, 1:n + 1])
    np.maximum(va, vb, out=entries[:, n + 1:])
    np.maximum(entries, 0.0, out=entries)
    np.subtract(t1, t0, out=lengths[:, 1:n + 1])
    # each piece's inverse law: its key (orient, base, expo), row 3 for a
    # pair's stratum, the constant (the piece is (t0, inverse) while
    # falling, (inverse, t1) else) and the coefficient, signed as -slope
    laws = np.empty((6, count, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.sign(coef, out=laws[0])
        laws[1] = shift
        np.divide(1.0, expo, out=laws[2])
        slope = coef * expo
        np.copysign(np.abs(coef) ** -laws[2], -slope, out=laws[5])
        laws[4] = np.where(np.signbit(slope * orient), base - t0, t1 - base)
    # sort each level set's entries; positions below are flat, row d's
    # sorted position p at d * m + p
    by = entries.argsort(axis=1, kind="stable")
    by += np.arange(0, count * m, m)[:, None]
    cuts = entries.take(by)
    # the length above each position, summed from the top down
    above = lengths.take(by[:, ::-1])
    np.add.accumulate(above, axis=1, out=above)
    # a stratum ends at each position where the cut rises from the one
    # before; the pieces fully above it have their lower value there or
    # later
    rises = np.zeros((count, m), dtype=bool)
    np.not_equal(cuts[:, 1:], cuts[:, :-1], out=rises[:, 1:])
    at = rises.ravel().nonzero()[0]
    owner = at // m
    bounds = cuts.take(at[:, None] + _BEFORE)
    above = above[:, ::-1].take(at)
    # piece i straddles the strata that end after its lower value's
    # position and up to its upper value's; ``before`` counts the strata
    # that end at or before each entry's position
    before = np.empty((count, m), dtype=np.intp)
    before.put(by, np.add.accumulate(rises.ravel(), dtype=np.intp))
    first = before[:, 1:n + 1].ravel()
    span = before[:, n + 1:].ravel() - first
    strad = span.nonzero()[0]
    span = span[strad]
    pair = laws.reshape(6, -1).take(strad.repeat(span), axis=1)
    pair[3] = (np.arange(pair.shape[1])
               + (first[strad] - np.add.accumulate(span) + span).repeat(span))
    # a stratum's straddle constants, and the coefficients of its terms
    # that share a law key (expo, base, orient), are added by math.fsum
    pair = pair.take(np.lexsort(pair[:4]), axis=1)
    stratum = pair[3].astype(np.intp)
    head = np.ones(len(stratum), dtype=bool)
    np.logical_or.reduce(pair[:4, 1:] != pair[:4, :-1], axis=0,
                         out=head[1:])
    terms, size = head.nonzero()[0], len(at)
    const = above + _group_fsums(pair[4], stratum, size)
    coefs = _group_fsums(pair[5], head.cumsum() - 1, len(terms))
    nonzero = coefs != 0.0
    terms = terms[nonzero]
    counts = np.bincount(stratum[terms], minlength=size)
    ruled = counts > 0
    flat = (const > 0.0) > ruled
    orient_t, base_t, expo_t = pair[:3].take(terms, axis=1)
    return Strata(
        Rows.of(bounds[ruled], const[ruled], counts[ruled], coefs[nonzero],
                expo_t, base_t, orient_t),
        owner[ruled], (owner[flat], *bounds[flat].T, const[flat]),
        cuts[:, -1])


def table_strata(tables: Sequence[PieceTable]) -> Strata:
    """The strata of the level sets of nonnegative piece tables, table d
    as level set d: one ``level_set_strata`` call for the batch.

    One or more tables become (count, n) columns, n the most pieces of
    any (one table keeps its own (n,) columns); a shorter table is padded
    at its own end with empty pieces (t0 = t1 = 0, value 0), which add no
    cut, stratum or term, though the batch's arrays are count x n.  End
    values, the junction join and the sign rule are column expressions
    over the batch, each per piece or per junction, so a level set's
    strata, and its q-th power, are the same floats alone or in any batch.

    A continuous junction is one cut, not an ulp-wide stratum: where
    piece i + 1 starts at the t where piece i ends and their end values
    there differ by less than 8 eps (|vb_i| + |shift_i| + |shift_(i+1)|),
    which bounds the roundoff of two laws that agree there, both ends take
    one value, a constant side's if there is one, else the left end's.  So
    a constant piece keeps equal ends.  Two constants, infinite ends
    (poles) and padding are never joined.  An end value that falls below
    0 beyond the sign rule (``dips_below_zero``) on the magnitude it was
    rounded from, the other piece's where the join gave it that piece's
    value, is a ValidationError.
    """
    if not tables:
        raise ValidationError("a batch of level sets needs a table")
    pad = False
    if len(tables) == 1:   # one row: the table's own (n,) columns
        cols = tables[0]
    else:
        counts = [table.t0.size for table in tables]
        count, n = len(tables), max(counts)
        pieces = [np.concatenate(col) for col in zip(*tables)]
        pad = pieces[0].size < count * n
        if pad:
            real = np.arange(n) < np.array(counts)[:, None]
            cols = np.zeros((7, count, n))
            cols[6] = 1.0
            cols[:, real] = pieces
        else:
            cols = np.reshape(pieces, (7, count, n))
    t0, t1, coef, shift, expo, base, orient = cols
    flat = coef == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ends = array_power(
            np.maximum(orient * (np.array((t0, t1)) - base), 0.0), expo)
        values = np.where(flat, shift, coef * ends + shift)
        va, vb = values
        # a strict test, so an infinite end (nan or inf < inf) fails it
        tol = np.abs(shift)
        tol = tol[..., 1:] + tol[..., :-1]
        tol += np.abs(vb[..., :-1])
        tol *= _JOIN_EPS
        gap = va[..., 1:] - vb[..., :-1]
        join = np.abs(gap, out=gap) < tol
        join &= t1[..., :-1] == t0[..., 1:]
        if pad:
            join &= real[:, 1:]
        joined = np.count_nonzero(join)
        if joined:
            # a constant side keeps its value; two constants never join
            flat |= expo == 0.0
            to_left = (join & flat[..., 1:]) > flat[..., :-1]
            to_right = join > flat[..., 1:]
            np.copyto(vb[..., :-1], va[..., 1:], where=to_left)
            np.copyto(va[..., 1:], vb[..., :-1], where=to_right)
        if np.count_nonzero(values < 0.0):
            # the sign rule, on the magnitudes of ``PieceTable.ends``; a
            # joined end keeps the magnitude of the value it takes
            sizes = np.abs(np.where(coef == 0.0, 0.0, coef * ends))
            sizes += np.abs(shift)
            if joined:
                size_a, size_b = sizes
                np.copyto(size_b[..., :-1], size_a[..., 1:], where=to_left)
                np.copyto(size_a[..., 1:], size_b[..., :-1], where=to_right)
            sizes[np.isinf(values)] = 0.0
            if np.count_nonzero(dips_below_zero(values, sizes)):
                raise ValidationError(
                    "level sets require a nonnegative function")
    if len(tables) == 1:
        coef, shift, va, vb = coef[None], shift[None], va[None], vb[None]
    return level_set_strata(t0, t1, coef, shift, expo, base, orient, va, vb)


def _group_fsums(values: np.ndarray, group: np.ndarray, size: int
                 ) -> np.ndarray:
    """math.fsum of the values of each of ``size`` groups; ``group`` is
    nondecreasing.  A group of one keeps its value, an empty one is 0."""
    members = np.bincount(group, minlength=size)
    # bincount of no values is int64; the cast copies nothing otherwise
    out = np.bincount(group, values, size).astype(float, copy=False)
    multi = (members > 1).nonzero()[0]
    if multi.size:
        ends = np.add.accumulate(members)[multi].tolist()
        vals = values.tolist()
        out[multi] = [math.fsum(vals[b - k:b]) for k, b in zip(
            members[multi].tolist(), ends)]
    return out


class _Stratum(NamedTuple):
    """A view of one stratum: m(lam) = const + sum of the term laws."""

    lam0: float
    lam1: float
    const: float
    terms: tuple[Law, ...]


class LevelSet:
    """Distribution function of a nonnegative piecewise-law function.

    A thin holder of the ``Strata`` of one level set (``table_strata``),
    with ``Law`` views of its strata.  No library path builds one: the
    norm routes take ``table_strata`` and ``level_set_qth_powers``
    directly.  It remains for the tests and perfbench's layer tracer,
    which wraps ``from_pieces`` and ``lorentz_qth_power``.
    """

    def __init__(self, table: Strata):
        self.table = table
        self.lam_max = float(table.top[0])

    @staticmethod
    def from_pieces(pieces: Sequence[Piece]) -> "LevelSet":
        """The level set of a nonnegative piece list, as the rows of a
        ``PieceTable``, the form the builder takes: ``from_table``."""
        return LevelSet.from_table(PieceTable.of(pieces))

    @staticmethod
    def from_table(table: PieceTable) -> "LevelSet":
        """The level set of a nonnegative piece table: the one-element
        case of ``table_strata``, as profiles and densities come."""
        return LevelSet(table_strata([table]))

    @functools.cached_property
    def strata(self) -> tuple[_Stratum, ...]:
        """Views of the strata in increasing lam (a constant stratum has
        no terms), built on first use."""
        rows = self.table.rows
        out = [_Stratum(a, b, c, ()) for _, a, b, c in
               zip(*(x.tolist() for x in self.table.flat))]
        for i, (a, b, c) in enumerate(zip(rows.a.tolist(), rows.b.tolist(),
                                          rows.const.tolist())):
            out.append(_Stratum(a, b, c, tuple(
                Law(float(rows.coef[j]), float(rows.expo[j]),
                    float(rows.base[j]), float(rows.orient[j]))
                for j in range(rows.first[i], rows.first[i + 1]))))
        return tuple(sorted(out))

    # -- the lambda-route Lorentz functional ---------------------------

    def lorentz_qth_power(self, p: float, q: float) -> float:
        """p * integral over lam of lam^(q-1) * m(lam)^(q/p)."""
        (total,) = level_set_qth_powers(self.table, p, q)
        return total


def level_set_qth_powers(strata: Strata, p: float, q: float) -> list[float]:
    """p * integral lam^(q-1) m(lam)^(q/p) of each level set of ``strata``.

    Constant strata (one array expression, ``power_primitives``) and
    pure-power infinite tails are exact; every finite stratum with terms
    goes through one call of the batched tanh-sinh rule
    (``tanhsinh.row_integrals``), whose error bound meets the 1e-12
    contract or raises NumericalError, as does an overflow.  Each level
    set's parts are added by math.fsum, independently of the others.

    (p, q) is one pair per call, not per level set: the rule raises m to
    the scalar power q/p, and numpy takes its sqrt path for a scalar 0.5
    but not for an array of them (10202 of 200000 uniform values differ
    by an ulp, numpy 2.4.6), so per-row exponents would move every p = 2
    gradient norm.
    """
    rows, qq = strata.rows, q / p
    parts: list[list[float]] = [[] for _ in strata.top]
    flat, a, b, c = strata.flat
    if flat.size:   # span and profile level sets often have none
        for d, lam1, v in zip(flat.tolist(), b.tolist(),
                              (c ** qq * power_primitives(a, b, q)).tolist()):
            if lam1 == math.inf:
                raise DivergentIntegralError(
                    "level set has positive measure at every level")
            parts[d].append(v)
    values, _ = row_integrals(rows, q, qq, strata.owner)
    for r, (d, b, v) in enumerate(zip(strata.owner.tolist(), rows.b.tolist(),
                                      values.tolist())):
        parts[d].append(_infinite_tail(rows, r, q, qq) if b == math.inf
                        else v)
    totals = [p * math.fsum(part) for part in parts]
    if not all(map(math.isfinite, totals)):
        raise NumericalError("level-set moment overflows double precision")
    return totals


def _infinite_tail(rows: Rows, r: int, q: float, qq: float) -> float:
    """integral over (lam0, inf) of lam^(q-1) m(lam)^qq on row r: the
    closed form for a pure power, an error otherwise."""
    first, last = rows.first[r], rows.first[r + 1]
    # only a pure power admits an elementary infinite-lambda tail
    if (last - first == 1 and rows.const[r] == 0.0
            and rows.base[first] == 0.0 and rows.orient[first] == 1.0):
        return float(rows.coef[first]) ** qq * power_primitive(
            float(rows.a[r]), math.inf,
            q - 1.0 + qq * float(rows.expo[first]))
    raise NumericalError("no exact route for this unbounded level-set tail")
