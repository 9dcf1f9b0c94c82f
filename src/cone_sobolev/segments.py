"""Closed-form algebra for piecewise power laws and their level sets.

Everything downstream (rearranged profiles, gradient densities, span sums)
is a finite union of segments on each of which the value follows a single

    law(t) = coef * (orient * (t - base))**expo + shift

with orient in {+1, -1} and the argument nonnegative on the segment.  The
class is closed under differentiation, argument shifts and dilations,
amplitude scaling, and (for monotone data) inversion, which is what makes
two independent norm routes possible:

* the t-space route integrates t^{gamma-1} law(t)^q directly, with exact
  primitives whenever the integrand is elementary;
* the lambda-space route inverts each monotone segment into a law in
  lambda (as arrays, inside ``level_set_strata``) and integrates the
  distribution function stratum by stratum.

Exact primitives use a log/expm1 form of the power rule so that segments
spanning many orders of magnitude (ratios like 1e40) lose no precision.
The two routes share no integration code, since their agreement is the
main self-check:

* the t-route's non-elementary moments fall back to the deterministic
  adaptive quadrature in ``quadrature``, after
  ``quadrature.substitute_origin`` removes an algebraic singularity at the
  origin (mirrored onto the right end when a law blows up there);
* the lambda route builds the strata of one or many level sets with one
  array builder (``level_set_strata``), for profiles, gradient densities,
  steps, sampled fields and span batches alike; it integrates every
  finite stratum with terms by its own batched tanh-sinh rule
  (``tanhsinh.row_integrals``), all strata at once
  (``level_set_qth_powers``), and uses the power rule only for constant
  strata (``power_primitives``) and pure-power infinite tails.

Both meet the fixed relative tolerance 1e-12 with an error estimate or
raise NumericalError; there is no fixed-rule path and no looser setting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (DivergentIntegralError, InternalConsistencyError,
                     NumericalError, ValidationError)
from .quadrature import integrate_adaptive, substitute_origin
from .tanhsinh import Rows, row_integrals

__all__ = [
    "Law",
    "Piece",
    "LevelSet",
    "Strata",
    "power_primitive",
    "power_primitives",
    "moment_integral",
    "clip_pieces",
    "pieces_value",
    "level_set_strata",
    "level_set_qth_powers",
]

_BEFORE = np.array([-1, 0])  # a stratum's (lam0, lam1): the cut before its end
_JOIN_EPS = 8.0 * 2.0 ** -52  # a junction's rounding, per law magnitude


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

    def derivative(self) -> "Law":
        if self.is_constant:
            return Law.constant(0.0)
        return Law(self.coef * self.expo * self.orient, self.expo - 1.0,
                   self.base, self.orient, 0.0)

    def scaled(self, k: float) -> "Law":
        """k * law, for k real."""
        return replace(self, coef=k * self.coef, shift=k * self.shift)

    def with_argument_scaled(self, kappa: float) -> "Law":
        """t -> law(kappa * t), kappa > 0."""
        if kappa <= 0:
            raise ValidationError("argument dilation must be positive")
        if self.is_constant:
            return self
        return Law(self.coef * kappa ** self.expo, self.expo,
                   self.base / kappa, self.orient, self.shift)

    def with_argument_shifted(self, tau: float) -> "Law":
        """t -> law(t + tau)."""
        if self.is_constant:
            return self
        return replace(self, base=self.base - tau)


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


def _signed_u_interval(t0: float, t1: float, law: Law) -> tuple[float, float]:
    """The u = orient*(t - base) interval, positively oriented."""
    if law.orient > 0:
        return max(t0 - law.base, 0.0), max(t1 - law.base, 0.0)
    return max(law.base - t1, 0.0), max(law.base - t0, 0.0)


# -- moment integrals ------------------------------------------------------

def _moment_exact(t0: float, t1: float, law: Law, gamma: float, q: float
                  ) -> float | None:
    """Exact value of integral t^(gamma-1) law(t)^q dt, or None.

    Elementary cases: constant laws; pure powers (no shift, base 0) for any
    real q; nonnegative-integer q with base 0 (binomial expansion in t); and
    nonnegative-integer gamma with q == 1 (binomial expansion around the
    base).  Everything else is left to quadrature.
    """
    if law.is_constant:
        v = law.constant_value()
        if v == 0.0:
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
            return math.fsum(terms)
        return None
    if q == 1.0 and gamma == int(gamma) and gamma >= 1:
        # expand t^(gamma-1) = (base + orient*u)^(gamma-1) in u
        n = int(gamma) - 1
        u0, u1 = _signed_u_interval(t0, t1, law)
        terms = []
        for k in range(n + 1):
            c_k = math.comb(n, k) * law.base ** (n - k) * law.orient ** k
            terms.append(c_k * law.coef
                         * power_primitive(u0, u1, k + law.expo))
            terms.append(c_k * law.shift * power_primitive(u0, u1, float(k)))
        return math.fsum(terms)
    return None


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


def moment_integral(t0: float, t1: float, law: Law, gamma: float, q: float
                    ) -> float:
    """integral over (t0, t1) of t^(gamma-1) * law(t)^q, exact if elementary.

    The law must be nonnegative on the segment.  Exact closed forms are
    used whenever the integrand is elementary; otherwise a deterministic
    adaptive rule is applied after removing the origin singularity.
    """
    if not 0.0 <= t0 <= t1:
        raise ValidationError(f"bad integration segment ({t0}, {t1})")
    if t0 == t1:
        return 0.0
    exact = _moment_exact(t0, t1, law, gamma, q)
    if exact is not None:
        return exact
    return _moment_adaptive(t0, t1, law, gamma, q)


# -- pieces ----------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """One segment (t0, t1) carrying a single law."""

    t0: float
    t1: float
    law: Law

    def __post_init__(self) -> None:
        if not 0.0 <= self.t0 < self.t1:
            raise ValidationError(
                f"piece endpoints must satisfy 0 <= t0 < t1, got "
                f"({self.t0}, {self.t1})")
        if not self.law.is_constant:
            # the law argument must stay nonnegative across the segment
            if self.law.orient > 0 and self.t0 < self.law.base - 1e-15 * max(
                    1.0, abs(self.law.base)):
                raise ValidationError("law argument negative on the segment")
            if self.law.orient < 0 and self.t1 > self.law.base + 1e-15 * max(
                    1.0, abs(self.law.base)):
                raise ValidationError("law argument negative on the segment")

    def value(self, t):
        return self.law.value(t)

    def endpoint_values(self) -> tuple[float, float]:
        """Limits of the law at t0+ and t1-, possibly infinite."""
        law = self.law
        if law.is_constant:
            v = law.constant_value()
            return v, v
        u0 = law.orient * (self.t0 - law.base)
        u1 = (math.inf if math.isinf(self.t1)
              else law.orient * (self.t1 - law.base))
        return _power_limit(law, u0), _power_limit(law, u1)

    def value_range(self) -> tuple[float, float]:
        """Ordered (lo, hi) closure of values on the open segment."""
        v0, v1 = self.endpoint_values()
        return (v0, v1) if v0 <= v1 else (v1, v0)

    def moment(self, gamma: float, q: float) -> float:
        return moment_integral(self.t0, self.t1, self.law, gamma, q)


def _power_limit(law: Law, u: float) -> float:
    """Limit of coef * u^expo + shift, with u = 0 and u = inf resolved."""
    if u <= 0.0:
        if law.expo < 0.0:
            return law.shift + math.copysign(math.inf, law.coef)
        return law.shift
    if math.isinf(u):
        if law.expo > 0.0:
            return math.copysign(math.inf, law.coef)
        return law.shift
    return law.coef * u ** law.expo + law.shift


def pieces_value(pieces: Sequence[Piece], t) -> np.ndarray:
    """Evaluate a disjoint piece list at points t (zero off-support)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape if t.shape else (1,))
    flat_t = np.atleast_1d(t)
    for p in pieces:
        mask = (flat_t >= p.t0) & (flat_t < p.t1)
        if np.any(mask):
            np.atleast_1d(out)[mask] = np.asarray(p.law.value(flat_t[mask]))
    return out if t.shape else float(out[0])


def clip_pieces(pieces: Iterable[Piece], t_lo: float, t_hi: float
                ) -> list[Piece]:
    """Restrict a piece list to the window (t_lo, t_hi)."""
    if not 0.0 <= t_lo <= t_hi:
        raise ValidationError(f"bad clip window ({t_lo}, {t_hi})")
    out = []
    for p in pieces:
        a, b = max(p.t0, t_lo), min(p.t1, t_hi)
        if a < b:
            out.append(Piece(a, b, p.law))
    return out


def _evaluation_scale(p: Piece) -> float:
    """Magnitude of the quantities law.value combines on the piece.

    Bounds the roundoff of an evaluated value; a value can be tiny while
    the scale is huge when the power term nearly cancels the shift.
    """
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
    with laws coef * (orient (t - base))**expo + shift; ``expo``, ``base``
    and ``orient`` are (n,) arrays, and t0, t1 either.  Pieces may be
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

    A thin holder of the ``Strata`` of one level set (``level_set_strata``,
    which also serves the span engine).  The lambda-route Lorentz
    functional integrates them with its own batched tanh-sinh rule
    (``tanhsinh.row_integrals``), which shares no code with the t-route's
    moments; constant strata and pure-power infinite tails are exact.
    """

    def __init__(self, table: Strata):
        self.table = table
        self.lam_max = float(table.top[0])

    @staticmethod
    def from_pieces(pieces: Sequence[Piece]) -> "LevelSet":
        """The level set of a nonnegative piece list: its laws as one row
        of arrays, through ``level_set_strata``.

        A continuous junction is one cut, not an ulp-wide stratum: where
        piece i + 1 starts at the t where piece i ends and their end
        values there differ by less than 8 eps (|vb_i| + |shift_i| +
        |shift_(i+1)|), which bounds the roundoff of two laws that agree
        there, both ends take one value, a constant side's if there is
        one, else the left end's.  So a constant piece keeps equal ends.
        Two constants and infinite ends (poles) are never joined.
        """
        table = np.array([(p.t0, p.t1, p.law.coef, p.law.shift, p.law.expo,
                           p.law.base, p.law.orient) for p in pieces],
                         dtype=float).reshape(-1, 7).T
        t0, t1, coef, shift, expo, base, orient = table
        flat = coef == 0.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ends = np.maximum(orient * (table[:2] - base), 0.0) ** expo
            va, vb = np.where(flat, shift, coef * ends + shift)
            # a strict test, so an infinite end (nan or inf < inf) fails it
            tol = np.abs(shift)
            tol = tol[1:] + tol[:-1]
            tol += np.abs(vb[:-1])
            tol *= _JOIN_EPS
            gap = va[1:] - vb[:-1]
            join = np.abs(gap, out=gap) < tol
        join &= t1[:-1] == t0[1:]
        if np.count_nonzero(join):
            # a constant side keeps its value; two constants never join
            flat |= expo == 0.0
            np.copyto(vb[:-1], va[1:], where=(join & flat[1:]) > flat[:-1])
            np.copyto(va[1:], vb[:-1], where=join > flat[1:])
        low = np.minimum(va, vb)
        for i in (low < 0.0).nonzero()[0].tolist():
            # negativity slack scales with the law's own evaluation
            # magnitude: a value near a root of coef*arg^expo + shift is a
            # cancellation of shift-sized quantities, so its roundoff is
            # ulp(shift), not ulp(value)
            if low[i] < -1e-12 * max(1.0, _evaluation_scale(pieces[i])):
                raise ValidationError(
                    "level sets require a nonnegative function")
        return LevelSet(level_set_strata(t0, t1, coef[None], shift[None],
                                         expo, base, orient, va[None],
                                         vb[None]))

    @staticmethod
    def from_plateaus(t0, t1, values: np.ndarray) -> "LevelSet":
        """The level set of the array ``values`` >= 0, constant on the
        segments (t0, t1), as one row of arrays: no ``Piece`` or ``Law``.
        Only lengths count, so segments may overlap, as a field's cells at
        (0, cell measure) do."""
        if not (values >= 0.0).all():
            raise ValidationError("level sets require a nonnegative function")
        zero, row = np.zeros(values.shape), values[None]
        return LevelSet(level_set_strata(t0, t1, row, zero[None], zero,
                                         zero, zero + 1.0, row, row))

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
