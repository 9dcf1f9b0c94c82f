"""The object event sweep over piece value ranges: the reference builder.

``sweep`` builds the lambda-strata of a piece list the slow way, with one
``Law`` per term and one ``Stratum`` per stratum, keeping the straddle
constants and term coefficients in running Shewchuk expansions.  It
shares no strata code with ``segments.level_set_strata``, which the tests
check against it; ``rows_of`` turns its strata into the rule's table.

The object algebra the sweep and the tests' oracles use, which the
library's array paths do without, lives here too:

* ``inverse(law)``, the law lam -> t of a monotone law, and
  ``monotone_direction(law)``;
* ``abs_pieces``, the pieces of |f| split at each law's closed-form root
  (``_law_root``), the reference for the span engine's f and -f;
* ``distribution(level, lam)``, m(lam) read off ``LevelSet.strata``;
* ``derivative``, ``scaled``, ``with_argument_scaled`` and
  ``with_argument_shifted``, the law algebra that profiles and windows
  apply to table columns;
* ``pieces_of(table)``, a table's rows as ``Piece`` objects, and the
  per-object ``endpoint_values``, ``value_range``, ``moment`` and
  ``pieces_value`` that the library computes from the table;
* ``knot_pieces``, ``density_pieces`` and ``check_profile``: profiles
  built and checked one ``Piece`` and ``Law`` at a time, the oracles of
  ``from_knots``, ``gradient_density`` and ``RadialProfile``'s column
  checks;
* ``distribution_function(obj, tau)``, the measure of {|f| > tau} of a
  step or a sampled field.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from cone_sobolev import (DomainError, InternalConsistencyError,
                          SampledField, StepFunction1D, ValidationError)
from cone_sobolev.segments import (Law, LevelSet, Piece, Strata,
                                   level_set_qth_powers, moment_integral)
from cone_sobolev.tanhsinh import Rows


# -- the object algebra -----------------------------------------------------

def monotone_direction(law: Law) -> int:
    """+1 increasing, -1 decreasing, 0 constant, on its valid domain."""
    if law.is_constant:
        return 0
    return int(math.copysign(1.0, law.coef * law.expo * law.orient))


def inverse(law: Law) -> Law:
    """The law lam -> t with law(t) = lam, on a monotone branch.

    Solving coef * (orient (t - base))**expo = lam - shift gives
    t = base + orient * ((lam - shift)/coef)**(1/expo), which is again
    a law in lam: the lambda-space segment algebra is closed.
    """
    if law.is_constant:
        raise InternalConsistencyError("constant law has no inverse")
    e = 1.0 / law.expo
    if law.coef > 0:
        return Law(law.orient * law.coef ** (-e), e,
                   base=law.shift, orient=1.0, shift=law.base)
    return Law(law.orient * (-law.coef) ** (-e), e,
               base=law.shift, orient=-1.0, shift=law.base)


def _law_root(law: Law) -> float | None:
    """The t with law(t) = 0 on the valid branch, if one exists."""
    if law.is_constant:
        return None
    ratio = -law.shift / law.coef
    if ratio <= 0.0:
        return None
    return law.base + law.orient * ratio ** (1.0 / law.expo)


def abs_pieces(pieces) -> list[Piece]:
    """Pieces of |f| for a signed piece list: split at roots, flip negatives.

    Roots of each law are available in closed form, so the absolute value
    stays inside the segment class exactly.
    """
    out: list[Piece] = []
    for p in pieces:
        root = _law_root(p.law)
        if root is not None and p.t0 < root < p.t1:
            segs = [(p.t0, root), (root, p.t1)]
        else:
            segs = [(p.t0, p.t1)]
        for a, b in segs:
            mid_val = p.law.value(0.5 * (a + b) if not math.isinf(b)
                                  else a + 1.0)
            law = p.law if mid_val >= 0 else scaled(p.law, -1.0)
            out.append(Piece(a, b, law))
    return out


def derivative(law: Law) -> Law:
    """The law's derivative in t, again a law."""
    if law.is_constant:
        return Law.constant(0.0)
    return Law(law.coef * law.expo * law.orient, law.expo - 1.0,
               law.base, law.orient, 0.0)


def scaled(law: Law, k: float) -> Law:
    """k * law, for k real."""
    return replace(law, coef=k * law.coef, shift=k * law.shift)


def with_argument_scaled(law: Law, kappa: float) -> Law:
    """t -> law(kappa * t), kappa > 0."""
    if kappa <= 0:
        raise ValidationError("argument dilation must be positive")
    if law.is_constant:
        return law
    return Law(law.coef * kappa ** law.expo, law.expo, law.base / kappa,
               law.orient, law.shift)


def with_argument_shifted(law: Law, tau: float) -> Law:
    """t -> law(t + tau)."""
    if law.is_constant:
        return law
    return replace(law, base=law.base - tau)


def distribution_function(obj, tau: float) -> float:
    """mu-measure (or Lebesgue measure, for 1D steps) of {|f| > tau}."""
    if isinstance(obj, StepFunction1D):
        widths, values = obj.widths(), obj.value_array
    elif isinstance(obj, SampledField):
        widths, values = obj.cell_measures, np.abs(obj.values)
    else:
        raise ValidationError(
            "distribution_function expects a StepFunction1D or SampledField")
    if tau <= 0:
        raise DomainError("distribution threshold must be positive")
    return float(np.sum(widths[values > tau]))


def distribution(level: LevelSet, lam):
    """m(lam) = measure of {f > lam} for lam >= 0, vectorized, from the
    level set's strata.  Values at breakpoints use the stratum above
    (right continuity)."""
    lam = np.asarray(lam, dtype=float)
    flat = np.atleast_1d(lam).astype(float)
    if np.any(flat < 0):
        raise ValidationError(
            "distribution function is defined for lam >= 0")
    out = np.zeros_like(flat)
    for s in level.strata:
        mask = (flat >= s.lam0) & (flat < s.lam1)
        if np.any(mask):
            out[mask] = sum((t.value(flat[mask]) for t in s.terms),
                            np.full(np.count_nonzero(mask), s.const))
    return out if lam.shape else float(out[0])


# -- pieces, one object per row -----------------------------------------------

def pieces_of(table) -> tuple[Piece, ...]:
    """The rows of a ``PieceTable`` as pieces."""
    return tuple(Piece(t0, t1, Law(coef, expo, base, orient, shift))
                 for t0, t1, coef, shift, expo, base, orient
                 in zip(*(col.tolist() for col in table)))


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


def endpoint_values(p: Piece) -> tuple[float, float]:
    """Limits of the piece's law at t0+ and t1-, possibly infinite."""
    law = p.law
    if law.is_constant:
        v = law.constant_value()
        return v, v
    u0 = law.orient * (p.t0 - law.base)
    u1 = (math.inf if math.isinf(p.t1)
          else law.orient * (p.t1 - law.base))
    return _power_limit(law, u0), _power_limit(law, u1)


def value_range(p: Piece) -> tuple[float, float]:
    """Ordered (lo, hi) closure of values on the open segment."""
    v0, v1 = endpoint_values(p)
    return (v0, v1) if v0 <= v1 else (v1, v0)


def moment(p: Piece, gamma: float, q: float) -> float:
    """The integral over the piece of t^(gamma-1) law(t)^q."""
    return moment_integral(p.t0, p.t1, p.law, gamma, q)


def pieces_value(pieces, t):
    """Evaluate a disjoint piece list at points t (zero off-support)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape if t.shape else (1,))
    flat_t = np.atleast_1d(t)
    for p in pieces:
        mask = (flat_t >= p.t0) & (flat_t < p.t1)
        if np.any(mask):
            np.atleast_1d(out)[mask] = np.asarray(p.law.value(flat_t[mask]))
    return out if t.shape else float(out[0])


# -- profiles, one object per piece ------------------------------------------

def _end_magnitudes(p: Piece) -> list[float]:
    """|coef u^expo| + |shift| at t0+ and t1- with Python's pow, the
    magnitudes the end values are rounded from; 0 at an infinite limit."""
    law, out = p.law, []
    for v, t in zip(endpoint_values(p), (p.t0, p.t1)):
        if law.is_constant:
            term = law.coef if law.expo == 0.0 else 0.0
        else:
            u = law.orient * (t - law.base)
            term = law.coef * u ** law.expo if 0.0 < u < math.inf else 0.0
        out.append(0.0 if math.isinf(v) else abs(term) + abs(law.shift))
    return out


def check_profile(pieces) -> None:
    """A profile's checks, piece by piece, with Python's pow."""
    if not pieces:
        raise ValidationError("profile needs at least one piece")
    prev_end = 0.0
    prev = None   # the piece before's end value and its magnitude
    for p in pieces:
        law = p.law
        if not law.is_constant and (law.base != 0.0 or law.orient != 1.0):
            raise ValidationError(
                "profile laws must be anchored at the origin")
        if abs(p.t0 - prev_end) > 1e-15 * max(1.0, abs(prev_end)):
            raise ValidationError(
                f"profile pieces must tile (0, t_max); gap at {p.t0}")
        if law.coef * law.expo * law.orient > 0.0:
            raise ValidationError("profile must be nonincreasing")
        (v0, v1), (m0, m1) = endpoint_values(p), _end_magnitudes(p)
        if prev is not None and abs(v0 - prev[0]) > 1e-9 * max(prev[1], m0):
            raise ValidationError(f"profile discontinuity at t = {p.t0}")
        prev_end, prev_val, prev = p.t1, v1, (v1, m1)
    if math.isinf(prev_end):
        raise ValidationError("profile support must be bounded")
    head = endpoint_values(pieces[0])[0]
    if not -1e-12 <= prev_val <= 1e-9 * max(
            1.0, head if not math.isinf(head) else 1.0):
        raise ValidationError(
            f"profile must decay to zero at its support end, "
            f"got {prev_val}")


def knot_pieces(knots) -> list[Piece]:
    """The checked pieces of ``from_knots``, one object at a time."""
    if not knots:
        raise ValidationError("at least one knot is required")
    ts = [float(t) for t, _ in knots]
    vs = [float(v) for _, v in knots]
    if any(t <= 0 for t in ts):
        raise DomainError("knot positions must be positive measure values")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("knot positions must be strictly increasing")
    if any(not math.isfinite(v) for v in vs):
        raise ValidationError("knot values must be finite")
    if any(b > a for a, b in zip(vs, vs[1:])):
        raise ValidationError("knot values must be nonincreasing")
    if any(v < 0 for v in vs):
        raise ValidationError("knot values must be nonnegative")
    if vs[-1] != 0.0:
        raise ValidationError("the last knot value must be zero")
    pieces = [Piece(0.0, ts[0], Law.constant(vs[0]))]
    for (t0, v0), (t1, v1) in zip(zip(ts, vs), zip(ts[1:], vs[1:])):
        slope = (v1 - v0) / (t1 - t0)
        pieces.append(Piece(t0, t1, Law(slope, 1.0, shift=v0 - slope * t0)))
    check_profile(pieces)
    return pieces


def density_pieces(cone, pieces) -> list[Piece]:
    """The pieces of ``gradient_density`` of a profile's pieces."""
    if math.isinf(endpoint_values(pieces[0])[0]):
        raise DomainError("profile has an unbounded head")
    front = cone.big_d * cone.c_d ** (1.0 / cone.big_d)
    out = []
    for p in pieces:
        dlaw = derivative(p.law)
        if dlaw.is_constant and dlaw.constant_value() == 0.0:
            continue
        coef = front * (-dlaw.coef)
        expo = dlaw.expo + (cone.big_d - 1.0) / cone.big_d
        out.append(Piece(p.t0, p.t1, Law(coef, expo)))
    return out


# -- the sweep ----------------------------------------------------------------


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
        lo, hi = value_range(p)
        if lo < -1e-12 * max(1.0, _evaluation_scale(p)):
            raise ValidationError("level sets require a nonnegative function")
        lo = max(lo, 0.0)
        cuts.add(lo)
        lows.append(lo)
        lengths.append(p.t1 - p.t0)
        if math.isinf(hi):
            has_inf = True
        else:
            cuts.add(hi)
        if p.law.is_constant:
            continue
        inv = inverse(p.law)
        key = (inv.expo, inv.base, inv.orient)
        if monotone_direction(p.law) < 0:
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
    return Rows.of(np.array([(s.lam0, s.lam1) for s in strata],
                            dtype=float).reshape(-1, 2),
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
