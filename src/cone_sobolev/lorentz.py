"""Lorentz norms by two formulas, plus Hardy-type checks.

For a mu-measurable f with rearrangement f* and distribution function m,
the Lorentz (p, q) norm is computed two ways:

* rearranged route:      ( integral t^(q/p - 1) f*(t)^q dt )^(1/q)
* distributional route:  ( p * integral lam^(q-1) m(lam)^(q/p) dlam )^(1/q)

The two are equal by the layer-cake principle; computing both through
different code paths (t-space segment moments vs lambda-space level-set
strata) and cross-checking them is the main guard against integration
bugs, since no external numeric tables exist for these norms.

Both routes are exact on steps and on elementary moments, and share no
integration code otherwise.  The t route sums its non-elementary segment
moments as incomplete beta series with a certified bound (relative
1e-12), one kernel call per piece table (``segments._moment_integrals``),
and leaves only Appell F1 moments to ``quadrature``'s adaptive rule; the
lambda route integrates its strata with its own batched tanh-sinh rule
(``tanhsinh.row_integrals``) to the same tolerance.  Steps
and sampled fields stay arrays on both routes: on the lambda route their
plateaus are constant pieces of a piece table, like any other input.
Many inputs of one (p, q) take the lambda route as one batch
(``lorentz_norms_distributional``), whose fixed cost, about 200 us a call
whatever its size, is paid once; ``lorentz_norm_distributional`` is its
one-element case.

The Hardy evaluation check

    || t^(1/p*-1/q) integral_t^inf f ||_q  <=  p* || t^(1+1/p*-1/q) f ||_q

is the inequality behind the embedding theorem; for q = 1 it holds with
equality by Fubini, which the tests pin down.  Each side is one kernel
call on a piece table, f's on the right and its tail function's on the
left, plus the adaptive rule for each piece whose tail is not elementary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cones import WeightedCone
from .errors import (DomainError, DivergentIntegralError,
                     InternalConsistencyError, ValidationError)
from .profiles import RadialProfile
from .quadrature import integrate_adaptive, substitute_origin
from .rearrangement import SampledField, StepFunction1D
from .segments import (Law, Piece, PieceTable, _moment_integrals,
                       dips_below_zero, level_set_qth_powers, moment_integral,
                       rises_past, table_strata, tiling_slack)

__all__ = [
    "LorentzParams",
    "lorentz_norm_rearranged",
    "lorentz_norm_distributional",
    "lorentz_norms_distributional",
    "hardy_check",
    "restricted_norm",
    "ell_q_norm",
]

# relative slack of the Hardy inequality check: lhs beyond rhs * (1 + it)
# is an integration bug
_HARDY_SLACK = 1e-9


@dataclass(frozen=True)
class LorentzParams:
    """Exponent pair 1 <= q <= p < inf, optionally bound to a cone.

    Binding to a cone derives the critical exponent
    p_star = D p / (D - p), which requires p < D.
    """

    p: float
    q: float
    cone: WeightedCone | None = None

    def __post_init__(self) -> None:
        if not (1.0 <= self.q <= self.p < math.inf):
            raise ValidationError(
                f"Lorentz exponents need 1 <= q <= p < inf, got "
                f"p={self.p}, q={self.q}")
        if self.cone is not None and self.p >= self.cone.big_d:
            raise DomainError(
                f"supercritical exponent: p = {self.p} >= D = "
                f"{self.cone.big_d}")
        if self.cone is not None:
            # 1/p = 1/p* + 1/D must close to machine precision
            residual = abs(1.0 / self.p
                           - (1.0 / self.p_star + 1.0 / self.cone.big_d))
            if residual > 1e-15 * (1.0 / self.p):
                raise InternalConsistencyError(
                    "critical exponent identity failed")

    @property
    def p_star(self) -> float:
        if self.cone is None:
            raise ValidationError("p_star requires params bound to a cone")
        d_eff = self.cone.big_d
        return d_eff * self.p / (d_eff - self.p)

    @property
    def q_prime(self) -> float:
        """Conjugate exponent of q; inf when q = 1."""
        return math.inf if self.q == 1.0 else self.q / (self.q - 1.0)

    def star_params(self) -> "LorentzParams":
        """The (p*, q) pair used for function-side norms."""
        return LorentzParams(self.p_star, self.q)


# -- input adapters ---------------------------------------------------------

def _plateau_table(t0, t1, values: np.ndarray) -> PieceTable:
    """Constant pieces of the given values on the segments (t0, t1)."""
    zero = np.zeros(values.size)
    return PieceTable(t0, t1, values, zero, zero, zero, zero + 1.0)


def _table_of(f) -> PieceTable:
    """The piece table of a step, sampled field, profile, piece table (a
    gradient density is one), piece or piece list.  A field's cells are
    the constant pieces (0, cell measure) of their |value|: only lengths
    count on the lambda route, so pieces may overlap there."""
    if isinstance(f, PieceTable):   # before the lists: it is a tuple
        return f
    if isinstance(f, StepFunction1D):
        return _plateau_table(*f.plateaus(), f.value_array)
    if isinstance(f, SampledField):
        measures = f.cell_measures.ravel()
        return _plateau_table(np.zeros(measures.size), measures,
                              np.abs(f.values.ravel()))
    if isinstance(f, RadialProfile):
        return f.table
    if isinstance(f, Piece):
        return PieceTable.of([f])
    if isinstance(f, Sequence) and all(isinstance(p, Piece) for p in f):
        return PieceTable.of(f)
    raise ValidationError("expected a step function, sampled field, "
                          "profile, gradient density, or pieces")


def _check_nonincreasing(table: PieceTable) -> None:
    """A rearrangement's pieces tile (0, support end) without gaps; none
    rises (its law rises exactly when coef * expo * orient > 0), starts
    above where the one before ends (``segments.rises_past``) or falls
    below 0 (``segments.dips_below_zero``)."""
    order = table.t0.argsort(kind="stable")
    t0, t1 = table.t0[order], table.t1[order]
    ends = table.ends()[:, :, order]
    (v0, v1), (s0, s1) = ends
    t_before = np.append(0.0, t1[:-1])
    gap = np.abs(t0 - t_before) > tiling_slack(t_before)
    rise = (table.coef * table.expo * table.orient)[order] > 0.0
    rise[1:] |= rises_past(v1[:-1], v0[1:], s1[:-1], s0[1:])
    bad = gap | rise | dips_below_zero(*ends).any(axis=0)
    if np.count_nonzero(bad):
        i = bad.argmax()
        raise ValidationError(
            "pieces overlap" if gap[i] and t0[i] < t_before[i] else
            "rearranged-route pieces must tile (0, t_max) from t = 0"
            if gap[i] else "rearranged-route input must be nonincreasing"
            if rise[i] else "rearranged-route input must be nonnegative")


# -- the two norm routes -----------------------------------------------------

def lorentz_norm_rearranged(f_star, params: LorentzParams) -> float:
    """Lorentz norm from the rearranged representative.

    Evaluates ( sum of segment moments of t^(q/p-1) f*(t)^q )^(1/q); each
    step contributes c^q (p/q) (t1^(q/p) - t0^(q/p)) in closed form, power
    arcs integrate analytically, with log/expm1 evaluation guarding nearly
    cancelling exponents, and the other segments are incomplete beta
    series, all in one ``_moment_integrals`` call.  Step functions take the
    array route (``StepFunction1D.moment``), one numpy expression over all
    plateaus.
    """
    if isinstance(f_star, StepFunction1D):
        vals = f_star.value_array   # >= 0, so each its own magnitude
        if rises_past(vals[:-1], vals[1:], vals[:-1], vals[1:]).any():
            raise ValidationError(
                "rearranged-route input must be nonincreasing")
        return f_star.moment(params.q / params.p, params.q) ** (
            1.0 / params.q)
    return _rearranged_norm(f_star, _table_of(f_star), params)


def _rearranged_norm(f, table: PieceTable, params: LorentzParams) -> float:
    """The rearranged route on ``table``, f's table or a clip of it.  A
    profile's own checks (tiling, no rising piece, continuity under the
    order rule, decay to 0) already hold there, so only other inputs take
    the route's check."""
    if not isinstance(f, RadialProfile):
        _check_nonincreasing(table)
    if not table.t0.size:
        return 0.0
    q = params.q
    total = math.fsum(_moment_integrals(table, q / params.p, q))
    return total ** (1.0 / q)


def lorentz_norm_distributional(f, params: LorentzParams) -> float:
    """Lorentz norm via the distribution function: the one-element case
    of ``lorentz_norms_distributional``.  Must agree with the rearranged
    route, to 1e-10 in the tests."""
    (norm,) = lorentz_norms_distributional([f], params)
    return norm


def lorentz_norms_distributional(fs: Iterable, params: LorentzParams
                                 ) -> list[float]:
    """The Lorentz norm of each f via its distribution function.

    ( p * integral lam^(q-1) m(lam)^(q/p) dlam )^(1/q), stratum by stratum,
    from each f's piece table (``_table_of``).  All of them go through one
    strata build (``segments.table_strata``) and one rule call
    (``segments.level_set_qth_powers``), so a call's fixed cost is paid
    once per batch, not per level set; each norm is the same float alone
    or in any batch.  ``fs`` is read once, so any iterable will do.
    """
    tables = [_table_of(f) for f in fs]
    if not tables:
        return []
    q = params.q
    return [power ** (1.0 / q) for power in level_set_qth_powers(
        table_strata(tables), params.p, q)]


# -- Hardy inequality evaluation ---------------------------------------------

def _closure_moment(row: list[float], tail: float, gamma: float, q: float
                    ) -> float:
    """integral over (t0, t1) of t^(gamma-1) F(t)^q on a table row (t0, t1,
    coef, shift, expo, base, orient), F(t) = tail + the integral of the
    row's law over (t, t1), by the adaptive rule: F where it has no
    elementary form."""
    t0, t1, coef, shift, expo, base, orient = row
    law = Law(coef, expo, base, orient, shift)

    def big_f(t: np.ndarray) -> np.ndarray:
        return np.array([tail + moment_integral(float(s), t1, law, 1.0, 1.0)
                         for s in t])

    # F is bounded at the origin (local order 0)
    f, a, b = substitute_origin(lambda t: big_f(t) ** q, gamma, t0, t1, 0.0)
    return integrate_adaptive(f, a, b)


def hardy_check(f, params: LorentzParams) -> tuple[float, float]:
    """Evaluate both sides of the Hardy inequality for a nonnegative f.

    lhs = ( integral ( t^(1/p*-1/q) integral_t^inf f )^q dt )^(1/q),
    rhs = p* ( integral ( t^(1+1/p*-1/q) f(t) )^q dt )^(1/q).

    Returns (lhs, rhs); lhs <= rhs always (equality when q = 1, where both
    sides reduce to the same double integral by Fubini).  A violation
    beyond _HARDY_SLACK (1e-9) indicates an integration bug and raises.

    The right side, f's masses and the left side take one
    ``_moment_integrals`` call each, on f's rows sorted by t0 (overlaps
    are refused) and on the rows of F(t) = integral_t^inf f: a suffix sum
    of masses plus a constant on a gap, an affine law on a constant piece
    and a power on a pure power c t^e (e != -1); F on any other piece
    takes the adaptive rule (``_closure_moment``).
    """
    table = _table_of(f)
    p_star, q = params.p_star, params.q
    if np.count_nonzero(dips_below_zero(*table.ends())):
        raise ValidationError("the Hardy check requires f >= 0")
    if not table.t0.size:
        return 0.0, 0.0
    cols = np.array(table)[:, table.t0.argsort(kind="stable")]
    table = PieceTable(*cols)
    try:
        rhs_power = math.fsum(_moment_integrals(table, q + q / p_star, q))
    except DivergentIntegralError as exc:
        raise DomainError(
            f"divergent Hardy right-hand side: {exc}") from exc
    rhs = p_star * rhs_power ** (1.0 / q)

    t0, t1, coef, shift, expo, base, _ = table
    before = t1[:-1]
    if np.count_nonzero(t0[1:] < before - tiling_slack(before)):
        raise ValidationError("pieces overlap")
    masses = np.array(_moment_integrals(table, 1.0, 1.0))
    tails = np.append(np.cumsum(masses[::-1])[::-1][1:], 0.0)
    # F's rows: tail + mass across a gap; (tail + c t1^e1 / e1) - (c / e1)
    # t^e1 on a piece of value c (e1 = 1) or of law c t^(e1-1)
    flat = (expo == 0.0) | (coef == 0.0)
    power = ~flat & (base == 0.0) & (shift == 0.0) & (expo != -1.0)
    closure = ~(flat | power)
    c = np.where(flat, np.where(expo == 0.0, coef + shift, shift), coef)
    e1 = np.where(power, expo + 1.0, 1.0)
    t1_e1 = t1.copy()
    t1_e1[power] = [t ** e for t, e in zip(t1[power].tolist(),
                                           e1[power].tolist())]
    cursor = np.append(0.0, before)
    zero = np.zeros(t0.size)
    # a closure row (dropped) may overflow, an infinite piece give nan
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate(
            ((cursor, t0, tails + masses, zero, zero, zero, zero + 1.0),
             (t0, t1, -c / e1, tails + c * t1_e1 / e1, e1, zero, zero + 1.0)),
            axis=1)[:, np.append(t0 > cursor, ~closure)]
    gamma = q / p_star
    moments = _moment_integrals(PieceTable(*rows), gamma, q)
    moments += [_closure_moment(row, tail, gamma, q) for *row, tail in zip(
        *cols[:, closure].tolist(), tails[closure].tolist())]
    lhs = math.fsum(moments) ** (1.0 / q)
    if lhs > rhs * (1.0 + _HARDY_SLACK):
        raise InternalConsistencyError(
            f"Hardy inequality violated: lhs {lhs} > rhs {rhs}")
    return lhs, rhs


# -- restricted norms and sequence norms --------------------------------------

def restricted_norm(f, params: LorentzParams, t_cut: float) -> float:
    """Lorentz norm of f restricted to (0, t_cut) in measure coordinates.

    Restriction of a nonincreasing f is again nonincreasing, so the
    rearranged route applies directly.
    """
    if t_cut < 0:
        raise DomainError("measure cutoff must be nonnegative")
    if t_cut == 0.0:
        return 0.0
    return _rearranged_norm(f, _table_of(f).clip(0.0, t_cut), params)


def ell_q_norm(alpha: Sequence[float], q: float) -> float:
    """The ell_q norm of a finite sequence; q = inf gives the max."""
    if not q >= 1.0:   # NaN and -inf too
        raise ValidationError("sequence exponent must be >= 1 (or inf)")
    arr = np.abs(np.asarray(alpha, dtype=float))
    if arr.size == 0:
        return 0.0
    if math.isinf(q):
        return float(np.max(arr))
    if q == 1.0:
        return float(np.sum(arr))
    m = float(np.max(arr))
    if m == 0.0:
        return 0.0
    return m * float(np.sum((arr / m) ** q)) ** (1.0 / q)
