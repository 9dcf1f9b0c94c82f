"""Nonincreasing rearrangements of steps and sampled fields.

The rearrangement of a function on the weighted cone lives on (0, inf)
with Lebesgue measure in the measure coordinate t: equimeasurability

    |{ f* > tau }| = mu({ |f| > tau })   for every tau > 0

defines f* uniquely as a nonincreasing right-continuous function.  Two
input kinds are supported: 1D step functions (exact arithmetic) and
sampled multi-dimensional fields (cell values with per-cell weighted
measures, gradients by finite differences).  Sorting cells by value with a
deterministic tie-break realizes the rearrangement; the radial
rearrangement reinterprets it in the measure coordinate and also provides
a piecewise-affine interpolant for gradient purposes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cones import WeightedCone
from .errors import DivergentIntegralError, NumericalError, ValidationError
from .profiles import RadialProfile, from_knots
from .segments import Law, Piece, power_primitives

__all__ = [
    "StepFunction1D",
    "SampledField",
    "rearrangement",
    "radial_rearrangement",
]


class StepFunction1D:
    """Nonnegative step function on (0, inf), zero after the last breakpoint.

    values[k] holds on (breakpoints[k-1], breakpoints[k]), starting at 0.
    The data is kept as read-only float64 arrays (``breakpoint_array``,
    ``value_array``), so grid-sized steps never become per-cell objects;
    ``breakpoints`` and ``values`` return them as tuples.
    """

    __slots__ = ("breakpoint_array", "value_array")

    def __init__(self, breakpoints: Sequence[float],
                 values: Sequence[float]) -> None:
        try:
            bps = np.array(breakpoints, dtype=float)
            vals = np.array(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"step data must be numeric sequences: {exc}") from exc
        self._own(bps, vals)

    @classmethod
    def _owning(cls, bps: np.ndarray, vals: np.ndarray) -> "StepFunction1D":
        """The step on two fresh arrays that no one else holds, taken over
        without a copy when they are float64 (``_canonical_step`` hands
        over its own); a caller's data goes through ``__init__``, which
        copies."""
        step = object.__new__(cls)
        step._own(bps.astype(float, copy=False),
                  vals.astype(float, copy=False))
        return step

    def _own(self, bps: np.ndarray, vals: np.ndarray) -> None:
        """Validate the two arrays, make them read-only and keep them."""
        if bps.ndim != 1 or vals.ndim != 1:
            raise ValidationError("step data must be one-dimensional")
        if bps.size != vals.size:
            raise ValidationError(
                "breakpoints and values must have equal length")
        # NaN fails every comparison, so these also reject NaN entries
        if bps.size and not (bps[0] > 0.0 and bps[-1] < math.inf
                             and (bps[1:] > bps[:-1]).all()):
            raise ValidationError(
                "breakpoints must be finite, positive, and increasing")
        if vals.size and not ((vals >= 0.0).all() and vals.max() < math.inf):
            raise ValidationError("step values must be finite and >= 0")
        bps.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoint_array", bps)
        object.__setattr__(self, "value_array", vals)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("StepFunction1D is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction1D):
            return NotImplemented
        return (np.array_equal(self.breakpoint_array, other.breakpoint_array)
                and np.array_equal(self.value_array, other.value_array))

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.values))

    def __repr__(self) -> str:
        return (f"StepFunction1D(breakpoints={self.breakpoints!r}, "
                f"values={self.values!r})")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.breakpoint_array.tolist())

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.value_array.tolist())

    @property
    def support_end(self) -> float:
        bps = self.breakpoint_array
        return float(bps[-1]) if bps.size else 0.0

    def widths(self) -> np.ndarray:
        """Plateau lengths b_k - b_(k-1), starting from 0."""
        return np.diff(self.breakpoint_array, prepend=0.0)

    def plateaus(self) -> tuple[np.ndarray, np.ndarray]:
        """The plateaus' ends (b_(k-1), b_k), starting from 0."""
        ends = self.breakpoint_array
        return np.append(0.0, ends)[:-1], ends

    def as_pieces(self) -> list[Piece]:
        """The plateaus as constant pieces: a public entry that perfbench's
        layer tracer wraps; the norm routes take a step's plateaus as
        arrays."""
        return [Piece(t0, t1, Law.constant(v)) for t0, t1, v in
                zip(*(x.tolist() for x in self.plateaus()),
                    self.value_array.tolist())]

    def value(self, t):
        t = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t)
        idx = np.searchsorted(self.breakpoint_array, flat, side="right")
        ok = (idx < self.value_array.size) & (flat > 0)
        out = np.zeros_like(flat)
        out[ok] = self.value_array[idx[ok]]
        return out if t.shape else float(out[0])

    def moment(self, gamma: float, q: float) -> float:
        """integral over (0, inf) of t^(gamma-1) f(t)^q, exactly, gamma > 0.

        Plateau k contributes v_k^q times the integral of t^(gamma-1) over
        it, all plateaus in one array expression (``power_primitives``, in
        full precision for t1/t0 huge or close to 1), and the terms are
        added exactly and rounded once (``_exact_sum``), so the moment is
        the correctly rounded sum of its terms.
        """
        if not gamma > 0.0:
            raise DivergentIntegralError(
                f"integral of t^{gamma - 1.0} diverges at the origin")
        live = self.value_array > 0.0
        prim = power_primitives(*self.plateaus(), gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.value_array[live] ** q * prim[live]
        return _exact_sum(terms)


# terms per bincount pass: a pass adds at most 2^26 halves below 2^27 in
# magnitude, so every bucket sum is an integer below 2^53, exact in float64
_SUM_CHUNK = 1 << 26


def _exact_sum(terms: np.ndarray) -> float:
    """The sum of a float64 array rounded once, half to even: the float
    ``math.fsum`` gives, from a few array passes.

    ``np.frexp`` writes each term as m 2^e with |m| < 1 and 53 bits; the
    whole and fractional parts of m 2^27, its top 27 and bottom 26 bits,
    are summed per exponent e by ``np.bincount``, exactly, in passes of
    at most ``_SUM_CHUNK`` terms.  The buckets then make one Python int,
    and its true division by a power of two rounds correctly, subnormals
    included.  A non-finite term or an overflowing total raises
    NumericalError.
    """
    if not terms.size:
        return 0.0
    mant, expo = np.frexp(terms)
    frac, whole = np.modf(mant * 134217728.0)        # 2^27
    low = int(expo.min())
    expo -= low
    total = 0
    try:
        for start in range(0, terms.size, _SUM_CHUNK):
            part = slice(start, start + _SUM_CHUNK)
            wholes = np.bincount(expo[part], whole[part]).tolist()
            fracs = np.bincount(expo[part], frac[part]).tolist()
            acc = 0     # Horner over exponents, from the top bucket down
            for w, f in zip(reversed(wholes), reversed(fracs)):
                acc = (acc << 1) + (int(w) << 26) + int(f * 67108864.0)
            total += acc
        # total counts units of 2^(low - 53)
        return (total << max(low - 53, 0)) / (1 << max(53 - low, 0))
    except (OverflowError, ValueError):     # inf or nan buckets, or total
        raise NumericalError(
            "step moment overflows double precision") from None


@dataclass(frozen=True)
class SampledField:
    """Grid samples of a function on a box inside the cone closure.

    Cell values are center samples; cell measures are the exact per-cell
    integrals of the monomial weight, products of per-axis power-rule
    factors (``_cell_measures``), so cells on the weight's zero set are
    measured exactly too.  Gradients use central differences inside,
    one-sided at the box faces.  ``from_function`` and the bump field
    build every field through one constructor on a validated grid.
    """

    cone: WeightedCone
    box: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    values: np.ndarray
    cell_measures: np.ndarray
    gradient_magnitude: np.ndarray

    def __post_init__(self) -> None:
        _validate_box(self.cone, self.box, self.shape)
        if self.values.shape != self.shape:
            raise ValidationError("value array does not match the grid shape")
        if not (self.cell_measures >= 0.0).all():   # NaN fails as well
            raise ValidationError("cell measures must be nonnegative")
        if not np.isfinite(self.values).all():
            raise ValidationError("cell values must be finite")

    @staticmethod
    def _on_grid(cone: WeightedCone, box, shape,
                 values: np.ndarray) -> "SampledField":
        """The field of cell values on a validated grid, with its exact
        cell measures and gradient magnitudes."""
        return SampledField(cone, box, shape, values,
                            _cell_measures(cone, box, shape),
                            _gradient_magnitude(values, box, shape))

    @staticmethod
    def from_function(cone: WeightedCone,
                      box: Sequence[tuple[float, float]],
                      shape: Sequence[int],
                      fn: Callable[[np.ndarray], np.ndarray]
                      ) -> "SampledField":
        """Sample fn (vectorized over an (n, d) point array) on the grid."""
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        shape = tuple(int(n) for n in shape)
        _validate_box(cone, box, shape)
        values = np.asarray(fn(_cell_centers(box, shape)), dtype=float)
        return SampledField._on_grid(cone, box, shape, values.reshape(shape))

    @property
    def max_cell_diameter(self) -> float:
        return math.sqrt(sum(((hi - lo) / n) ** 2
                             for (lo, hi), n in zip(self.box, self.shape)))


def _gradient_magnitude(values: np.ndarray, box, shape) -> np.ndarray:
    """|grad u| from np.gradient, with the squared components added in
    axis order in place (the order of a sum over a stacked axis 0)."""
    spacings = [(hi - lo) / n for (lo, hi), n in zip(box, shape)]
    grads = np.gradient(values, *spacings, edge_order=1)
    if isinstance(grads, np.ndarray):
        grads = [grads]
    out = np.multiply(grads[0], grads[0], out=grads[0])
    for g in grads[1:]:
        out += np.multiply(g, g, out=g)
    return np.sqrt(out, out=out)


def _validate_box(cone: WeightedCone, box, shape) -> None:
    if len(box) != cone.d or len(shape) != cone.d:
        raise ValidationError("box and shape must match the dimension")
    for (lo, hi) in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError("box intervals must be finite and ordered")
    for a in cone.constrained_axes:
        if box[a][0] < 0:
            raise ValidationError(
                f"box extends to negative values on constrained axis {a}")
    if any(n < 2 for n in shape):
        raise ValidationError("grid needs at least 2 cells per axis")


def _cell_edges(box, shape) -> list[np.ndarray]:
    return [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(box, shape)]


def _axis_centers(box, shape) -> list[np.ndarray]:
    """Each axis's cell-center coordinates, the one place they are
    written: sampled points, CSV x columns and bump fields share them."""
    return [0.5 * (e[1:] + e[:-1]) for e in _cell_edges(box, shape)]


def _cell_centers(box, shape) -> np.ndarray:
    """The (cells, d) array of cell centers, in the order of the cells."""
    mesh = np.meshgrid(*_axis_centers(box, shape), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _cell_measures(cone: WeightedCone, box, shape) -> np.ndarray:
    """Per-cell mu measures, exact: the outer product of the per-axis
    integrals of x^A over each cell, (hi^(A+1) - lo^(A+1)) / (A+1) by the
    power rule that also measures plateaus and constant strata
    (``power_primitives``; a wall cell is its lo = 0 case), and hi - lo on
    an unweighted axis."""
    factors = []
    for a, edges in enumerate(_cell_edges(box, shape)):
        power = cone.power_of(a)
        lo, hi = edges[:-1], edges[1:]
        factors.append(hi - lo if power == 0.0
                       else power_primitives(lo, hi, power + 1.0))
    return functools.reduce(np.multiply.outer, factors)


# -- the operators ---------------------------------------------------------

def _canonical_step(measures: np.ndarray, values: np.ndarray
                    ) -> StepFunction1D:
    """Sort (measure, value) cells into the canonical nonincreasing step.

    Cells with a value or measure <= 0 drop first (zero values are the
    implicit tail).  The rest are sorted by descending value with
    numpy's default sort, and each run of equal values is then put in
    cell-index order by one lexsort over the tied cells only, which is
    exactly the order of a stable sort.  Each run becomes one plateau
    ending at the run's last cumulative measure.  np.cumsum adds in
    order, so every breakpoint is the same float a running sum gives.
    This canonical form makes rearrangement exactly idempotent.
    """
    keep = ~((values <= 0.0) | (measures <= 0.0))  # NaN stays, is rejected
    vals, meas = values[keep], measures[keep]
    order = np.argsort(-vals)
    vals = vals[order]
    same = vals[1:] == vals[:-1]
    tied = np.zeros(vals.size, dtype=bool)
    tied[:-1] = same
    tied[1:] |= same
    cells = order[tied]
    order[tied] = cells[np.lexsort((cells, -vals[tied]))]
    ends = np.cumsum(meas[order])
    last = np.ones(vals.size, dtype=bool)
    last[:-1] = ~same
    return StepFunction1D._owning(ends[last], vals[last])


def rearrangement(obj, use_gradient: bool = False) -> StepFunction1D:
    """The nonincreasing rearrangement as a canonical step function.

    For sampled fields, set ``use_gradient`` to rearrange the sampled
    |grad u| instead of the values.
    """
    if isinstance(obj, StepFunction1D):
        vals = obj.value_array
        if not vals.size or (vals[-1] > 0.0
                             and (vals[:-1] > vals[1:]).all()):
            return obj  # already canonical; re-summing lengths would drift
        return _canonical_step(obj.widths(), vals)
    if isinstance(obj, SampledField):
        data = obj.gradient_magnitude if use_gradient else obj.values
        return _canonical_step(obj.cell_measures.ravel(),
                               np.abs(data.ravel()))
    raise ValidationError(
        "rearrangement expects a StepFunction1D or SampledField")


def _pooled_knots(step: StepFunction1D, ring: float, expo: float
                  ) -> list[tuple[float, float]]:
    """Knots of plateaus pooled into groups of one shell's measure.

    A group starting at measure ``start`` closes at the first plateau
    where its mass M satisfies M >= ring * (start + M/2)^expo.  The test
    runs over a window of plateaus that doubles until some plateau passes
    it, so the work is per group, not per plateau.  The (2, n) array of
    widths and width * value is built once, and one accumulate along a
    window gives the group's running masses and moments together, summed
    in plateau order from the group's start as a running sum would.  An
    unclosed remainder is folded into the last group.
    """
    widths = step.widths()
    pairs = np.stack((widths, widths * step.value_array))
    n = widths.size
    knots: list[tuple[float, float]] = []
    start, lo, window = 0.0, 0, 16
    while lo < n:
        hi = min(n, lo + window)
        mass, moments = np.cumsum(pairs[:, lo:hi], axis=1)
        closes = mass >= ring * (start + 0.5 * mass) ** expo
        first = int(closes.argmax())
        closed = bool(closes[first])
        if not closed and hi < n:
            window *= 2
            continue
        end = first + 1 if closed else hi - lo
        m, moment = float(mass[end - 1]), float(moments[end - 1])
        if closed or not knots:
            knots.append((start + 0.5 * m, moment / m))
        else:
            # fold the remainder into the last group
            t_last, v_last = knots[-1]
            prev_mass = 2.0 * (start - t_last)
            total = prev_mass + m
            knots[-1] = (t_last - 0.5 * prev_mass + 0.5 * total,
                         (v_last * prev_mass + moment) / total)
        start += m
        lo += end
        window = 2 * end
    return knots


def radial_rearrangement(field: SampledField) -> RadialProfile:
    """The radial rearrangement of a sampled field, as a profile.

    Returns the piecewise-affine interpolant through the rearranged step,
    so that gradient-density operations apply; the exact step itself is
    available via ``rearrangement``.  Consecutive plateaus are first
    pooled into groups of measure comparable to one radial shell of
    thickness h = max_cell_diameter, D*C_D^(1/D)*t^(1-1/D)*h, and each
    group contributes one knot at its measure midpoint with its
    measure-weighted mean value.  Slopes of the interpolant then
    difference quantities averaged over a full shell's worth of cells;
    differencing individual plateaus would make the derivative oscillate
    at the cell scale, which is noise, not geometry (values closer than
    one cell's value span are not resolved by the grid).  The shell of a
    ball is the least measure any level boundary of thickness h can have,
    so this pooling never exceeds the grid's actual resolution.
    """
    cone, step = field.cone, rearrangement(field)
    if not step.breakpoint_array.size:
        return from_knots(cone, [(1.0, 0.0)])
    ring = cone.big_d * cone.c_d ** (1.0 / cone.big_d) \
        * field.max_cell_diameter
    knots = _pooled_knots(step, ring, 1.0 - 1.0 / cone.big_d)
    knots.append((step.support_end, 0.0))
    return from_knots(cone, knots)
