"""Distribution functions and nonincreasing rearrangements.

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

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cones import WeightedCone
from .errors import (DivergentIntegralError, DomainError,
                     NumericalError, ValidationError)
from .profiles import RadialProfile, from_knots
from .segments import Law, Piece, power_primitives

__all__ = [
    "StepFunction1D",
    "SampledField",
    "distribution_function",
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

    def distribution_function(self, tau: float) -> float:
        if tau <= 0:
            raise DomainError("distribution threshold must be positive")
        return float(np.sum(self.widths()[self.value_array > tau]))

    def moment(self, gamma: float, q: float) -> float:
        """integral over (0, inf) of t^(gamma-1) f(t)^q, exactly, gamma > 0.

        Plateau k contributes v_k^q times the integral of t^(gamma-1) over
        it, all plateaus in one array expression (``power_primitives``, in
        full precision for t1/t0 huge or close to 1), summed by math.fsum.
        """
        if not gamma > 0.0:
            raise DivergentIntegralError(
                f"integral of t^{gamma - 1.0} diverges at the origin")
        live = self.value_array > 0.0
        if not live.any():
            return 0.0
        prim = power_primitives(*self.plateaus(), gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.value_array[live] ** q * prim[live]
        total = math.fsum(terms)
        if not math.isfinite(total):
            raise NumericalError(
                "step moment overflows double precision")
        return total


@dataclass(frozen=True)
class SampledField:
    """Grid samples of a function on a box inside the cone closure.

    Cell values are center samples; cell measures are the exact per-cell
    integrals of the monomial weight, products of per-axis power-rule
    factors (``_cell_measures``), so cells on the weight's zero set are
    measured exactly too.  Gradients use central differences inside,
    one-sided at the box faces.  ``from_function`` and ``from_csv`` build
    every field through one constructor on a validated grid.
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

    def total_measure(self) -> float:
        return float(np.sum(self.cell_measures))

    def distribution_function(self, tau: float) -> float:
        if tau <= 0:
            raise DomainError("distribution threshold must be positive")
        return float(np.sum(self.cell_measures[np.abs(self.values) > tau]))

    # -- CSV interchange ------------------------------------------------

    def to_csv(self) -> str:
        """Header line with JSON metadata, then x..., value rows; the x
        columns are the cell centers that ``from_function`` samples."""
        meta = {"cone": self.cone.to_json_dict(),
                "box": [list(b) for b in self.box],
                "shape": list(self.shape)}
        buf = io.StringIO()
        buf.write(f"# {json.dumps(meta, sort_keys=True)}\n")
        writer = csv.writer(buf)
        writer.writerow([f"x{i}" for i in range(self.cone.d)] + ["value"])
        for row, v in zip(_cell_centers(self.box, self.shape),
                          self.values.ravel()):
            writer.writerow([repr(float(c)) for c in row]
                            + [repr(float(v))])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "SampledField":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("#"):
            raise ValidationError("field CSV must start with a '# {json}' "
                                  "metadata line")
        try:
            meta = json.loads(lines[0][1:].strip())
            cone = WeightedCone.from_json_dict(meta["cone"])
            box = tuple((float(lo), float(hi)) for lo, hi in meta["box"])
            shape = tuple(int(n) for n in meta["shape"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ValidationError(f"malformed field metadata: {exc}") from exc
        _validate_box(cone, box, shape)
        reader = csv.reader(lines[1:])
        header = next(reader)
        if header[-1] != "value":
            raise ValidationError("field CSV needs a trailing value column")
        vals = [float(row[-1]) for row in reader if row]
        n_cells = int(np.prod(shape))
        if len(vals) != n_cells:
            raise ValidationError(
                f"expected {n_cells} rows of cell values, got {len(vals)}")
        return SampledField._on_grid(cone, box, shape,
                                     np.asarray(vals).reshape(shape))


def _gradient_magnitude(values: np.ndarray, box, shape) -> np.ndarray:
    spacings = [(hi - lo) / n for (lo, hi), n in zip(box, shape)]
    grads = np.gradient(values, *spacings, edge_order=1)
    if isinstance(grads, np.ndarray):
        grads = [grads]
    return np.sqrt(np.sum([g * g for g in grads], axis=0))


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


def _cell_centers(box, shape) -> np.ndarray:
    """The (cells, d) array of cell centers, in the order of the cells."""
    centers = [0.5 * (e[1:] + e[:-1]) for e in _cell_edges(box, shape)]
    mesh = np.meshgrid(*centers, indexing="ij")
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

def distribution_function(obj, tau: float) -> float:
    """mu-measure (or Lebesgue measure, for 1D steps) of {|f| > tau}."""
    if isinstance(obj, (StepFunction1D, SampledField)):
        return obj.distribution_function(tau)
    raise ValidationError(
        "distribution_function expects a StepFunction1D or SampledField")


def _canonical_step(measures: np.ndarray, values: np.ndarray
                    ) -> StepFunction1D:
    """Sort (measure, value) cells into the canonical nonincreasing step.

    Stable descending sort on value with ties broken by original cell
    index; cells with a value or measure <= 0 drop (zero values are the
    implicit tail), and each run of equal values becomes one plateau
    ending at the run's last cumulative measure.  np.cumsum adds in
    order, so every breakpoint is the same float a running sum gives.
    This canonical form makes rearrangement exactly idempotent.
    """
    order = np.argsort(-values, kind="stable")
    vals, meas = values[order], measures[order]
    keep = ~((vals <= 0.0) | (meas <= 0.0))   # NaN stays, and is rejected
    vals, ends = vals[keep], np.cumsum(meas[keep])
    last = np.ones(vals.size, dtype=bool)
    last[:-1] = vals[1:] != vals[:-1]
    return StepFunction1D(ends[last], vals[last])


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
    runs on cumulative sums over a window of plateaus that doubles until
    some plateau passes it, so the work is per group, not per plateau.
    Masses and moments are summed in plateau order from the group's
    start, as a running sum would.  An unclosed remainder is folded into
    the last group.
    """
    widths, vals = step.widths(), step.value_array
    n = widths.size
    knots: list[tuple[float, float]] = []
    start, lo, window = 0.0, 0, 16
    while lo < n:
        hi = min(n, lo + window)
        mass = np.cumsum(widths[lo:hi])
        closes = mass >= ring * (start + 0.5 * mass) ** expo
        closed = bool(closes.any())
        if not closed and hi < n:
            window *= 2
            continue
        end = int(np.argmax(closes)) + 1 if closed else hi - lo
        m = float(mass[end - 1])
        moment = float(np.cumsum(widths[lo:lo + end]
                                 * vals[lo:lo + end])[-1])
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
        return RadialProfile(cone, (Piece(0.0, 1.0, Law.constant(0.0)),))
    ring = cone.big_d * cone.c_d ** (1.0 / cone.big_d) \
        * field.max_cell_diameter
    knots = _pooled_knots(step, ring, 1.0 - 1.0 / cone.big_d)
    knots.append((step.support_end, 0.0))
    return from_knots(cone, knots)
