"""Sobolev quotients and the sharp embedding constant on weighted cones.

The embedding norm on a cone of effective dimension D with unit-ball
sector measure c_d is

    ||E|| = p / ((D - p) c_d^(1/D)),   1 <= p < D,

the supremum of the quotient ||u||_{p*,q} / ||grad u||_{p,q} over
nonconstant admissible u, where p* = Dp/(D-p).  For radial profiles both
norms are exact segment computations: the numerator integrates the
profile, the denominator is the distributional norm of the gradient
density (equal to the norm of the rearranged gradient).  No profile
attains the supremum; the truncated power family approaches it as its
head-to-support ratio grows, which ``alvino_search`` sweeps.

``polya_szego_check`` verifies on sampled fields that radial rearrangement
does not increase the gradient norm, with a grid-resolution tolerance:
finite differences under-resolve level sets, so the comparison allows a
relative slack of C * h (h the max cell diameter, C = 5 chosen so the
radial equality case passes on 64x64 grids while a deliberately broken
rearrangement still fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cones import WeightedCone
from .errors import DomainError, InternalConsistencyError, ValidationError
from .lorentz import (LorentzParams, lorentz_norm_distributional,
                      lorentz_norm_rearranged)
from .profiles import RadialProfile, alvino_profile, gradient_density
from .rearrangement import (SampledField, _validate_box,
                            radial_rearrangement, rearrangement)

__all__ = [
    "QuotientReport",
    "embedding_norm",
    "quotient",
    "polya_szego_check",
    "alvino_search",
    "bump_superposition_field",
]

_UPPER_SLACK = 1e-9
_PS_TOL_FACTOR = 5.0


@dataclass(frozen=True)
class QuotientReport:
    """A Sobolev quotient next to the constant it can never exceed."""

    numerator: float
    denominator: float
    quotient: float
    embedding_norm: float
    ratio: float


def embedding_norm(cone: WeightedCone, params: LorentzParams) -> float:
    """The sharp constant p / ((D - p) c_d^(1/D))."""
    p, d_eff = params.p, cone.big_d
    if p >= d_eff:
        raise DomainError(
            f"supercritical exponent: p = {p} >= D = {d_eff}")
    return p / ((d_eff - p) * cone.c_d ** (1.0 / d_eff))


def quotient(profile: RadialProfile, params: LorentzParams
             ) -> QuotientReport:
    """||u||_{p*,q} / ||grad u||_{p,q} for the profile's realization.

    Both norms are exact segment computations; the result is certified
    against the sharp constant (quotient <= ||E|| up to 1e-9 relative,
    else the computation itself is inconsistent and raises).
    """
    bound = LorentzParams(params.p, params.q, profile.cone)
    psi = gradient_density(profile)
    if not psi.pieces:
        raise DomainError(
            "constant profile: the quotient needs a nonzero gradient")
    numerator = lorentz_norm_rearranged(profile, bound.star_params())
    denominator = lorentz_norm_distributional(psi, bound)
    if denominator == 0.0:
        raise DomainError(
            "constant profile: the quotient needs a nonzero gradient")
    value = numerator / denominator
    e_norm = embedding_norm(profile.cone, bound)
    if value > e_norm * (1.0 + _UPPER_SLACK):
        raise InternalConsistencyError(
            f"quotient {value} exceeds the sharp constant {e_norm}: "
            f"norm integration is inconsistent")
    return QuotientReport(numerator, denominator, value, e_norm,
                          value / e_norm)


def polya_szego_check(field: SampledField, params: LorentzParams
                      ) -> tuple[float, float, bool]:
    """Rearrangement does not increase the gradient norm, on a grid.

    lhs is the gradient norm of the radial rearrangement (piecewise-affine
    interpolant); rhs is the Lorentz norm of the rearranged sampled
    |grad u|.  Passes iff lhs <= rhs * (1 + 5h) with h the max cell
    diameter.
    """
    bound = LorentzParams(params.p, params.q, field.cone)
    grad_star = rearrangement(field, use_gradient=True)
    rhs = lorentz_norm_rearranged(grad_star, bound)
    interp = radial_rearrangement(field)
    psi = gradient_density(interp)
    lhs = lorentz_norm_distributional(psi, bound) if psi.pieces else 0.0
    tol = _PS_TOL_FACTOR * field.max_cell_diameter
    return lhs, rhs, lhs <= rhs * (1.0 + tol)


def alvino_search(cone: WeightedCone, params: LorentzParams,
                  log_range_grid: Sequence[float]) -> list[QuotientReport]:
    """Quotients of the truncated power family over head-to-support ratios.

    Ratios are t_max/eps; quotients are nondecreasing in the ratio and
    approach the embedding norm from below.  A decrease beyond rounding
    indicates an integration bug and raises.
    """
    if not log_range_grid:
        raise ValidationError("at least one range ratio is required")
    if any(r <= 1.0 for r in log_range_grid):
        raise ValidationError("range ratios must exceed 1")
    bound = LorentzParams(params.p, params.q, cone)
    p_star = bound.p_star
    reports = []
    for ratio in log_range_grid:
        profile = alvino_profile(cone, p_star, 1.0, float(ratio))
        reports.append(quotient(profile, bound))
    for a, b in zip(reports, reports[1:]):
        if b.quotient < a.quotient * (1.0 - 1e-12):
            raise InternalConsistencyError(
                "maximizing-family quotients failed to be nondecreasing")
    return reports


def bump_superposition_field(cone: WeightedCone,
                             box: Sequence[tuple[float, float]],
                             shape: Sequence[int],
                             n_bumps: int,
                             seed: int) -> SampledField:
    """A random superposition of Gaussian bumps, sampled on the grid.

    Centers are uniform in the box, widths a random fraction of the box
    extent, amplitudes uniform in (0.5, 1.5); deterministic in the seed.

    The superposition is ramped to zero over a margin at every artificial
    box face, so the sampled field genuinely is a compactly supported
    field on the cone rather than an arbitrary truncation (a value jump
    at the box edge would carry rearrangement mass that the grid gradient
    cannot see).  A face lying on a cone wall (lower bound 0 on a
    constrained axis, where the weight vanishes) is left untouched: fields
    on the cone need not vanish there.
    """
    if n_bumps < 1:
        raise ValidationError("at least one bump is required")
    box = [(float(lo), float(hi)) for lo, hi in box]
    _validate_box(cone, box, shape)   # the draws below crash on a bad box
    rng = np.random.default_rng(seed)
    extents = np.array([hi - lo for lo, hi in box])
    centers = np.array([[rng.uniform(lo, hi) for lo, hi in box]
                        for _ in range(n_bumps)])
    widths = rng.uniform(0.08, 0.25, n_bumps)[:, None] * extents[None, :]
    amps = rng.uniform(0.5, 1.5, n_bumps)
    walls = {a for a in cone.constrained_axes if box[a][0] == 0.0}

    def smooth_ramp(s: np.ndarray) -> np.ndarray:
        s = np.clip(s, 0.0, 1.0)
        return s * s * (3.0 - 2.0 * s)

    def fn(pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for c, w, a in zip(centers, widths, amps):
            z = (pts - c[None, :]) / w[None, :]
            out += a * np.exp(-0.5 * np.sum(z * z, axis=1))
        for axis, (lo, hi) in enumerate(box):
            margin = 0.15 * extents[axis]
            if axis not in walls:
                out *= smooth_ramp((pts[:, axis] - lo) / margin)
            out *= smooth_ramp((hi - pts[:, axis]) / margin)
        return out

    return SampledField.from_function(cone, box, shape, fn)
