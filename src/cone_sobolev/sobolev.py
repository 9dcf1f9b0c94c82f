"""Sobolev quotients and the sharp embedding constant on weighted cones.

The embedding norm on a cone of effective dimension D with unit-ball
sector measure c_d is

    ||E|| = p / ((D - p) c_d^(1/D)),   1 <= p < D,

the supremum of the quotient ||u||_{p*,q} / ||grad u||_{p,q} over
nonconstant admissible u, where p* = Dp/(D-p).  For radial profiles both
norms are exact segment computations: the numerator integrates the
profile, the denominator is the distributional norm of the gradient
density (equal to the norm of the rearranged gradient).  ``quotients``
takes many profiles of one (p, q) through one lambda-route call for their
gradient norms, and ``quotient`` is its one-element case.  No profile
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
                      lorentz_norm_rearranged, lorentz_norms_distributional)
from .profiles import RadialProfile, alvino_profile, gradient_density
from .rearrangement import (SampledField, _axis_centers, _validate_box,
                            radial_rearrangement, rearrangement)

__all__ = [
    "QuotientReport",
    "embedding_norm",
    "quotient",
    "quotients",
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
    """||u||_{p*,q} / ||grad u||_{p,q} for the profile's realization: the
    one-element case of ``quotients``."""
    (report,) = quotients([profile], params)
    return report


def quotients(profiles: Sequence[RadialProfile], params: LorentzParams
              ) -> list[QuotientReport]:
    """||u||_{p*,q} / ||grad u||_{p,q} for each profile's realization.

    Both norms are exact segment computations: each numerator on the t
    route, and every gradient norm in one lambda-route call
    (``lorentz_norms_distributional``), so a batch pays that call's fixed
    cost once.  Each report is the same alone or in any batch, and is
    certified against the sharp constant (quotient <= ||E|| up to 1e-9
    relative, else the computation itself is inconsistent and raises).
    """
    bounds = [LorentzParams(params.p, params.q, prof.cone)
              for prof in profiles]
    psis = [gradient_density(prof) for prof in profiles]
    if not all(psi.table.t0.size for psi in psis):
        raise DomainError(
            "constant profile: the quotient needs a nonzero gradient")
    numerators = [lorentz_norm_rearranged(prof, bound.star_params())
                  for prof, bound in zip(profiles, bounds)]
    reports = []
    for prof, bound, numerator, denominator in zip(
            profiles, bounds, numerators,
            lorentz_norms_distributional(psis, params)):
        if denominator == 0.0:
            raise DomainError(
                "constant profile: the quotient needs a nonzero gradient")
        value = numerator / denominator
        e_norm = embedding_norm(prof.cone, bound)
        if value > e_norm * (1.0 + _UPPER_SLACK):
            raise InternalConsistencyError(
                f"quotient {value} exceeds the sharp constant {e_norm}: "
                f"norm integration is inconsistent")
        reports.append(QuotientReport(numerator, denominator, value, e_norm,
                                      value / e_norm))
    return reports


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
    lhs = lorentz_norm_distributional(psi, bound) if psi.table.t0.size else 0.0
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
    reports = quotients([alvino_profile(cone, p_star, 1.0, float(ratio))
                         for ratio in log_range_grid], bound)
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

    Each bump's squared offsets and each ramp are computed on the per-axis
    cell centers (``_axis_centers``, the points ``from_function`` samples)
    and broadcast onto the grid, the squares added in axis order, so every
    cell gets the float operations of a point-by-point evaluation and only
    the exp runs once per cell and bump.
    """
    if n_bumps < 1:
        raise ValidationError("at least one bump is required")
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    shape = tuple(int(n) for n in shape)
    _validate_box(cone, box, shape)   # the draws below crash on a bad box
    rng = np.random.default_rng(seed)
    extents = np.array([hi - lo for lo, hi in box])
    centers = np.array([[rng.uniform(lo, hi) for lo, hi in box]
                        for _ in range(n_bumps)])
    widths = rng.uniform(0.08, 0.25, n_bumps)[:, None] * extents[None, :]
    amps = rng.uniform(0.5, 1.5, n_bumps)
    walls = {a for a in cone.constrained_axes if box[a][0] == 0.0}
    # each axis's cell centers, shaped to broadcast along that axis
    axes = [x.reshape([-1 if a == axis else 1 for a in range(len(shape))])
            for axis, x in enumerate(_axis_centers(box, shape))]

    def smooth_ramp(s: np.ndarray) -> np.ndarray:
        s = np.clip(s, 0.0, 1.0)
        return s * s * (3.0 - 2.0 * s)

    out = np.zeros(shape)
    for c, w, a in zip(centers, widths, amps):
        z = [(x - ci) / wi for x, ci, wi in zip(axes, c, w)]
        out += a * np.exp(-0.5 * sum(zi * zi for zi in z))
    for axis, ((lo, hi), x) in enumerate(zip(box, axes)):
        margin = 0.15 * extents[axis]
        if axis not in walls:
            out *= smooth_ramp((x - lo) / margin)
        out *= smooth_ramp((hi - x) / margin)
    return SampledField._on_grid(cone, box, shape, out)
