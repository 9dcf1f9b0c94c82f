"""Radially nonincreasing functions represented by exact profiles.

A radially nonincreasing function u on the weighted cone is determined by
its profile phi in the measure coordinate t = c_d |x|^D:

    u(x) = phi(mu(B_|x|)),    phi nonincreasing, phi(t) = 0 for t >= t_max.

Profiles here are piecewise laws anchored at the origin (base 0), which
keeps every operation exact: values, gradient densities, scalings, and the
norm integrals downstream.  Each profile or gradient density is one
``segments.PieceTable``, made and checked by column expressions; both
norm routes, the span templates and the checks take it as it is.  The
gradient density

    psi(t) = D * c_d^(1/D) * t^((D-1)/D) * (-phi'(t))

equals |grad u| at the radius with measure t, so Lorentz norms of psi are
Lorentz norms of the gradient; differentiating a law and multiplying by
the fixed power keeps psi in the law class.

The maximizing family ``alvino_profile`` is the truncated power arc
t^(-1/p*) with a flat head, whose quotients approach the embedding norm as
the head-to-support ratio grows; closed-form segments let that ratio reach
1e40 without loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cones import WeightedCone
from .errors import DomainError, ValidationError
from .segments import PieceTable, rises_past, tiling_slack

__all__ = [
    "RadialProfile",
    "from_knots",
    "alvino_profile",
    "gradient_density",
    "scale",
]

_KNOT_ERRORS = ("knot positions must be positive measure values",
                "knot positions must be strictly increasing",
                "knot values must be finite",
                "knot values must be nonincreasing",
                "knot values must be nonnegative",
                "the last knot value must be zero")
# a profile's checks per piece, in the order they are reported
_PROFILE_ERRORS = ("piece endpoints must satisfy 0 <= t0 < t1, got ({t0}, "
                   "{t1})", "profile laws must be anchored at the origin",
                   "profile pieces must tile (0, t_max); gap at {t0}",
                   "profile must be nonincreasing",
                   "profile discontinuity at t = {t0}")


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Profile phi of a radially nonincreasing function, in measure units.

    Pieces tile (0, t_max) contiguously; each law is anchored at the
    origin (base 0, orient +1) so that gradient densities stay in the law
    class.  phi is nonincreasing and continuous on (0, inf) with
    phi(t_max) = 0; it may diverge as t -> 0+ only through a leading power
    piece with negative exponent, in which case gradient operations are
    refused until the head is truncated.  No law may rise (coef * expo *
    orient > 0) and no junction jump (``segments.rises_past``, either way
    round).  Profiles compare by identity.
    """

    cone: WeightedCone
    table: PieceTable
    max_value: float = field(init=False, repr=False)   # phi(0+), maybe inf

    def __post_init__(self) -> None:
        t0, t1, coef, shift, expo, base, orient = table = self.table
        if not t0.size:
            raise ValidationError("profile needs at least one piece")
        (v0, v1), (s0, s1) = table.ends()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fails = np.zeros((5, t0.size), dtype=bool)
            np.logical_not((t0 < t1) & (t0 >= 0.0), out=fails[0])
            np.logical_and((coef != 0.0) & (expo != 0.0),
                           (base != 0.0) | (orient != 1.0), out=fails[1])
            fails[2, 0] = abs(t0[0]) > 1e-15
            # t1 > 0 unless row 0 fails, and orient is 1 unless row 1 does
            np.greater(np.abs(t0[1:] - t1[:-1]), tiling_slack(t1[:-1]),
                       out=fails[2, 1:])
            np.greater(coef * expo, 0.0, out=fails[3])
            # a jump: a junction's higher side rises past its lower side
            fails[4, 1:] = rises_past(np.minimum(v1[:-1], v0[1:]), np.maximum(
                v1[:-1], v0[1:]), s1[:-1], s0[1:])
        if np.count_nonzero(fails):
            # the first piece with bad ends, else the first failing piece
            i = (fails[0] if fails[0].any() else fails.any(axis=0)).argmax()
            raise ValidationError(_PROFILE_ERRORS[fails[:, i].argmax()].format(
                t0=t0[i].tolist(), t1=t1[i].tolist()))
        if math.isinf(t1[-1]):
            raise ValidationError("profile support must be bounded")
        head, end = v0[0].tolist(), v1[-1].tolist()
        object.__setattr__(self, "max_value", head)
        if not -1e-12 <= end <= 1e-9 * max(
                1.0, head if not math.isinf(head) else 1.0):
            raise ValidationError(
                f"profile must decay to zero at its support end, got {end}")

    # -- queries --------------------------------------------------------

    @property
    def t_max(self) -> float:
        return self.table.t1[-1].tolist()

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.max_value)

    def value(self, t):
        """phi(t), zero beyond the support."""
        t = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t)
        out = np.zeros(flat.shape)
        for t0, t1, coef, shift, expo, base, orient in np.array(
                self.table).T.tolist():
            at = (flat >= t0) & (flat < t1)
            if expo == 0.0 or coef == 0.0:
                out[at] = coef + shift if expo == 0.0 else shift
            elif at.any():
                out[at] = coef * np.power(np.maximum(
                    orient * (flat[at] - base), 0.0), expo) + shift
        return out if t.shape else float(out[0])

    def radial_value(self, r):
        """u(x) for |x| = r."""
        r = np.asarray(r, dtype=float)
        return self.value(self.cone.c_d * r ** self.cone.big_d)

    def scaled_amplitude(self, k: float) -> "RadialProfile":
        """k * phi for k > 0."""
        if k <= 0:
            raise ValidationError("amplitude factor must be positive")
        table = self.table
        return RadialProfile(self.cone, table._replace(
            coef=k * table.coef, shift=k * table.shift))

    # -- profile files ----------------------------------------------------

    @staticmethod
    def from_json_dict(data: Mapping, cone: WeightedCone) -> "RadialProfile":
        rows = []   # (t0, t1, coef, shift, expo); base 0, orient +1
        try:
            for seg in data["segments"]:
                kind, params = seg["law"], [float(v) for v in seg["params"]]
                if kind == "affine":
                    a, b = params
                    law = (b, a, 1.0)
                elif kind == "power":
                    law = (params[0], params[2] if len(params) > 2 else 0.0,
                           params[1])
                else:
                    raise ValidationError(f"unknown law kind {kind!r}")
                t0, t1 = float(seg["t0"]), float(seg["t1"])
                if not 0.0 <= t0 < t1:
                    raise ValidationError(_PROFILE_ERRORS[0].format(t0=t0,
                                                                    t1=t1))
                rows.append((t0, t1, *law))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed profile spec: {exc}") from exc
        t0, t1, coef, shift, expo = np.array(rows).reshape(-1, 5).T
        zero = np.zeros(t0.size)
        return RadialProfile(cone, PieceTable(t0, t1, coef, shift, expo,
                                              zero, zero + 1.0))


def from_knots(cone: WeightedCone,
               knots: Sequence[tuple[float, float]]) -> RadialProfile:
    """Piecewise-affine profile through (t, value) knots.

    Constant-extended to the left of the first knot; the knot sequence
    must be strictly increasing in t with nonincreasing values ending at
    zero.
    """
    if not len(knots):
        raise ValidationError("at least one knot is required")
    points = np.array(knots, dtype=float).reshape(len(knots), 2)
    ts, vs = points.T
    # t rising from above 0 and v falling to 0 break none of the rules
    if not (ts[0] > 0.0 and vs[0] < math.inf and vs[-1] == 0.0 and ts.size
            == 1 + np.count_nonzero((ts[1:] > ts[:-1]) & (vs[1:] <= vs[:-1]))):
        for k, bad in enumerate((ts <= 0.0, ts[1:] <= ts[:-1],
                                 ~np.isfinite(vs), vs[1:] > vs[:-1],
                                 vs < 0.0, vs[-1:] != 0.0)):
            if np.count_nonzero(bad):
                raise (ValidationError if k else DomainError)(_KNOT_ERRORS[k])
    t0, t1, coef, shift, expo, _, orient = table = np.zeros((7, ts.size))
    t0[1:], t1[:], coef[0] = ts[:-1], ts, vs[0]
    dt, dv = (points[1:] - points[:-1]).T
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.divide(dv, dt, out=coef[1:])
        np.subtract(vs[:-1], slope * ts[:-1], out=shift[1:])
    orient[:] = expo[1:] = 1.0
    return RadialProfile(cone, PieceTable(*table))


def alvino_profile(cone: WeightedCone, p_star: float, eps: float,
                   t_max: float) -> RadialProfile:
    """The truncated maximizing profile

        phi(t) = (min(eps, t)^(-1/p*) - t_max^(-1/p*))_+,

    a flat head on (0, eps], a power arc t^(-1/p*) on [eps, t_max], zero
    after.  Quotients of this family approach the embedding norm as
    t_max/eps grows; ``RadialProfile.scaled_amplitude`` rescales it.
    """
    if p_star <= 0:
        raise ValidationError("p_star must be positive")
    if not 0 < eps < t_max:
        raise DomainError("the flat head requires 0 < eps < t_max")
    e = -1.0 / p_star
    tail = t_max ** e
    return RadialProfile(cone, PieceTable(*np.array(
        [(0.0, eps), (eps, t_max), (eps ** e - tail, 1.0), (0.0, -tail),
         (0.0, e), (0.0, 0.0), (1.0, 1.0)])))


def gradient_density(profile: RadialProfile) -> PieceTable:
    """The gradient density psi(t) = D c_d^(1/D) t^((D-1)/D) (-phi'(t)),
    exactly, as a table; psi is 0 off it, where phi is constant.  Its
    distributional Lorentz norm is the gradient norm of the profile's
    radial realization.

    An affine piece with slope -s maps to psi = D c_d^(1/D) s t^((D-1)/D);
    a power arc t^(-1/p*) maps to psi proportional to t^(-1/p) through
    1/p = 1/p* + 1/D.  Constant pieces contribute nothing.
    """
    if profile.is_unbounded:
        raise DomainError(
            "profile has an unbounded head; truncate it (e.g. with a flat "
            "head) before gradient operations")
    cone = profile.cone
    front = cone.big_d * cone.c_d ** (1.0 / cone.big_d)
    t0, t1, coef, _, expo, _, orient = profile.table
    slope = coef * expo * orient    # phi' = slope t^(expo - 1)
    keep = (coef != 0.0) & (expo != 0.0) & (slope != 0.0)
    zero = np.zeros(t0.size)
    # -phi' = -slope t^(expo - 1); fold in the t^((D-1)/D) factor
    table = np.array((t0, t1, front * -slope, zero,
                      expo - 1.0 + (cone.big_d - 1.0) / cone.big_d, zero,
                      zero + 1.0))
    return PieceTable(*table[:, keep])


def scale(profile: RadialProfile, kappa: float) -> RadialProfile:
    """Profile of u_kappa(x) = u(kappa x): t -> phi(kappa^D t).

    Support shrinks by kappa^D; the gradient density obeys
    psi_kappa(t) = kappa * psi(kappa^D t) exactly in the law algebra.
    """
    if kappa <= 0:
        raise ValidationError("scaling factor must be positive")
    k = kappa ** profile.cone.big_d
    t0, t1, coef, shift, expo, base, orient = table = profile.table
    live = (coef != 0.0) & (expo != 0.0)   # a constant law stays as it is
    powers = [k ** e if on else 1.0 for e, on in zip(expo.tolist(),
                                                      live.tolist())]
    return RadialProfile(profile.cone, table._replace(
        t0=t0 / k, t1=t1 / k, coef=coef * powers,
        base=np.where(live, base / k, base)))
