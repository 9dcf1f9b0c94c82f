"""Radially nonincreasing functions represented by exact profiles.

A radially nonincreasing function u on the weighted cone is determined by
its profile phi in the measure coordinate t = c_d |x|^D:

    u(x) = phi(mu(B_|x|)),    phi nonincreasing, phi(t) = 0 for t >= t_max.

Profiles here are piecewise laws anchored at the origin (base 0), which
keeps every operation exact: values, gradient densities, scalings, and the
norm integrals downstream.  The gradient density

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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cones import WeightedCone
from .errors import DomainError, ValidationError
from .segments import Law, Piece, pieces_value

__all__ = [
    "RadialProfile",
    "GradientDensity",
    "from_knots",
    "alvino_profile",
    "gradient_density",
    "scale",
]

_JUNCTION_RTOL = 1e-9


@dataclass(frozen=True)
class RadialProfile:
    """Profile phi of a radially nonincreasing function, in measure units.

    Pieces tile (0, t_max) contiguously; each law is anchored at the
    origin (base 0, orient +1) so that gradient densities stay in the law
    class.  phi is nonincreasing and continuous on (0, inf) with
    phi(t_max) = 0; it may diverge as t -> 0+ only through a leading power
    piece with negative exponent, in which case gradient operations are
    refused until the head is truncated.
    """

    cone: WeightedCone
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValidationError("profile needs at least one piece")
        prev_end = 0.0
        prev_val = math.inf
        for p in self.pieces:
            if not p.law.is_constant and (p.law.base != 0.0
                                          or p.law.orient != 1.0):
                raise ValidationError(
                    "profile laws must be anchored at the origin")
            if abs(p.t0 - prev_end) > 1e-15 * max(1.0, abs(prev_end)):
                raise ValidationError(
                    f"profile pieces must tile (0, t_max); gap at {p.t0}")
            v0, v1 = p.endpoint_values()
            if v1 > v0:
                raise ValidationError("profile must be nonincreasing")
            if not math.isinf(prev_val):
                tol = _JUNCTION_RTOL * max(abs(prev_val), abs(v0), 1.0)
                if abs(v0 - prev_val) > tol:
                    raise ValidationError(
                        f"profile discontinuity at t = {p.t0}")
            prev_end, prev_val = p.t1, v1
        if math.isinf(prev_end):
            raise ValidationError("profile support must be bounded")
        if not -1e-12 <= prev_val <= _JUNCTION_RTOL * max(
                1.0, self.max_value if not self.is_unbounded else 1.0):
            raise ValidationError(
                f"profile must decay to zero at its support end, "
                f"got {prev_val}")

    # -- queries --------------------------------------------------------

    @property
    def t_max(self) -> float:
        return self.pieces[-1].t1

    @property
    def max_value(self) -> float:
        """sup phi, attained as t -> 0+ (may be inf)."""
        return self.pieces[0].endpoint_values()[0]

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.pieces[0].endpoint_values()[0])

    def value(self, t):
        """phi(t), zero beyond the support."""
        return pieces_value(self.pieces, t)

    def radial_value(self, r):
        """u(x) for |x| = r."""
        r = np.asarray(r, dtype=float)
        return self.value(self.cone.c_d * r ** self.cone.big_d)

    def scaled_amplitude(self, k: float) -> "RadialProfile":
        """k * phi for k > 0."""
        if k <= 0:
            raise ValidationError("amplitude factor must be positive")
        return RadialProfile(self.cone,
                             tuple(Piece(p.t0, p.t1, p.law.scaled(k))
                                   for p in self.pieces))

    # -- profile files ----------------------------------------------------

    @staticmethod
    def from_json_dict(data: Mapping, cone: WeightedCone) -> "RadialProfile":
        pieces = []
        try:
            for seg in data["segments"]:
                kind, params = seg["law"], [float(v) for v in seg["params"]]
                if kind == "affine":
                    a, b = params
                    law = Law(b, 1.0, shift=a)
                elif kind == "power":
                    c, e = params[0], params[1]
                    s = params[2] if len(params) > 2 else 0.0
                    law = Law(c, e, shift=s)
                else:
                    raise ValidationError(f"unknown law kind {kind!r}")
                pieces.append(Piece(float(seg["t0"]), float(seg["t1"]), law))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed profile spec: {exc}") from exc
        return RadialProfile(cone, tuple(pieces))


@dataclass(frozen=True)
class GradientDensity:
    """psi(t) = D c_d^(1/D) t^((D-1)/D) (-phi'(t)) as exact pieces.

    psi is zero off the listed pieces (where phi is locally constant).
    Its distributional Lorentz (p, q) norm is the gradient norm of the
    radial realization of the owning profile.
    """

    profile: RadialProfile
    pieces: tuple[Piece, ...]

    def value(self, t):
        return pieces_value(self.pieces, t)


def from_knots(cone: WeightedCone,
               knots: Sequence[tuple[float, float]]) -> RadialProfile:
    """Piecewise-affine profile through (t, value) knots.

    Constant-extended to the left of the first knot; the knot sequence
    must be strictly increasing in t with nonincreasing values ending at
    zero.
    """
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
    return RadialProfile(cone, tuple(pieces))


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
    head = Law.constant(eps ** e - tail)
    arc = Law(1.0, e, shift=-tail)
    return RadialProfile(cone, (Piece(0.0, eps, head),
                                Piece(eps, t_max, arc)))


def gradient_density(profile: RadialProfile) -> GradientDensity:
    """Differentiate the profile into its gradient density, exactly.

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
    out = []
    for p in profile.pieces:
        dlaw = p.law.derivative()
        if dlaw.is_constant and dlaw.constant_value() == 0.0:
            continue
        # -phi' = -coef * t^(expo); fold in the t^((D-1)/D) factor
        coef = front * (-dlaw.coef)
        expo = dlaw.expo + (cone.big_d - 1.0) / cone.big_d
        out.append(Piece(p.t0, p.t1, Law(coef, expo)))
    return GradientDensity(profile, tuple(out))


def scale(profile: RadialProfile, kappa: float) -> RadialProfile:
    """Profile of u_kappa(x) = u(kappa x): t -> phi(kappa^D t).

    Support shrinks by kappa^D; the gradient density obeys
    psi_kappa(t) = kappa * psi(kappa^D t) exactly in the law algebra.
    """
    if kappa <= 0:
        raise ValidationError("scaling factor must be positive")
    k = kappa ** profile.cone.big_d
    pieces = tuple(Piece(p.t0 / k, p.t1 / k, p.law.with_argument_scaled(k))
                   for p in profile.pieces)
    return RadialProfile(profile.cone, pieces)
