"""Convex cones with monomial weights and their weighted measures.

A cone is the set where a chosen subset of coordinates is positive,

    S = {x in R^d : x_i > 0 for every listed axis i},

carrying the weight w(x) = prod x_i^{A_i} over the listed axes with all
A_i > 0.  The weighted measure is d(mu) = w dx.  Writing alpha for the sum
of the exponents, w is alpha-homogeneous, w^(1/alpha) is concave on S, and
the measure scales with the effective dimension

    D = d + alpha,        mu(B_r cap S) = c_d * r^D,

where c_d = mu(B_1 cap S) is the weighted measure of the unit ball sector.

A cone takes c_d from one source, the closed form of this Dirichlet
integral,

    c_d = prod_i Gamma((A_i + 1) / 2) / (2^k Gamma(D/2 + 1))

over all d axes (A_i = 0 off the k weighted ones), and ``c_d_error`` is
always a bound on its rounding error.  ``unit_ball_measure`` samples
w * chi_S uniformly in the unit ball and returns an estimate with its
standard error; it only cross-checks c_d, and no cone holds its value.

Setting ``extension_unweighted`` produces the unweighted extension
(no listed axes, w == 1, S = R^d, D = d); reports must flag this mode.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (DomainError, NumericalError, ResourceError,
                     ValidationError)

__all__ = [
    "WeightedCone",
    "unit_ball_measure",
    "ball_measure",
    "builtin_cone",
    "BUILTIN_CONE_NAMES",
]


@dataclass(frozen=True)
class WeightedCone:
    """A cone with a monomial weight; carries its measured constants.

    Fields mirror the data contract: dimension ``d``; ``exponents`` as
    (axis, power) pairs with 0-based axis indices; ``alpha`` the exponent
    sum; ``big_d`` the effective dimension d + alpha; ``c_d`` the weighted
    unit-ball sector measure, by its closed form at construction, and
    ``c_d_error`` a bound on that closed form's rounding error.
    """

    d: int
    exponents: tuple[tuple[int, float], ...]
    alpha: float
    big_d: float
    c_d: float
    c_d_error: float
    extension_unweighted: bool = False

    # -- construction -------------------------------------------------

    @staticmethod
    def create(d: int,
               exponents: Sequence[tuple[int, float]] = (),
               extension_unweighted: bool = False) -> "WeightedCone":
        _validate_cone_spec(d, exponents, extension_unweighted)
        d = int(d)      # an integral float d passes validation
        exps = tuple((int(a), float(p)) for a, p in exponents)
        alpha = float(sum(p for _, p in exps))
        c_d, c_d_error = _gamma_product(d, exps)
        if not c_d >= sys.float_info.min:
            raise ResourceError(
                f"the unit-ball measure c_d = {c_d!r} of this cone is below "
                f"the smallest normal double")
        return WeightedCone(d, exps, alpha, d + alpha, c_d, c_d_error,
                            extension_unweighted)

    # -- basic queries ------------------------------------------------

    @property
    def constrained_axes(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.exponents)

    def power_of(self, axis: int) -> float:
        for a, p in self.exponents:
            if a == axis:
                return p
        return 0.0

    def radius_of_measure(self, t: float) -> float:
        """Inverse of r -> mu(B_r), for t >= 0."""
        if t < 0:
            raise DomainError("measure must be nonnegative")
        return (t / self.c_d) ** (1.0 / self.big_d)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "exponents": [{"axis": a, "power": p} for a, p in self.exponents],
            "extension_unweighted": self.extension_unweighted,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "WeightedCone":
        try:
            d = int(data["d"])
            exps = [(int(e["axis"]), float(e["power"]))
                    for e in data.get("exponents", [])]
            ext = bool(data.get("extension_unweighted", False))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed cone spec: {exc}") from exc
        return WeightedCone.create(d, exps, ext)

    @staticmethod
    def from_json(text: str) -> "WeightedCone":
        return WeightedCone.from_json_dict(json.loads(text))


def _validate_cone_spec(d: int, exponents: Sequence[tuple[int, float]],
                        extension_unweighted: bool) -> None:
    if int(d) != d or d < 2:
        raise ValidationError("cone dimension d must be an integer >= 2")
    axes = [int(a) for a, _ in exponents]
    if len(set(axes)) != len(axes):
        raise ValidationError("duplicate axis in exponent list")
    for a, p in exponents:
        if a < 0 or a >= d:
            raise ValidationError(f"axis {a} outside 0..{d - 1}")
        if not p > 0:
            raise ValidationError("monomial powers must be strictly positive")
    if extension_unweighted and exponents:
        raise ValidationError(
            "extension mode carries no weight exponents")
    if not extension_unweighted and not exponents:
        raise ValidationError(
            "at least one weighted axis is required "
            "(or set extension_unweighted)")


# -- weight evaluation ----------------------------------------------------

def _weight_values(cone: WeightedCone, pts: np.ndarray) -> np.ndarray:
    """Weight on a batch of points, zero outside the (closed) cone; the
    unweighted extension lists no axis, so its weight is 1 everywhere."""
    vals = np.ones(pts.shape[0])
    mask = np.ones(pts.shape[0], dtype=bool)
    for a, p in cone.exponents:
        vals = vals * np.power(np.maximum(pts[:, a], 0.0), p)
        mask &= pts[:, a] > 0
    return np.where(mask, vals, 0.0)


# -- unit ball measure ------------------------------------------------------

def _gamma_product(d: int, exponents: tuple[tuple[int, float], ...]
                   ) -> tuple[float, float]:
    """c_d by the module docstring's Gamma product, with a rounding bound.

    Log space (``math.fsum`` of ``lgamma`` terms), because one Gamma factor
    overflows (argument above 171) long before c_d underflows.  The bound
    counts, per term lgamma(x) in units of machine epsilon, 8 (1 + |lgamma|)
    to evaluate and sum it (CPython's lgamma came within 5.5 (1 + |lgamma|)
    of 40-digit values at 60,000 points of [0.5, 1e5]) and
    n (1 + x |log x|) >= n |x psi(x)| for the n roundings that formed x;
    2 more cover exp, and ulp(0) a c_d that underflows.
    """
    powers = dict(exponents)
    k = len(powers)
    # (argument, roundings that formed it, sign) of each lgamma term
    terms = [((powers.get(i, 0.0) + 1.0) / 2.0, 1, 1.0) for i in range(d)]
    terms.append(((d + sum(powers.values())) / 2.0 + 1.0, k + 1, -1.0))
    logs = [sign * math.lgamma(x) for x, _, sign in terms]
    value = math.ldexp(math.exp(math.fsum(logs)), -k)
    eps_units = 2.0 + sum(8.0 * (1.0 + abs(t))
                          + n * (1.0 + x * abs(math.log(x)))
                          for (x, n, _), t in zip(terms, logs))
    return value, value * eps_units * math.ulp(1.0) + math.ulp(0.0)


def unit_ball_measure(cone: WeightedCone, samples: int, seed: int
                      ) -> tuple[float, float]:
    """Monte Carlo estimate of c_d = mu(B_1 cap S) with one standard error.

    A cross-check of the closed form ``cone.c_d``: the mean of w * chi_S
    over ``samples`` uniform points of the unit ball, drawn from one stream
    fixed by ``seed``.  Raises NumericalError when the standard error
    exceeds 10% of the value.
    """
    if samples < 1:
        raise ValidationError("monte-carlo sample count must be >= 1")
    # the seed's first spawned child, not default_rng(seed): another
    # stream would change every seeded estimate
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n = samples
    normals = rng.standard_normal((n, cone.d))
    radii = rng.random(n) ** (1.0 / cone.d)
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0] = 1.0
    pts = normals * (radii / norms)[:, None]
    vals = _weight_values(cone, pts)
    total, total_sq = float(np.sum(vals)), float(np.sum(vals * vals))
    vol = math.pi ** (cone.d / 2.0) / math.gamma(cone.d / 2.0 + 1.0)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    se = vol * math.sqrt(var / n)
    value = vol * mean
    if n >= 100 and se > 0.1 * abs(value):
        raise NumericalError(
            f"monte-carlo estimate did not converge: value {value:.3e}, "
            f"standard error {se:.3e} exceeds 10% of the value")
    return value, se


def ball_measure(cone: WeightedCone, r: float) -> float:
    """mu(B_r cap S) = c_d * r^D by homogeneity."""
    if r < 0:
        raise DomainError("ball radius must be nonnegative")
    if r == 0:
        return 0.0
    return cone.c_d * r ** cone.big_d


# -- built-in cones --------------------------------------------------------

_BUILTIN_SPECS: dict[str, dict] = {
    "halfplane-x1": {"d": 2, "exponents": [{"axis": 0, "power": 1.0}],
                     "extension_unweighted": False},
    "quadrant-x1x2": {"d": 2, "exponents": [{"axis": 0, "power": 1.0},
                                            {"axis": 1, "power": 1.0}],
                      "extension_unweighted": False},
    "disc-unweighted": {"d": 2, "exponents": [],
                        "extension_unweighted": True},
}

BUILTIN_CONE_NAMES = tuple(sorted(_BUILTIN_SPECS))

_BUILTIN_CACHE: dict[str, WeightedCone] = {}


def builtin_cone(name: str) -> WeightedCone:
    """Construct one of the named built-in cones (cached)."""
    if name not in _BUILTIN_SPECS:
        raise ValidationError(
            f"unknown cone {name!r}; built-ins: {', '.join(BUILTIN_CONE_NAMES)}")
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = WeightedCone.from_json_dict(_BUILTIN_SPECS[name])
    return _BUILTIN_CACHE[name]
