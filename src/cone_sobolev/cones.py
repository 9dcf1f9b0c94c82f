"""Convex cones with monomial weights and their weighted measures.

A cone is the set where a chosen subset of coordinates is positive,

    S = {x in R^d : x_i > 0 for every listed axis i},

carrying the weight w(x) = prod x_i^{A_i} over the listed axes with all
A_i > 0.  The weighted measure is d(mu) = w dx.  Writing alpha for the sum
of the exponents, w is alpha-homogeneous, w^(1/alpha) is concave on S, and
the measure scales with the effective dimension

    D = d + alpha,        mu(B_r cap S) = c_d * r^D,

where c_d = mu(B_1 cap S) is the weighted measure of the unit ball sector.

Two modes compute c_d:

* product rule: the closed form of this Dirichlet integral,
  c_d = prod_i Gamma((A_i + 1) / 2) / (2^k Gamma(D/2 + 1)) over all d axes
  (A_i = 0 off the k weighted ones), with a rounding-error bound.
* monte-carlo: uniform samples in the unit ball, averaging w * chi_S,
  with a standard-error estimate; deterministic for a fixed seed.

Setting ``extension_unweighted`` produces the unweighted extension
(no listed axes, w == 1, S = R^d, D = d); reports must flag this mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

__all__ = [
    "WeightedCone",
    "QuadratureConfig",
    "ConcavityReport",
    "weight_eval",
    "unit_ball_measure",
    "ball_measure",
    "concavity_probe",
    "builtin_cone",
    "BUILTIN_CONE_NAMES",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """How to integrate over the cone.

    mode is "product-rule" or "monte-carlo".  The product rule is the
    closed-form Gamma product and ignores the other fields; ``samples`` is
    the total draw count for monte-carlo, drawn from one stream fixed by
    ``seed``.
    """

    mode: str = "product-rule"
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("product-rule", "monte-carlo"):
            raise ValidationError(f"unknown quadrature mode {self.mode!r}")
        if self.samples < 1:
            raise ValidationError("monte-carlo sample count must be >= 1")


@dataclass(frozen=True)
class WeightedCone:
    """A cone with a monomial weight; carries its measured constants.

    Fields mirror the data contract: dimension ``d``; ``exponents`` as
    (axis, power) pairs with 0-based axis indices; ``alpha`` the exponent
    sum; ``big_d`` the effective dimension d + alpha; ``c_d`` the weighted
    unit-ball sector measure (computed at construction).
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
               extension_unweighted: bool = False,
               quad: QuadratureConfig | None = None) -> "WeightedCone":
        _validate_cone_spec(d, exponents, extension_unweighted)
        exps = tuple((int(a), float(p)) for a, p in exponents)
        alpha = float(sum(p for _, p in exps))
        big_d = d + alpha
        cfg = quad or QuadratureConfig()
        pre = WeightedCone(d, exps, alpha, big_d, math.nan, math.nan,
                           extension_unweighted)
        c_d, err = unit_ball_measure(pre, cfg)
        return WeightedCone(d, exps, alpha, big_d, c_d, err,
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
    def from_json_dict(data: Mapping, quad: QuadratureConfig | None = None
                       ) -> "WeightedCone":
        try:
            d = int(data["d"])
            exps = [(int(e["axis"]), float(e["power"]))
                    for e in data.get("exponents", [])]
            ext = bool(data.get("extension_unweighted", False))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed cone spec: {exc}") from exc
        return WeightedCone.create(d, exps, ext, quad)

    @staticmethod
    def from_json(text: str, quad: QuadratureConfig | None = None
                  ) -> "WeightedCone":
        return WeightedCone.from_json_dict(json.loads(text), quad)


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

def weight_eval(cone: WeightedCone, x: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Evaluate w at a point (shape (d,)) or batch (shape (n, d)).

    Points must lie in the closure of the cone; a strictly negative
    constrained coordinate is a domain error.  On the boundary w vanishes.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[-1] != cone.d:
        raise ValidationError(f"points must have {cone.d} coordinates")
    for a in cone.constrained_axes:
        if np.any(pts[:, a] < 0):
            raise DomainError(
                f"coordinate on axis {a} is negative: outside the cone closure")
    vals = _weight_values(cone, pts)
    return float(vals[0]) if single else vals


def _weight_values(cone: WeightedCone, pts: np.ndarray) -> np.ndarray:
    """Weight on a batch of points, zero outside the (closed) cone; the
    unweighted extension lists no axis, so its weight is 1 everywhere."""
    vals = np.ones(pts.shape[0])
    mask = np.ones(pts.shape[0], dtype=bool)
    for a, p in cone.exponents:
        vals = vals * np.power(np.maximum(pts[:, a], 0.0), p)
        mask &= pts[:, a] > 0
    return np.where(mask, vals, 0.0)


# -- unit ball measure: Gamma product ---------------------------------------

def _gamma_product(cone: WeightedCone) -> tuple[float, float]:
    """c_d by the module docstring's Gamma product, with a rounding bound.

    Log space (``math.fsum`` of ``lgamma`` terms), because one Gamma factor
    overflows (argument above 171) long before c_d underflows.  The bound
    counts, per term lgamma(x) in units of machine epsilon, 8 (1 + |lgamma|)
    to evaluate and sum it (CPython's lgamma came within 5.5 (1 + |lgamma|)
    of 40-digit values at 60,000 points of [0.5, 1e5]) and
    n (1 + x |log x|) >= n |x psi(x)| for the n roundings that formed x;
    2 more cover exp, and ulp(0) a c_d that underflows.
    """
    k = len(cone.exponents)
    # (argument, roundings that formed it, sign) of each lgamma term
    terms = [((cone.power_of(i) + 1.0) / 2.0, 1, 1.0) for i in range(cone.d)]
    terms.append((cone.big_d / 2.0 + 1.0, k + 1, -1.0))
    logs = [sign * math.lgamma(x) for x, _, sign in terms]
    value = math.ldexp(math.exp(math.fsum(logs)), -k)
    eps_units = 2.0 + sum(8.0 * (1.0 + abs(t))
                          + n * (1.0 + x * abs(math.log(x)))
                          for (x, n, _), t in zip(terms, logs))
    return value, value * eps_units * math.ulp(1.0) + math.ulp(0.0)


# -- unit ball measure: monte-carlo ----------------------------------------

def _lebesgue_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _unit_ball_mc(cone: WeightedCone, cfg: QuadratureConfig
                  ) -> tuple[float, float]:
    # the seed's first spawned child, not default_rng(seed): another
    # stream would change every seeded estimate
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    n = cfg.samples
    normals = rng.standard_normal((n, cone.d))
    radii = rng.random(n) ** (1.0 / cone.d)
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0] = 1.0
    pts = normals * (radii / norms)[:, None]
    vals = _weight_values(cone, pts)
    total, total_sq = float(np.sum(vals)), float(np.sum(vals * vals))
    vol = _lebesgue_ball_volume(cone.d)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    se = vol * math.sqrt(var / n)
    value = vol * mean
    if n >= 100 and se > 0.1 * abs(value):
        raise NumericalError(
            f"monte-carlo estimate did not converge: value {value:.3e}, "
            f"standard error {se:.3e} exceeds 10% of the value")
    return value, se


def unit_ball_measure(cone: WeightedCone, config: QuadratureConfig | None = None
                      ) -> tuple[float, float]:
    """Weighted measure of B_1 cap S with an error estimate.

    Product rule returns a bound on the closed form's rounding error;
    monte-carlo returns one standard error, and raises NumericalError when
    that exceeds 10% of the value.
    """
    cfg = config or QuadratureConfig()
    if cfg.mode == "product-rule":
        return _gamma_product(cone)
    return _unit_ball_mc(cone, cfg)


def ball_measure(cone: WeightedCone, r: float) -> float:
    """mu(B_r cap S) = c_d * r^D by homogeneity."""
    if r < 0:
        raise DomainError("ball radius must be nonnegative")
    if r == 0:
        return 0.0
    return cone.c_d * r ** cone.big_d


# -- concavity probe -------------------------------------------------------

@dataclass(frozen=True)
class ConcavityReport:
    trials: int
    violations: int
    worst_margin: float
    passed: bool


def concavity_probe(cone: WeightedCone, trials: int = 1000, seed: int = 0
                    ) -> ConcavityReport:
    """Sample midpoint concavity of w^(1/alpha) on segments inside the cone.

    For each random pair x, y in S the probe checks

        w^(1/alpha)((x+y)/2) >= (w^(1/alpha)(x) + w^(1/alpha)(y)) / 2

    up to a 1e-12 relative slack.  Monomial weights satisfy this for every
    pair; a violation count > 0 flags a weight outside the admissible class.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if cone.alpha == 0.0:
        # unweighted extension: w == 1 and the inequality is an identity
        return ConcavityReport(trials, 0, 0.0, True)
    rng = np.random.default_rng(seed)
    constrained = cone.constrained_axes
    free = [a for a in range(cone.d) if a not in constrained]

    def sample(n: int) -> np.ndarray:
        pts = np.empty((n, cone.d))
        for a in constrained:
            pts[:, a] = np.exp(rng.uniform(math.log(0.05), math.log(2.0), n))
        for a in free:
            pts[:, a] = rng.uniform(-2.0, 2.0, n)
        return pts

    xs, ys = sample(trials), sample(trials)
    inv_alpha = 1.0 / cone.alpha
    fx = _weight_values(cone, xs) ** inv_alpha
    fy = _weight_values(cone, ys) ** inv_alpha
    fm = _weight_values(cone, 0.5 * (xs + ys)) ** inv_alpha
    avg = 0.5 * (fx + fy)
    scale = np.maximum(np.maximum(fm, avg), 1e-300)
    margins = (fm - avg) / scale
    bad = margins < -1e-12
    worst = float(np.min(margins)) if trials else 0.0
    return ConcavityReport(trials, int(np.sum(bad)), worst, not bool(np.any(bad)))


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
