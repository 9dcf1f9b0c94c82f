"""The benchmark's three workloads: seeded inputs, items and output checks.

A workload is set up once per process (cones built by the product rule,
seeded input parameters generated) and then run as identical rounds.  A
round is a list of items, each one closed-loop call sequence into the
library; its outputs are compared with the library's own verdicts and with
reference values recorded at the commit that defined the benchmark.

The library is reached through ``importlib`` at call time, never through
names bound at import, so the tracer's rebinding is seen
(``cone_sobolev.rearrangement`` is a function, not the submodule).
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

NAMES = ("shell-certify", "grid-rearrange", "profile-batch")

# tolerances stated by the library: 1e-10 relative for norms and route
# agreement, 1e-9 slack for certificates and quotient bounds
NORM_RTOL = 1e-10
CERT_SLACK = 1e-9
# outputs that are ratios of two norms or certificate bounds
RATIO_FIELDS = frozenset({"quotient", "quotients", "certified",
                          "empirical_minimum"})

CONES = {
    "halfplane-x1": (2, ((0, 1.0),), False),
    "quadrant-x1x2": (2, ((0, 1.0), (1, 1.0)), False),
    "disc-unweighted": (2, (), True),
    "halfspace3-x1": (3, ((0, 1.0),), False),
}


def lib(module: str):
    return importlib.import_module(f"cone_sobolev.{module}")


def make_cone(name: str):
    d, exponents, unweighted = CONES[name]
    return lib("cones").WeightedCone.create(d, exponents, unweighted)


def default_box(cone) -> list[tuple[float, float]]:
    """The box ``cone-sobolev polya-szego`` uses when none is given."""
    walls = set(cone.constrained_axes)
    return [(0.0, 3.0) if axis in walls else (-1.5, 1.5)
            for axis in range(cone.d)]


@dataclass
class Item:
    key: str
    fn: Callable[[], dict]
    timed: bool = True     # counts toward the item latency statistics
    seeded: bool = True    # inputs depend on the seed


@dataclass
class ItemResult:
    key: str
    seconds: float
    outputs: dict
    error: str | None
    timed: bool
    seeded: bool


@dataclass
class Workload:
    inputs: dict
    items: Callable[[dict, dict], Iterator[Item]]
    tail_percentile: float
    samples_per_item: int  # latency samples per timed item


# -- shell-certify ------------------------------------------------------------

def _shell_setup(seed: int, small: bool) -> dict:
    rng = np.random.default_rng(seed)
    cone = make_cone("halfplane-x1")
    m = 2 if small else 6
    directions = 3 if small else 40
    sweep = 3 if small else 20
    systems = []
    for frac in ((0.5,) if small else (0.5, 0.7, 0.9)):
        # the seed of one system drives its alpha trials and its sweep,
        # exactly as `cone-sobolev bernstein --seed` does
        s = int(rng.integers(2 ** 31))
        alpha_rng = np.random.default_rng(s)
        alphas = [alpha_rng.standard_normal(m) for _ in range(directions)]
        systems.append({"frac": frac, "seed": s, "alphas": alphas,
                        "sweep": sweep})
    return {"cone": cone, "p": 2.0, "q": 1.0, "m": m, "eps1": 0.05,
            "eps2": 0.05, "systems": systems}


def _build_system(inp: dict, spec: dict, state: dict) -> dict:
    sob, bern = lib("sobolev"), lib("bernstein")
    cone = inp["cone"]
    params = lib("lorentz").LorentzParams(inp["p"], inp["q"], cone)
    lam = spec["frac"] * sob.embedding_norm(cone, params)
    system = bern.construct_system(cone, params, inp["m"], lam,
                                   inp["eps1"], inp["eps2"])
    report = bern.verify_system(system)
    state[spec["frac"]] = system
    return {"lambda": lam,
            "gradient_norms": [s["gradient_norm"] for s in report["shells"]],
            "function_norms": [s["function_norm"] for s in report["shells"]],
            "tail_norms": [s["tail_norm"] for s in report["shells"]]}


def _certify_direction(state: dict, frac: float, alpha) -> dict:
    bern = lib("bernstein")
    system = state[frac]
    s_lhs, _, s_ok = bern.superadditivity_certificate(system, alpha)
    g_lhs, _, g_ok = bern.gradient_upper_certificate(system, alpha)
    return {"super_lhs": s_lhs, "grad_lhs": g_lhs,
            "super_ok": bool(s_ok), "grad_ok": bool(g_ok)}


def _sweep(state: dict, frac: float, directions: int, seed: int) -> dict:
    system = state[frac]
    bound = lib("bernstein").bernstein_lower_bound(system, directions, seed)
    formula = system.lam / (1.0 + system.eps1) - system.eps2
    return {"certified": bound.certified,
            "empirical_minimum": bound.empirical_minimum,
            "certified_formula_ok": abs(bound.certified - formula) <= 1e-12,
            "empirical_at_least_certified":
                bound.empirical_minimum >= bound.certified}


def _shell_items(inp: dict, state: dict) -> Iterator[Item]:
    for spec in inp["systems"]:
        frac = spec["frac"]
        yield Item(f"system:{frac}",
                   functools.partial(_build_system, inp, spec, state),
                   timed=False, seeded=False)
        for i, alpha in enumerate(spec["alphas"]):
            yield Item(f"dir:{frac}:{i}",
                       functools.partial(_certify_direction, state, frac,
                                         alpha))
        yield Item(f"sweep:{frac}",
                   functools.partial(_sweep, state, frac, spec["sweep"],
                                     spec["seed"]), timed=False)


# -- grid-rearrange -----------------------------------------------------------

# (cone, cells per axis): 2-D grids 96^2 to 192^2 and 3-D grids 16^3 to
# 32^3, in three cost tiers (4 small, 4 of about 25k cells, 2 of about 35k
# cells) so that the median falls inside the middle tier rather than on a
# jump between two tiers.  A round stays near 2 s, so a run repeats every
# item often enough for its fastest repetitions to be steady; with 512^2
# and 64^3 grids a round took 10-14 s on a 2-vCPU VM and a run only three.
_GRID_SLOTS = (
    ("halfspace3-x1", 16), ("halfspace3-x1", 20), ("quadrant-x1x2", 96),
    ("halfplane-x1", 112),
    ("halfplane-x1", 160), ("quadrant-x1x2", 160), ("halfspace3-x1", 28),
    ("halfspace3-x1", 28),
    ("halfplane-x1", 192), ("halfspace3-x1", 32),
)
_GRID_SLOTS_SMALL = (("halfplane-x1", 16), ("quadrant-x1x2", 16),
                     ("halfspace3-x1", 8))


def _grid_setup(seed: int, small: bool) -> dict:
    rng = np.random.default_rng(seed)
    slots = _GRID_SLOTS_SMALL if small else _GRID_SLOTS
    cones = {name: make_cone(name) for name in dict.fromkeys(
        c for c, _ in slots)}
    # bump counts cycle 1..4 over the slots, as in criterion 7
    fields = [{"cone": c, "n": n, "bumps": 1 + i % 4,
               "seed": int(rng.integers(2 ** 31))}
              for i, (c, n) in enumerate(slots)]
    return {"cones": cones, "p": 2.0, "q": 1.0, "fields": fields}


def _grid_item(inp: dict, spec: dict) -> dict:
    sob = lib("sobolev")
    cone = inp["cones"][spec["cone"]]
    params = lib("lorentz").LorentzParams(inp["p"], inp["q"], cone)
    fieldv = sob.bump_superposition_field(cone, default_box(cone),
                                          (spec["n"],) * cone.d,
                                          spec["bumps"], spec["seed"])
    lhs, rhs, ok = sob.polya_szego_check(fieldv, params)
    return {"lhs": lhs, "rhs": rhs, "contracts": bool(ok)}


def _grid_items(inp: dict, state: dict) -> Iterator[Item]:
    for i, spec in enumerate(inp["fields"]):
        yield Item(f"field:{i}",
                   functools.partial(_grid_item, inp, spec))


# -- profile-batch ------------------------------------------------------------

_PQ = ((1.5, 1.0), (2.0, 1.0), (1.0, 1.0), (1.5, 1.25))
_PROFILE_CONES = ("halfplane-x1", "quadrant-x1x2", "disc-unweighted")
# the ratios `cone-sobolev alvino` sweeps by default
_ALVINO_RATIOS = [1e2, 1e4, 1e8, 1e40]
# Knots closer than this are redrawn.  The library fails on near-coincident
# knots: below a gap of about 3e-4 `from_knots` can reject the profile (the
# end value of the steep last segment carries roundoff beyond its absolute
# 1e-12 check), and near 1e-5 `integrate_adaptive` runs for seconds or
# raises NumericalError.  At 0.01 apart slopes stay below 100 and every
# item takes milliseconds.  test_perfbench pins the first defect.
MIN_KNOT_GAP = 0.01


def _affine_knots(rng: np.random.Generator) -> list[tuple[float, float]]:
    """Knots of a random nonincreasing affine profile: criterion 3's law,
    conditioned on knots at least MIN_KNOT_GAP apart."""
    n = int(rng.integers(2, 11))
    ts = np.sort(rng.uniform(0.05, 4.0, n))
    while np.any(np.diff(ts) < MIN_KNOT_GAP):
        ts = np.sort(rng.uniform(0.05, 4.0, n))
    drops = rng.uniform(0.05, 1.0, n - 1)
    vals = np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    return [(float(t), float(v)) for t, v in zip(ts, vals)]


def _random_step(rng: np.random.Generator, max_n: int, width: float,
                 top: float) -> tuple[tuple, tuple]:
    n = int(rng.integers(1, max_n))
    bps = np.cumsum(rng.uniform(0.05, width, n))
    vals = rng.uniform(0.01, top, n)
    return tuple(float(b) for b in bps), tuple(float(v) for v in vals)


def _profile_setup(seed: int, small: bool) -> dict:
    rng = np.random.default_rng(seed)
    cones = {name: make_cone(name) for name in _PROFILE_CONES}
    per_combo = 1 if small else 16
    affine, sweeps = [], []
    for name in _PROFILE_CONES:
        for p, q in _PQ:
            if p >= cones[name].big_d:
                continue  # (2, 1) is supercritical on the unweighted disc
            affine += [(name, p, q, _affine_knots(rng))
                       for _ in range(per_combo)]
            sweeps.append((name, p, q, _ALVINO_RATIOS))
    if small:
        sweeps = sweeps[:2]
    n_steps = 3 if small else 48
    steps = []
    for _ in range(n_steps):
        bps, vals = _random_step(rng, 12, 1.5, 5.0)
        p = float(rng.uniform(1.0, 4.0))
        steps.append((bps, vals, p, float(rng.uniform(1.0, p))))
    hardy = [(_random_step(rng, 10, 1.0, 3.0), (1.0, 1.0) if k % 2
              else (2.0, 1.0)) for k in range(n_steps)]
    return {"cones": cones, "affine": affine, "steps": steps,
            "hardy": hardy, "sweeps": sweeps}


def _affine_item(inp: dict, name: str, p: float, q: float,
                 knots: list) -> dict:
    cone = inp["cones"][name]
    lor = lib("lorentz")
    params = lor.LorentzParams(p, q, cone)
    profile = lib("profiles").from_knots(cone, knots)
    report = lib("sobolev").quotient(profile, params)
    star = params.star_params()
    rearranged = lor.lorentz_norm_rearranged(profile, star)
    distributional = lor.lorentz_norm_distributional(profile, star)
    return {"quotient": report.quotient, "gradient_norm": report.denominator,
            "rearranged": rearranged, "distributional": distributional,
            "routes_agree": _routes_agree(rearranged, distributional),
            "below_constant": report.quotient
            <= report.embedding_norm * (1.0 + CERT_SLACK)}


def _step_item(bps: tuple, vals: tuple, p: float, q: float) -> dict:
    lor = lib("lorentz")
    step = lib("rearrangement").StepFunction1D(bps, vals)
    params = lor.LorentzParams(p, q)
    distributional = lor.lorentz_norm_distributional(step, params)
    rearranged = lor.lorentz_norm_rearranged(
        lib("rearrangement").rearrangement(step), params)
    return {"rearranged": rearranged, "distributional": distributional,
            "routes_agree": _routes_agree(rearranged, distributional)}


def _hardy_item(inp: dict, step: tuple, pq: tuple) -> dict:
    lor = lib("lorentz")
    cone = inp["cones"]["halfplane-x1"]
    f = lib("rearrangement").StepFunction1D(*step)
    lhs, rhs = lor.hardy_check(f, lor.LorentzParams(*pq, cone))
    return {"lhs": lhs, "rhs": rhs,
            "inequality": lhs <= rhs * (1.0 + CERT_SLACK)}


def _sweep_item(inp: dict, name: str, p: float, q: float,
                ratios: list) -> dict:
    cone = inp["cones"][name]
    params = lib("lorentz").LorentzParams(p, q, cone)
    reports = lib("sobolev").alvino_search(cone, params, ratios)
    norm = lib("sobolev").embedding_norm(cone, params)
    quotients = [r.quotient for r in reports]
    return {"quotients": quotients,
            "nondecreasing": all(b >= a * (1.0 - CERT_SLACK)
                                 for a, b in zip(quotients, quotients[1:])),
            "below_constant": all(v <= norm * (1.0 + CERT_SLACK)
                                  for v in quotients)}


def _profile_items(inp: dict, state: dict) -> Iterator[Item]:
    partial = functools.partial
    for i, (name, p, q, knots) in enumerate(inp["affine"]):
        yield Item(f"affine:{i}",
                   partial(_affine_item, inp, name, p, q, knots))
    for i, (bps, vals, p, q) in enumerate(inp["steps"]):
        yield Item(f"step:{i}", partial(_step_item, bps, vals, p, q))
    for i, (step, pq) in enumerate(inp["hardy"]):
        yield Item(f"hardy:{i}", partial(_hardy_item, inp, step, pq))
    for i, (name, p, q, ratios) in enumerate(inp["sweeps"]):
        yield Item(f"alvino:{i}",
                   partial(_sweep_item, inp, name, p, q, ratios))


def _routes_agree(a: float, b: float) -> bool:
    # the same rule as `cone-sobolev norm`
    return abs(a - b) <= NORM_RTOL * max(a, b, 1.0)


# -- running and checking -----------------------------------------------------

_SETUP = {"shell-certify": _shell_setup, "grid-rearrange": _grid_setup,
          "profile-batch": _profile_setup}
_ITEMS = {"shell-certify": _shell_items, "grid-rearrange": _grid_items,
          "profile-batch": _profile_items}
# Every timed item gives the same number of latency samples, enough for at
# least MIN_SAMPLES in all; the tail is the highest of these percentiles
# that leaves ten samples beyond it.
MIN_SAMPLES = 40
_PERCENTILES = (50.0, 60.0, 70.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0)
MIN_ROUNDS = 3


def setup(name: str, seed: int, small: bool = False) -> Workload:
    """Build the cones and generate the seeded inputs of one workload."""
    inputs = _SETUP[name](seed, small)
    wl = Workload(inputs, _ITEMS[name], 0.0, 1)
    timed = sum(1 for item in wl.items(inputs, {}) if item.timed)
    wl.samples_per_item = math.ceil(MIN_SAMPLES / timed)
    n = wl.samples_per_item * timed
    wl.tail_percentile = max(
        (pct for pct in _PERCENTILES if n * (1.0 - pct / 100.0) >= 10.0),
        default=_PERCENTILES[0])
    return wl


def latency_samples(rounds: list[list[float]], factors: list[float],
                    timed: list[bool], per_item: int) -> list[float]:
    """Latency samples of the timed items, scaled to the reference speed.

    ``rounds[r][i]`` is item ``i``'s time in round ``r`` and ``factors[r]``
    scales round ``r`` to the reference machine speed.  The rounds are
    split into ``per_item`` consecutive blocks, and each timed item gives
    one sample per block: the median of its scaled times in that block.
    """
    n = len(rounds)
    blocks = [range(b * n // per_item, (b + 1) * n // per_item)
              for b in range(per_item)]
    return [statistics.median(rounds[r][i] * factors[r] for r in block)
            for i, is_timed in enumerate(timed) if is_timed
            for block in blocks]


def run_round(wl: Workload) -> list[ItemResult]:
    """Run every item of one round, timing each; failures are recorded."""
    results = []
    for item in wl.items(wl.inputs, {}):
        start = time.perf_counter()
        try:
            outputs, error = item.fn(), None
        except Exception as exc:  # an item that raises is a failed item
            outputs, error = {}, f"{type(exc).__name__}: {exc}"
        results.append(ItemResult(item.key, time.perf_counter() - start,
                                  outputs, error, item.timed, item.seeded))
    return results


def numeric_outputs(outputs: dict) -> list[tuple[str, float]]:
    """(field, value) of every number an item returned, in field order."""
    out = []
    for name in sorted(outputs):
        value = outputs[name]
        if isinstance(value, bool):
            continue
        out += [(name, v) for v in (value if isinstance(value, list)
                                    else [value])]
    return out


def recorded_outputs(results: list[ItemResult]) -> dict:
    """The numeric outputs of a round, split into seeded and shared."""
    seeded, shared = {}, {}
    for r in results:
        if r.error is not None:
            continue
        # 12 significant digits: far inside the 1e-10 tolerance
        values = [float(f"{v:.12g}") for _, v in numeric_outputs(r.outputs)]
        (seeded if r.seeded else shared)[r.key] = values
    return {"seeded": seeded, "shared": shared}


def check(results: list[ItemResult], reference: dict | None
          ) -> list[tuple[str, str]]:
    """(key, reason) of every failed item.

    An item fails if it raised, if any verdict it returned is false, or if
    a numeric output drifts from its reference value beyond the library's
    tolerance.  ``reference`` maps keys to recorded outputs (as
    ``recorded_outputs`` lists them); items without a reference are
    checked by their verdicts only.
    """
    failures = []
    for r in results:
        if r.error is not None:
            failures.append((r.key, r.error))
            continue
        bad = [k for k, v in r.outputs.items()
               if isinstance(v, bool) and not v]
        if bad:
            failures.append((r.key, "verdict failed: " + ", ".join(bad)))
            continue
        ref = (reference or {}).get(r.key)
        if ref is None:
            continue
        got = numeric_outputs(r.outputs)
        if len(got) != len(ref):
            failures.append((r.key, "outputs differ in number from the "
                             "reference"))
            continue
        drift = sorted({name for (name, g), want in zip(got, ref)
                        if not _close(g, want, name)})
        if drift:
            failures.append((r.key, "drift from reference: "
                             + ", ".join(drift)))
    return failures


def _close(got, want: float, field_name: str) -> bool:
    rtol = CERT_SLACK if field_name in RATIO_FIELDS else NORM_RTOL
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return False
    return abs(got - want) <= rtol * abs(want)
