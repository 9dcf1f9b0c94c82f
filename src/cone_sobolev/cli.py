"""Batch command line front end with machine-readable JSON reports.

Every command is a reproducible run: the report embeds the full effective
configuration (defaults resolved, config file merged, flags applied), the
outputs, the tolerances used, and named pass/fail verdicts.  Identical
configuration and seed produce byte-identical reports apart from the
timestamp field.

Exit status: 0 when every verdict passes, 1 when a verdict fails, 2 for
configuration errors, 3 for numerical failures inside the library.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import acceptance
from .bernstein import (_CERT_SLACK, certify_span, construct_system,
                        verify_system)
from .cones import BUILTIN_CONE_NAMES, WeightedCone, builtin_cone
from .errors import ConeSobolevError, DomainError, ValidationError
from .lorentz import (LorentzParams, lorentz_norm_distributional,
                      lorentz_norm_rearranged)
from .profiles import RadialProfile, from_knots
from .sobolev import (_PS_TOL_FACTOR, _UPPER_SLACK, alvino_search,
                      bump_superposition_field, embedding_norm,
                      polya_szego_check, quotient)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_ROUTE_RTOL = 1e-10

# defaults for every option that may come from a config file; None marks
# options with no usable default (must be supplied for commands needing them)
_DEFAULTS: dict[str, Any] = {
    "cone": "halfplane-x1",
    "p": 1.0,
    "q": 1.0,
    "seed": 0,
    "out": None,
    "profile": None,
    "grid": 64,
    "bumps": 3,
    "box": None,
    "ratios": "1e2,1e4,1e8,1e40",
    "m": 6,
    "lambda_frac": 0.9,
    "eps1": 0.05,
    "eps2": 0.05,
    "alpha_trials": 1000,
    "directions": 5000,
    "criteria": None,
}

# per-command default overrides: shell systems need p > q, so the
# bernstein command defaults to the gradient exponent 2
_COMMAND_DEFAULTS: dict[str, dict[str, Any]] = {
    "bernstein": {"p": 2.0},
}

_COMMAND_OPTIONS: dict[str, tuple[str, ...]] = {
    "constant": ("cone", "p", "q", "out"),
    "norm": ("cone", "p", "q", "out", "profile"),
    "quotient": ("cone", "p", "q", "out", "profile"),
    "polya-szego": ("cone", "p", "q", "seed", "out", "grid", "bumps", "box"),
    "alvino": ("cone", "p", "q", "out", "ratios"),
    "bernstein": ("cone", "p", "q", "seed", "out", "m", "lambda_frac",
                  "eps1", "eps2", "alpha_trials", "directions"),
    "selftest": ("out", "criteria"),
}

# argparse keywords of each option's flag --<option with "-" for "_">
_FLAGS: dict[str, dict[str, Any]] = {
    "cone": dict(type=str,
                 help="builtin cone name or path to a cone JSON file"),
    "p": dict(type=float),
    "q": dict(type=float),
    "seed": dict(type=int),
    "out": dict(type=str, help="also write the JSON report to this path"),
    "profile": dict(type=str, help="path to a profile JSON file"),
    "grid": dict(type=int, help="cells per axis"),
    "bumps": dict(type=int, help="number of random bumps"),
    "box": dict(type=str, help="sampling box as lo:hi,lo:hi,... "
                               "(default derived from the cone)"),
    "ratios": dict(type=str, help="comma separated head-to-support ratios"),
    "m": dict(type=int, help="number of shells"),
    "lambda_frac": dict(type=float,
                        help="target norm as a fraction of the embedding "
                             "norm, in (0, 1)"),
    "eps1": dict(type=float),
    "eps2": dict(type=float),
    "alpha_trials": dict(type=int,
                         help="random coefficient vectors per certificate"),
    "directions": dict(type=int,
                       help="directions for the empirical minimum"),
    "criteria": dict(type=str,
                     help="comma separated criterion numbers (default: all)"),
}


# -- configuration plumbing -------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per row of _COMMAND_OPTIONS, taking exactly its
    options plus --config; each handler's docstring is its help line."""
    parser = argparse.ArgumentParser(
        prog="cone-sobolev",
        description="weighted Lorentz-Sobolev embedding verifications")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMAND_OPTIONS.items():
        cmd = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        cmd.add_argument("--config", type=str, default=None,
                         help="JSON file with option defaults; flags "
                              "override")
        for key in options:
            cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                             default=None, **_FLAGS[key])
    return parser


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    return data


def _effective_config(args: argparse.Namespace) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    allowed = _COMMAND_OPTIONS[args.command]
    config = {key: _DEFAULTS[key] for key in allowed}
    config.update(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config is not None:
        for key, value in _load_config_file(args.config).items():
            norm_key = key.replace("-", "_")
            if norm_key == "command":
                continue
            if norm_key not in allowed:
                raise ValidationError(
                    f"config key {key!r} is not an option of "
                    f"{args.command!r}")
            config[norm_key] = value
    for key in allowed:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _resolve_cone(spec: Any) -> WeightedCone:
    if isinstance(spec, Mapping):
        return WeightedCone.from_json_dict(spec)
    if isinstance(spec, str):
        if spec in BUILTIN_CONE_NAMES:
            return builtin_cone(spec)
        path = Path(spec)
        if path.exists():
            return WeightedCone.from_json(path.read_text())
        raise ValidationError(
            f"unknown cone {spec!r}: not a builtin "
            f"{sorted(BUILTIN_CONE_NAMES)} and not a file")
    raise ValidationError("cone must be a name, a path, or a JSON object")


def _load_profile(path: str | None,
                  fallback_cone: WeightedCone | None) -> RadialProfile:
    if path is None:
        raise ValidationError("this command requires --profile")
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read profile file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"profile file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("profile file must hold a JSON object")
    cone = (WeightedCone.from_json_dict(data["cone"]) if "cone" in data
            else fallback_cone)
    if cone is None:
        raise ValidationError(
            "profile file has no cone entry and no --cone was given")
    if "knots" in data:
        try:
            knots = [(float(t), float(v)) for t, v in data["knots"]]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed knot list: {exc}") from exc
        return from_knots(cone, knots)
    if "segments" in data:
        return RadialProfile.from_json_dict(data, cone)
    raise ValidationError("profile file needs a 'knots' or 'segments' entry")


def _parse_floats(value: Any, what: str) -> list[float]:
    if isinstance(value, str):
        parts = [s for s in value.split(",") if s.strip()]
    elif isinstance(value, Sequence):
        parts = list(value)
    else:
        raise ValidationError(f"{what} must be a comma list or an array")
    try:
        return [float(s) for s in parts]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def _parse_box(value: Any, cone: WeightedCone) -> list[tuple[float, float]]:
    if value is None:
        constrained = set(cone.constrained_axes)
        return [(0.0, 3.0) if axis in constrained else (-1.5, 1.5)
                for axis in range(cone.d)]
    if isinstance(value, str):
        pairs = []
        for part in value.split(","):
            lo, _, hi = part.partition(":")
            pairs.append((lo, hi))
    elif isinstance(value, Sequence):
        pairs = [(pair[0], pair[1]) for pair in value]
    else:
        raise ValidationError("box must be lo:hi,lo:hi,... or an array")
    try:
        box = [(float(lo), float(hi)) for lo, hi in pairs]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed box: {exc}") from exc
    if len(box) != cone.d:
        raise ValidationError(
            f"box has {len(box)} axes but the cone has {cone.d}")
    return box


def _number(config: dict, key: str, kind: type) -> Any:
    """config[key] cast to int or float; a value that does not cast is a
    configuration error, not a crash."""
    try:
        return kind(config[key])
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ValidationError(
            f"option {key!r} must be {what}, got {config[key]!r}") from exc


def _params(config: dict, cone: WeightedCone | None = None) -> LorentzParams:
    return LorentzParams(_number(config, "p", float),
                         _number(config, "q", float), cone)


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


# -- commands ---------------------------------------------------------------

def _cmd_constant(config: dict) -> tuple[dict, dict, dict]:
    """Sharp embedding constant for a cone and exponents."""
    cone = _resolve_cone(config["cone"])
    config["cone"] = cone.to_json_dict()
    params = _params(config, cone)
    value = embedding_norm(cone, params)
    outputs = {
        "embedding_norm": value,
        "c_d": cone.c_d,
        "big_d": cone.big_d,
        "p_star": params.p_star,
    }
    verdicts = {"finite_positive": math.isfinite(value) and value > 0.0}
    return outputs, {}, verdicts


def _cmd_norm(config: dict) -> tuple[dict, dict, dict]:
    """Lorentz norm of a profile by both routes."""
    fallback = (_resolve_cone(config["cone"])
                if config["cone"] is not None else None)
    profile = _load_profile(config["profile"], fallback)
    config["cone"] = profile.cone.to_json_dict()
    params = _params(config)
    rearranged = lorentz_norm_rearranged(profile, params)
    distributional = lorentz_norm_distributional(profile, params)
    scale = max(rearranged, distributional, 1.0)
    outputs = {
        "rearranged": rearranged,
        "distributional": distributional,
        "difference": abs(rearranged - distributional),
    }
    tolerances = {"route_agreement_rel": _ROUTE_RTOL}
    verdicts = {"routes_agree":
                abs(rearranged - distributional) <= _ROUTE_RTOL * scale}
    return outputs, tolerances, verdicts


def _cmd_quotient(config: dict) -> tuple[dict, dict, dict]:
    """Sobolev quotient report for a profile."""
    fallback = (_resolve_cone(config["cone"])
                if config["cone"] is not None else None)
    profile = _load_profile(config["profile"], fallback)
    config["cone"] = profile.cone.to_json_dict()
    params = _params(config, profile.cone)
    report = quotient(profile, params)
    outputs = {
        "numerator": report.numerator,
        "denominator": report.denominator,
        "quotient": report.quotient,
        "embedding_norm": report.embedding_norm,
        "ratio": report.ratio,
    }
    tolerances = {"upper_bound_rel": _UPPER_SLACK}
    verdicts = {"upper_bound": report.quotient
                <= report.embedding_norm * (1.0 + _UPPER_SLACK)}
    return outputs, tolerances, verdicts


def _cmd_polya_szego(config: dict) -> tuple[dict, dict, dict]:
    """Rearrangement gradient-contraction check on a sampled bump field."""
    cone = _resolve_cone(config["cone"])
    config["cone"] = cone.to_json_dict()
    params = _params(config, cone)
    box = _parse_box(config["box"], cone)
    config["box"] = [list(pair) for pair in box]
    grid = _number(config, "grid", int)
    field = bump_superposition_field(cone, box, (grid,) * cone.d,
                                     _number(config, "bumps", int),
                                     _number(config, "seed", int))
    lhs, rhs, ok = polya_szego_check(field, params)
    h = field.max_cell_diameter
    outputs = {
        "lhs_profile_gradient_norm": lhs,
        "rhs_rearranged_gradient_norm": rhs,
        "grid_h": h,
        "box": [list(pair) for pair in box],
    }
    tolerances = {"grid_rel": _PS_TOL_FACTOR * h}
    verdicts = {"rearrangement_contracts_gradient": ok}
    return outputs, tolerances, verdicts


def _cmd_alvino(config: dict) -> tuple[dict, dict, dict]:
    """Maximizing-family quotient sweep."""
    cone = _resolve_cone(config["cone"])
    config["cone"] = cone.to_json_dict()
    params = _params(config, cone)
    ratios = _parse_floats(config["ratios"], "ratios")
    config["ratios"] = ratios
    reports = alvino_search(cone, params, ratios)
    norm_value = embedding_norm(cone, params)
    outputs = {
        "embedding_norm": norm_value,
        "sweep": [{"ratio": r, "quotient": rep.quotient,
                   "fraction_of_norm": rep.ratio}
                  for r, rep in zip(ratios, reports)],
    }
    quotients = [rep.quotient for rep in reports]
    tolerances = {"upper_bound_rel": _UPPER_SLACK,
                  "monotone_rel": _UPPER_SLACK}
    # at p = 1 the sweep is exactly flat, so allow roundoff in the
    # monotonicity verdict
    verdicts = {
        "nondecreasing": all(b >= a * (1.0 - _UPPER_SLACK)
                             for a, b in zip(quotients, quotients[1:])),
        "below_embedding_norm": all(
            value <= norm_value * (1.0 + _UPPER_SLACK)
            for value in quotients),
    }
    return outputs, tolerances, verdicts


def _cmd_bernstein(config: dict) -> tuple[dict, dict, dict]:
    """Almost-extremal shell system with certificates and the lower bound."""
    cone = _resolve_cone(config["cone"])
    config["cone"] = cone.to_json_dict()
    params = _params(config, cone)
    frac = _number(config, "lambda_frac", float)
    if not 0.0 < frac < 1.0:
        raise ValidationError("lambda_frac must lie strictly in (0, 1)")
    trials = _number(config, "alpha_trials", int)
    directions = _number(config, "directions", int)
    if trials < 1 or directions < 1:
        raise ValidationError("alpha_trials and directions must be at least 1")
    lam = frac * embedding_norm(cone, params)
    system = construct_system(cone, params, _number(config, "m", int), lam,
                              _number(config, "eps1", float),
                              _number(config, "eps2", float))
    verification = verify_system(system)
    sweep = certify_span(system, trials, directions,
                         _number(config, "seed", int))
    bound = sweep.bound
    outputs = {
        "lambda": lam,
        "certified_lower_bound": bound.certified,
        "empirical_minimum": bound.empirical_minimum,
        "superadditivity_failures": sweep.super_failures,
        "gradient_upper_failures": sweep.grad_failures,
        "superadditivity_margin": sweep.super_margin,
        "gradient_upper_margin": sweep.grad_margin,
        "alpha_trials": trials,
        "shells": [{"index": s.index,
                    "outer_radius": s.outer_radius,
                    "inner_radius": s.inner_radius,
                    "cutoff_radius": s.cutoff_radius,
                    "delta": s.delta,
                    "gamma": s.gamma}
                   for s in system.shells],
        "verification": _jsonable(verification),
    }
    tolerances = {"certificate_slack": _CERT_SLACK}
    verdicts = {
        "certificates": sweep.super_failures == 0
        and sweep.grad_failures == 0,
        "empirical_at_least_certified":
            bound.empirical_minimum >= bound.certified,
    }
    return outputs, tolerances, verdicts


def _cmd_selftest(config: dict) -> tuple[dict, dict, dict]:
    """Run the acceptance criteria."""
    numbers = None
    if config["criteria"] is not None:
        numbers = _parse_floats(config["criteria"], "criteria")
        if not numbers:
            raise ValidationError("at least one criterion is required")
        if not all(v in acceptance.CRITERIA for v in numbers):  # 2.0 matches 2
            raise ValidationError(f"criteria must be among "
                                  f"{sorted(acceptance.CRITERIA)}: {numbers}")
        numbers = config["criteria"] = [int(v) for v in numbers]
    results = acceptance.run_criteria(numbers)
    for result in results:
        print(acceptance.result_line(result), file=sys.stderr)
    outputs = {
        "criteria": [{"number": r.number, "title": r.title,
                      "passed": r.passed, "details": _jsonable(r.details)}
                     for r in results],
    }
    verdicts = {f"criterion_{r.number:02d}": r.passed for r in results}
    return outputs, {}, verdicts


_COMMANDS = {
    "constant": _cmd_constant,
    "norm": _cmd_norm,
    "quotient": _cmd_quotient,
    "polya-szego": _cmd_polya_szego,
    "alvino": _cmd_alvino,
    "bernstein": _cmd_bernstein,
    "selftest": _cmd_selftest,
}


# -- entry point ------------------------------------------------------------

def run(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _effective_config(args)
        outputs, tolerances, verdicts = _COMMANDS[args.command](config)
    except (ValidationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConeSobolevError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    echo = {k: _jsonable(v) for k, v in config.items() if k != "out"}
    report = {
        "command": args.command,
        "config": echo,
        "outputs": _jsonable(outputs),
        "tolerances": _jsonable(tolerances),
        "verdicts": _jsonable(verdicts),
        "passed": all(verdicts.values()),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .isoformat(timespec="seconds"),
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if config.get("out"):
        try:
            Path(config["out"]).write_text(text)
        except OSError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_PASS if report["passed"] else EXIT_VERDICT_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
