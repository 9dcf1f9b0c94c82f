"""Tests of the benchmark itself:  python3 -m pytest perfbench

They use the workloads' small configurations, so they run in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(workload: str, seed: int, mode: str = "trace") -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--mode", mode,
         "--small"], env=_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(*args: str) -> dict:
    proc = subprocess.run([sys.executable, "-m", "cone_sobolev.cli", *args],
                          env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["outputs"]


def _small_round(name: str, seed: int = 0):
    wl = workloads.setup(name, seed, small=True)
    return wl, {r.key: r for r in workloads.run_round(wl)}


# -- correctness gate ---------------------------------------------------------

def test_perturbed_output_counts_as_failure():
    wl, by_key = _small_round("profile-batch")
    results = list(by_key.values())
    recorded = workloads.recorded_outputs(results)
    reference = {**recorded["shared"], **recorded["seeded"]}
    assert workloads.check(results, reference) == []

    target = by_key["affine:0"]
    exact = target.outputs["distributional"]
    target.outputs["distributional"] = exact * (1.0 + 1e-12)
    assert workloads.check(results, reference) == []  # inside 1e-10
    target.outputs["distributional"] = exact * (1.0 + 1e-8)
    failures = workloads.check(results, reference)
    assert [key for key, _ in failures] == ["affine:0"]
    assert "drift" in failures[0][1]


def test_failed_verdict_and_raise_count_as_failures():
    _, by_key = _small_round("grid-rearrange")
    results = list(by_key.values())
    results[0].outputs["contracts"] = False
    results[1].error = "NumericalError: boom"
    failed = {key for key, _ in workloads.check(results, None)}
    assert failed == {results[0].key, results[1].key}


# knots the unconditioned criterion-3 law drew: the last two lie 5.9e-5
# apart, and the end value of that segment comes out as -1.8e-12
_CLOSE_KNOTS = [(0.31407541590044025, 4.347940355062265),
                (0.8970001366254304, 3.5266099702928453),
                (0.9886247055418574, 3.451216780523391),
                (1.2753324428783506, 2.700183710043416),
                (1.90798682013362, 2.0256099530867244),
                (2.0581352182764467, 1.412981627354748),
                (3.1259748672716103, 1.1385330046870275),
                (3.1939087825603196, 0.21108891887397246),
                (3.1939680438013256, 0.0)]


@pytest.mark.xfail(strict=True, reason="library defect: from_knots checks "
                   "the end value against an absolute 1e-12, which the "
                   "roundoff of a steep last segment exceeds")
def test_from_knots_accepts_near_coincident_knots():
    from cone_sobolev.profiles import from_knots
    from_knots(workloads.make_cone("halfplane-x1"), _CLOSE_KNOTS)


def test_affine_knots_keep_their_minimum_gap():
    import numpy as np
    rng = np.random.default_rng(0)
    for _ in range(2000):
        ts = [t for t, _ in workloads._affine_knots(rng)]
        assert min(b - a for a, b in zip(ts, ts[1:])) >= \
            workloads.MIN_KNOT_GAP


# -- determinism --------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_runs_repeat_and_seed_reaches_inputs(name):
    first, second = _child(name, 3), _child(name, 3)
    assert first["failed"] == 0 and first["counts_repeat"]
    assert first["outputs"] == second["outputs"]
    counts = [{k: v for k, v in run["layers"].items()
               if not k.endswith("_s")} for run in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cones.WeightedCone.create.calls"] >= 1
    other = _child(name, 4)
    assert other["outputs"]["seeded"] != first["outputs"]["seeded"]


def test_tracer_restores_the_library():
    import cone_sobolev
    from cone_sobolev import lorentz, quadrature, segments
    before = (segments.integrate_adaptive, lorentz.integrate_adaptive,
              cone_sobolev.rearrangement, segments.LevelSet.__dict__[
                  "from_pieces"])
    tracer = layertrace.Tracer()
    tracer.install()
    # one wrapper, rebound under every module's name for the function
    assert segments.integrate_adaptive is lorentz.integrate_adaptive
    assert quadrature.integrate_adaptive is segments.integrate_adaptive
    assert segments.integrate_adaptive is not before[0]
    assert cone_sobolev.rearrangement is not before[2]
    tracer.uninstall()
    after = (segments.integrate_adaptive, lorentz.integrate_adaptive,
             cone_sobolev.rearrangement, segments.LevelSet.__dict__[
                 "from_pieces"])
    assert before == after


# -- CLI parity ---------------------------------------------------------------

def test_shell_certify_matches_cli_bernstein():
    wl, by_key = _small_round("shell-certify")
    inp = wl.inputs
    spec = inp["systems"][0]
    frac = spec["frac"]
    out = _cli("bernstein", "--cone", "halfplane-x1", "--p", repr(inp["p"]),
               "--q", repr(inp["q"]), "--m", str(inp["m"]),
               "--lambda-frac", repr(frac), "--eps1", repr(inp["eps1"]),
               "--eps2", repr(inp["eps2"]),
               "--alpha-trials", str(len(spec["alphas"])),
               "--directions", str(spec["sweep"]), "--seed",
               str(spec["seed"]))
    sweep = by_key[f"sweep:{frac}"].outputs
    assert out["lambda"] == by_key[f"system:{frac}"].outputs["lambda"]
    assert out["certified_lower_bound"] == sweep["certified"]
    assert out["empirical_minimum"] == sweep["empirical_minimum"]
    dirs = [r.outputs for k, r in by_key.items() if k.startswith("dir:")]
    assert len(dirs) == out["alpha_trials"]
    assert out["superadditivity_failures"] == sum(
        not d["super_ok"] for d in dirs)
    assert out["gradient_upper_failures"] == sum(
        not d["grad_ok"] for d in dirs)


def test_grid_rearrange_matches_cli_polya_szego():
    wl, by_key = _small_round("grid-rearrange")
    spec = wl.inputs["fields"][0]
    assert spec["cone"] == "halfplane-x1"
    out = _cli("polya-szego", "--cone", spec["cone"], "--p",
               repr(wl.inputs["p"]), "--q", repr(wl.inputs["q"]),
               "--grid", str(spec["n"]), "--bumps", str(spec["bumps"]),
               "--seed", str(spec["seed"]))
    got = by_key["field:0"].outputs
    assert out["lhs_profile_gradient_norm"] == got["lhs"]
    assert out["rhs_rearranged_gradient_norm"] == got["rhs"]


def test_profile_batch_matches_cli_quotient_and_norm(tmp_path):
    wl, by_key = _small_round("profile-batch")
    name, p, q, knots = wl.inputs["affine"][0]
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"knots": knots}))
    got = by_key["affine:0"].outputs
    quot = _cli("quotient", "--profile", str(profile), "--cone", name,
                "--p", repr(p), "--q", repr(q))
    assert quot["quotient"] == got["quotient"]
    assert quot["denominator"] == got["gradient_norm"]
    cone = wl.inputs["cones"][name]
    p_star = workloads.lib("lorentz").LorentzParams(p, q, cone).p_star
    norm = _cli("norm", "--profile", str(profile), "--cone", name,
                "--p", repr(p_star), "--q", repr(q))
    assert norm["rearranged"] == got["rearranged"]
    assert norm["distributional"] == got["distributional"]


# -- BENCHMARK.json and the runner -------------------------------------------

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layertrace.layer_metric_names()
    reference = json.loads((HERE / "reference.json").read_text())
    assert sorted(reference) == sorted(workloads.NAMES)


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile-batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
