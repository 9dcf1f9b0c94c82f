"""Benchmark runner for cone-sobolev.

    python3 perfbench/run.py --workload shell-certify --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload

Run from the root of a checkout: the library is imported from ``src/``.
Each workload process is a fresh single-threaded interpreter with
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1 in its environment; the loop is closed (one caller, the next item
starts when the previous one returns).

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over SETUP_SAMPLES fresh interpreters, started before and after the
measuring one, of the time from spawning the interpreter until the
package is imported, the cones are built and the seeded inputs exist.  A
round is one pass over every item of the workload, and every round repeats
the same inputs.  The machine's speed drifts by up to 2x over seconds to
minutes, so every round's times are scaled to a reference speed by a
calibration timed around it (see child.py).  ``wall_s`` is the median
scaled round time; each timed item gives one latency sample per block of
rounds, its median scaled time there, and ``item_p50_ms`` and
``item_tail_ms`` are percentiles of those samples.  ``--trace 1`` runs the
workload with layer tracing and reports the per-layer metrics instead.

Every item's outputs are checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run records and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_child(workload: str, seed: int, seconds: float, mode: str,
              *extra: str) -> tuple[dict, float]:
    """Run one workload process; returns its report and its spawn time."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} process failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # set-up samples before and after the measuring process, so that they
    # span the run
    setups = []
    for _ in range(SETUP_SAMPLES // 2):
        rep, spawned = run_child(workload, seed, seconds, "setup")
        setups.append(rep["ready"] - spawned)
    rep, spawned = run_child(workload, seed, seconds, "measure")
    setups.append(rep["ready"] - spawned)
    for _ in range(SETUP_SAMPLES // 2):
        extra, spawned = run_child(workload, seed, seconds, "setup")
        setups.append(extra["ready"] - spawned)
    lat_ms = [1e3 * s for s in rep["latencies"]]
    pct = rep["tail_percentile"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(rep["scaled_walls"]), "s"),
        "item_p50_ms": (statistics.median(lat_ms), "ms"),
        "item_tail_ms": (statistics.quantiles(
            lat_ms, n=100, method="inclusive")[int(pct) - 1], "ms"),
        "peak_rss_mb": (rep["peak_rss_kb"] / 1024.0, "MB"),
    }
    rounds = len(rep["round_walls"])
    blocks = rep["samples_per_item"]
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"median of {rounds} scaled rounds; unscaled median "
                  f"{statistics.median(rep['round_walls']):.4g} s, median "
                  f"speed factor {statistics.median(rep['speed_factors']):.4g}",
        "item_p50_ms": f"{len(lat_ms)} samples, each a timed item's median "
                       f"over {rounds // blocks}+ scaled rounds",
        "item_tail_ms": f"p{pct:g} of the same {len(lat_ms)} samples",
    }
    rep["setup_samples"] = setups
    return _result(rep, metrics), {"notes": notes, "child": rep}


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    rep, _ = run_child(workload, seed, seconds, "trace", "--spans",
                       str(spans))
    metrics = {name: (rep["layers"][name], unit)
               for name, unit in layertrace.layer_metric_names()
               if name != "trace_overhead_ratio"}
    metrics["trace_overhead_ratio"] = (rep["trace_overhead_ratio"], "ratio")
    notes = {"trace_overhead_ratio":
             f"{len(rep['traced_walls'])} traced against "
             f"{len(rep['round_walls'])} untraced rounds; spans in "
             f"{spans.relative_to(ROOT)}"}
    return _result(rep, metrics), {"notes": notes, "child": rep}


def _result(rep: dict, metrics: dict) -> dict:
    return {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def report(workload: str, seed: int, trace_on: bool, seconds: float,
           env: dict) -> dict:
    result, extra = (trace if trace_on else measure)(workload, seed,
                                                     seconds)
    child = extra["child"]
    env = {**env, "python": child["python"], "numpy": child["numpy"],
           "scipy": child["scipy"]}
    print(f"# {workload} seed={seed} trace={int(trace_on)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    notes = extra["notes"]
    for name, metric in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload} {name} {metric['value']:.6g} "
              f"{metric['unit']}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload} fail_ratio {ratio:.6g} ratio  ({result['failed']} "
          f"failed of {result['attempted']} attempted)")
    if not trace_on and not child.get("reference_seed", False):
        print(f"{workload} note: seed {seed} has no recorded reference; "
              f"seeded items were checked by the library's verdicts only")
    for key, reason in child["failures"]:
        print(f"{workload} FAILED {key}: {reason}")
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace_on)}.json"
    record.write_text(json.dumps({"env": env, "result": result, **extra},
                                 indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cone_sobolev" / "__init__.py").is_file():
        print("error: run from the root of a cone-sobolev checkout "
              "(src/cone_sobolev not found)", file=sys.stderr)
        return 2
    env = environment()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(report(name, args.seed, bool(args.trace),
                                  args.seconds, env))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
