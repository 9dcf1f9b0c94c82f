"""One workload process of the benchmark (started by run.py).

Modes:
  setup    set the workload up and exit; reports when setup finished.
  measure  set up, then run untraced rounds for the given seconds.
  trace    set up with tracing on, then alternate untraced and traced
           rounds for the given seconds; reports per-layer metrics.

The last line of standard output is one JSON object.  Times are
``time.monotonic()`` readings or durations in seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import workloads

HERE = Path(__file__).resolve().parent


def _reference(name: str, seed: int) -> tuple[dict, bool]:
    """Recorded outputs for this seed; only the seed-independent ones when
    the seed was not recorded.  The flag says whether it was."""
    data = json.loads((HERE / "reference.json").read_text())[name]
    per_seed = data["seeds"].get(str(seed))
    return {**data["shared"], **(per_seed or {})}, per_seed is not None


def _keep_going(start: float, seconds: float, passes: list[float],
                min_passes: int) -> bool:
    """Start another pass only if it is expected to end in time."""
    if len(passes) < min_passes:
        return True
    return time.perf_counter() - start + statistics.median(passes) <= seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace"))
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--spans", type=Path, default=None,
                    help="trace mode: write the recorded spans here")
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.recording = True
    wl = workloads.setup(args.workload, args.seed, args.small)
    ready = time.monotonic()
    import scipy
    out = {"ready": ready, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "tail_percentile": wl.tail_percentile,
           "samples_per_item": wl.samples_per_item}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    reference = None
    if not args.small:
        reference, out["reference_seed"] = _reference(args.workload,
                                                      args.seed)
    failures: list[tuple[str, str]] = []
    attempted = 0
    item_rounds: list[list[float]] = []
    # calibration times: calib[0] before the first round, calib[r + 1]
    # after untraced round r
    calib: list[list[float]] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    layer_rounds: list[dict] = []
    outputs = None
    setup_layers = None
    if tracer is not None:
        setup_layers = tracer.snapshot()
        tracer.reset()

    # one pass is one round, or an untraced and a traced round when tracing
    passes: list[float] = []
    if tracer is None:
        calib.append(_calibrate())
    start = time.perf_counter()
    min_passes = (2 if tracer is not None
                  else max(workloads.MIN_ROUNDS, wl.samples_per_item))
    while _keep_going(start, args.seconds, passes, min_passes):
        pass_start = time.perf_counter()
        for traced in ((False, True) if tracer is not None else (False,)):
            if tracer is not None:
                (tracer.install if traced else tracer.uninstall)()
            t0 = time.perf_counter()
            results = workloads.run_round(wl)
            wall = time.perf_counter() - t0
            if traced:
                traced_walls.append(wall)
                layer_rounds.append(tracer.snapshot())
                tracer.reset()
                tracer.recording = False
            else:
                walls.append(wall)
                item_rounds.append([r.seconds for r in results])
                if tracer is None:
                    calib.append(_calibrate())
            attempted += len(results)
            failures += workloads.check(results, reference)
            if outputs is None:
                outputs = workloads.recorded_outputs(results)
        passes.append(time.perf_counter() - pass_start)
    if tracer is not None:
        tracer.uninstall()

    out.update({
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20], "round_walls": walls,
        "item_rounds": item_rounds, "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is None:
        # round r runs at the speed the calibrations on both sides of it see
        factors = [CAL_REF_S / statistics.median(calib[r] + calib[r + 1])
                   for r in range(len(walls))]
        out.update({
            "calibration": calib, "speed_factors": factors,
            "scaled_walls": [w * f for w, f in zip(walls, factors)],
            "latencies": workloads.latency_samples(
                item_rounds, factors, [r.timed for r in results],
                wl.samples_per_item),
        })
    else:
        out["traced_walls"] = traced_walls
        out["layers"] = _layer_metrics(setup_layers, layer_rounds)
        out["counts_repeat"] = all(
            _counts(r) == _counts(layer_rounds[0]) for r in layer_rounds)
        out["trace_overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(walls))
        if args.spans is not None:
            out["spans_written"] = tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


# The machine's speed drifts by up to 2x over seconds to minutes on a
# shared host, for the library and for any other code alike.  A fixed piece
# of work that does not touch the library (Python arithmetic, dict updates,
# a numpy sort: the kinds of work the library does) is timed CAL_REPS times
# around every round; a round's times are scaled by CAL_REF_S over the
# median of those calibrations.  CAL_REF_S is about that median on the
# 2-vCPU VM the benchmark was written on, so scaled times read close to
# that VM's wall times.
CAL_REPS = 3
CAL_REF_S = 0.0058
_CAL_DATA = numpy.random.default_rng(0).standard_normal(50_000)


def _calibrate() -> list[float]:
    """CAL_REPS timings, in seconds, of the fixed calibration work."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(30_000):
            acc += i * 0.5
        counts: dict[int, int] = {}
        for i in range(10_000):
            counts[i % 997] = counts.get(i % 997, 0) + 1
        numpy.sort(_CAL_DATA)
        times.append(time.perf_counter() - t0)
    return times


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def _layer_metrics(setup_layers: dict, rounds: list[dict]) -> dict:
    """Setup plus one round: counts of the first traced round (every
    traced round repeats them), times as the median over traced rounds."""
    out = {}
    for key, first in rounds[0].items():
        if key.endswith("_s"):
            value = statistics.median(r[key] for r in rounds)
        else:
            value = first
        if not key.endswith("_ratio"):
            value += setup_layers[key]
        out[key] = value
    return out


if __name__ == "__main__":
    sys.exit(main())
