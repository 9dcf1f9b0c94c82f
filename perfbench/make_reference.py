"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py --seeds 0-15

Runs one round of every workload per seed and writes every numeric
output to perfbench/reference.json: seed-independent items (the shell
systems) once under "shared", the rest per seed.  Run it only at a commit
whose outputs are trusted; a later change is checked against these values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-15", help="inclusive range a-b")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    data = {}
    for name in workloads.NAMES:
        entry = {"shared": {}, "seeds": {}}
        for seed in range(lo, hi + 1):
            results = workloads.run_round(workloads.setup(name, seed))
            # a failed item stays failed: it has no reference and every run
            # of this seed reports it
            for key, reason in workloads.check(results, None):
                print(f"{name} seed {seed}: {key} FAILED: {reason}",
                      file=sys.stderr)
            rec = workloads.recorded_outputs(results)
            if entry["shared"] and entry["shared"] != rec["shared"]:
                print(f"{name}: shared outputs depend on the seed",
                      file=sys.stderr)
                return 1
            entry["shared"] = rec["shared"]
            entry["seeds"][str(seed)] = rec["seeded"]
            print(f"{name} seed {seed}: {len(results)} items", flush=True)
        data[name] = entry
    (HERE / "reference.json").write_text(
        json.dumps(data, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
