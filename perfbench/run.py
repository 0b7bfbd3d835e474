#!/usr/bin/env python3
"""pfdensity benchmark: one workload, one run.

    python3 perfbench/run.py --workload {zeros,chain,density,lorenz} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  The
run writes its scratch files and a result file under ./.perfbench/, prints
every metric by name with its unit, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  The exit code
is 1 when an output fails its oracle check, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("zeros", "chain", "density", "lorenz")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pfdensity", "cli.py")):
        print(f"error: the program is missing ({src}/pfdensity/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness  # imports the program

    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results_dir = os.path.join(base, "results")
    os.makedirs(results_dir, exist_ok=True)
    out_file = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    for key, value in sorted(result.get("diagnostics", {}).items()):
        print(f"diagnostic {key}: {value}")
    if "dominance" in result:
        dom = result["dominance"]
        print(f"dominant layers predicted {'+'.join(dom['predicted'])}: "
              f"{'holds' if dom['holds'] else 'DOES NOT HOLD'} "
              f"(self s: {json.dumps(dom['layer_self_s'])})")
    for check in result["failed_checks"]:
        print(f"FAILED {check['op']}: {check['label']} (err={check['err']})")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"result file: {os.path.relpath(out_file, ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
