"""msgdt benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 34 --trace 0 [--out runs.jsonl]

Run from anywhere; msgdt is imported from the checkout's src/.  The
workload runs in a fresh worker process with every BLAS and msgdt thread
count pinned to 1, as a closed loop of passes of fixed work for --seconds.
--trace 0 prints BENCHMARK.json's end-to-end metrics, --trace 1 its
per-layer metrics from a traced run.  The last stdout line is the JSON
result; --out also appends a full record (machine, raw samples) for
compare.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7  # set-up is measured in this many fresh processes, before and after the passes
DEADLINE_S = 170.0  # a run must end within 180 s
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "MSGDT_THREADS": "1"}


def spawn(args, started_run: float, *extra: str) -> dict:
    """Run worker.py once and return its JSON line; exit nonzero if it fails."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    timeout = DEADLINE_S - (started - started_run)
    proc = subprocess.run([*cmd, "--started", repr(started), *extra], env={**os.environ, **THREADS},
                          stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full run record to this JSON-lines file")
    args = ap.parse_args(argv)
    started_run = time.monotonic()

    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [spawn(args, started_run, "--setup-only") for _ in range(extra // 2)]
    res = spawn(args, started_run)
    setups.append(res)
    setups += [spawn(args, started_run, "--setup-only") for _ in range(extra - extra // 2)]

    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    if res["failures"]:
        print("failures: " + "; ".join(res["failures"]))
    ratio = res["failed"] / res["attempted"]
    if args.trace:
        metric_list, values = bench["per_layer"], res["per_layer"]
        print(f"{args.workload} seed={args.seed}: per pass over the traced passes"
              f" (absent layers: {', '.join(res['absent']) or 'none'}; spans in {res['spans_file']})")
        print(f"  {'layer':40s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
        for name, row in sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:40s} {row['calls']:9.0f} {row['busy_s']:10.4f} {row['self_s']:10.4f}")
    else:
        wall = _median(res["scaled_walls"])
        metric_list = bench["end_to_end"]
        values = {
            "setup_s": _median([s["scaled_setup_s"] for s in setups]),
            "wall_s": wall,
            "iters_per_s": res["iters_per_pass"] / wall,
            "peak_rss_mb": res["peak_rss_mb"],
            "final_error_p50": _median(res["final_errors"]),
        }
        print(f"{args.workload} seed={args.seed}: {len(res['walls'])} passes"
              f" (median {_median(res['walls']):.4g} s of wall time, {wall:.4g} s scaled;"
              f" set-up median {_median([s['setup_s'] for s in setups]):.4g} s unscaled),"
              f" failed_ratio={ratio:g} ({res['failed']}/{res['attempted']})")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_list}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "result": result, "failed_ratio": ratio,
                  "setup_samples": [s["setup_s"] for s in setups],
                  "scaled_setup_samples": [s["scaled_setup_s"] for s in setups],
                  **{k: v for k, v in res.items() if k != "per_layer"}}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
