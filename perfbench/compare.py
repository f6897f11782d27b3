"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that ``run.py --out`` appends, any number of
runs per workload (use the same seeds and --seconds on both sides).  For
every workload and metric this prints both medians with their quartiles,
the ratio new/base and a verdict against BENCHMARK.json: ``ok`` when the
new median is no worse than the base median by more than the metric's
bound, ``REGRESSION`` when it is, ``unresolved`` when the base runs spread
wider than the bound (unless every new run beats every base run), and
``-`` for per-layer metrics, which have no bound.  Exits 1 on a regression
or when the new runs fail more operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> tuple[dict, dict]:
    """({(workload, metric): [values]}, {workload: [attempted, failed]}) of one file."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    ops: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        result = rec["result"]
        for name, m in result["metrics"].items():
            values[(rec["workload"], name)].append(m["value"])
        ops[rec["workload"]][0] += result["attempted"]
        ops[rec["workload"]][1] += result["failed"]
    return values, ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return "-"
    q1, b, q3 = quartiles(base)
    n = statistics.median(new)
    worse = (n - b) / b if better == "lower" else (b - n) / b
    if (q3 - q1) / b > bound:
        wins = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return "better" if wins else "unresolved"
    return "ok" if worse <= bound else "REGRESSION"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, base_ops = load(args.base)
    new, new_ops = load(args.new)

    bad = False
    print(f"{'workload':14s} {'metric':42s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'new/base':>9s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        m = spec.get(name, {"unit": "?", "better": "lower"})
        v = verdict(base[key], new[key], m["better"], m.get("bound"))
        bad |= v == "REGRESSION"
        bq1, bmed, bq3 = quartiles(base[key])
        nq1, nmed, nq3 = quartiles(new[key])
        ratio = nmed / bmed if bmed else float("nan")
        print(f"{workload:14s} {name + ' (' + m['unit'] + ')':42s} "
              f"{bmed:12.6g} [{bq1:9.4g}, {bq3:9.4g}] {nmed:12.6g} [{nq1:9.4g}, {nq3:9.4g}] "
              f"{ratio:9.4f}  {v}")
    for workload in sorted(set(base_ops) & set(new_ops)):
        (ba, bf), (na, nf) = base_ops[workload], new_ops[workload]
        print(f"{workload:14s} failed operations: base {bf}/{ba}, new {nf}/{na}")
        bad |= nf / na > bf / ba
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
