"""One workload in a fresh process: set up, then run passes for --seconds.

run.py starts this with every BLAS and msgdt thread count pinned to 1.  It
prints one JSON line of raw measurements.  With --setup-only it stops once
set-up is done; with --trace 1 it alternates untraced and traced passes, so
one process gives the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import machine
from clock import CoreSpeed, burst_slowdown
from gate import Gate, rel_close
from layers import LAYERS, per_layer_metrics
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE_RTOL = 1e-9


def _import_msgdt():
    """Import msgdt from this checkout's source tree and load BLAS."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    np.ones((2, 2)) @ np.ones((2, 2))
    import msgdt

    if not Path(msgdt.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: msgdt imported from {msgdt.__file__}, not from {SRC}")


def measure(workload, inputs, seconds: float, trace: bool):
    """Run passes until ``seconds`` have passed (at least one).

    Returns the gate, the first pass's result, the pass times (keyed by
    whether the pass was traced), the untraced passes' scaled times, the
    tracer and the absent layers.  The core-speed probe runs during
    untraced passes only, so it never shows in a span.
    """
    gate = Gate()
    tracer = Tracer()
    speed = CoreSpeed()
    absent: list[str] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled: list[float] = []
    first = None
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        if traced:
            absent = tracer.install(LAYERS)
            t0 = time.perf_counter()
            outputs = workload.run_pass(inputs, gate)
            walls[True].append(time.perf_counter() - t0)
            tracer.uninstall()
        else:
            speed.start()
            try:
                t0 = time.perf_counter()
                outputs = workload.run_pass(inputs, gate)
                wall = time.perf_counter() - t0
            finally:
                speed.stop()
            walls[False].append(wall - speed.handler_s)
            scaled.append(speed.scaled(wall))
        result = workload.verify(inputs, outputs, gate)
        if first is None:
            first = result
        else:
            gate.check("repeat", result.final_errors == first.final_errors,
                       "final errors differ between passes")
        done = time.perf_counter() - start >= seconds
        if done and (not trace or walls[True]):
            break
    return gate, first, walls, scaled, tracer, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_msgdt()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        inputs = workload.prepare(args.seed, workdir)
        setup_s = time.monotonic() - args.started
        setup_scaled_s = setup_s / burst_slowdown()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "scaled_setup_s": setup_scaled_s}))
            return 0
        gate, first, walls, scaled, tracer, absent = measure(workload, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference.get(args.workload, {}).get(str(args.seed))
    if expected is not None:
        gate.check("reference", rel_close(first.final_errors, expected, REFERENCE_RTOL),
                   f"final errors {first.final_errors} vs stored {expected}")

    out = {
        "setup_s": setup_s,
        "scaled_setup_s": setup_scaled_s,
        "walls": walls[False],
        "scaled_walls": scaled,
        "iters_per_pass": first.iters,
        "final_errors": first.final_errors,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine.record(ROOT),
    }
    if args.trace:
        n_traced = len(walls[True])
        summary = tracer.summary()
        n, l, q = workload.kernel_shape
        facts = {
            "flops_per_call": workloads.flops_per_kernel_call(n, l, q),
            "bytes_per_call": workloads.bytes_per_kernel_call(n, l, q),
            "draws": first.draws,
            "traced_wall_s": statistics.median(walls[True]),
            "untraced_wall_s": statistics.median(walls[False]),
        }
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        out["per_layer"] = per_layer_metrics(names, summary, tracer.sizes, absent, n_traced, facts)
        out["layers"] = {k: {s: v / n_traced for s, v in row.items()} for k, row in summary.items()}
        out["absent"] = absent
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [[s.layer, s.start, s.end, s.parent] for s in tracer.spans]))
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
