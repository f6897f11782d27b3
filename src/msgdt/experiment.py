"""Batch experiment driver: sweep observation probabilities over seeded
synthetic systems and emit plot-ready trace CSVs plus a summary table.

For every (p, trial) pair the driver builds a fresh Gaussian system (shared
across p within a trial, so p-comparisons are paired), masks it, runs the
solver with the hybrid step schedule alpha = p^2 / step_divisor matched at
the swap iteration, and writes ``trace_p{p}_trial{t}.csv``.  The summary
holds iterate errors at iteration 0, the swap, and the end of each run.

Independent runs may execute in parallel; the MSGDT_THREADS environment
variable caps the worker count (default 1, clamped to the runs and CPUs).
Outputs are byte-identical regardless of parallelism because every run
derives its own seed from (seed, trial, p-index).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .masking import draw_mask, model_for
from .solver import HybridStep, ProblemInstance, SolverConfig, run_msgdt
from .synthetic import Dims, gen_synthetic
from .tensor import Tensor3, hadamard

__all__ = ["ExperimentSpec", "SummaryRow", "run_experiment", "write_manifest"]

SUMMARY_HEADER = "model,p,trial,iters,swap_iter,error_initial,error_swap,error_final"


@dataclass(frozen=True)
class ExperimentSpec:
    dims: Dims
    p_values: tuple[float, ...]
    model_kind: str = "uniform"
    block_size: int = 1
    swap_iter: int = 5000
    step_divisor: float = 5000.0
    trials: int = 1
    seed: int = 0
    out_dir: Path = Path(".")
    iters: int | None = None  # default: one pass over the rows (m)
    sampling: str = "once"
    trace_every: int = 100

    def __post_init__(self):
        if not self.p_values:
            raise ValueError("no experiments requested: p_values is empty")
        for p in self.p_values:
            model_for(self.model_kind, p, self.block_size)  # validates kind, p and block size
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.step_divisor <= 0:
            raise ValueError(f"step divisor must be positive, got {self.step_divisor}")

    @property
    def total_iters(self) -> int:
        return self.dims.m if self.iters is None else self.iters


@dataclass(frozen=True)
class SummaryRow:
    model: str
    p: float
    trial: int
    iters: int
    swap_iter: int
    error_initial: float
    error_swap: float | None
    error_final: float

    def to_csv(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.17g}"

        return (
            f"{self.model},{self.p:g},{self.trial},{self.iters},{self.swap_iter},"
            f"{fmt(self.error_initial)},{fmt(self.error_swap)},{fmt(self.error_final)}"
        )


def _seed_int(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1, np.uint64)[0])


def _run_one(spec: ExperimentSpec, p_index: int, trial: int) -> SummaryRow:
    p = spec.p_values[p_index]
    model = model_for(spec.model_kind, p, spec.block_size)
    system = gen_synthetic(spec.dims, np.random.SeedSequence([spec.seed, trial]))

    if spec.sampling == "once":
        mask_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial, p_index, 1]))
        a = hadamard(draw_mask(model, spec.dims.m, spec.dims.l, spec.dims.n, mask_rng), system.a)
    else:  # redraw: the solver masks each drawn row itself
        a = system.a

    alpha = p * p / spec.step_divisor
    schedule = HybridStep.matched(alpha, spec.swap_iter)
    problem = ProblemInstance(
        a_tilde=a,
        b=system.b,
        model=model,
        x0=Tensor3(np.zeros((spec.dims.n, spec.dims.l, spec.dims.q))),
    )
    config = SolverConfig(
        schedule=schedule,
        total_iters=spec.total_iters,
        sampling=spec.sampling,  # type: ignore[arg-type]
        seed=_seed_int(spec.seed, trial, p_index, 2),
        trace_every=spec.trace_every,
        also_record=(spec.swap_iter,) if spec.swap_iter <= spec.total_iters else (),
    )
    result = run_msgdt(problem, config, x_star=system.x_star)

    trace_path = Path(spec.out_dir) / f"trace_p{p:g}_trial{trial}.csv"
    result.trace.write_csv(trace_path)

    by_iter = result.trace.by_iteration()
    swap_rec = by_iter.get(spec.swap_iter)
    return SummaryRow(
        model=spec.model_kind,
        p=p,
        trial=trial,
        iters=config.total_iters,
        swap_iter=spec.swap_iter,
        error_initial=by_iter[0].iterate_error,
        error_swap=None if swap_rec is None else swap_rec.iterate_error,
        error_final=by_iter[config.total_iters].iterate_error,
    )


def _worker_count(jobs: int) -> int:
    """MSGDT_THREADS, clamped to the number of jobs and of CPUs."""
    raw = os.environ.get("MSGDT_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        raise ValueError(f"MSGDT_THREADS must be an integer worker count, got {raw!r}") from None
    return max(1, min(requested, jobs, os.cpu_count() or 1))


def run_experiment(spec: ExperimentSpec) -> list[SummaryRow]:
    """Run every (p, trial) pair; write traces, summary.csv, and a manifest."""
    if spec.sampling == "once" and spec.total_iters > spec.dims.m:
        raise ValueError(
            f"infeasible spec: {spec.total_iters} iterations without replacement "
            f"but only {spec.dims.m} rows; lower --iters or use redraw sampling"
        )
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(pi, trial) for pi in range(len(spec.p_values)) for trial in range(spec.trials)]
    workers = _worker_count(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(_run_one, [spec] * len(jobs), [pi for pi, _ in jobs], [t for _, t in jobs])
            )
    else:
        rows = [_run_one(spec, pi, t) for pi, t in jobs]

    with open(out / "summary.csv", "w", newline="") as f:
        f.write(SUMMARY_HEADER + "\n")
        for row in rows:
            f.write(row.to_csv() + "\n")

    write_manifest(
        out,
        "experiment",
        {
            "dims": [spec.dims.m, spec.dims.l, spec.dims.q, spec.dims.n],
            "p_values": list(spec.p_values),
            "model": spec.model_kind,
            "block_size": spec.block_size,
            "swap_iter": spec.swap_iter,
            "step_divisor": spec.step_divisor,
            "trials": spec.trials,
            "seed": spec.seed,
            "iters": spec.total_iters,
            "sampling": spec.sampling,
            "trace_every": spec.trace_every,
        },
    )
    return rows


def write_manifest(out_dir, command: str, params: dict, name: str = "manifest.json") -> None:
    """Reproducibility record: full config, seed, and library version.

    Deliberately timestamp-free so reruns are byte-identical.
    """
    manifest = {"command": command, "version": __version__, "params": params}
    path = Path(out_dir) / name
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
