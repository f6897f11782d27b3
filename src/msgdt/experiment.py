"""Batch experiment driver: sweep observation probabilities over seeded
synthetic systems and emit plot-ready trace CSVs plus a summary table.

Runs execute in the calling process, trial by trial.  Each trial builds
one Gaussian system and shares it across every p, so p-comparisons are
paired.  The runs of one trial advance together, as one
:func:`~msgdt.solver.run_batch`: each p draws its own mask (as a unit
draw; the solver masks rows as it reads them, so no masked copy of A is
made), runs the hybrid step schedule alpha = p^2 / step_divisor matched at
the swap iteration, and writes ``trace_p{p}_trial{t}.csv``.  The summary
holds iterate errors at iteration 0, the swap, and the end of each run, in
(p, trial) order.  Every run derives its own seeds from (seed, trial,
p-index), and a batched run gives the same bits as the run alone, so
outputs do not depend on how the runs are grouped or ordered.

:func:`fixed_step_trials` and :func:`decaying_step_trials` run the paper's
two simulation protocols on one problem: one "redraw" run per seed,
projected onto a ball, all seeds as one batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .masking import check_positive, draw_units, model_for
from .solver import (
    ConstantStep,
    HybridStep,
    InverseSqrtStep,
    ProblemInstance,
    SamplingMode,
    SolverConfig,
    run_batch,
)
from .synthetic import Dims, SyntheticSystem, gen_synthetic
from .tensor import Tensor3

__all__ = [
    "ExperimentSpec",
    "SummaryRow",
    "run_experiment",
    "fixed_step_trials",
    "decaying_step_trials",
    "write_manifest",
]

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
    sampling: SamplingMode = "once"
    trace_every: int = 100

    def __post_init__(self):
        if not self.p_values:
            raise ValueError("no experiments requested: p_values is empty")
        trace_names = {}
        for p in self.p_values:
            model_for(self.model_kind, p, self.block_size)  # validates kind, p and block size
            name = f"{p:g}"
            if name in trace_names:
                raise ValueError(
                    f"p values {trace_names[name]!r} and {p!r} would share the trace file "
                    f"trace_p{name}_trial*.csv"
                )
            trace_names[name] = p
        for field in ("trials", "swap_iter", "trace_every"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if self.iters is not None and self.iters < 0:
            raise ValueError(f"iters must be >= 0, got {self.iters}")
        check_positive("step divisor", self.step_divisor)
        if self.sampling not in ("once", "redraw"):
            raise ValueError(f"sampling mode must be 'once' or 'redraw', got {self.sampling!r}")
        if self.sampling == "once" and self.total_iters > self.dims.m:
            raise ValueError(
                f"infeasible spec: {self.total_iters} iterations without replacement "
                f"but only {self.dims.m} rows; lower --iters or use redraw sampling"
            )

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


def _run_trial(spec: ExperimentSpec, trial: int, system: SyntheticSystem) -> list[SummaryRow]:
    """Every p of one trial as one :func:`~msgdt.solver.run_batch` on the trial's system.

    In "once" mode each run carries the full A with its own unit draw, and
    the solver masks rows as it transforms them: no run holds a masked copy
    of A.  In "redraw" mode the solver masks each drawn row itself.
    """
    dims = spec.dims
    problems, configs = [], []
    for pi, p in enumerate(spec.p_values):
        model = model_for(spec.model_kind, p, spec.block_size)
        units = None
        if spec.sampling == "once":
            mask_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial, pi, 1]))
            units = draw_units(model, dims.l, dims.n, dims.m, mask_rng)
        problems.append(
            ProblemInstance(
                a_tilde=system.a,
                b=system.b,
                model=model,
                x0=Tensor3(np.zeros((dims.n, dims.l, dims.q))),
                units=units,
            )
        )
        configs.append(
            SolverConfig(
                schedule=HybridStep.matched(p * p / spec.step_divisor, spec.swap_iter),
                total_iters=spec.total_iters,
                sampling=spec.sampling,
                seed=_seed_int(spec.seed, trial, pi, 2),
                trace_every=spec.trace_every,
                also_record=(spec.swap_iter,) if spec.swap_iter <= spec.total_iters else (),
            )
        )
    results = run_batch(problems, configs, x_star=system.x_star)

    rows = []
    for p, result in zip(spec.p_values, results):
        result.trace.write_csv(Path(spec.out_dir) / f"trace_p{p:g}_trial{trial}.csv")
        by_iter = result.trace.by_iteration()
        swap_rec = by_iter.get(spec.swap_iter)
        rows.append(
            SummaryRow(
                model=spec.model_kind,
                p=p,
                trial=trial,
                iters=spec.total_iters,
                swap_iter=spec.swap_iter,
                error_initial=by_iter[0].iterate_error,
                error_swap=None if swap_rec is None else swap_rec.iterate_error,
                error_final=by_iter[spec.total_iters].iterate_error,
            )
        )
    return rows


def run_experiment(spec: ExperimentSpec) -> list[SummaryRow]:
    """Run every (p, trial) pair; write traces, summary.csv, and a manifest."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    runs = {}
    for trial in range(spec.trials):
        system = gen_synthetic(spec.dims, np.random.SeedSequence([spec.seed, trial]))
        for pi, row in enumerate(_run_trial(spec, trial, system)):
            runs[pi, trial] = row
        del system  # free it before the next trial's is built
    rows = [runs[key] for key in sorted(runs)]

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


def _seed_batch(problem, schedule, radius, seeds, total_iters, trace_every, also_record, x_star, full_a):
    """One "redraw" run of ``problem`` per seed, projected onto the ball of ``radius``, as one batch."""
    configs = [
        SolverConfig(
            schedule=schedule,
            total_iters=total_iters,
            projection_radius=radius,
            sampling="redraw",
            seed=seed,
            trace_every=trace_every,
            also_record=also_record,
        )
        for seed in seeds
    ]
    return run_batch([problem] * len(configs), configs, x_star=x_star, full_a=full_a)


def fixed_step_trials(
    problem: ProblemInstance,
    alpha: float,
    radius: float,
    seeds,
    total_iters: int,
    trace_every: int,
    x_star: Tensor3,
) -> dict[int, list[float]]:
    """The paper's fixed-step protocol: one run of ``problem`` per seed at the constant step ``alpha``.

    Every run samples in "redraw" mode and projects onto the ball of
    ``radius``; all of them advance as one :func:`~msgdt.solver.run_batch`,
    each with the bits of its solo run.  Returns {t: [||X_t - X*||^2 per
    seed, in seed order]} for every traced iteration t (0, the multiples
    of ``trace_every`` and ``total_iters``), the quantity that
    :func:`~msgdt.bounds.fixed_step_envelope` bounds in the mean.
    """
    results = _seed_batch(
        problem, ConstantStep(alpha), radius, seeds, total_iters, trace_every, (), x_star, None
    )
    sq_errors: dict[int, list[float]] = {}
    for result in results:
        for rec in result.trace.records:
            sq_errors.setdefault(rec.iteration, []).append(rec.iterate_error**2)
    return sq_errors


def decaying_step_trials(
    problem: ProblemInstance,
    step_const: float,
    radius: float,
    seeds,
    total_iters: int,
    checkpoints: tuple[int, ...],
    x_star: Tensor3,
    full_a: Tensor3,
) -> dict[int, list[float]]:
    """The paper's decaying-step protocol: one run of ``problem`` per seed at the steps c / sqrt(t).

    Every run samples in "redraw" mode and projects onto the ball of
    ``radius``; all of them advance as one :func:`~msgdt.solver.run_batch`,
    each with the bits of its solo run.  The runs trace only iteration 0,
    ``total_iters`` and the ``checkpoints``; their objective records come
    from Gram terms of ``full_a`` that the batch builds once.  Returns {t: [F(X_t) per seed, in
    seed order]} for every checkpoint t, the quantity that
    :func:`~msgdt.bounds.decay_bound` bounds in the mean when F(X*) = 0.
    """
    for t in checkpoints:
        if not 0 <= t <= total_iters:
            raise ValueError(f"checkpoint {t} lies outside the iterations 0..{total_iters}")
    results = _seed_batch(
        problem,
        InverseSqrtStep(step_const),
        radius,
        seeds,
        total_iters,
        total_iters + 1,  # no multiple of it within the budget
        tuple(checkpoints),
        x_star,
        full_a,
    )
    by_iter = [result.trace.by_iteration() for result in results]
    return {t: [records[t].objective for records in by_iter] for t in checkpoints}


def write_manifest(out_dir, command: str, params: dict, name: str = "manifest.json") -> None:
    """Reproducibility record: full config, seed, and library version.

    Deliberately timestamp-free so reruns are byte-identical.
    """
    manifest = {"command": command, "version": __version__, "params": params}
    path = Path(out_dir) / name
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
