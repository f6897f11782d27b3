"""Batch experiment driver: sweep observation probabilities over seeded
synthetic systems and emit plot-ready trace CSVs plus a summary table.

Runs execute in the calling process, trial by trial.  Each trial builds
one Gaussian system and shares it across every p, so p-comparisons are
paired.  The runs of one trial advance together, as one
:func:`~msgdt.solver.run_batch`: each p draws its own mask (as a unit
draw; the solver masks rows as it reads them, so no masked copy of A is
made) and runs the hybrid step schedule alpha = p^2 / step_divisor matched
at the swap iteration.  Every run derives its own seeds from (seed, trial,
p-index), and a batched run gives the same bits as the run alone, so
outputs do not depend on how the runs are grouped or ordered.  Only after
the last trial does :func:`run_experiment` make the output directory and
write each run's ``trace_p{p}_trial{t}.csv``, then a summary of iterate
errors at iteration 0, the swap, and the end, in (p, trial) order: bad
input (see :class:`ExperimentSpec`) or a divergent run raises with nothing
written.

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
from .bounds import lipschitz_constant
from .masking import check_block, check_positive, check_row_budget, check_trials, draw_units, model_for
from .solver import (
    ConstantStep,
    HybridStep,
    InverseSqrtStep,
    ProblemInstance,
    RunResult,
    SamplingMode,
    SolverConfig,
    run_batch,
)
from .synthetic import Dims, gen_synthetic
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
    """One p sweep over ``trials`` seeded systems.

    The spec checks only what no run object checks: the p list is not
    empty, no two p values share a trace file, ``trials >= 1``, and the
    step divisor is finite and positive.  The run objects that trial 0
    builds (:func:`~msgdt.masking.model_for`, ``ProblemInstance``,
    ``HybridStep``, ``SolverConfig``, ``run_batch``) refuse the rest; a
    block size or a "once" budget that the dims refuse is refused before
    the first system is built.
    """

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
            name = f"{p:g}"
            if name in trace_names:
                raise ValueError(
                    f"p values {trace_names[name]!r} and {p!r} would share the trace file "
                    f"trace_p{name}_trial*.csv"
                )
            trace_names[name] = p
        check_trials(self.trials)
        check_positive("step divisor", self.step_divisor)

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


def _refuse_divergence(result: RunResult, run: str, iters: int, alpha: float, a: Tensor3, p: float,
                       remedy: str) -> None:
    """Raise a one-line ValueError, quoting alpha against 1/L_g, when ``run``'s final iterate is non-finite."""
    if not np.isfinite(result.x_final.data).all():
        raise ValueError(
            f"{run} went non-finite in {iters} iterations: step size alpha={alpha:.6g} against "
            f"1/L_g={1.0 / lipschitz_constant(a, p):.6g}; {remedy}"
        )


def _run_trial(spec: ExperimentSpec, trial: int) -> list[RunResult]:
    """Every p of one trial as one :func:`~msgdt.solver.run_batch` on the trial's system; writes nothing.

    The system is built here, so it is freed on return, before the next
    trial's.  In "once" mode each run carries the full A with its own unit
    draw, and the solver masks rows as it transforms them: no run holds a
    masked copy of A.  In "redraw" mode the solver masks each drawn row
    itself.  A run whose final iterate is non-finite raises.
    """
    dims = spec.dims
    # the models and run settings draw nothing, so a bad setting is refused before the system is built
    models = [model_for(spec.model_kind, p, spec.block_size) for p in spec.p_values]
    configs = [
        SolverConfig(
            schedule=HybridStep(p * p / spec.step_divisor, spec.swap_iter),
            total_iters=spec.total_iters,
            sampling=spec.sampling,
            seed=_seed_int(spec.seed, trial, pi, 2),
            trace_every=spec.trace_every,
            also_record=(spec.swap_iter,),
        )
        for pi, p in enumerate(spec.p_values)
    ]
    # so are a block size and a row budget that the dims refuse, in the words ProblemInstance and run_batch use
    check_block(models[0], dims.l)
    check_row_budget(spec.sampling, spec.total_iters, dims.m)
    system = gen_synthetic(dims, np.random.SeedSequence([spec.seed, trial]))
    problems = []
    for pi, model in enumerate(models):
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
    with np.errstate(over="ignore", invalid="ignore"):  # a divergent run is refused below, in one line
        results = run_batch(problems, configs, x_star=system.x_star)
    for p, config, result in zip(spec.p_values, configs, results):
        _refuse_divergence(result, f"the iterate of p={p:g} trial {trial}", spec.total_iters,
                           config.schedule.alpha, system.a, p, "raise --step-divisor")
    return results


def run_experiment(spec: ExperimentSpec) -> list[SummaryRow]:
    """Run every (p, trial) pair; only then make ``out_dir`` and write traces, summary.csv, and a manifest."""
    trial_results = [_run_trial(spec, trial) for trial in range(spec.trials)]
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for pi, p in enumerate(spec.p_values):
        for trial, results in enumerate(trial_results):
            trace = results[pi].trace
            trace.write_csv(out / f"trace_p{p:g}_trial{trial}.csv")
            by_iter = trace.by_iteration()
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
