"""Stochastic gradient descent on A * X = B when entries of A are missing.

Each iteration picks a row slice i, forms the unbiased update direction

    g(X) = (1/p^2) Atilde_i* * (Atilde_i * X - p B_i)
         - ((1-p)/p^2) (C o (Atilde_i* * Atilde_i)) * X,

and steps X <- P_W(X - alpha_t g(X)), where W is a Frobenius ball (or the
whole space) and C is the model's correction tensor.  Taking expectation
over the row choice and the mask, E[g(X)] equals the full-data gradient
(1/m) A* * (A * X - B).

The iteration never builds C: ``_row_gradient`` applies (C o H) * X in a
closed form per model, and ``gradient_estimate`` keeps the dense formula
with an explicit C as the reference the kernel is tested against.

Row sampling runs in one of two modes: "once" uses an up-front uniform
permutation so no row repeats (requires T <= m), "redraw" samples rows with
replacement and draws a fresh mask for the chosen row every iteration (the
problem then carries the fully known A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Optional, Union

import numpy as np

from . import tensor as tn
from .masking import (
    FrontalSliceMissing,
    MissingModel,
    UniformMissing,
    check_block,
    check_p,
    correction_tensor,
    draw_masked_row,
    format_model,
)
from .tensor import Tensor3

__all__ = [
    "ConstantStep",
    "InverseSqrtStep",
    "HybridStep",
    "StepSchedule",
    "step_size",
    "SolverConfig",
    "ProblemInstance",
    "TraceRecord",
    "RunTrace",
    "RunResult",
    "gradient_estimate",
    "update_linear_part",
    "project_ball",
    "run_msgdt",
    "objective",
    "full_gradient",
]

SamplingMode = Literal["once", "redraw"]


@dataclass(frozen=True)
class ConstantStep:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"step size must be positive, got {self.alpha}")


@dataclass(frozen=True)
class InverseSqrtStep:
    """alpha_t = c / sqrt(t), with t counted from 1."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"step constant must be positive, got {self.c}")


@dataclass(frozen=True)
class HybridStep:
    """Constant alpha while t < swap_iter, then c / sqrt(t).

    ``matched`` picks c = alpha * sqrt(swap_iter) so the two phases agree
    at the swap iteration.
    """

    alpha: float
    swap_iter: int
    c: float

    def __post_init__(self):
        if self.alpha <= 0 or self.c <= 0:
            raise ValueError("step sizes must be positive")
        if self.swap_iter < 1:
            raise ValueError(f"swap iteration must be >= 1, got {self.swap_iter}")

    @classmethod
    def matched(cls, alpha: float, swap_iter: int) -> "HybridStep":
        return cls(alpha=alpha, swap_iter=swap_iter, c=alpha * math.sqrt(swap_iter))


StepSchedule = Union[ConstantStep, InverseSqrtStep, HybridStep]


def step_size(schedule: StepSchedule, t: int) -> float:
    """Step size for 1-based iteration t."""
    if t < 1:
        raise ValueError(f"iteration index is 1-based, got {t}")
    if isinstance(schedule, ConstantStep):
        return schedule.alpha
    if isinstance(schedule, InverseSqrtStep):
        return schedule.c / math.sqrt(t)
    if t < schedule.swap_iter:
        return schedule.alpha
    return schedule.c / math.sqrt(t)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, step schedule, projection, sampling mode, seed.

    ``projection_radius=None`` means no projection.  ``also_record`` lists
    extra iterations to trace besides 0, T, and multiples of
    ``trace_every``.
    """

    schedule: StepSchedule
    total_iters: int
    projection_radius: Optional[float] = None
    sampling: SamplingMode = "once"
    seed: int = 0
    trace_every: int = 1
    also_record: tuple[int, ...] = ()

    def __post_init__(self):
        if self.total_iters < 0:
            raise ValueError(f"iteration count must be >= 0, got {self.total_iters}")
        if self.projection_radius is not None and self.projection_radius <= 0:
            raise ValueError(f"projection radius must be positive, got {self.projection_radius}")
        if self.sampling not in ("once", "redraw"):
            raise ValueError(f"sampling mode must be 'once' or 'redraw', got {self.sampling!r}")
        if self.trace_every < 1:
            raise ValueError(f"trace_every must be >= 1, got {self.trace_every}")


@dataclass(frozen=True)
class ProblemInstance:
    """One masked linear system plus everything the iteration needs.

    ``a_tilde`` holds the observed data in "once" mode; in "redraw" mode it
    holds the fully known A (masks are drawn per iteration).  The iteration
    takes its correction from ``model``; a ``correction`` tensor, when given,
    is only cross-checked against the model's dense C.
    """

    a_tilde: Tensor3
    b: Tensor3
    model: MissingModel
    x0: Tensor3
    correction: Optional[Tensor3] = None

    def __post_init__(self):
        m, l, n = self.a_tilde.dims
        if self.b.dims != (m, self.b.l, n):
            raise ValueError(f"B dims {self.b.dims} inconsistent with A dims {self.a_tilde.dims}")
        if self.x0.dims != (l, self.b.l, n):
            raise ValueError(f"X0 dims {self.x0.dims} inconsistent with system {(l, self.b.l, n)}")
        check_block(self.model, l)
        if self.correction is not None and not np.array_equal(
            self.correction.data, correction_tensor(self.model, l, n).data
        ):
            raise ValueError(
                f"correction tensor of dims {self.correction.dims} is not the 0/1 Hermitian "
                f"correction tensor of the model '{format_model(self.model)}' at l={l}, n={n}"
            )


@lru_cache(maxsize=64)
def _circulant_index(n: int) -> np.ndarray:
    k = np.arange(n)
    idx = (k[:, None] - k[None, :]) % n
    idx.setflags(write=False)
    return idx


def _row_gradient(arow: np.ndarray, brow: np.ndarray, x: np.ndarray, model: MissingModel) -> np.ndarray:
    """Update direction g(X) on raw arrays: arow (n,l), brow (n,q), x (n,l,q).

    The t-products with Atilde_i are direct slice convolutions, batched into
    one matrix product each via a circulant gather of the row.  With
    H = Atilde_i* * Atilde_i, the correction (C o H) * X is the sum of
    Atilde_u* * (Atilde_u * X) over the model's independent units u:

    * uniform: d o X slice by slice, with d_j = sum_k arow[k, j]^2,
    * frontal slice: H_0 @ X slice by slice, with H_0 = arow^T arow,
    * column block: per block, the two t-products restricted to its columns.
    """
    n, l = arow.shape
    q = x.shape[2]
    p = model.p
    ga = arow[_circulant_index(n)]  # ga[k, j] = arow[(k - j) mod n]
    ax = ga.reshape(n, n * l) @ x.reshape(n * l, q)  # slices of Atilde_i * X
    agt = np.ascontiguousarray(ga.transpose(1, 2, 0)).reshape(n * l, n)  # Atilde_i^* as a block column
    lead = (agt @ (ax - p * brow)).reshape(n, l, q)
    if isinstance(model, UniformMissing):
        corrected = np.einsum("kj,kj->j", arow, arow)[:, None] * x
    elif isinstance(model, FrontalSliceMissing):
        corrected = (arow.T @ arow) @ x
    else:
        nb, bs = l // model.b, model.b
        gb = ga.reshape(n, n, nb, bs)
        xb = x.reshape(n, nb, bs, q).transpose(1, 0, 2, 3).reshape(nb, n * bs, q)
        axb = gb.transpose(2, 0, 1, 3).reshape(nb, n, n * bs) @ xb  # Atilde_beta * X_beta
        corrected = (
            (gb.transpose(2, 1, 3, 0).reshape(nb, n * bs, n) @ axb)
            .reshape(nb, n, bs, q)
            .transpose(1, 0, 2, 3)
            .reshape(n, l, q)
        )
    return (lead - (1.0 - p) * corrected) / (p * p)


def gradient_estimate(
    a_row_tilde: Tensor3, b_row: Tensor3, x: Tensor3, c: Tensor3, p: float
) -> Tensor3:
    """The stochastic update direction g(X) for one observed row slice.

    Dense reference for the solver's kernel: g(X) = M * X - (1/p) Atilde_i* * B_i
    with M from :func:`update_linear_part` and an explicit correction ``c``.
    """
    check_p(p)
    if a_row_tilde.m != 1 or b_row.m != 1:
        raise ValueError("row slices must have a single row")
    if a_row_tilde.l != x.m or x.l != b_row.l or a_row_tilde.n != x.n or b_row.n != x.n:
        raise ValueError(
            f"inconsistent shapes: A row {a_row_tilde.dims}, B row {b_row.dims}, X {x.dims}"
        )
    lin = tn.tprod(update_linear_part(a_row_tilde, c, p), x)
    return lin - tn.tprod(tn.transpose(a_row_tilde), b_row) * (1.0 / p)


def update_linear_part(a_row_tilde: Tensor3, c: Tensor3, p: float) -> Tensor3:
    """The l x l x n tensor M with g(X) - g(Y) = M * (X - Y).

    M = (1/p^2) Atilde* * Atilde - ((1-p)/p^2) C o (Atilde* * Atilde); it is
    Hermitian whenever C is, which makes X -> M * X self-adjoint.
    """
    gram = tn.tprod(tn.transpose(a_row_tilde), a_row_tilde)
    return Tensor3(gram.data / (p * p) - ((1.0 - p) / (p * p)) * c.data * gram.data)


def project_ball(x: Tensor3, radius: Optional[float]) -> Tensor3:
    """Projection onto the Frobenius ball of the given radius (None = identity)."""
    if radius is None:
        return x
    norm = tn.frob_norm(x)
    if norm <= radius:
        return x
    return Tensor3(x.data * (radius / norm))


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    step_size: Optional[float]
    update_norm: Optional[float]
    iterate_error: Optional[float]
    objective: Optional[float]


@dataclass
class RunTrace:
    """Per-iteration diagnostics, sorted by iteration, starting at iteration 0.

    ``update_norm`` is the Frobenius norm of the raw direction g used at
    that iteration (empty at iteration 0); ``iterate_error`` is
    ||X^t - X*|| when the solution is known; ``objective`` needs the full A.
    """

    records: list[TraceRecord] = field(default_factory=list)

    CSV_HEADER = "iter,step_size,update_norm,iterate_error,objective"

    def write_csv(self, path) -> None:
        def fmt(v: Optional[float]) -> str:
            return "" if v is None else f"{v:.17g}"

        with open(path, "w", newline="") as f:
            f.write(self.CSV_HEADER + "\n")
            for r in self.records:
                f.write(
                    f"{r.iteration},{fmt(r.step_size)},{fmt(r.update_norm)},"
                    f"{fmt(r.iterate_error)},{fmt(r.objective)}\n"
                )

    def by_iteration(self) -> dict[int, TraceRecord]:
        return {r.iteration: r for r in self.records}


@dataclass(frozen=True)
class RunResult:
    x_final: Tensor3
    trace: RunTrace


def objective(full_a: Tensor3, b: Tensor3, x: Tensor3) -> float:
    """F(X) = ||A * X - B||^2 / (2m); needs the unmasked A."""
    residual = tn.tprod(full_a, x) - b
    return tn.inner(residual, residual) / (2.0 * full_a.m)


def full_gradient(full_a: Tensor3, b: Tensor3, x: Tensor3) -> Tensor3:
    """grad F(X) = (1/m) A* * (A * X - B)."""
    residual = tn.tprod(full_a, x) - b
    return Tensor3(tn.tprod(tn.transpose(full_a), residual).data / full_a.m)


def run_msgdt(
    problem: ProblemInstance,
    config: SolverConfig,
    x_star: Optional[Tensor3] = None,
    full_a: Optional[Tensor3] = None,
) -> RunResult:
    """Run the iteration for ``config.total_iters`` steps.

    ``x_star`` and ``full_a`` only feed the trace (iterate error and
    objective); in "redraw" mode the full A must be in ``problem.a_tilde``.
    """
    m = problem.a_tilde.m
    T = config.total_iters
    if config.sampling == "once" and T > m:
        raise ValueError(
            f"{T} iterations need {T} distinct rows but A has only {m}; "
            "use sampling='redraw' or lower the budget"
        )

    rng = np.random.default_rng(config.seed)
    if config.sampling == "once":
        row_order = rng.permutation(m)[:T]
    model = problem.model

    a_data = problem.a_tilde.data
    b_data = problem.b.data
    x = problem.x0.data.copy()
    radius = config.projection_radius

    record_at = {0, T} | set(config.also_record)
    trace = RunTrace()

    def metrics(xarr: np.ndarray):
        err = None if x_star is None else float(np.linalg.norm(xarr - x_star.data))
        obj = None if full_a is None else objective(full_a, problem.b, Tensor3(xarr.copy()))
        return err, obj

    err, obj = metrics(x)
    trace.records.append(TraceRecord(0, None, None, err, obj))

    for t in range(1, T + 1):
        if config.sampling == "once":
            i = int(row_order[t - 1])
            arow = a_data[:, i, :]
        else:
            i, arow = draw_masked_row(model, a_data, rng)
        brow = b_data[:, i, :]

        g = _row_gradient(arow, brow, x, model)
        alpha = step_size(config.schedule, t)
        x -= alpha * g
        if radius is not None:  # skips the per-iteration wrapper in unprojected runs
            x = project_ball(Tensor3(x), radius).data

        if t in record_at or t % config.trace_every == 0:
            err, obj = metrics(x)
            trace.records.append(
                TraceRecord(t, alpha, float(np.linalg.norm(g)), err, obj)
            )

    return RunResult(Tensor3(x), trace)
