"""Stochastic gradient descent on A * X = B when entries of A are missing.

Each iteration picks a row slice i, forms the unbiased update direction

    g(X) = (1/p^2) Atilde_i* * (Atilde_i * X - p B_i)
         - ((1-p)/p^2) (C o (Atilde_i* * Atilde_i)) * X,

and steps X <- P_W(X - alpha_t g(X)), where W is a Frobenius ball (or the
whole space) and C is the model's correction tensor.  Taking expectation
over the row choice and the mask, E[g(X)] equals the full-data gradient
(1/m) A* * (A * X - B).

The iteration runs in the real tube-Fourier domain, where every t-product
is one small matrix product per frequency f = 0..n//2.  It steps the scaled
spectrum Y = s o rfft(X) with s_f = sqrt(w_f / n) (w_f = 1 at DC and at the
Nyquist frequency, 2 elsewhere), so ||X|| = ||Y|| by Parseval: projection,
``update_norm`` and ``iterate_error`` are plain norms of spectra, and
``irfft`` runs only for ``objective`` records and the final iterate.  Row
spectra come from one rfft per chunk of rows in "once" mode and from one
product with the DFT matrix per drawn row in "redraw" mode.  Compared with
iterating on X directly the results differ by rounding only: about 1e-15
relative after 10 000 iterations, and a test holds whole runs to a spatial
reference loop within 1e-12.

The iteration never builds C: ``_row_gradient`` applies (C o H) * X in a
closed form per model, and :func:`msgdt.oracle.gradient_estimate` keeps the
dense formula with an explicit C as the reference the kernel is tested
against.

Row sampling runs in one of two modes: "once" uses an up-front uniform
permutation so no row repeats (requires T <= m), "redraw" samples rows with
replacement and draws a fresh mask for the chosen row every iteration (the
problem then carries the fully known A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional, Union

import numpy as np

from . import tensor as tn
from .masking import (
    ColumnBlockMissing,
    MissingModel,
    UniformMissing,
    check_block,
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
    "project_ball",
    "run_msgdt",
    "objective",
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


def _row_gradient(
    ahat: np.ndarray, pbhat: np.ndarray, yhat: np.ndarray, model: MissingModel, spec: tn.TubeSpectrum
) -> np.ndarray:
    """Scaled spectrum of the update direction g(X) for one masked row slice.

    ``ahat`` (f, l) is the rfft of the masked row Atilde_i along its tubes;
    ``pbhat`` (f, q) and ``yhat`` (f, l, q) are the Parseval-scaled spectra
    of p B_i and of X; ``spec`` is the tubes' transform.  With a = ahat[f]
    as a 1 x l row, frequency f of the result is (lead - (1-p) corr) / p^2,
    where

    * lead = conj(a)^T (a Y_f - (p b)_f),
    * uniform: corr = d o Y_f with d_j = sum_k arow[k, j]^2,
    * frontal slice: corr = H_0 Y_f with the real H_0 = arow^T arow,
    * column block: corr = conj(a_b)^T (a_b Y_fb) for each block b of columns,
      merged with the lead term into one outer product per block.

    d and H_0 are sums over the tube, read off the spectrum by Parseval;
    the real H_0 acts on the real view of Y.
    """
    freqs, l, q = yhat.shape
    p = model.p
    inv = 1.0 / (p * p)
    corr_scale = (1.0 - p) * inv
    if isinstance(model, ColumnBlockMissing):
        nb, bs = l // model.b, model.b
        ab = ahat.reshape(freqs, nb, 1, bs)
        axb = ab @ yhat.reshape(freqs, nb, bs, q)  # a_b Y_fb, (f, nb, 1, q)
        resid = axb.sum(axis=1, keepdims=True)
        resid -= pbhat[:, None, None, :]
        z = inv * resid - corr_scale * axb
        return (ab.conj().reshape(freqs, nb, bs, 1) * z).reshape(freqs, l, q)
    resid = ahat[:, None, :] @ yhat  # (f, 1, q)
    resid -= pbhat[:, None, :]
    resid *= inv
    conj = ahat.conj()
    g = conj[:, :, None] * resid
    if isinstance(model, UniformMissing):
        d = (corr_scale * spec.weights) @ (ahat * conj).real
        g -= d[:, None] * yhat
    else:
        h0 = (((corr_scale * spec.weights) * conj.T) @ ahat).real
        g -= (h0 @ yhat.view(np.float64)).view(np.complex128)
    return g


def _norm(arr: np.ndarray) -> float:
    """Frobenius norm of a real array or of a complex spectrum (over its real view)."""
    flat = arr.reshape(-1).view(np.float64)
    return math.sqrt(float(np.dot(flat, flat)))


def _project(arr: np.ndarray, radius: float) -> np.ndarray:
    """``arr`` scaled onto the Frobenius ball of ``radius``; ``arr`` itself when inside.

    Parseval makes this the same map on X and on its scaled spectrum.
    """
    norm = _norm(arr)
    if norm <= radius:
        return arr
    return arr * (radius / norm)


def project_ball(x: Tensor3, radius: Optional[float]) -> Tensor3:
    """Projection onto the Frobenius ball of the given radius (None = identity)."""
    if radius is None:
        return x
    data = _project(x.data, radius)
    return x if data is x.data else Tensor3(data)


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


def _row_spectra(data: np.ndarray, rows, spec: tn.TubeSpectrum, p: Optional[float] = None) -> np.ndarray:
    """rffts of the row slices ``rows`` of an (n, m, k) array, as (rows, f, k).

    Given ``p``, the Parseval-scaled spectra of p times the rows instead:
    the kernel's ``pbhat`` when the array is B.
    """
    hat = spec.forward(data[:, rows, :].transpose(1, 0, 2), axis=1, scaled=p is not None)
    if p is not None:
        hat *= p
    return hat


def _masked_row_spectra(
    model: MissingModel, a_data: np.ndarray, pb_hat: np.ndarray, rng: np.random.Generator, spec: tn.TubeSpectrum
) -> tuple[np.ndarray, np.ndarray]:
    """(ahat, pbhat) for a fresh :func:`~msgdt.masking.draw_masked_row` draw.

    The masked row goes through one product with the DFT matrix; ``pb_hat``
    holds the scaled spectra of every row of p B, row index first.
    """
    i, arow = draw_masked_row(model, a_data, rng)
    return spec.forward_small(arow), pb_hat[i]


def run_msgdt(
    problem: ProblemInstance,
    config: SolverConfig,
    x_star: Optional[Tensor3] = None,
    full_a: Optional[Tensor3] = None,
) -> RunResult:
    """Run the iteration for ``config.total_iters`` steps.

    ``x_star`` and ``full_a`` only feed the trace (iterate error and
    objective); in "redraw" mode the full A must be in ``problem.a_tilde``.
    The iterate lives in the scaled tube-Fourier domain (module docstring);
    "once" mode transforms the rows of A and B in permutation order,
    ``tensor._ROW_CHUNK`` rows at a time, so no whole-tensor spectrum of A
    is kept; "redraw" mode keeps the spectrum of all of p B (about the size
    of B) and transforms each drawn masked row of A.
    """
    m = problem.a_tilde.m
    n = problem.a_tilde.n
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
    spec = tn.tube_spectrum(n)
    chunk = tn._ROW_CHUNK

    a_data = problem.a_tilde.data
    b_data = problem.b.data
    if config.sampling == "redraw":  # rows repeat: transform all of p B once
        pb_hat = _row_spectra(b_data, slice(None), spec, model.p)
    y = spec.forward(problem.x0.data, scaled=True)
    y_star = None if x_star is None else spec.forward(x_star.data, scaled=True)
    radius = config.projection_radius

    record_at = {0, T} | set(config.also_record)
    trace = RunTrace()

    def metrics():
        err = None if y_star is None else _norm(y - y_star)
        obj = None if full_a is None else objective(full_a, problem.b, Tensor3(spec.inverse(y, scaled=True)))
        return err, obj

    err, obj = metrics()
    trace.records.append(TraceRecord(0, None, None, err, obj))

    for t in range(1, T + 1):
        if config.sampling == "once":
            j = (t - 1) % chunk
            if j == 0:
                rows = row_order[t - 1 : t - 1 + chunk]
                a_chunk = _row_spectra(a_data, rows, spec)
                pb_chunk = _row_spectra(b_data, rows, spec, model.p)
            ahat, pbhat = a_chunk[j], pb_chunk[j]
        else:
            ahat, pbhat = _masked_row_spectra(model, a_data, pb_hat, rng, spec)

        g = _row_gradient(ahat, pbhat, y, model, spec)
        alpha = step_size(config.schedule, t)
        y -= alpha * g
        if radius is not None:
            y = _project(y, radius)

        if t in record_at or t % config.trace_every == 0:
            err, obj = metrics()
            trace.records.append(TraceRecord(t, alpha, _norm(g), err, obj))

    # without a step the final iterate is X0 itself, not its round trip through the transform
    x_final = problem.x0.data.copy() if T == 0 else spec.inverse(y, scaled=True)
    return RunResult(Tensor3(x_final), trace)
