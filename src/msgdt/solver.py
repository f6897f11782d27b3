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
spectra come from :func:`row_spectra`, one rfft per
:func:`~msgdt.tensor.row_chunks` slice of up to 256 rows; the Monte Carlo
checks in :mod:`msgdt.checks` take their draws' spectra from it too.  Compared with
iterating on X directly the results differ by rounding only: about 1e-15
relative after 10 000 iterations, and a test holds whole runs to a spatial
reference loop within 1e-12.

The iteration never builds C: ``_row_gradient`` applies (C o H) * X in a
closed form per model, and :func:`msgdt.oracle.gradient_estimate` keeps the
dense formula with an explicit C as the reference the kernel is tested
against.  The kernel's factors that depend on the row only (conj(ahat), the
uniform d, the frontal H_0, the column blocks) are built by ``_row_terms``
once per :func:`~msgdt.tensor.row_chunks` slice, for all of the slice's rows
at once; each iteration then runs only the part that depends on the iterate.

Row sampling runs in one of two modes: "once" uses an up-front uniform
permutation so no row repeats (requires T <= m), "redraw" samples rows with
replacement and draws a fresh mask for the chosen row every iteration (the
problem then carries the fully known A).  The modes differ only in where a
chunk's rows and masks come from (``_row_source``).

Independent runs on one shape and model kind advance together:
:func:`run_batch` stacks their spectra along a leading run axis and steps
them all through one kernel call per iteration, which spreads numpy's
per-call cost over the runs.  Each run keeps its own p, X0, step sizes,
row order or generator, and gets the bits it gets alone;
:func:`run_msgdt` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Optional, Union

import numpy as np

from . import tensor as tn
from .masking import (
    ColumnBlockMissing,
    MissingModel,
    UniformMissing,
    check_block,
    check_positive,
    correction_tensor,
    draw_rows,
    format_model,
    masked_rows,
    unit_map,
)
from .tensor import Tensor3

__all__ = [
    "ConstantStep",
    "InverseSqrtStep",
    "HybridStep",
    "StepSchedule",
    "step_size",
    "step_table",
    "SolverConfig",
    "ProblemInstance",
    "TraceRecord",
    "RunTrace",
    "RunResult",
    "project_ball",
    "row_spectra",
    "run_batch",
    "run_msgdt",
    "objective",
]

SamplingMode = Literal["once", "redraw"]


@dataclass(frozen=True)
class ConstantStep:
    alpha: float

    def __post_init__(self):
        check_positive("step size", self.alpha)


@dataclass(frozen=True)
class InverseSqrtStep:
    """alpha_t = c / sqrt(t), with t counted from 1."""

    c: float

    def __post_init__(self):
        check_positive("step constant", self.c)


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
        check_positive("step size", self.alpha)
        check_positive("step constant", self.c)
        if self.swap_iter < 1:
            raise ValueError(f"swap iteration must be >= 1, got {self.swap_iter}")

    @classmethod
    def matched(cls, alpha: float, swap_iter: int) -> "HybridStep":
        return cls(alpha=alpha, swap_iter=swap_iter, c=alpha * math.sqrt(swap_iter))


StepSchedule = Union[ConstantStep, InverseSqrtStep, HybridStep]


def step_size(schedule: StepSchedule, t: int) -> float:
    """Step size for 1-based iteration t: :func:`step_table`'s formula at one t."""
    if t < 1:
        raise ValueError(f"iteration index is 1-based, got {t}")
    return float(_steps_at(schedule, np.float64(t)))


def step_table(schedule: StepSchedule, total_iters: int) -> np.ndarray:
    """Step sizes of iterations 1..total_iters as one array, entry t-1 equal to ``step_size(schedule, t)``."""
    return _steps_at(schedule, np.arange(1, total_iters + 1, dtype=np.float64))


def _steps_at(schedule: StepSchedule, t: np.ndarray) -> np.ndarray:
    """The schedule's step sizes at the float64 iterations ``t``, elementwise."""
    if isinstance(schedule, ConstantStep):
        return np.full(np.shape(t), schedule.alpha, dtype=np.float64)
    decay = schedule.c / np.sqrt(t)
    if isinstance(schedule, InverseSqrtStep):
        return decay
    return np.where(t < schedule.swap_iter, np.float64(schedule.alpha), decay)


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
        if self.projection_radius is not None:
            check_positive("projection radius", self.projection_radius)
        if self.sampling not in ("once", "redraw"):
            raise ValueError(f"sampling mode must be 'once' or 'redraw', got {self.sampling!r}")
        if self.trace_every < 1:
            raise ValueError(f"trace_every must be >= 1, got {self.trace_every}")


@dataclass(frozen=True)
class ProblemInstance:
    """One masked linear system plus everything the iteration needs.

    ``a_tilde`` holds the observed data in "once" mode; in "redraw" mode it
    holds the fully known A (masks are drawn per iteration).  In "once"
    mode ``a_tilde`` may instead hold the full A with ``units``, an
    (m, units) :func:`~msgdt.masking.draw_units` draw: the iteration then
    masks each row as it transforms it, with the same bits as the masked
    tensor, and no masked copy of A is made.  The iteration takes its
    correction from ``model``; a ``correction`` tensor, when given, is only
    cross-checked against the model's dense C.
    """

    a_tilde: Tensor3
    b: Tensor3
    model: MissingModel
    x0: Tensor3
    correction: Optional[Tensor3] = None
    units: Optional[np.ndarray] = None

    def __post_init__(self):
        m, l, n = self.a_tilde.dims
        if self.b.dims != (m, self.b.l, n):
            raise ValueError(f"B dims {self.b.dims} inconsistent with A dims {self.a_tilde.dims}")
        if self.x0.dims != (l, self.b.l, n):
            raise ValueError(f"X0 dims {self.x0.dims} inconsistent with system {(l, self.b.l, n)}")
        if not np.isfinite(self.x0.data).all():
            raise ValueError("X0 has non-finite entries")
        check_block(self.model, l)
        if self.units is not None:
            shape = (m, unit_map(self.model, l, n)[1])
            if self.units.dtype != np.bool_ or self.units.shape != shape:
                raise ValueError(
                    f"unit draw of dtype {self.units.dtype} and shape {self.units.shape} is not a "
                    f"boolean {shape} draw of the model '{format_model(self.model)}'"
                )
        if self.correction is not None and not np.array_equal(
            self.correction.data, correction_tensor(self.model, l, n).data
        ):
            raise ValueError(
                f"correction tensor of dims {self.correction.dims} is not the 0/1 Hermitian "
                f"correction tensor of the model '{format_model(self.model)}' at l={l}, n={n}"
            )


@dataclass(frozen=True, eq=False)
class _Coefficients:
    """The p-dependent factors of :func:`_row_gradient` for a batch of runs of one model kind.

    ``inv`` = 1/p^2 and ``corr`` = (1-p)/p^2 per run, shaped to broadcast
    against the kernel's residuals; ``corr_w`` = corr * weights, with the
    frequency axis last.  ``block`` is the column block size (None for the
    other models) and ``uniform`` marks the uniform model.
    """

    uniform: bool
    block: Optional[int]
    inv: np.ndarray
    corr: np.ndarray
    corr_w: np.ndarray


@lru_cache(maxsize=64)
def _coefficients(models: tuple, spec: tn.TubeSpectrum, lead: tuple[int, ...]) -> _Coefficients:
    """Read-only kernel coefficients for ``models`` (one per run, one kind), with run axes ``lead``."""
    model = models[0]
    block = model.b if isinstance(model, ColumnBlockMissing) else None
    p = np.array([mod.p for mod in models], dtype=np.float64).reshape(lead)
    inv = 1.0 / (p * p)
    corr = (1.0 - p) * inv
    tail = (1,) * (3 if block is None else 4)
    # complex 1/p^2 and (1-p)/p^2 scale complex arrays without a per-call cast, with the same bits
    arrays = (
        inv.reshape(lead + tail).astype(np.complex128),
        corr.reshape(lead + tail).astype(np.complex128),
        np.multiply.outer(corr, spec.weights),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return _Coefficients(isinstance(model, UniformMissing), block, *arrays)


def _row_terms(ahat: np.ndarray, c: _Coefficients) -> tuple[np.ndarray, ...]:
    """The factors of :func:`_row_gradient` that depend on the rows ``ahat`` (..., f, l) only.

    uniform: (a, conj(a)^T, d) and frontal slice: (a, conj(a)^T, H_0), each
    shaped to act on (..., f, l, q) spectra, with H_0 a contiguous real
    array; column block: (a_b, conj(a_b)^T) per block of columns.  Leading
    axes are kept, so one call covers a whole chunk of rows and indexing
    every factor at row k gives row k's factors, with the same bits.
    """
    *lead, freqs, l = ahat.shape
    if c.block is not None:
        nb, bs = l // c.block, c.block
        ab = ahat.reshape(*lead, freqs, nb, 1, bs)
        return ab, ab.conj().reshape(*lead, freqs, nb, bs, 1)
    conj = ahat.conj()
    if c.uniform:
        corr = (c.corr_w[..., None, :] @ (ahat * conj).real)[..., None]  # d, (..., 1, l, 1)
    else:
        h0 = ((c.corr_w[..., None, :] * conj.swapaxes(-1, -2)) @ ahat).real
        corr = np.ascontiguousarray(h0)[..., None, :, :]  # H_0, (..., 1, l, l)
    return ahat[..., None, :], conj[..., None], corr


def _row_gradient(
    ahat: Union[np.ndarray, tuple[np.ndarray, ...]],
    pbhat: np.ndarray,
    yhat: np.ndarray,
    model: Union[MissingModel, _Coefficients],
    spec: tn.TubeSpectrum,
) -> np.ndarray:
    """Scaled spectrum of the update direction g(X) for one masked row slice per run.

    ``ahat`` (..., f, l) is the rfft of the masked row Atilde_i along its
    tubes, or its :func:`_row_terms`; ``pbhat`` (..., f, q) and ``yhat``
    (..., f, l, q) are the Parseval-scaled spectra of p B_i and of X;
    ``spec`` is the tubes' transform.  Leading axes are runs: a batch passes
    the :class:`_Coefficients` of its per-run models and the row terms of a
    whole chunk, both built once, and a single run may pass its model and
    its row spectrum.  Each run's result depends on that run's inputs only,
    with the same bits whatever the batch.  With a = ahat[f] as a 1 x l
    row, frequency f of the result is (lead - (1-p) corr) / p^2, where

    * lead = conj(a)^T (a Y_f - (p b)_f),
    * uniform: corr = d o Y_f with d_j = sum_k arow[k, j]^2,
    * frontal slice: corr = H_0 Y_f with the real H_0 = arow^T arow,
    * column block: corr = conj(a_b)^T (a_b Y_fb) for each block b of columns,
      merged with the lead term into one outer product per block.

    d and H_0 are sums over the tube, read off the spectrum by Parseval;
    the real H_0 acts on the real view of Y.
    """
    c = model if isinstance(model, _Coefficients) else _coefficients((model,), spec, ())
    terms = ahat if isinstance(ahat, tuple) else _row_terms(ahat, c)
    *lead, freqs, l, q = yhat.shape
    if c.block is not None:
        ab, ab_conj = terms
        axb = ab @ yhat.reshape(*lead, freqs, l // c.block, c.block, q)  # a_b Y_fb, (..., f, nb, 1, q)
        resid = np.add.reduce(axb, axis=-3, keepdims=True)
        resid -= pbhat[..., None, None, :]
        z = c.inv * resid - c.corr * axb
        return (ab_conj * z).reshape(yhat.shape)
    a, conj, corr = terms
    resid = a @ yhat  # (..., f, 1, q)
    resid -= pbhat[..., None, :]
    resid *= c.inv
    g = conj * resid
    if c.uniform:
        g -= corr * yhat
    else:
        g -= (corr @ yhat.view(np.float64)).view(np.complex128)
    return g


def _flat(arr: np.ndarray) -> np.ndarray:
    """A contiguous real array, or a complex spectrum, as one flat float64 view."""
    return arr.reshape(-1).view(np.float64)


def _norm(flat: np.ndarray) -> float:
    """Frobenius norm of a :func:`_flat` view."""
    return math.sqrt(float(np.dot(flat, flat)))


def _project(flat: np.ndarray, radius: float) -> None:
    """Scale the :func:`_flat` view ``flat`` in place onto the Frobenius ball of ``radius``; leave it when inside.

    Parseval makes this the same map on X and on its scaled spectrum.
    """
    norm = _norm(flat)
    if norm > radius:
        flat *= radius / norm


def project_ball(x: Tensor3, radius: Optional[float]) -> Tensor3:
    """Projection onto the Frobenius ball of the given radius (None = identity)."""
    if radius is None:
        return x
    data = x.data.copy()
    _project(_flat(data), radius)
    return Tensor3(data)


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


def _check_batch(problems: list[ProblemInstance], configs: list[SolverConfig]) -> None:
    """Reject a batch whose runs do not share what the one loop needs shared."""
    if not problems or len(problems) != len(configs):
        raise ValueError(
            f"a batch needs one config per problem, got {len(problems)} problems and {len(configs)} configs"
        )

    def shared(prob: ProblemInstance, cfg: SolverConfig) -> dict:
        return {
            "shape (m, l, q, n)": prob.a_tilde.dims[:2] + (prob.b.l, prob.a_tilde.n),
            "model kind": type(prob.model).__name__,
            "block size": getattr(prob.model, "b", None),
            "sampling": cfg.sampling,
            "total_iters": cfg.total_iters,
            "trace_every": cfg.trace_every,
            "also_record": set(cfg.also_record),
            "projection_radius": cfg.projection_radius,
        }

    first = shared(problems[0], configs[0])
    for k, (prob, cfg) in enumerate(zip(problems, configs)):
        for name, value in shared(prob, cfg).items():
            if value != first[name]:
                raise ValueError(
                    f"runs of one batch must share {name}: run 0 has {first[name]!r}, run {k} has {value!r}"
                )
        if prob.units is not None and cfg.sampling == "redraw":
            raise ValueError(f"run {k}: a unit draw masks rows in 'once' mode only; 'redraw' draws its own masks")
    m, T = problems[0].a_tilde.m, configs[0].total_iters
    if configs[0].sampling == "once" and T > m:
        raise ValueError(
            f"{T} iterations need {T} distinct rows but A has only {m}; "
            "use sampling='redraw' or lower the budget"
        )


def _row_source(prob: ProblemInstance, config: SolverConfig):
    """A run's ``rows`` slice of iterations -> (idx, keep): its rows and unit draws for those iterations.

    "once" slices a permutation drawn up front (keep None when ``a_tilde``
    is masked already); "redraw" draws rows and masks ahead with
    :func:`~msgdt.masking.draw_rows`, in the order of one draw per iteration.
    """
    m, l, n = prob.a_tilde.dims
    rng = np.random.default_rng(config.seed)
    if config.sampling == "redraw":
        return lambda rows: draw_rows(prob.model, m, l, n, rows.stop - rows.start, rng)
    order = rng.permutation(m)[: config.total_iters]

    def drawn(rows: slice):
        idx = order[rows]
        return idx, None if prob.units is None else prob.units[idx]

    return drawn


def row_spectra(runs, draws, spec: tn.TubeSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """(ahat, pbhat) of every run's drawn rows, stacked as (rows, R, f, l) and (rows, R, f, q).

    ``runs`` holds an (A, B, model) triple per run and ``draws`` an
    (idx, keep) pair per run: rows ``idx`` of A, each masked by its unit
    draw in ``keep`` (None: taken as they are), and the same rows of B.  One
    rfft transforms all of A's rows and one all of B's; B's spectra are
    Parseval-scaled and multiplied by each run's p, as the kernel takes them.
    """
    a0, b0, _ = runs[0]
    n, _, l = a0.data.shape
    count = len(draws[0][0])
    a_rows = np.empty((count, len(runs), n, l))
    b_rows = np.empty((count, len(runs), n, b0.l))
    for r, ((a, b, model), (idx, keep)) in enumerate(zip(runs, draws)):
        if keep is None:
            a_rows[:, r] = a.data[:, idx, :].transpose(1, 0, 2)
        else:
            a_rows[:, r] = masked_rows(model, a.data, keep, idx)
        b_rows[:, r] = b.data[:, idx, :].transpose(1, 0, 2)
    pbhat = spec.forward(b_rows, axis=2, scaled=True)
    pbhat *= np.array([model.p for _, _, model in runs]).reshape(-1, 1, 1)
    return spec.forward(a_rows, axis=2), pbhat


def run_batch(
    problems: list[ProblemInstance],
    configs: list[SolverConfig],
    x_star: Optional[Tensor3] = None,
    full_a: Optional[Tensor3] = None,
) -> list[RunResult]:
    """Run R independent iterations together, one :class:`RunResult` per run, in order.

    Run r solves ``problems[r]`` under ``configs[r]``: its own p (through
    its model), X0, seed, row order or redraw stream, and step schedule.
    The runs must share the shape, the model kind and block size, the
    sampling mode, the iteration budget, the trace iterations and the
    projection radius; a mismatch raises a ValueError naming the field.
    The iterates' scaled spectra are stacked as (R, f, l, q) and every
    iteration steps them all through one kernel call.  Each run's result is
    the same, bit for bit, as when it runs alone: the kernel works run by
    run inside its products, and norms, projection and trace records are
    taken on each run's slice.

    ``x_star`` and ``full_a`` only feed the trace (iterate error and
    objective); in "redraw" mode the full A must be in ``a_tilde``.  The
    iterates live in the scaled tube-Fourier domain (module docstring).
    Every run's rows of A and B, from its permutation or its redraws, are
    masked and transformed by :func:`row_spectra` one
    :func:`~msgdt.tensor.row_chunks` slice at a time, and the kernel's row
    terms are built for the whole slice; a slice's spectra and terms are
    freed before the next slice's are built, so no whole-tensor spectrum is
    kept and no two slices are held at once.
    """
    problems, configs = list(problems), list(configs)
    _check_batch(problems, configs)
    R, cfg0 = len(problems), configs[0]
    T, radius = cfg0.total_iters, cfg0.projection_radius
    spec = tn.tube_spectrum(problems[0].a_tilde.n)
    # One run's coefficients and steps are 0-d, which numpy applies as scalars, at scalar speed.
    # The steps are complex, so they scale the complex spectra without a per-iteration cast.
    run_axes = (R,) if R > 1 else ()
    models = tuple(prob.model for prob in problems)
    coeffs = _coefficients(models, spec, run_axes)
    alphas = np.stack([step_table(cfg.schedule, T) for cfg in configs], axis=1)  # (T, R)
    steps = alphas.astype(np.complex128).reshape((T,) + run_axes + (1,) * len(run_axes) * 3)
    sources = [_row_source(prob, cfg) for prob, cfg in zip(problems, configs)]
    runs = [(prob.a_tilde, prob.b, prob.model) for prob in problems]
    y = spec.forward(np.stack([prob.x0.data for prob in problems]), axis=1, scaled=True)
    y_flat = [_flat(y_run) for y_run in y]  # per-run views, updated in place with y
    y_star = None if x_star is None else spec.forward(x_star.data, scaled=True)

    record_at = {0, T} | set(cfg0.also_record)
    traces = [RunTrace() for _ in problems]

    def record(t: int, g: Optional[np.ndarray]) -> None:
        for r, (prob, trace) in enumerate(zip(problems, traces)):
            alpha, update = (None, None) if g is None else (float(alphas[t - 1, r]), _norm(_flat(g[r])))
            err = None if y_star is None else _norm(_flat(y[r] - y_star))
            obj = None if full_a is None else objective(full_a, prob.b, Tensor3(spec.inverse(y[r], scaled=True)))
            trace.records.append(TraceRecord(t, alpha, update, err, obj))

    record(0, None)
    for rows in tn.row_chunks(T):
        a_chunk, pb_chunk = row_spectra(runs, [source(rows) for source in sources], spec)
        chunk = _row_terms(a_chunk, coeffs)
        for t, terms, pbhat in zip(range(rows.start + 1, rows.stop + 1), zip(*chunk), pb_chunk):
            g = _row_gradient(terms, pbhat, y, coeffs, spec)
            y -= steps[t - 1] * g
            if radius is not None:
                for flat in y_flat:
                    _project(flat, radius)

            if t in record_at or t % cfg0.trace_every == 0:
                record(t, g)
        # free this chunk's spectra and terms before the next chunk's are built
        del a_chunk, pb_chunk, chunk, terms, pbhat

    results = []
    for r, (prob, trace) in enumerate(zip(problems, traces)):
        # without a step the final iterate is X0 itself, not its round trip through the transform
        x_final = prob.x0.data.copy() if T == 0 else spec.inverse(y[r], scaled=True)
        results.append(RunResult(Tensor3(x_final), trace))
    return results


def run_msgdt(
    problem: ProblemInstance,
    config: SolverConfig,
    x_star: Optional[Tensor3] = None,
    full_a: Optional[Tensor3] = None,
) -> RunResult:
    """Run the iteration for ``config.total_iters`` steps: :func:`run_batch` with one run."""
    return run_batch([problem], [config], x_star, full_a)[0]
