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
spectrum Y = s o DFT(X) with s_f = sqrt(w_f / n) (w_f = 1 at DC and at the
Nyquist frequency, 2 elsewhere), so ||X|| = ||Y|| by Parseval: projection,
``update_norm`` and ``iterate_error`` are plain norms of spectra, and
``irfft`` runs only for the final iterate.  ``objective`` records are a
quadratic form in Y with one l x l Gram matrix per frequency
(``_ObjectiveForm``), built from one pass over the full A per batch, so a
record needs neither ``irfft`` nor A.  Row spectra come from
:func:`row_spectra`, one tube DFT per stage of rows; the Monte Carlo checks
in :mod:`msgdt.checks` take their draws' spectra from it too, one
:func:`~msgdt.tensor.row_chunks` slice of up to 256 rows at a time.  Compared with
iterating on X directly the results differ by rounding only: a few 1e-15
relative after 10 000 iterations, and a test holds whole runs to a spatial
reference loop within 1e-12.

The iteration never builds C: for a fixed row, each frequency f of g is
one affine map of Y_f, g(Y) = -D Y_f + (1/p^2) conj(a)^T (a Y_f - (p b)_f),
with D the model's closed form of (1-p)/p^2 (C o H) (uniform: a diagonal
d; frontal slice: the real H_0; column block: a rank-one term per block of
columns), and :func:`msgdt.oracle.gradient_estimate` keeps the dense
formula with an explicit C as the reference it is tested against.  The
step Y - alpha_t g(Y) is the same map with alpha folded in.  So one row
operator serves both: the terms (S, u) of Y -> S Y + u (a Y - p b) are
views (``_term_views``) that ``_fill_terms`` writes, once per stage for all
of its rows at once into the stage's slot; ``_row_gradient`` builds g's
terms for one row the same way and applies them in numpy.  Without step
sizes the terms give g (S = -D, u = (1/p^2) conj(a)^T); with them they
give the step (S = I + alpha D, u = -(alpha/p^2) conj(a)^T, the factor
multiplied in place into the copy of conj(a)^T the builder makes).  Row k
of a stage is iteration start + k, so every row's step size is known when
its stage's terms are built.

The steps themselves are compiled: ``_step.c`` has one function per model
that steps a range of a stage's rows for every run, in place on Y, from
the slot's buffers, and projects each run onto the ball after each
iteration (:mod:`msgdt._step` builds it with ``cc`` once per machine and
loads it with ctypes; there is no numpy step to fall back on).  With
r = a Y - p b, it writes Y <- S o Y + u r (uniform), S Y + u r (frontal
slice, S acting on the real view of Y), or Y + u_b (r + (p-1) a_b Y_b)
for each block b of columns.  ``run_batch`` makes one compiled call per
run of untraced iterations of a stage.  g itself is not formed on the
way: at a traced iteration ``_row_gradient`` runs in numpy on the iterate
before the step, for ``update_norm``, and that iteration is then one
compiled call of its own.  The compiled step runs each sum in a fixed
order, so its bits do not depend on the instruction set; against the
numpy step it replaced, Y - alpha g(Y) with the same terms, a test holds
one step within 1e-13 relative.

Row sampling runs in one of two modes: "once" uses an up-front uniform
permutation so no row repeats (requires T <= m), "redraw" samples rows with
replacement and draws a fresh mask for the chosen row every iteration (the
problem then carries the fully known A).  The modes differ only in where a
stage's rows and masks come from (``_row_source``).

Building a stage (its rows, masks, spectra, step sizes and terms) does not
depend on the iterate, so a large batch builds the next stage in a forked
builder process while the loop steps the current one (:func:`run_batch`).
A process, not a thread: the builder is many short numpy calls, and a
thread would take the interpreter lock from the loop at every one of them.  A build reads only what the fork
copied, so the caller rebuilds a stage the builder failed on and raises
its error itself, with no error channel between the two.

Independent runs on one shape and model kind advance together:
:func:`run_batch` stacks their spectra along a leading run axis and steps
them all through one compiled call per run of untraced iterations, which
spreads the call's cost over the runs.  Each run keeps its own p, X0, step sizes,
row order or generator, and gets the bits it gets alone;
:func:`run_msgdt` is the batch of one.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Union

import numpy as np

from . import _step
from . import tensor as tn
from .masking import (
    ColumnBlockMissing,
    MissingModel,
    UniformMissing,
    check_block,
    check_positive,
    check_row_budget,
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
    "step_size",
    "SolverConfig",
    "ProblemInstance",
    "TraceRecord",
    "RunTrace",
    "RunResult",
    "row_spectra",
    "run_batch",
    "run_msgdt",
    "objective",
]

SamplingMode = Literal["once", "redraw"]


@dataclass(frozen=True)
class HybridStep:
    """The one step schedule: constant alpha while t < swap_iter, then c / sqrt(t) with
    c = alpha * sqrt(swap_iter), so the two phases agree at the swap iteration.

    The paper's two regimes are its ends, built by :func:`ConstantStep` (a swap no
    budget reaches) and :func:`InverseSqrtStep` (a swap at 1, where c = alpha)."""

    alpha: float
    swap_iter: int

    def __post_init__(self):
        check_positive("step size", self.alpha)
        if self.swap_iter < 1:
            raise ValueError(f"swap iteration must be >= 1, got {self.swap_iter}")

    @property
    def c(self) -> float:
        return self.alpha * math.sqrt(self.swap_iter)


def ConstantStep(alpha: float) -> HybridStep:
    """alpha_t = alpha at every t."""
    return HybridStep(alpha, sys.maxsize)


def InverseSqrtStep(c: float) -> HybridStep:
    """alpha_t = c / sqrt(t), with t counted from 1."""
    check_positive("step constant", c)
    return HybridStep(c, 1)


def step_size(schedule: HybridStep, t: int) -> float:
    """Step size for 1-based iteration t: the formula :func:`run_batch` takes a slice of iterations at a time."""
    if t < 1:
        raise ValueError(f"iteration index is 1-based, got {t}")
    return float(_steps_at(schedule, np.float64(t)))


def _steps_at(schedule: HybridStep, t: np.ndarray) -> np.ndarray:
    """The schedule's step sizes at the float64 iterations ``t``, elementwise."""
    return np.where(t < schedule.swap_iter, np.float64(schedule.alpha), schedule.c / np.sqrt(t))


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, step schedule, projection, sampling mode, seed.

    ``projection_radius=None`` means no projection.  ``also_record`` lists
    extra iterations to trace besides 0, T, and multiples of
    ``trace_every``; entries outside 1..T are ignored.
    """

    schedule: HybridStep
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
        tn.check_system(self.a_tilde, self.b, self.x0, "X0")
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
    """The p-dependent factors of the row map (:func:`_fill_terms`, the step, g) for a batch of runs of one model kind.

    ``inv`` = 1/p^2 and ``p_less_1`` = p - 1 per run, shaped to broadcast
    against a chunk's conj(a)^T and the column block's residuals;
    ``neg_corr_w`` = -(1-p)/p^2 * weights per run and frequency, so that it
    weighs the tube sums of -D, shaped (..., 1, f) for the uniform d and
    (..., f, 1, 1) for the frontal H_0.  ``block`` is the column block size
    (None for the other models) and ``uniform`` marks the uniform model.
    """

    uniform: bool
    block: Optional[int]
    inv: np.ndarray
    p_less_1: np.ndarray
    neg_corr_w: np.ndarray


def _coefficients(models: tuple, spec: tn.TubeSpectrum, lead: tuple[int, ...]) -> _Coefficients:
    """Row map coefficients for ``models`` (one per run, one kind), with run axes ``lead``."""
    model = models[0]
    block = model.b if isinstance(model, ColumnBlockMissing) else None
    p = np.array([mod.p for mod in models], dtype=np.float64)
    inv = 1.0 / (p * p)
    uniform = isinstance(model, UniformMissing)
    neg_corr_w = np.multiply.outer(((p - 1.0) * inv).reshape(lead), spec.weights)
    # one run's 1/p^2 and p - 1 are 0-d, which numpy applies as scalars, at scalar speed
    shape = lead + ((1,) * (3 if block is None else 4) if lead else ())
    # complex factors scale complex arrays without a per-call cast, with the same bits
    return _Coefficients(
        uniform,
        block,
        inv.reshape(shape).astype(np.complex128),
        (p - 1.0).reshape(shape).astype(np.complex128),
        neg_corr_w[..., None, :] if uniform else neg_corr_w[..., :, None, None],
    )


def _term_views(ahat: np.ndarray, pbhat: np.ndarray, u: np.ndarray, c: _Coefficients,
                empty=np.empty) -> tuple[np.ndarray, ...]:
    """The terms of the row map Y -> S Y + u r, as views of the buffers that :func:`_fill_terms` writes.

    ``ahat`` (..., f, l) and ``pbhat`` (..., f, q) are the rows' spectra, r = a Y_f - (p b)_f, and ``u`` is an
    array of ``ahat``'s shape.  S gets a buffer from ``empty``: a uniform (..., 1, l, 1) complex or frontal
    (..., 1, l, l) real array, none for column blocks.  The terms are (a, u, p b, S):

    * uniform: D = diag(d) with d_j = (1-p)/p^2 sum_k arow[k, j]^2, S a
      complex (..., 1, l, 1) array with zero imaginary parts;
    * frontal slice: D = (1-p)/p^2 H_0 with the real H_0 = arow^T arow, S a
      contiguous real (..., 1, l, l) array that acts on the real view;
    * column block: (a_b, u_b, p b) per block b of columns, without S.  D
      lives in r, extended by (p-1) a_b Y_fb per block, so S is I for the
      step and 0 for g: the step adds u_b r_b onto Y, and g is u_b r_b alone.

    p b is indexed to broadcast against the residual a Y.  Leading axes are
    kept, so one set of views covers a whole stage of rows, and indexing
    every term at row k gives row k's terms.
    """
    *lead, freqs, l = ahat.shape
    if c.block is None:
        scale = empty((*lead, 1, l, 1), np.complex128) if c.uniform else empty((*lead, 1, l, l), np.float64)
        return ahat[..., None, :], u[..., None], pbhat[..., None, :], scale
    nb, bs = l // c.block, c.block
    return ahat.reshape(*lead, freqs, nb, 1, bs), u.reshape(*lead, freqs, nb, bs, 1), pbhat[..., None, None, :]


def _fill_terms(terms: tuple[np.ndarray, ...], ahat: np.ndarray, alpha: Optional[np.ndarray], c: _Coefficients) -> None:
    """Write u and S of the :func:`_term_views` ``terms`` for the rows ``ahat``.

    Without step sizes the terms give g(Y), with S = -D and u = (1/p^2)
    conj(a)^T; with step sizes ``alpha`` (the leading axes of ``ahat``) they
    give the step Y - alpha g(Y), with S = I + alpha D and u = -(alpha/p^2)
    conj(a)^T, the factor multiplied in place into u.  d and H_0 are sums
    over the tube, read off the spectrum by Parseval.  Every operation works
    row by row, so filling a whole stage at once gives each row the bits it
    gets alone.
    """
    *lead, freqs, l = ahat.shape
    u = terms[1]
    conj = np.conjugate(ahat, out=u.reshape(ahat.shape))
    if c.block is None:
        scale = terms[3]
        if c.uniform:
            # -d, (..., 1, l, 1), complex with zero imaginary parts: it scales the complex Y as a real d scales
            # Y's real view, at the same speed, and neither the step nor g then makes a view of Y or of its result
            scale[...] = (c.neg_corr_w @ (ahat * conj).real)[..., None]
        else:
            # -H_0, one real product over the real and imaginary parts (filled in place: np.stack costs more)
            parts = np.empty((*lead, freqs, 2, l))
            parts[..., 0, :], parts[..., 1, :] = ahat.real, ahat.imag
            weighted = (c.neg_corr_w * parts).reshape(*lead, 2 * freqs, l)
            np.matmul(weighted.swapaxes(-1, -2), parts.reshape(*lead, 2 * freqs, l), out=scale[..., 0, :, :])
    if alpha is None:
        u *= c.inv
        return
    neg_alpha = -alpha
    u *= (neg_alpha * c.inv.real.reshape(-1)).reshape(alpha.shape + (1,) * (u.ndim - alpha.ndim))
    if c.block is None:
        scale *= neg_alpha.reshape(alpha.shape + (1,) * (scale.ndim - alpha.ndim))  # alpha d or alpha H_0
        if c.uniform:
            scale += 1.0
        else:
            scale.reshape(scale.shape[:-2] + (l * l,))[..., :: l + 1] += 1.0  # the diagonal of each alpha H_0


def _row_gradient(
    ahat: np.ndarray,
    pbhat: np.ndarray,
    yhat: np.ndarray,
    model: Union[MissingModel, _Coefficients],
    spec: tn.TubeSpectrum,
) -> np.ndarray:
    """Scaled spectrum of the update direction g(X) for one masked row slice per run.

    ``ahat`` (..., f, l) is the tube DFT of the masked row Atilde_i along its
    tubes; ``pbhat`` (..., f, q) and ``yhat`` (..., f, l, q) are the
    Parseval-scaled spectra of p B_i and of X; ``spec`` is the tubes'
    transform.  Leading axes are runs: a batch passes the
    :class:`_Coefficients` of its per-run models, built once, and a single
    run may pass its model.  Each run's result depends on that run's
    inputs only, with the same bits whatever the batch.  g is the row map
    without step sizes: :func:`_term_views` over a new u, written by
    :func:`_fill_terms` as a stage's are, then S Y + u r with r = a Y_f -
    (p b)_f (the frontal S acting on the real view of Y), or u_b (r + (p-1)
    a_b Y_fb) for each block b of columns, with r summed over the blocks'
    a_b Y_fb.
    """
    c = model if isinstance(model, _Coefficients) else _coefficients((model,), spec, ())
    terms = _term_views(ahat, pbhat, np.empty(ahat.shape, ahat.dtype), c)
    _fill_terms(terms, ahat, None, c)
    if c.block is not None:
        ab, u, pb = terms
        *lead, l, q = yhat.shape
        axb = ab @ yhat.reshape(*lead, l // c.block, c.block, q)  # a_b Y_fb, (..., f, nb, 1, q)
        resid = np.add.reduce(axb, axis=-3, keepdims=True)
        resid -= pb
        axb *= c.p_less_1
        axb += resid  # r + (p-1) a_b Y_fb
        return (u * axb).reshape(yhat.shape)
    a, u, pb, scale = terms
    resid = a @ yhat  # (..., f, 1, q)
    resid -= pb
    g = yhat * scale if c.uniform else np.matmul(scale, yhat.view(np.float64)).view(np.complex128)
    g += u * resid
    return g


def _flat(arr: np.ndarray) -> np.ndarray:
    """A contiguous real array, or a complex spectrum, as one flat float64 view."""
    return arr.reshape(-1).view(np.float64)


def _norm(flat: np.ndarray) -> float:
    """Frobenius norm of a :func:`_flat` view."""
    return math.sqrt(float(np.dot(flat, flat)))


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
    tn.check_system(full_a, b, x)
    residual = tn.tprod(full_a, x) - b
    return tn.inner(residual, residual) / (2.0 * full_a.m)


@dataclass(frozen=True, eq=False)
class _ObjectiveForm:
    """F(X) for one B as a quadratic form in the scaled spectrum Y of X.

    Under the tube DFT, ||A * X - B||^2 = sum_f ||Ahat_f Y_f - Btilde_f||^2
    (Parseval, with Ahat unscaled and Btilde scaled as Y is).  With the Gram
    matrices G_f = conj(Ahat_f)^T Ahat_f, C_f = conj(Ahat_f)^T Btilde_f, a
    centre Z and D = Y - Z, that is

        2m F(X) = D^H G D + 2 Re<D, G Z - C> + 2m F(Z),

    exact algebra for any Z.  Z = G^+ C, the least-squares point at each
    frequency, keeps every term as small as F(X) - F(Z), so the sum does
    not cancel the large ||A X||^2 and ||B||^2 against each other.
    """

    gram: np.ndarray  # G, (f, l, l)
    centre: np.ndarray  # Z, (f, l, q)
    twice_slope: np.ndarray  # 2 (G Z - C), (f, l, q)
    at_centre: float  # F(Z)
    m: int

    def __call__(self, yhat: np.ndarray) -> float:
        d = yhat - self.centre
        return float(np.vdot(d, self.gram @ d + self.twice_slope).real) / (2.0 * self.m) + self.at_centre


def _objective_forms(full_a: Tensor3, bs: list[Tensor3], spec: tn.TubeSpectrum) -> list[_ObjectiveForm]:
    """An :class:`_ObjectiveForm` per B in ``bs``, from one chunked pass over ``full_a`` and one
    :func:`objective` call per B (at its centre)."""
    gram, cross = tn.tube_gram(full_a.data, np.stack([b.data for b in bs]))
    cross *= spec.scale[:, None, None]  # C_f, against the scaled spectrum of B
    # the pseudo-inverse gives a least-squares point also where G is singular (m < l, a zero column)
    centres = np.linalg.pinv(gram, hermitian=True) @ cross
    slopes = 2.0 * (gram @ centres - cross)
    return [
        _ObjectiveForm(gram, z, slope, objective(full_a, b, Tensor3(spec.inverse(z, scaled=True))), full_a.m)
        for b, z, slope in zip(bs, centres, slopes)
    ]


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
    check_row_budget(configs[0].sampling, configs[0].total_iters, problems[0].a_tilde.m)


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


def row_spectra(runs, draws, spec: tn.TubeSpectrum, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(ahat, pbhat) of every run's drawn rows, stacked as (rows, R, f, l) and (rows, R, f, q).

    ``runs`` holds an (A, B, model) triple per run and ``draws`` an
    (idx, keep) pair per run: rows ``idx`` of A, each masked by its unit
    draw in ``keep`` (None: taken as they are), and the same rows of B.  One
    :meth:`~msgdt.tensor.TubeSpectrum.forward` call transforms all of A's
    rows and one all of B's; B's spectra are
    Parseval-scaled and multiplied by each run's p, as the kernel takes them.
    ``out`` holds four arrays to write into instead of new ones: the
    gathered rows of A and B, (rows, R, n, l) and (rows, R, n, q) float64,
    then ahat and pbhat.  B's rows are transformed before A's are gathered,
    so the two gather arrays may share memory.
    """
    a0, b0, _ = runs[0]
    n, _, l = a0.data.shape
    count = len(draws[0][0])
    if out is None:
        out = (np.empty((count, len(runs), n, l)), np.empty((count, len(runs), n, b0.l)), None, None)
    a_rows, b_rows, ahat, pbhat = out
    for r, ((_, b, _), (idx, _)) in enumerate(zip(runs, draws)):
        b_rows[:, r] = b.data[:, idx, :].transpose(1, 0, 2)
    pbhat = spec.forward(b_rows, axis=2, scaled=True, out=pbhat)
    pbhat *= np.array([model.p for _, _, model in runs]).reshape(-1, 1, 1)
    for r, ((a, _, model), (idx, keep)) in enumerate(zip(runs, draws)):
        if keep is None:
            a_rows[:, r] = a.data[:, idx, :].transpose(1, 0, 2)
        else:
            masked_rows(model, a.data, keep, idx, out=a_rows[:, r])
    return spec.forward(a_rows, axis=2, out=ahat), pbhat


# Smallest batch iterate, in complex entries R * (n//2+1) * l * q, whose batch builds its next stage of rows
# in a forked builder process (:func:`_pipeline`).  The builder gains below this too, in 2000-iteration batches;
# the gate keeps wide-tube's solve (2600 entries) and the theory checks' short single runs inline, where a fork's
# fixed cost meets little overlap (README.md, the paragraph on row stages, has the table).
_PIPELINE_MIN_ENTRIES = 3072

# the one-byte tokens of :func:`_pipeline`: "stage built" to the stepping process, "slot free" to the builder
_BUILT, _FREE = b"+", b"-"


def _builder_possible() -> bool:
    """Whether a batch may fork a builder: ``os.fork`` exists, no other thread could hold a lock the child
    inherits, and the process may run on a second core (its own affinity, or the machine's count without one)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return cores >= 2


def _shared_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An array in anonymous shared memory: what a forked child writes into it, its parent reads."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * dtype.itemsize), dtype).reshape(shape)


@dataclass(frozen=True, eq=False)
class _Slot:
    """The buffers of one stage of up to ``size`` rows and the views of its terms, made once per batch.

    ``gathers`` are the gathered rows of A and B, (size, R, n, l) and
    (size, R, n, q) float64, in the memory of the step's u; ``ahat`` and
    ``pbhat`` are their spectra, ``alphas`` the (size, R) step sizes and
    ``terms`` the step's :func:`_term_views`.  A stage of ``count`` rows
    uses the first ``count`` rows of each.
    """

    gathers: tuple[np.ndarray, np.ndarray]
    ahat: np.ndarray
    pbhat: np.ndarray
    alphas: np.ndarray
    terms: tuple[np.ndarray, ...]


def _slot(size: int, runs: int, n: int, l: int, q: int, c: _Coefficients, empty=np.empty) -> _Slot:
    """A :class:`_Slot` whose buffers come from ``empty``: ``np.empty``, or :func:`_shared_empty` for a builder.

    The gathered rows of A and B and the step's u share one buffer, so the
    stage holds no more than the step reads: B's rows are transformed
    before A's are gathered, and u is written once A's rows are transformed.
    """
    freqs = n // 2 + 1
    # room for u, (freqs, l) complex per row and run, and for either gather, n l or n q floats (n l < 2 freqs l)
    rows_and_u = empty((size * runs * max(freqs * l, -(-n * q // 2)),), np.complex128)
    gathers = tuple(rows_and_u.view(np.float64)[: size * runs * n * width].reshape(size, runs, n, width)
                    for width in (l, q))
    ahat = empty((size, runs, freqs, l), np.complex128)
    pbhat = empty((size, runs, freqs, q), np.complex128)
    u = rows_and_u[: size * runs * freqs * l].reshape(size, runs, freqs, l)
    terms = _term_views(ahat, pbhat, u, c, empty)
    return _Slot(gathers, ahat, pbhat, empty((size, runs), np.float64), terms)


@dataclass(frozen=True, eq=False)
class _StageKernel:
    """The compiled step of the stages in one slot, on one iterate: ``kernel(k0, k1)`` steps rows k0..k1 - 1.

    One call steps every run through those rows of the stage in the slot,
    in place on the iterate, projecting each run after each row.  ``fn`` is
    the model's function of :mod:`msgdt._step` and ``args`` its arguments
    up to the row range, with the addresses of ``buffers``, which the
    kernel keeps alive.
    """

    fn: Callable[..., None]
    args: tuple
    buffers: tuple[np.ndarray, ...]

    def __call__(self, k0: int, k1: int) -> None:
        self.fn(*self.args, k0, k1)


def _stage_kernel(slot: _Slot, y: np.ndarray, c: _Coefficients, radius: Optional[float]) -> _StageKernel:
    """The :class:`_StageKernel` of ``slot`` on the (R, f, l, q) iterate ``y``, onto the ball of ``radius`` or none."""
    lib = _step.library()
    runs, freqs, l, q = y.shape
    work = np.empty((l + 1) * q, np.complex128)  # r, and a_b Y_fb or the frontal S Y_f
    if c.block is None:
        fn, model, block = (lib.step_uniform if c.uniform else lib.step_frontal), slot.terms[3], ()
    else:
        fn, model, block = lib.step_colblock, np.ascontiguousarray(c.p_less_1.real.reshape(-1)), (c.block,)
    buffers = (slot.ahat, slot.terms[1], slot.pbhat, model, y, work)  # ahat, u, p b, S or p - 1, Y, work
    if not all(buf.flags.c_contiguous for buf in buffers):  # the C code indexes each as a dense array
        raise ValueError("the compiled step needs C-contiguous buffers")
    ptrs = [buf.ctypes.data for buf in buffers]
    args = (runs, freqs, l, q, *ptrs[:4], *block, *ptrs[4:], math.inf if radius is None else radius)
    return _StageKernel(fn, args, buffers)


def _pipeline(starts: range, slots: list[_Slot], fill, step) -> None:
    """``fill(rows, slot)``, then ``step(rows, slot)``, for every stage ``rows``, in order.

    ``starts`` is ``range(0, T, size)``; each stage is the slice of up to
    ``size`` iterations from its start, made when it is reached.  With one
    slot every stage is filled into it inline.  With two, in shared memory,
    a forked builder fills stage i + 1 into one slot while this process
    steps stage i from the other.  The builder inherits all a fill reads
    through the fork: A, B, the unit draws, the runs' generators and
    ``np.errstate``.  Two pipes carry one-byte tokens, "stage built" to this
    process and "slot free" to the builder.  A builder that fails exits
    nonzero without its token; this process then reaps it and fills stages
    0..i itself from the state the fork copied, which it has not advanced,
    so a fill's error is raised here as itself.  Where that rebuild raises
    nothing, a RuntimeError says how the builder ended.  The builder is
    reaped before this returns or raises, and killed first if a step
    raised.  If this process dies, the builder reads EOF on its "slot free"
    pipe and exits.  Where the fork fails, every stage is filled inline.
    """

    def stage(start: int) -> slice:
        return slice(start, min(start + starts.step, starts.stop))

    if len(slots) == 1:
        for rows in map(stage, starts):
            fill(rows, slots[0])
            step(rows, slots[0])
        return
    built_r, built_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: build in this one
        for fd in (built_r, built_w, free_r, free_w):
            os.close(fd)
        return _pipeline(starts, slots[:1], fill, step)
    if pid == 0:
        try:
            os.close(built_r)
            os.close(free_w)
            for i, start in enumerate(starts):
                if i >= 2 and not os.read(free_r, 1):
                    break  # EOF: the stepping process is gone
                fill(stage(start), slots[i % 2])
                os.write(built_w, _BUILT)
            os._exit(0)
        finally:
            os._exit(1)  # an error: never back into the caller's code, and none of its exit handlers
    os.close(built_w)
    os.close(free_r)
    stepped, failed = False, None
    try:
        for i, start in enumerate(starts):
            if os.read(built_r, 1) != _BUILT:
                failed = i
                break
            step(stage(start), slots[i % 2])
            if i + 2 < len(starts):
                try:
                    os.write(free_w, _FREE)
                except BrokenPipeError:  # the builder has ended: its missing token, read next, says so
                    pass
        stepped = True
    finally:
        os.close(free_w)
        os.close(built_r)
        if not stepped:
            import signal  # here, where a step failed: at import it would add to every process's memory

            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if failed is not None:
        for redo in starts[: failed + 1]:  # raises the builder's error, if it is one this process meets too
            fill(stage(redo), slots[0])
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"the row stage builder {how} before it built stage {failed}")


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
    The iterates' scaled spectra are stacked as (R, f, l, q), and the
    compiled step (:class:`_StageKernel`) steps them all, one call for each
    run of untraced iterations of a stage.  Each run's result is the same,
    bit for bit, as when it runs alone: the step, its projection and the
    trace records work run by run.  A traced iteration calls
    :func:`_row_gradient` on the iterate before the step, for the
    ``update_norm`` of g, and is then a compiled call of its own.  The
    first batch of a process builds or loads the compiled step
    (:func:`msgdt._step.library`), before any fork.

    ``x_star`` and ``full_a`` only feed the trace (iterate error and
    objective); in "redraw" mode the full A must be in ``a_tilde``.  The
    iterates live in the scaled tube-Fourier domain (module docstring), and
    ``irfft`` runs only for the final iterates.  With ``full_a``, the batch
    builds the Gram terms of :class:`_ObjectiveForm` once: G and C in one
    chunked pass over ``full_a`` (C for each distinct ``b`` object), then a
    centre and one :func:`objective` call per ``b``; each objective record
    is then that form at the run's spectrum, with no pass over A.
    The iterations are taken in stages of consecutive rows.  A stage's
    rows of A and B, from each run's permutation or redraws, are masked
    and transformed by :func:`row_spectra`, its step sizes are taken from
    each run's schedule for that stage only, and the step's terms are
    built for the whole stage by :func:`_fill_terms` at them.  All of it is
    written into a workspace allocated once per batch, one
    :func:`~msgdt.tensor.row_chunks` slice of rows in size, so no
    whole-tensor spectrum, step table or stage list is kept; the step reads
    each stage's terms from the slot's buffers.  A batch whose
    stacked iterate has at least ``_PIPELINE_MIN_ENTRIES`` complex entries
    and that runs for more than one slice of rows splits the workspace into
    two half-slice slots in shared memory, and a forked builder process
    fills stage i + 1 into one while this process steps stage i from the
    other (:func:`_pipeline`).  That needs ``os.fork``, no other thread in
    the process and a second usable core; otherwise, and for a smaller
    batch, each full-slice stage is built inline, in the one slot.  Every
    stage operation works row by row, and the builder inherits the runs'
    generators, so the bits are the same either way.  A build's error is
    raised from this process's rebuild of the stage, as itself, or as a
    RuntimeError naming how the builder ended; no process outlives the
    call.  Every step is written into the one iterate buffer.
    """
    problems, configs = list(problems), list(configs)
    _check_batch(problems, configs)
    R, cfg0 = len(problems), configs[0]
    T, radius = cfg0.total_iters, cfg0.projection_radius
    spec = tn.tube_spectrum(problems[0].a_tilde.n)
    run_axes = (R,) if R > 1 else ()
    models = tuple(prob.model for prob in problems)
    coeffs = _coefficients(models, spec, run_axes)
    sources = [_row_source(prob, cfg) for prob, cfg in zip(problems, configs)]
    runs = [(prob.a_tilde, prob.b, prob.model) for prob in problems]
    y = spec.forward(np.stack([prob.x0.data for prob in problems]), axis=1, scaled=True)
    tn.check_system(problems[0].a_tilde, problems[0].b, x_star, "X*")
    y_star = None if x_star is None else spec.forward(x_star.data, scaled=True)
    forms = None
    if full_a is not None:
        if full_a.dims != problems[0].a_tilde.dims:
            raise ValueError(f"full A dims {full_a.dims} inconsistent with A dims {problems[0].a_tilde.dims}")
        distinct = list({id(prob.b): prob.b for prob in problems}.values())
        forms = dict(zip(map(id, distinct), _objective_forms(full_a, distinct, spec)))

    record_at = {0, T} | set(cfg0.also_record)
    traces = [RunTrace() for _ in problems]

    def record(t: int, g: Optional[np.ndarray], steps: Optional[np.ndarray]) -> None:
        for r, (prob, trace) in enumerate(zip(problems, traces)):
            alpha, update = (None, None) if g is None else (float(steps[r]), _norm(_flat(g[r])))
            err = None if y_star is None else _norm(_flat(y[r] - y_star))
            obj = None if forms is None else forms[id(prob.b)](y[r])
            trace.records.append(TraceRecord(t, alpha, update, err, obj))

    def fill(rows: slice, slot: _Slot) -> None:
        """Build the stage ``rows`` into ``slot``: its row spectra, step sizes (rows, R) and step terms."""
        count = rows.stop - rows.start
        ahat, pbhat = slot.ahat[:count], slot.pbhat[:count]
        row_spectra(runs, [source(rows) for source in sources], spec,
                    out=(*(rows_of[:count] for rows_of in slot.gathers), ahat, pbhat))
        iters = np.arange(rows.start + 1, rows.stop + 1, dtype=np.float64)
        alphas = np.stack([_steps_at(cfg.schedule, iters) for cfg in configs], axis=1, out=slot.alphas[:count])
        _fill_terms(tuple(term[:count] for term in slot.terms), ahat, alphas, coeffs)

    every = cfg0.trace_every

    def traced(rows: slice) -> list[int]:
        """The stage's rows, as indices into it, whose iterations are recorded, in order."""
        first = (rows.start // every + 1) * every
        ts = {*range(first, rows.stop + 1, every), *(t for t in record_at if rows.start < t <= rows.stop)}
        return [t - rows.start - 1 for t in sorted(ts)]

    def step(rows: slice, slot: _Slot) -> None:
        kernel, done = kernels[slot], 0
        for k in traced(rows):
            if done < k:
                kernel(done, k)
            # the trace's g is the kernel's, on the iterate before the step
            g = _row_gradient(slot.ahat[k], slot.pbhat[k], y, coeffs, spec)
            kernel(k, k + 1)
            record(rows.start + k + 1, g, slot.alphas[k])
            done = k + 1
        if done < rows.stop - rows.start:
            kernel(done, rows.stop - rows.start)

    record(0, None, None)
    _, l, n = problems[0].a_tilde.dims
    q = problems[0].b.l
    size = tn._ROW_CHUNK
    # a fork costs about 3 ms at the desk: a batch of one slice's rows or fewer builds them inline
    if R * (n // 2 + 1) * l * q >= _PIPELINE_MIN_ENTRIES and T > size and _builder_possible():
        # the slots split one row_chunks slice between them, so the workspace holds one slice's rows either way
        size //= 2
        slots = [_slot(size, R, n, l, q, coeffs, _shared_empty) for _ in range(2)]
    else:
        slots = [_slot(size, R, n, l, q, coeffs)]
    kernels = {slot: _stage_kernel(slot, y, coeffs, radius) for slot in slots}  # builds the library before a fork
    _pipeline(range(0, T, size), slots, fill, step)

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
