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
``irfft`` runs only for the final iterate.  ``objective`` records are a
quadratic form in Y with one l x l Gram matrix per frequency
(``_ObjectiveForm``), built from one pass over the full A per batch, so a
record needs neither ``irfft`` nor A.  Row spectra come from
:func:`row_spectra`, one rfft per :func:`~msgdt.tensor.row_chunks` slice of
up to 256 rows; the Monte Carlo checks in :mod:`msgdt.checks` take their
draws' spectra from it too.  Compared with
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
operator serves both: ``_row_terms`` builds the terms (S, u) of
Y -> S Y + u (a Y - p b), once per :func:`~msgdt.tensor.row_chunks` slice
for all of its rows at once, and ``_apply`` applies one row's terms.
Without step sizes the terms give g (S = -D, u = (1/p^2) conj(a)^T);
with them they give the step (S = I + alpha D, u = -(alpha/p^2)
conj(a)^T, the factor multiplied in place into the copy of conj(a)^T the
builder makes).  Row k of a slice is iteration start + k, so every row's
step size is known when its slice's terms are built.

Each iteration then runs only the part that depends on the iterate, in one
``_apply`` of five numpy calls (seven for column blocks): with r = a Y - p b,
Y <- S o Y + u r (uniform), S Y + u r (frontal slice, S acting on the
real view of Y; S Y goes to a spare buffer that then swaps with Y, because
numpy would copy Y first to write a product over its own input), or
Y + u_b (r + (p-1) a_b Y_b) for each block b of columns.  The loop makes
no array view per iteration: each buffer's real or block view is made
once, and p b is indexed to its broadcast shape once per slice.  g itself
is not formed on the way: ``_row_gradient``, the same builder and apply
without step sizes, runs only at traced iterations, on the iterate before
the step, for ``update_norm``.  The step equals Y - alpha g(Y) up to
rounding; a test holds one step to it within 1e-13 relative.

Row sampling runs in one of two modes: "once" uses an up-front uniform
permutation so no row repeats (requires T <= m), "redraw" samples rows with
replacement and draws a fresh mask for the chosen row every iteration (the
problem then carries the fully known A).  The modes differ only in where a
chunk's rows and masks come from (``_row_source``).

Independent runs on one shape and model kind advance together:
:func:`run_batch` stacks their spectra along a leading run axis and steps
them all through one ``_apply`` call per iteration, which spreads numpy's
per-call cost over the runs.  Each run keeps its own p, X0, step sizes,
row order or generator, and gets the bits it gets alone;
:func:`run_msgdt` is the batch of one.
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
    """The p-dependent factors of the row map (:func:`_row_terms`, :func:`_apply`) for a batch of runs of one model kind.

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


def _row_terms(
    ahat: np.ndarray, pbhat: np.ndarray, alpha: Optional[np.ndarray], c: _Coefficients
) -> tuple[np.ndarray, ...]:
    """The terms of the row map Y -> S Y + u r for rows ``ahat`` (..., f, l) and ``pbhat`` (..., f, q).

    r = a Y_f - (p b)_f.  Without step sizes the terms give g(Y), with
    S = -D and u = (1/p^2) conj(a)^T; with step sizes ``alpha`` (the leading
    axes of ``ahat``) they give the step Y - alpha g(Y), with S = I + alpha D
    and u = -(alpha/p^2) conj(a)^T, the factor multiplied in place into the
    copy of conj(a)^T that ``conj()`` makes.  The terms are (a, u, p b, S):

    * uniform: D = diag(d) with d_j = (1-p)/p^2 sum_k arow[k, j]^2, S a
      complex (..., 1, l, 1) array with zero imaginary parts;
    * frontal slice: D = (1-p)/p^2 H_0 with the real H_0 = arow^T arow, S a
      contiguous real (..., 1, l, l) array that acts on the real view;
    * column block: (a_b, u_b, p b) per block b of columns, without S.  D
      lives in r, extended by (p-1) a_b Y_fb per block, so S is I for the
      step and 0 for g: :func:`_apply` adds u_b r_b onto Y, or gives it alone.

    d and H_0 are sums over the tube, read off the spectrum by Parseval.
    p b is indexed to broadcast against the residual a Y.  Leading axes are
    kept, so one call covers a whole chunk of rows, and indexing every term
    at row k gives row k's terms, with the same bits.
    """
    *lead, freqs, l = ahat.shape
    conj = ahat.conj()
    if c.block is None:
        a, pb = ahat[..., None, :], pbhat[..., None, :]
        if c.uniform:
            # -d, (..., 1, l, 1), complex with zero imaginary parts: it scales the complex Y as a real d scales
            # Y's real view, at the same speed, and neither the step nor g then makes a view of Y or of its result
            scale = (c.neg_corr_w @ (ahat * conj).real)[..., None].astype(np.complex128)
        else:
            # -H_0, one real product over the real and imaginary parts (filled in place: np.stack costs more)
            parts = np.empty((*lead, freqs, 2, l))
            parts[..., 0, :], parts[..., 1, :] = ahat.real, ahat.imag
            weighted = (c.neg_corr_w * parts).reshape(*lead, 2 * freqs, l)
            scale = (weighted.swapaxes(-1, -2) @ parts.reshape(*lead, 2 * freqs, l))[..., None, :, :]
        conj = conj[..., None]
    else:
        nb, bs = l // c.block, c.block
        a, pb = ahat.reshape(*lead, freqs, nb, 1, bs), pbhat[..., None, None, :]
        conj = conj.reshape(*lead, freqs, nb, bs, 1)
    if alpha is None:
        conj *= c.inv
    else:
        neg_alpha = -alpha
        conj *= (neg_alpha * c.inv.real.reshape(-1)).reshape(alpha.shape + (1,) * (conj.ndim - alpha.ndim))
        if c.block is None:
            scale *= neg_alpha.reshape(alpha.shape + (1,) * (scale.ndim - alpha.ndim))  # alpha d or alpha H_0
            if c.uniform:
                scale += 1.0
            else:
                scale.reshape(scale.shape[:-2] + (l * l,))[..., :: l + 1] += 1.0  # the diagonal of each alpha H_0
    return (a, conj, pb) if c.block is not None else (a, conj, pb, scale)


def _views(yhat: np.ndarray, c: _Coefficients) -> tuple[np.ndarray, np.ndarray]:
    """(Y, the view of Y that :func:`_apply` reads and writes) for a spectrum buffer ``yhat`` (..., f, l, q).

    The view is Y itself for the uniform d, the real (..., f, l, 2q) view
    for the frontal S, and the (..., f, nb, b, q) view of the column
    blocks.  The loop makes it once per buffer, so a step makes no view.
    """
    if c.block is not None:
        *lead, l, q = yhat.shape
        return yhat, yhat.reshape(*lead, l // c.block, c.block, q)
    return yhat, yhat if c.uniform else yhat.view(np.float64)


def _apply(terms: tuple[np.ndarray, ...], y: tuple[np.ndarray, np.ndarray],
           out: Optional[tuple[np.ndarray, np.ndarray]], c: _Coefficients) -> np.ndarray:
    """S Y + u r of every run, from one row's :func:`_row_terms`, written into the buffer of ``out`` and returned.

    ``y`` and ``out`` are :func:`_views` of the iterate and of the result's
    buffer (None: a new array), and r = a Y_f - (p b)_f.  uniform and
    frontal slice write S Y (the frontal S acting on the real view of Y),
    then add u r; ``out`` may be ``y`` for the uniform d, not for the
    frontal S (numpy would copy Y first to write a product over its own
    input).  A column block adds u_b (r + (p-1) a_b Y_fb) to block b of
    ``out``, with r summed over the blocks' a_b Y_fb: ``out`` is ``y`` for
    the step (S = I), and None gives the new term alone (S = 0, for g).
    """
    yhat, view = y
    dest, dest_view = (None, None) if out is None else out
    if c.block is not None:
        ab, u, pb = terms
        axb = ab @ view  # a_b Y_fb, (..., f, nb, 1, q)
        resid = np.add.reduce(axb, axis=-3, keepdims=True)
        resid -= pb
        axb *= c.p_less_1
        axb += resid  # r + (p-1) a_b Y_fb
        if out is None:
            return (u * axb).reshape(yhat.shape)
        dest_view += u * axb
        return dest
    a, u, pb, scale = terms
    resid = a @ yhat  # (..., f, 1, q)
    resid -= pb
    if c.uniform:
        dest_view = np.multiply(view, scale, out=dest_view)
    else:
        dest_view = np.matmul(scale, view, out=dest_view)
    if out is None:
        dest = dest_view if c.uniform else dest_view.view(np.complex128)
    dest += u * resid
    return dest


def _row_gradient(
    ahat: np.ndarray,
    pbhat: np.ndarray,
    yhat: np.ndarray,
    model: Union[MissingModel, _Coefficients],
    spec: tn.TubeSpectrum,
) -> np.ndarray:
    """Scaled spectrum of the update direction g(X) for one masked row slice per run.

    ``ahat`` (..., f, l) is the rfft of the masked row Atilde_i along its
    tubes; ``pbhat`` (..., f, q) and ``yhat`` (..., f, l, q) are the
    Parseval-scaled spectra of p B_i and of X; ``spec`` is the tubes'
    transform.  Leading axes are runs: a batch passes the
    :class:`_Coefficients` of its per-run models, built once, and a single
    run may pass its model.  Each run's result depends on that run's
    inputs only, with the same bits whatever the batch.  g is the row map
    of :func:`_row_terms` without step sizes, applied by :func:`_apply`.
    """
    c = model if isinstance(model, _Coefficients) else _coefficients((model,), spec, ())
    return _apply(_row_terms(ahat, pbhat, None, c), _views(yhat, c), None, c)


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
    iteration steps them all through one :func:`_apply` call.  Each run's
    result is the same, bit for bit, as when it runs alone: the step works
    run by run inside its products, and norms, projection and trace records
    are taken on each run's slice.  A traced iteration also calls
    :func:`_row_gradient` on the iterate before the step, for the
    ``update_norm`` of g.

    ``x_star`` and ``full_a`` only feed the trace (iterate error and
    objective); in "redraw" mode the full A must be in ``a_tilde``.  The
    iterates live in the scaled tube-Fourier domain (module docstring), and
    ``irfft`` runs only for the final iterates.  With ``full_a``, the batch
    builds the Gram terms of :class:`_ObjectiveForm` once: G and C in one
    chunked pass over ``full_a`` (C for each distinct ``b`` object), then a
    centre and one :func:`objective` call per ``b``; each objective record
    is then that form at the run's spectrum, with no pass over A.
    Every run's rows of A and B, from its permutation or its redraws, are
    masked and transformed by :func:`row_spectra` one
    :func:`~msgdt.tensor.row_chunks` slice at a time, and the step's terms
    are built for the whole slice by :func:`_row_terms` at the slice's step
    sizes; a slice's spectra and terms are freed before the next slice's
    are built, so no whole-tensor spectrum is kept and no two slices are
    held at once.
    """
    problems, configs = list(problems), list(configs)
    _check_batch(problems, configs)
    R, cfg0 = len(problems), configs[0]
    T, radius = cfg0.total_iters, cfg0.projection_radius
    spec = tn.tube_spectrum(problems[0].a_tilde.n)
    run_axes = (R,) if R > 1 else ()
    models = tuple(prob.model for prob in problems)
    coeffs = _coefficients(models, spec, run_axes)
    alphas = np.stack([step_table(cfg.schedule, T) for cfg in configs], axis=1)  # (T, R)
    sources = [_row_source(prob, cfg) for prob, cfg in zip(problems, configs)]
    runs = [(prob.a_tilde, prob.b, prob.model) for prob in problems]
    y = spec.forward(np.stack([prob.x0.data for prob in problems]), axis=1, scaled=True)
    # the frontal step writes S Y here, then the two swap; the other models step Y in place
    spare = np.empty_like(y)
    in_place = coeffs.uniform or coeffs.block is not None
    # each buffer's views, made once: the step's, and one flat view per run for the projection
    y_views, spare_views = (_views(arr, coeffs) for arr in (y, spare))
    y_flat, spare_flat = ([_flat(run) for run in arr] for arr in (y, spare))
    y_star = None if x_star is None else spec.forward(x_star.data, scaled=True)
    forms = None
    if full_a is not None:
        if full_a.dims != problems[0].a_tilde.dims:
            raise ValueError(f"full A dims {full_a.dims} inconsistent with A dims {problems[0].a_tilde.dims}")
        distinct = list({id(prob.b): prob.b for prob in problems}.values())
        forms = dict(zip(map(id, distinct), _objective_forms(full_a, distinct, spec)))

    record_at = {0, T} | set(cfg0.also_record)
    traces = [RunTrace() for _ in problems]

    def record(t: int, g: Optional[np.ndarray]) -> None:
        for r, (prob, trace) in enumerate(zip(problems, traces)):
            alpha, update = (None, None) if g is None else (float(alphas[t - 1, r]), _norm(_flat(g[r])))
            err = None if y_star is None else _norm(_flat(y[r] - y_star))
            obj = None if forms is None else forms[id(prob.b)](y[r])
            trace.records.append(TraceRecord(t, alpha, update, err, obj))

    record(0, None)
    for rows in tn.row_chunks(T):
        a_chunk, pb_chunk = row_spectra(runs, [source(rows) for source in sources], spec)
        chunk = _row_terms(a_chunk, pb_chunk, alphas[rows], coeffs)
        for k, terms in enumerate(zip(*chunk)):
            t = rows.start + k + 1
            traced = t in record_at or t % cfg0.trace_every == 0
            # the trace's g is the kernel's, on the iterate before the step
            g = _row_gradient(a_chunk[k], pb_chunk[k], y, coeffs, spec) if traced else None
            if _apply(terms, y_views, y_views if in_place else spare_views, coeffs) is spare:
                y, spare, y_views, spare_views, y_flat, spare_flat = spare, y, spare_views, y_views, spare_flat, y_flat
            if radius is not None:
                for flat in y_flat:
                    _project(flat, radius)

            if traced:
                record(t, g)
        # free this chunk's spectra and terms (and the row views of them) before the next chunk's are built
        del a_chunk, pb_chunk, chunk, terms

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
