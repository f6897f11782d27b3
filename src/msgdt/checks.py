"""Verification routines: enumeration and Monte Carlo checks of the update
direction's contracts.

These drive both the ``verify`` CLI subcommand and the test suite.  Each
routine returns plain numbers so callers decide what tolerance to enforce:

* exact (row x mask)-enumerated mean of g against the full gradient,
* empirical Lipschitz ratios against n a_max^2 / p^2,
* sample means of ||g||^2 against the second-moment bounds,
* self-adjointness of the linear part of g,
* the strong convexity inequality for the objective.

Every check of g runs on the solver's row path: ``_row_gradient``, the
row operator the iteration steps with, built and applied without step
sizes, on tube spectra.  Each fixed iterate is transformed once, norms and
inner products are taken on scaled spectra (Parseval), and a result is
transformed back once, not per draw; the linear part M of g is g at B = 0.
The (row, mask) pairs, enumerated or drawn, go one
:func:`~msgdt.tensor.row_chunks` slice at a time: each chunk's rows of A
and B are masked and transformed by :func:`msgdt.solver.row_spectra` and
sent through one ``_row_gradient`` call with a leading draw axis.  The
generator is consumed draw by draw as one draw at a time would consume it,
and the per-draw terms are summed or compared in draw order, so results and
the generator state afterwards do not depend on the chunking, and memory
per call does not grow with the number of trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .bounds import lipschitz_constant
from .masking import MissingModel, check_trials, draw_rows, unit_map
from .oracle import enumerate_row_masks, full_gradient
from .solver import _row_gradient, objective, row_spectra
from .tensor import Tensor3

__all__ = [
    "enumerated_gradient_mean",
    "unbiasedness_relative_error",
    "lipschitz_ratio_max",
    "SecondMomentSample",
    "second_moment_sample",
    "self_adjointness_max_dev",
    "strong_convexity_margin",
]


def enumerated_gradient_mean(a: Tensor3, b: Tensor3, x: Tensor3, model: MissingModel) -> Tensor3:
    """Exact E[g(X)]: average over all rows and all mask configurations."""
    tn.check_system(a, b, x)
    m, l, n = a.dims
    spec = tn.tube_spectrum(n)
    yhat = spec.forward(x.data, scaled=True)
    masks, probs = zip(*enumerate_row_masks(model, l, n))
    umap, units = unit_map(model, l, n)
    keep = np.empty((len(masks), units), dtype=np.bool_)
    keep[:, umap] = np.array(masks) == 1.0  # each mask's unit draw
    acc = np.zeros_like(yhat)
    for pairs in tn.row_chunks(m * len(masks)):  # pair k: row k // len(masks) under mask k % len(masks)
        row, config = np.divmod(np.arange(pairs.start, pairs.stop), len(masks))
        ahat, pbhat = row_spectra([(a, b, model)], [(row, keep[config])], spec)
        g = _row_gradient(ahat[:, 0], pbhat[:, 0], np.broadcast_to(yhat, (len(row),) + yhat.shape), model, spec)
        for k, g_pair in zip(config, g):
            acc += probs[k] * g_pair
    return Tensor3(spec.inverse(acc / m, scaled=True))


def unbiasedness_relative_error(a: Tensor3, b: Tensor3, x: Tensor3, model: MissingModel) -> float:
    """Max-entry gap between the enumerated mean of g and the full gradient,
    relative to the gradient's largest entry."""
    mean = enumerated_gradient_mean(a, b, x, model)
    grad = full_gradient(a, b, x)
    scale = float(np.max(np.abs(grad.data)))
    gap = float(np.max(np.abs(mean.data - grad.data)))
    if scale == 0.0:
        return gap
    return gap / scale


def _drawn_pairs(a: Tensor3, b: Tensor3, model: MissingModel, trials: int, rng: np.random.Generator):
    """Per :func:`~msgdt.tensor.row_chunks` slice of ``trials``: (xy, xyhat, g), one trial per leading index.

    Trial by trial the generator gives a row index, its row's unit draw,
    then X and Y of B's shape; ``xy`` stacks them (count, 2, n, l, q),
    ``xyhat`` holds their scaled spectra and ``g`` those of g(X) and g(Y),
    from one ``_row_gradient`` call per slice.
    """
    check_trials(trials)
    m, l, n = a.dims
    spec = tn.tube_spectrum(n)
    units = unit_map(model, l, n)[1]
    for draws in tn.row_chunks(trials):
        count = draws.stop - draws.start
        idx = np.empty(count, dtype=np.intp)
        variates = np.empty((count, units))
        xy = np.empty((count, 2, n, l, b.l))
        for k in range(count):  # trial by trial: the row, its mask, then X and Y
            idx[k] = rng.integers(m)
            rng.random(out=variates[k])
            rng.standard_normal(out=xy[k])
        ahat, pbhat = row_spectra([(a, b, model)], [(idx, variates < model.p)], spec)
        xyhat = spec.forward(xy, axis=2, scaled=True)
        yield xy, xyhat, _row_gradient(np.broadcast_to(ahat, xyhat.shape[:-1]), pbhat, xyhat, model, spec)


def lipschitz_ratio_max(
    a: Tensor3, b: Tensor3, model: MissingModel, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(max empirical ratio, bound): ratios ||g(X)-g(Y)|| / ||X-Y|| over
    random rows, masks, and iterate pairs, against n a_max^2 / p^2."""
    tn.check_system(a, b)
    worst = 0.0
    for xy, _, g in _drawn_pairs(a, b, model, trials, rng):
        count = len(xy)
        # the norms linalg.norm takes, one call per chunk: the dot of the real X - Y, and the dots of the
        # real and the imaginary parts of the complex g(X) - g(Y)
        dx = (xy[:, 0] - xy[:, 1]).reshape(count, -1)
        dg = (g[:, 0] - g[:, 1]).reshape(count, -1)
        denom = np.sqrt(np.vecdot(dx, dx))
        numer = np.sqrt(np.vecdot(dg.real, dg.real) + np.vecdot(dg.imag, dg.imag))
        kept = denom != 0.0
        worst = max([worst] + (numer[kept] / denom[kept]).tolist())  # in trial order, as a running max
    return worst, lipschitz_constant(a, model.p)


@dataclass(frozen=True)
class SecondMomentSample:
    mean_sq_norm: float
    trials: int


def second_moment_sample(
    a: Tensor3, b: Tensor3, x: Tensor3, model: MissingModel, trials: int, rng: np.random.Generator
) -> SecondMomentSample:
    """Sample mean of ||g(X)||^2 over (row, mask) draws at a fixed X."""
    tn.check_system(a, b, x)
    check_trials(trials)
    m, l, n = a.dims
    spec = tn.tube_spectrum(n)
    yhat = spec.forward(x.data, scaled=True)
    total = 0.0
    for draws in tn.row_chunks(trials):
        count = draws.stop - draws.start
        ahat, pbhat = row_spectra([(a, b, model)], [draw_rows(model, m, l, n, count, rng)], spec)
        g = _row_gradient(ahat[:, 0], pbhat[:, 0], np.broadcast_to(yhat, (count,) + yhat.shape), model, spec)
        flat = g.reshape(count, -1)
        for sq_norm in np.vecdot(flat, flat).real.tolist():  # summed in draw order
            total += sq_norm
    return SecondMomentSample(total / trials, trials)


def self_adjointness_max_dev(
    a: Tensor3, b_cols: int, model: MissingModel, trials: int, rng: np.random.Generator
) -> float:
    """Max relative gap |<M*X, Y> - <X, M*Y>| for the linear part M of g.

    M X is g(X) at B = 0; the inner products are taken on scaled spectra.
    """
    m, _, n = a.dims
    worst = 0.0
    for _, xyhat, g in _drawn_pairs(a, tn.zeros(m, b_cols, n), model, trials, rng):
        xy, mxy = (v.reshape(len(v), 2, -1) for v in (xyhat, g))
        lhs, rhs = np.vecdot(mxy[:, 0], xy[:, 1]).real, np.vecdot(xy[:, 0], mxy[:, 1]).real
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


def strong_convexity_margin(
    a: Tensor3, b: Tensor3, mu: float, pairs: int, rng: np.random.Generator
) -> float:
    """Smallest slack of F(Y) - F(X) - <grad F(X), Y-X> - (mu/2)||Y-X||^2
    over random pairs; negative values violate the inequality."""
    check_trials(pairs)
    _, l, n = a.dims
    q = b.l
    margin = np.inf
    for _ in range(pairs):
        x = Tensor3(rng.standard_normal((n, l, q)))
        y = Tensor3(rng.standard_normal((n, l, q)))
        grad = full_gradient(a, b, x)
        gap = (
            objective(a, b, y)
            - objective(a, b, x)
            - tn.inner(grad, y - x)
            - 0.5 * mu * tn.frob_norm(y - x) ** 2
        )
        margin = min(margin, gap)
    return float(margin)
