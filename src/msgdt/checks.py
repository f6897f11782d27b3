"""Verification routines: enumeration and Monte Carlo checks of the update
direction's contracts.

These drive both the ``verify`` CLI subcommand and the test suite.  Each
routine returns plain numbers so callers decide what tolerance to enforce:

* exact (row x mask)-enumerated mean of g against the full gradient,
* empirical Lipschitz ratios against n a_max^2 / p^2,
* sample means of ||g||^2 against the second-moment bounds,
* self-adjointness of the linear part of g,
* the strong convexity inequality for the objective.

The gradient checks call the solver's kernel on tube spectra: each fixed
iterate is transformed once, squared norms of g are taken on its scaled
spectrum (Parseval), and a result is transformed back once, not per draw.
The Monte Carlo checks take their (row, mask) draws ``tensor._ROW_CHUNK``
(256) at a time: one product with the DFT matrix transforms a chunk's
masked rows and one kernel call, with a leading draw axis, serves them all.
The generator is consumed draw by draw as one draw at a time would consume
it, and the per-draw norms are summed or compared in draw order, so results
and the generator state afterwards keep every bit, and memory per call does
not grow with the number of trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .bounds import lipschitz_constant
from .masking import (
    ExpectationReport,
    MissingModel,
    correction_tensor,
    draw_masked_row,
    draw_rows,
    masked_rows,
    unit_map,
    verify_expectation_identity,
)
from .oracle import enumerate_row_masks, full_gradient, update_linear_part
from .solver import _row_gradient, objective
from .tensor import Tensor3

__all__ = [
    "enumerated_gradient_mean",
    "unbiasedness_relative_error",
    "lipschitz_ratio_max",
    "SecondMomentSample",
    "second_moment_sample",
    "self_adjointness_max_dev",
    "strong_convexity_margin",
    "verify_expectation_identity_row",
]


def verify_expectation_identity_row(
    l: int, n: int, model: MissingModel, trials: int, rng: np.random.Generator
) -> ExpectationReport:
    """Identity check on a fresh Gaussian 1 x l x n row slice."""
    row = Tensor3(rng.standard_normal((n, 1, l)))
    return verify_expectation_identity(row, model, trials, rng)


def _row_spectra(data: np.ndarray, spec: tn.TubeSpectrum, p: float) -> np.ndarray:
    """Parseval-scaled spectra of p times every row slice of an (n, m, k) array, as (m, f, k): B's give ``pbhat``."""
    hat = spec.forward(data.transpose(1, 0, 2), axis=1, scaled=True)
    hat *= p
    return hat


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _chunk_sizes(trials: int) -> list[int]:
    """Draws per kernel call: ``tensor._ROW_CHUNK`` at a time, then what is left."""
    return [min(tn._ROW_CHUNK, trials - start) for start in range(0, trials, tn._ROW_CHUNK)]


def enumerated_gradient_mean(a: Tensor3, b: Tensor3, x: Tensor3, model: MissingModel) -> Tensor3:
    """Exact E[g(X)]: average over all rows and all mask configurations."""
    m, l, n = a.dims
    spec = tn.tube_spectrum(n)
    yhat = spec.forward(x.data, scaled=True)
    pb_hat = _row_spectra(b.data, spec, model.p)
    acc = np.zeros_like(yhat)
    for i in range(m):
        arow = a.data[:, i, :]
        for mask, prob in enumerate_row_masks(model, l, n):
            acc += prob * _row_gradient(spec.forward_small(mask * arow), pb_hat[i], yhat, model, spec)
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


def lipschitz_ratio_max(
    a: Tensor3, b: Tensor3, model: MissingModel, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(max empirical ratio, bound): ratios ||g(X)-g(Y)|| / ||X-Y|| over
    random rows, masks, and iterate pairs, against n a_max^2 / p^2."""
    _check_trials(trials)
    m, l, n = a.dims
    q = b.l
    spec = tn.tube_spectrum(n)
    pb_hat = _row_spectra(b.data, spec, model.p)
    units = unit_map(model, l, n)[1]
    worst = 0.0
    for count in _chunk_sizes(trials):
        idx = np.empty(count, dtype=np.intp)
        variates = np.empty((count, units))
        xy = np.empty((count, 2, n, l, q))
        for k in range(count):  # trial by trial: the row, its mask, then X and Y
            idx[k] = rng.integers(m)
            rng.random(out=variates[k])
            rng.standard_normal(out=xy[k])
        ahat = spec.matrix @ masked_rows(model, a.data, variates < model.p, idx)
        xyhat = (spec.matrix @ xy.reshape(count, 2, n, l * q) * spec.scale[:, None]).reshape(count, 2, -1, l, q)
        g = _row_gradient(
            np.broadcast_to(ahat[:, None], xyhat.shape[:-1]), pb_hat[idx, None], xyhat, model, spec
        )
        for (x, y), (gx, gy) in zip(xy, g):
            denom = float(np.linalg.norm(x - y))
            if denom == 0.0:
                continue
            worst = max(worst, float(np.linalg.norm(gx - gy)) / denom)
    return worst, lipschitz_constant(a, model.p)


@dataclass(frozen=True)
class SecondMomentSample:
    mean_sq_norm: float
    trials: int


def second_moment_sample(
    a: Tensor3, b: Tensor3, x: Tensor3, model: MissingModel, trials: int, rng: np.random.Generator
) -> SecondMomentSample:
    """Sample mean of ||g(X)||^2 over (row, mask) draws at a fixed X."""
    _check_trials(trials)
    m, l, n = a.dims
    spec = tn.tube_spectrum(n)
    yhat = spec.forward(x.data, scaled=True)
    pb_hat = _row_spectra(b.data, spec, model.p)
    total = 0.0
    for count in _chunk_sizes(trials):
        idx, keep = draw_rows(model, m, l, n, count, rng)
        ahat = spec.matrix @ masked_rows(model, a.data, keep, idx)
        g = _row_gradient(ahat, pb_hat[idx], np.broadcast_to(yhat, (count,) + yhat.shape), model, spec)
        for g_draw in g:  # summed in draw order
            total += float(np.vdot(g_draw, g_draw).real)
    return SecondMomentSample(total / trials, trials)


def self_adjointness_max_dev(
    a: Tensor3, b_cols: int, model: MissingModel, trials: int, rng: np.random.Generator
) -> float:
    """Max relative gap |<M*X, Y> - <X, M*Y>| for the linear part M of g."""
    _, l, n = a.dims
    c = correction_tensor(model, l, n)
    worst = 0.0
    for _ in range(trials):
        _, arow = draw_masked_row(model, a.data, rng)
        lin = update_linear_part(Tensor3(arow[:, None, :]), c, model.p)
        x = Tensor3(rng.standard_normal((n, l, b_cols)))
        y = Tensor3(rng.standard_normal((n, l, b_cols)))
        lhs = tn.inner(tn.tprod(lin, x), y)
        rhs = tn.inner(x, tn.tprod(lin, y))
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def strong_convexity_margin(
    a: Tensor3, b: Tensor3, mu: float, pairs: int, rng: np.random.Generator
) -> float:
    """Smallest slack of F(Y) - F(X) - <grad F(X), Y-X> - (mu/2)||Y-X||^2
    over random pairs; negative values violate the inequality."""
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
