"""Verification routines: enumeration and Monte Carlo checks of the update
direction's contracts.

These drive both the ``verify`` CLI subcommand and the test suite.  Each
routine returns plain numbers so callers decide what tolerance to enforce:

* exact (row x mask)-enumerated mean of g against the full gradient,
* empirical Lipschitz ratios against n a_max^2 / p^2,
* sample means of ||g||^2 against the second-moment bounds,
* self-adjointness of the linear part of g,
* the strong convexity inequality for the objective.
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
    enumerate_row_masks,
    verify_expectation_identity,
)
from .solver import _row_gradient, full_gradient, objective, update_linear_part
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


def enumerated_gradient_mean(a: Tensor3, b: Tensor3, x: Tensor3, model: MissingModel) -> Tensor3:
    """Exact E[g(X)]: average over all rows and all mask configurations."""
    m, l, n = a.dims
    acc = np.zeros_like(x.data)
    for i in range(m):
        arow = a.data[:, i, :]
        brow = b.data[:, i, :]
        for mask, prob in enumerate_row_masks(model, l, n):
            acc += prob * _row_gradient(mask * arow, brow, x.data, model)
    return Tensor3(acc / m)


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
    _, l, n = a.dims
    q = b.l
    worst = 0.0
    for _ in range(trials):
        i, arow = draw_masked_row(model, a.data, rng)
        brow = b.data[:, i, :]
        x = rng.standard_normal((n, l, q))
        y = rng.standard_normal((n, l, q))
        gx = _row_gradient(arow, brow, x, model)
        gy = _row_gradient(arow, brow, y, model)
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
    total = 0.0
    for _ in range(trials):
        i, arow = draw_masked_row(model, a.data, rng)
        g = _row_gradient(arow, b.data[:, i, :], x.data, model)
        total += float(np.vdot(g, g))
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
