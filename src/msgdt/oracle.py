"""Dense reference constructions: the test oracles of the fast paths.

Each function here builds the paper's object literally, at a cost that
grows with the problem, so that tests and ``msgdt verify`` can hold the
fast code to it:

* ``bcirc``, ``unfold`` and ``fold``: the block-circulant definition of the
  t-product, A * X = fold(bcirc(A) @ unfold(X)), against :func:`~msgdt.tensor.tprod`;
* ``is_hermitian``: A equal to its t-transpose;
* ``enumerate_row_masks`` and ``exact_row_gram_expectation``: every mask of
  one row slice with its probability, and the exact expectation they give;
* ``gradient_estimate`` and ``update_linear_part``: the update direction
  g(X) by its dense formula with an explicit correction tensor C, against
  the solver's spectral kernel;
* ``full_gradient``: the full-data gradient that E[g(X)] must equal.

Nothing on the solve path imports this module; only :mod:`msgdt.checks`
and the tests do.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as tn
from .masking import MissingModel, _gram_sum, check_p, unit_map
from .tensor import Tensor3

__all__ = [
    "unfold",
    "fold",
    "bcirc",
    "is_hermitian",
    "enumerate_row_masks",
    "exact_row_gram_expectation",
    "gradient_estimate",
    "update_linear_part",
    "full_gradient",
]


def unfold(t: Tensor3) -> np.ndarray:
    """mn x l matrix stacking the frontal slices top to bottom."""
    n, m, l = t.data.shape
    return t.data.reshape(n * m, l).copy()


def fold(mat: np.ndarray, n: int) -> Tensor3:
    """Inverse of :func:`unfold` given the slice count n."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] % n != 0:
        raise ValueError(f"cannot fold matrix of shape {mat.shape} into {n} slices")
    m = mat.shape[0] // n
    return Tensor3(mat.reshape(n, m, mat.shape[1]))


def bcirc(t: Tensor3) -> np.ndarray:
    """mn x ln block-circulant matrix: block (r, c) is frontal slice (r - c) mod n.

    Materialized only for testing and small oracles; the t-product itself
    never builds it.
    """
    n, m, l = t.data.shape
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    blocks = t.data[idx]  # (n, n, m, l)
    return blocks.transpose(0, 2, 1, 3).reshape(n * m, n * l)


def is_hermitian(t: Tensor3, tol: float = 0.0) -> bool:
    """True iff t equals its t-transpose up to max-abs deviation ``tol``."""
    if t.m != t.l:
        raise ValueError(f"hermitian check needs square slices, got dims {t.dims}")
    return float(np.max(np.abs(t.data - tn.transpose(t).data))) <= tol


def enumerate_row_masks(model: MissingModel, l: int, n: int) -> Iterator[tuple[np.ndarray, float]]:
    """All possible masks of a single row slice with their probabilities.

    Yields (mask, prob) with mask of shape (n, l), in the bit order of the
    units of :func:`~msgdt.masking.unit_map`.  There are 2^(l*n)
    configurations for uniform, 2^(l/b) for column blocks and 2^n for
    frontal slices: keep the dims tiny.
    """
    umap, units = unit_map(model, l, n)
    p = model.p
    for config in range(2**units):
        bits = [(config >> u) & 1 for u in range(units)]
        ones = sum(bits)
        prob = p**ones * (1.0 - p) ** (units - ones)
        if prob == 0.0:
            continue
        yield np.array(bits, dtype=np.float64)[umap], prob


def exact_row_gram_expectation(a_row: Tensor3, model: MissingModel) -> Tensor3:
    """E_D[Atilde* * Atilde] for one 1 x l x n row slice, by exhaustive enumeration."""
    if a_row.m != 1:
        raise ValueError(f"expected a 1 x l x n row slice, got dims {a_row.dims}")
    row = a_row.data[:, 0, :]  # (n, l)
    acc = np.zeros((a_row.n, a_row.l, a_row.l))
    for mask, prob in enumerate_row_masks(model, a_row.l, a_row.n):
        acc += prob * _gram_sum((mask * row)[None])
    return Tensor3(acc)


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
    tn.check_system(a_row_tilde, b_row, x)
    lin = tn.tprod(update_linear_part(a_row_tilde, c, p), x)
    return lin - tn.tprod(tn.transpose(a_row_tilde), b_row) * (1.0 / p)


def update_linear_part(a_row_tilde: Tensor3, c: Tensor3, p: float) -> Tensor3:
    """The l x l x n tensor M with g(X) - g(Y) = M * (X - Y).

    M = (1/p^2) Atilde* * Atilde - ((1-p)/p^2) C o (Atilde* * Atilde); it is
    Hermitian whenever C is, which makes X -> M * X self-adjoint.
    """
    gram = tn.tprod(tn.transpose(a_row_tilde), a_row_tilde)
    return Tensor3(gram.data / (p * p) - ((1.0 - p) / (p * p)) * c.data * gram.data)


def full_gradient(full_a: Tensor3, b: Tensor3, x: Tensor3) -> Tensor3:
    """grad F(X) = (1/m) A* * (A * X - B)."""
    tn.check_system(full_a, b, x)
    residual = tn.tprod(full_a, x) - b
    return Tensor3(tn.tprod(tn.transpose(full_a), residual).data / full_a.m)
