"""Convergence constants and error bounds for the masked SGD iteration.

All quantities are worst-case bounds tied to one problem instance:

* gradient second moment  G  >= E ||g(X)||^2 over the ball ||X|| <= R,
* solution second moment  G* >= E ||g(X*)||^2,
* Lipschitz constant      L_g = n a_max^2 / p^2 for the update direction,
* strong convexity        mu = sigma_min^2 / m of the objective, where
  sigma_min is the smallest singular value over the frontal slices of the
  tube-DFT of A (equivalently, of the block-circulant matrix),
* fixed-step contraction  r = 1 - 2 alpha mu (1 - alpha L_g), the error
  floor ("horizon") alpha G* / (mu (1 - alpha L_g)), and the envelope
  r^t e0 + horizon on the mean squared error at iteration t,
* decaying-step objective bound (K^2/c + c G)(2 + log t)/sqrt(t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

import numpy as np

from . import tensor as tn
from .masking import check_p, check_positive
from .tensor import Tensor3

__all__ = [
    "row_norms",
    "max_row_norm",
    "gradient_second_moment_bound",
    "solution_second_moment_bound",
    "lipschitz_constant",
    "strong_convexity",
    "contraction_ratio",
    "horizon_bound",
    "fixed_step_envelope",
    "decay_bound",
    "BoundReport",
    "compute_bound_report",
]


def row_norms(t: Tensor3) -> np.ndarray:
    """Frobenius norm of every row slice, as a length-m vector."""
    return np.sqrt(np.einsum("kij,kij->i", t.data, t.data))


def max_row_norm(t: Tensor3) -> float:
    return float(np.max(row_norms(t)))


def gradient_second_moment_bound(a: Tensor3, b: Tensor3, radius: float, p: float) -> float:
    """G: three-term bound on E ||g(X)||^2 over the ball of the given radius.

    G = (4 n^2 R^2 / p^3 m) sum_i ||A_i||^4
      + (4 n^{3/2} R / p^2 m) sum_i ||A_i||^3 ||B_i||
      + (2 n / p^2 m) sum_i ||A_i||^2 ||B_i||^2;

    the first term is G* (:func:`solution_second_moment_bound`).  A B
    without A's rows and tube length raises a ValueError.
    """
    tn.check_system(a, b)
    an = row_norms(a)
    g_star = _solution_second_moment(an, a.n, radius, p)
    return _gradient_second_moment(an, row_norms(b), a.n, radius, p, g_star)


def solution_second_moment_bound(a: Tensor3, radius: float, p: float) -> float:
    """G*: bound on E ||g(X*)||^2; only the fourth-power term survives."""
    return _solution_second_moment(row_norms(a), a.n, radius, p)


def lipschitz_constant(a: Tensor3, p: float) -> float:
    """L_g = n a_max^2 / p^2, a_max the largest row-slice norm."""
    check_p(p)
    return _lipschitz(max_row_norm(a), a.n, p)


# The constants above, computed from the row norms ``an`` of A and ``bn`` of B (m = an.size) so that
# compute_bound_report takes each tensor's norms once.  The first checks p and radius.


def _solution_second_moment(an: np.ndarray, n: int, radius: float, p: float) -> float:
    check_p(p)
    check_positive("radius", radius)
    return 4.0 * n**2 * radius**2 / (p**3 * an.size) * float(np.sum(an**4))


def _gradient_second_moment(an: np.ndarray, bn: np.ndarray, n: int, radius: float, p: float, g_star: float) -> float:
    m = an.size
    term2 = 4.0 * n**1.5 * radius / (p**2 * m) * float(np.sum(an**3 * bn))
    term3 = 2.0 * n / (p**2 * m) * float(np.sum(an**2 * bn**2))
    return g_star + term2 + term3


def _lipschitz(a_max: float, n: int, p: float) -> float:
    return n * a_max**2 / (p * p)


def strong_convexity(a: Tensor3) -> tuple[float, float]:
    """(mu, sigma_min) with mu = sigma_min^2 / m.

    sigma_min is the smallest singular value over all frontal slices of the
    tube-DFT of A, obtained from the smallest eigenvalue of each slice's
    Hermitian Gram matrix.  Conjugate frequencies share their singular
    values, so only the n//2+1 Grams of the real transform are solved.
    Requires a tall tensor (m >= l).
    """
    m, l, _ = a.dims
    if m < l:
        raise ValueError(f"need a tall tensor (m >= l), got dims {a.dims}")
    smallest_eig = float(np.min(np.linalg.eigvalsh(tn.tube_gram(a.data))[:, 0]))
    smallest = math.sqrt(max(smallest_eig, 0.0))
    return smallest**2 / m, smallest


def _check_step(alpha: float, lipschitz: float, what: str) -> None:
    """Refuse a step size that is not positive or not below 1/L_g; with L_g = 0 every positive one is below it."""
    check_positive("step size", alpha)
    if lipschitz > 0.0 and alpha >= 1.0 / lipschitz:
        raise ValueError(f"step size too large: alpha={alpha} but the {what} needs alpha < {1.0 / lipschitz}")


def contraction_ratio(alpha: float, mu: float, lipschitz: float) -> float:
    """r = 1 - 2 alpha mu (1 - alpha L_g); requires alpha < 1/L_g.

    If the configuration makes r nonpositive the value is clamped to 0 with
    a warning: the per-step bound is vacuous there but simulation may still
    be wanted.
    """
    _check_step(alpha, lipschitz, "contraction")
    r = 1.0 - 2.0 * alpha * mu * (1.0 - alpha * lipschitz)
    if r <= 0.0:
        warnings.warn(
            f"contraction ratio {r} is nonpositive; clamping to 0 (bound is vacuous)",
            stacklevel=2,
        )
        return 0.0
    return r


def horizon_bound(alpha: float, mu: float, lipschitz: float, solution_second_moment: float) -> float:
    """Fixed-step error floor alpha G* / (mu (1 - alpha L_g))."""
    _check_step(alpha, lipschitz, "horizon")
    check_positive("strong convexity constant", mu)
    return alpha * solution_second_moment / (mu * (1.0 - alpha * lipschitz))


def fixed_step_envelope(t: int, contraction: float, e0: float, horizon: float) -> float:
    """r^t e0 + horizon: the fixed-step bound on E ||X_t - X*||^2 at iteration t.

    The paper's fixed-step result: under a constant step alpha < 1/L_g the
    mean squared error contracts by r = 1 - 2 alpha mu (1 - alpha L_g) per
    step, down to the horizon alpha G* / (mu (1 - alpha L_g)), so
    E ||X_t - X*||^2 <= r^t e0 + horizon with e0 = ||X_0 - X*||^2.  r and
    the horizon are :func:`contraction_ratio` and :func:`horizon_bound`.
    """
    if t < 0:
        raise ValueError(f"iteration must be >= 0, got {t}")
    return contraction**t * e0 + horizon


def decay_bound(t: int, diameter: float, step_const: float, second_moment: float) -> float:
    """(K^2/c + c G)(2 + log t)/sqrt(t) for step sizes c/sqrt(t); natural log."""
    if t < 1:
        raise ValueError(f"iteration must be >= 1, got {t}")
    check_positive("step constant", step_const)
    return (diameter**2 / step_const + step_const * second_moment) * (2.0 + math.log(t)) / math.sqrt(t)


@dataclass(frozen=True)
class BoundReport:
    """Every constant for one instance, one step size, and one ball radius.

    ``contraction`` and ``horizon`` are NaN when no step size was supplied.
    The CSV columns and the ``key=value`` lines follow the field order.
    """

    gradient_second_moment: float
    solution_second_moment: float
    lipschitz: float
    strong_convexity: float
    sigma_min: float
    contraction: float
    horizon: float
    diameter: float
    radius: float
    max_row_norm: float

    CSV_HEADER: ClassVar[str]  # the field names, comma-separated; set below the class

    def to_kv_text(self) -> str:
        return "\n".join(f"{f.name}={getattr(self, f.name):.17g}" for f in fields(self))

    def to_csv_row(self) -> str:
        return ",".join(f"{getattr(self, f.name):.17g}" for f in fields(self))


BoundReport.CSV_HEADER = ",".join(f.name for f in fields(BoundReport))


def compute_bound_report(
    a: Tensor3, b: Tensor3, radius: float, p: float, alpha: Optional[float] = None
) -> BoundReport:
    """Evaluate every constant for the instance; diameter K = 2 * radius.

    The row norms of A and of B are taken once and shared by G, G*, L_g and
    a_max; each field equals its public function's value bit for bit, and bad
    input raises the error that function raises.
    """
    tn.check_system(a, b)
    an = row_norms(a)
    g_star = _solution_second_moment(an, a.n, radius, p)
    g = _gradient_second_moment(an, row_norms(b), a.n, radius, p, g_star)
    a_max = float(np.max(an))
    lg = _lipschitz(a_max, a.n, p)
    mu, sigma_min = strong_convexity(a)
    if alpha is None:
        r, horizon = math.nan, math.nan
    else:
        r = contraction_ratio(alpha, mu, lg)
        horizon = horizon_bound(alpha, mu, lg, g_star)
    return BoundReport(
        gradient_second_moment=g,
        solution_second_moment=g_star,
        lipschitz=lg,
        strong_convexity=mu,
        sigma_min=sigma_min,
        contraction=r,
        horizon=horizon,
        diameter=2.0 * radius,
        radius=radius,
        max_row_norm=a_max,
    )
