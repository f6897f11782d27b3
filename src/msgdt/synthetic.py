"""Synthetic problem instances with a planted solution.

Entries of A and X* are i.i.d. standard normal, drawn from NumPy's PCG64
generator (ziggurat normal transform), so a fixed seed reproduces the
tensors bit for bit.  B is computed as A * X*, making the system exactly
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .tensor import Tensor3, tprod

__all__ = ["Dims", "SyntheticSystem", "gen_synthetic"]


@dataclass(frozen=True)
class Dims:
    """System dimensions: A is m x l x n, X is l x q x n, B is m x q x n."""

    m: int
    l: int
    q: int
    n: int

    def __post_init__(self):
        if min(self.m, self.l, self.q, self.n) < 1:
            raise ValueError(f"all dimensions must be positive, got {self}")

    @classmethod
    def parse(cls, text: str) -> "Dims":
        """Parse 'm,l,q,n'."""
        try:  # a wrong count fails the unpacking, a non-integer the int()
            m, l, q, n = (int(v) for v in text.split(","))
        except ValueError:
            raise ValueError(f"expected dims as m,l,q,n, got {text!r}") from None
        return cls(m, l, q, n)


@dataclass(frozen=True)
class SyntheticSystem:
    a: Tensor3
    x_star: Tensor3
    b: Tensor3


def gen_synthetic(dims: Dims, seed: Union[int, np.random.SeedSequence]) -> SyntheticSystem:
    """Gaussian A and X* with B = A * X* exactly."""
    rng = np.random.default_rng(seed)
    a = Tensor3(rng.standard_normal((dims.n, dims.m, dims.l)))
    x_star = Tensor3(rng.standard_normal((dims.n, dims.l, dims.q)))
    return SyntheticSystem(a=a, x_star=x_star, b=tprod(a, x_star))
