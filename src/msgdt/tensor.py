"""Dense third-order tensors and the t-product algebra built on them.

A third-order tensor of shape m x l x n (rows, columns, frontal slices) is
stored frontal-slice-major: ``data`` is a C-contiguous float64 array of shape
``(n, m, l)``, so entry (i, j, k) lives at ``data[k, i, j]`` and the mn x l
unfolding is a plain reshape.  Zero-based indices throughout.

The t-product A * X is fold(bcirc(A) @ unfold(X)).  The tube DFT
block-diagonalizes bcirc (Kilmer & Martin, Linear Algebra Appl. 435, 2011),
so it is computed in the real tube-Fourier domain: ``rfft`` down every tube
keeps the n//2+1 nonnegative frequencies of a real tensor, each frequency
is one matrix product, and ``irfft`` brings the result back.
:func:`msgdt.oracle.bcirc` materializes the block-circulant matrix so tests
can check the two routes against each other.  ``tube_spectrum(n)`` is the
one helper for the real transform: the rfft and its inverse and the
Parseval scaling.  ``row_chunks(count)`` is the one chunk policy for row
slices: every routine that transforms, masks or draws rows takes them at
most 256 at a time, so transient arrays stay a fixed size however many rows
there are.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = [
    "Tensor3",
    "zeros",
    "ones",
    "tprod",
    "transpose",
    "inner",
    "frob_norm",
    "hadamard",
    "TubeSpectrum",
    "tube_spectrum",
    "tube_gram",
    "row_chunks",
    "read_t3f1",
    "write_t3f1",
]


@dataclass(frozen=True, eq=False)
class Tensor3:
    """Real third-order tensor with ``data`` of shape (n, m, l).

    ``data[k]`` is the k-th frontal slice as an m x l matrix.  Treat
    instances as immutable: operations return new tensors.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"Tensor3 data must be 3-d, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[1]

    @property
    def l(self) -> int:
        return self.data.shape[2]

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(m, l, n) = (rows, columns, frontal slices)."""
        n, m, l = self.data.shape
        return (m, l, n)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        _require_same_dims(self, other, "add")
        return Tensor3(self.data + other.data)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        _require_same_dims(self, other, "subtract")
        return Tensor3(self.data - other.data)

    def __mul__(self, scalar: float) -> "Tensor3":
        return Tensor3(self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor3":
        return Tensor3(-self.data)

    def __repr__(self) -> str:
        m, l, n = self.dims
        return f"Tensor3(m={m}, l={l}, n={n})"


def _require_same_dims(a: Tensor3, b: Tensor3, what: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"cannot {what} tensors of dims {a.dims} and {b.dims}")


def zeros(m: int, l: int, n: int) -> Tensor3:
    return Tensor3(np.zeros((n, m, l)))


def ones(m: int, l: int, n: int) -> Tensor3:
    return Tensor3(np.ones((n, m, l)))


_ROW_CHUNK = 256


def row_chunks(count: int) -> list[slice]:
    """Consecutive slices of at most 256 rows that cover ``range(count)``, in order."""
    return [slice(start, min(start + _ROW_CHUNK, count)) for start in range(0, count, _ROW_CHUNK)]


def _tprod_data(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """t-product on raw (n, m, l) and (n, l, q) arrays, frequency by frequency.

    out = irfft(rfft(a) @ rfft(x)) along the tubes, with ``a`` taken one
    :func:`row_chunks` slice at a time.
    """
    n = a.shape[0]
    spec = tube_spectrum(n)
    xhat = spec.forward(x)
    out = np.empty((n, a.shape[1], x.shape[2]))
    for rows in row_chunks(a.shape[1]):
        out[:, rows] = spec.inverse(spec.forward(a[:, rows]) @ xhat)
    return out


def tprod(a: Tensor3, x: Tensor3) -> Tensor3:
    """t-product a * x of an m x l x n tensor with an l x q x n tensor."""
    if a.l != x.m or a.n != x.n:
        raise ValueError(f"t-product dimension mismatch: {a.dims} * {x.dims}")
    return Tensor3(_tprod_data(a.data, x.data))


def transpose(t: Tensor3) -> Tensor3:
    """t-transpose: every slice transposed, slices 1..n-1 reversed in order."""
    order = (-np.arange(t.n)) % t.n  # 0, n-1, ..., 1
    return Tensor3(t.data.transpose(0, 2, 1)[order])


def inner(a: Tensor3, b: Tensor3) -> float:
    """Sum of element-wise products."""
    _require_same_dims(a, b, "take inner product of")
    return float(np.vdot(a.data, b.data))


def frob_norm(t: Tensor3) -> float:
    return float(np.linalg.norm(t.data))


def hadamard(a: Tensor3, b: Tensor3) -> Tensor3:
    """Element-wise product."""
    _require_same_dims(a, b, "multiply")
    return Tensor3(a.data * b.data)


@dataclass(frozen=True, eq=False)
class TubeSpectrum:
    """The real DFT of length-n tubes: frequencies 0..n//2 of a real tube.

    ``forward``/``inverse`` are ``rfft``/``irfft`` along one axis.  With
    ``scaled=True`` frequency f is multiplied by ``scale[f] = sqrt(w_f / n)``,
    where w_f is 1 at DC and at the Nyquist frequency (even n) and 2
    elsewhere; then the complex Frobenius norm of a scaled spectrum equals the
    real norm of the tensor (Parseval), and inner products carry over the same
    way.  ``weights = scale**2`` are those Parseval weights.
    """

    n: int
    scale: np.ndarray
    weights: np.ndarray

    def _along(self, vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
        return vec.reshape((-1,) + (1,) * (ndim - 1 - axis % ndim))

    def forward(self, data: np.ndarray, axis: int = 0, scaled: bool = False) -> np.ndarray:
        """rfft of real ``data`` along ``axis`` (length n there, n//2+1 after)."""
        hat = np.fft.rfft(data, axis=axis)
        if scaled:
            hat *= self._along(self.scale, hat.ndim, axis)
        return hat

    def inverse(self, hat: np.ndarray, scaled: bool = False) -> np.ndarray:
        """Real array whose :meth:`forward` along axis 0 (with the same ``scaled``) is ``hat``."""
        if scaled:
            hat = hat / self._along(self.scale, hat.ndim, 0)
        return np.fft.irfft(hat, n=self.n, axis=0)


@lru_cache(maxsize=64)
def tube_spectrum(n: int) -> TubeSpectrum:
    """The shared, read-only :class:`TubeSpectrum` for tubes of length n."""
    if n < 1:
        raise ValueError(f"tube length must be positive, got {n}")
    freqs = n // 2 + 1
    weights = np.full(freqs, 2.0 / n)
    weights[0] = 1.0 / n
    if n % 2 == 0:
        weights[-1] = 1.0 / n
    scale = np.sqrt(weights)
    for arr in (scale, weights):
        arr.setflags(write=False)
    return TubeSpectrum(n, scale, weights)


def tube_gram(data: np.ndarray, b: Optional[np.ndarray] = None):
    """Gram matrices conj(Ahat_f)^T Ahat_f of an (n, m, l) array at frequencies 0..n//2.

    The (n//2+1, l, l) complex Hermitian result is the spectrum of A* * A.
    Given ``b``, an (..., n, m, q) array whose leading axes stack several
    B, the same pass also forms the cross terms conj(Ahat_f)^T Bhat_f, the
    (..., n//2+1, l, q) spectrum of A* * B, and returns (gram, cross).  The
    rows of A and B are transformed one :func:`row_chunks` slice at a time.
    """
    n, m, l = data.shape
    spec = tube_spectrum(n)
    gram = np.zeros((n // 2 + 1, l, l), dtype=np.complex128)
    cross = None if b is None else np.zeros(b.shape[:-3] + gram.shape[:2] + b.shape[-1:], dtype=np.complex128)
    for rows in row_chunks(m):
        hat = spec.forward(data[:, rows])
        adj = hat.conj().transpose(0, 2, 1)
        gram += adj @ hat
        if cross is not None:
            cross += adj @ spec.forward(b[..., rows, :], axis=-3)
    return gram if cross is None else (gram, cross)


# --- T3F1 binary tensor format ------------------------------------------
#
# bytes 0-3: magic "T3F1"; then m, l, n as little-endian uint64; then the
# m*l*n entries as little-endian float64 in frontal-slice-major, row-major
# order (exactly the memory order of Tensor3.data).

_T3F1_MAGIC = b"T3F1"


def write_t3f1(t: Tensor3, path) -> None:
    """Write ``t`` as T3F1 straight from its array (the payload is not copied).

    Non-finite data is refused before the file is opened, so every file
    written here is one :func:`read_t3f1` accepts.
    """
    if not np.isfinite(t.data).all():
        raise ValueError(f"{path}: refusing to write non-finite values to a T3F1 file")
    m, l, n = t.dims
    header = _T3F1_MAGIC + np.array([m, l, n], dtype="<u8").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(memoryview(np.asarray(t.data, "<f8")))


def read_t3f1(path) -> Tensor3:
    """Read a T3F1 file into one preallocated array (the payload is not copied)."""
    with open(path, "rb") as f:
        header = f.read(28)
        if header[:4] != _T3F1_MAGIC:
            raise ValueError(f"{path}: not a T3F1 file (bad magic {header[:4]!r})")
        if len(header) < 28:
            raise ValueError(f"{path}: truncated T3F1 header")
        m, l, n = (int(v) for v in np.frombuffer(header[4:], dtype="<u8"))
        payload = os.fstat(f.fileno()).st_size - 28
        if payload != 8 * m * l * n:
            raise ValueError(f"{path}: T3F1 payload has {payload} bytes, expected {8 * m * l * n}")
        data = np.empty((n, m, l), dtype="<f8")
        got = f.readinto(data.reshape(-1).view(np.uint8))
        if got != payload:
            raise ValueError(f"{path}: T3F1 payload has {got} bytes, expected {payload}")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: T3F1 payload holds non-finite values")
    return Tensor3(data)
