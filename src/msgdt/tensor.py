"""Dense third-order tensors and the t-product algebra built on them.

A third-order tensor of shape m x l x n (rows, columns, frontal slices) is
stored frontal-slice-major: ``data`` is a C-contiguous float64 array of shape
``(n, m, l)``, so entry (i, j, k) lives at ``data[k, i, j]`` and ``unfold`` is
a plain reshape.  Zero-based indices throughout.

The t-product A * X is fold(bcirc(A) @ unfold(X)), computed here as a
circular convolution over frontal slices without materializing the
block-circulant matrix; ``bcirc`` exists so tests can check the two routes
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor3",
    "zeros",
    "ones",
    "identity_tensor",
    "from_slices",
    "unfold",
    "fold",
    "bcirc",
    "tprod",
    "transpose",
    "is_hermitian",
    "inner",
    "frob_norm",
    "hadamard",
    "row_slice",
    "tube_dft",
    "tube_idft",
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

    def slice(self, k: int) -> np.ndarray:
        """Frontal slice k as an m x l array (copy)."""
        return self.data[k].copy()

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


def identity_tensor(l: int, n: int) -> Tensor3:
    """l x l x n identity of the t-product: slice 0 is I, the rest are zero."""
    data = np.zeros((n, l, l))
    data[0] = np.eye(l)
    return Tensor3(data)


def from_slices(slices) -> Tensor3:
    """Stack equally-sized m x l matrices as frontal slices 0..n-1."""
    return Tensor3(np.stack([np.asarray(s, dtype=np.float64) for s in slices]))


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


def _tprod_data(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Circular convolution over frontal slices on raw (n, ., .) arrays.

    out[k] = sum_j a[(k - j) mod n] @ x[j].
    """
    n = a.shape[0]
    if n == 1:
        return a[0] @ x
    out = np.zeros((n, a.shape[1], x.shape[2]))
    for s in range(n):
        contrib = a[s] @ x  # batched over the slices of x
        out[s:] += contrib[: n - s]
        if s:
            out[:s] += contrib[n - s :]
    return out


def tprod(a: Tensor3, x: Tensor3) -> Tensor3:
    """t-product a * x of an m x l x n tensor with an l x q x n tensor."""
    if a.l != x.m or a.n != x.n:
        raise ValueError(f"t-product dimension mismatch: {a.dims} * {x.dims}")
    return Tensor3(_tprod_data(a.data, x.data))


def _transpose_data(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    order = (-np.arange(n)) % n  # 0, n-1, ..., 1
    return np.ascontiguousarray(arr.transpose(0, 2, 1)[order])


def transpose(t: Tensor3) -> Tensor3:
    """t-transpose: every slice transposed, slices 1..n-1 reversed in order."""
    return Tensor3(_transpose_data(t.data))


def is_hermitian(t: Tensor3, tol: float = 0.0) -> bool:
    """True iff t equals its t-transpose up to max-abs deviation ``tol``."""
    if t.m != t.l:
        raise ValueError(f"hermitian check needs square slices, got dims {t.dims}")
    return float(np.max(np.abs(t.data - _transpose_data(t.data)))) <= tol


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


def row_slice(t: Tensor3, i: int) -> Tensor3:
    """Row slice i as a 1 x l x n tensor (copy)."""
    if not 0 <= i < t.m:
        raise ValueError(f"row index {i} out of range for m={t.m}")
    return Tensor3(t.data[:, i : i + 1, :].copy())


def tube_dft(t: Tensor3) -> np.ndarray:
    """Unnormalized DFT applied down every length-n tube, as a complex (n, m, l) array."""
    return np.fft.fft(t.data, axis=0)


def tube_idft(hat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`tube_dft` on a complex (n, m, l) array."""
    return np.fft.ifft(hat, axis=0)


# --- T3F1 binary tensor format ------------------------------------------
#
# bytes 0-3: magic "T3F1"; then m, l, n as little-endian uint64; then the
# m*l*n entries as little-endian float64 in frontal-slice-major, row-major
# order (exactly the memory order of Tensor3.data).

_T3F1_MAGIC = b"T3F1"


def write_t3f1(t: Tensor3, path) -> None:
    m, l, n = t.dims
    header = _T3F1_MAGIC + np.array([m, l, n], dtype="<u8").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(t.data.astype("<f8").tobytes())


def read_t3f1(path) -> Tensor3:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _T3F1_MAGIC:
        raise ValueError(f"{path}: not a T3F1 file (bad magic {raw[:4]!r})")
    if len(raw) < 4 + 24:
        raise ValueError(f"{path}: truncated T3F1 header")
    m, l, n = (int(v) for v in np.frombuffer(raw[4:28], dtype="<u8"))
    expected = 28 + 8 * m * l * n
    if len(raw) != expected:
        raise ValueError(
            f"{path}: T3F1 payload has {len(raw) - 28} bytes, expected {8 * m * l * n}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=28).reshape(n, m, l)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: T3F1 payload holds non-finite values")
    return Tensor3(data.copy())
