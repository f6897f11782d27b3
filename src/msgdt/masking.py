"""Missing-data models, binary masks, and the matching correction tensors.

Three models for how entries of the data tensor A go missing, each with
observation probability p:

* uniform       - every entry kept independently,
* column block  - per row slice, blocks of b consecutive column slices are
                  kept or dropped together (b must divide l),
* frontal slice - per row slice, each frontal slice is kept or dropped whole.

A mask D is a 0/1 tensor; the observed data is Atilde = D o A.  Each model
has a Hermitian 0/1 correction tensor C marking the entries of
Atilde* * Atilde whose expectation carries a factor p instead of p^2:

    E_D[Atilde* * Atilde] = p^2 (A* * A) + (p - p^2) C o (A* * A).

The dense C is a test oracle: the solver applies each model's correction in
closed form.  ``check_p``, ``MODEL_KINDS`` and ``model_for`` are the one p
validator, table of model names and model constructor; ``unit_map`` is the
one definition of each model's independent units.

Masks are drawn from a seeded NumPy PCG64 generator; with a fixed seed the
draw is bit-reproducible.  Per-row draws consume generator state in
row-major order, one variate per unit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterator, Union

import numpy as np

from . import tensor as tn
from .tensor import Tensor3

__all__ = [
    "UniformMissing",
    "ColumnBlockMissing",
    "FrontalSliceMissing",
    "MissingModel",
    "check_p",
    "check_block",
    "MODEL_KINDS",
    "kind_fields",
    "model_for",
    "parse_model",
    "format_model",
    "unit_map",
    "draw_masked_row",
    "draw_mask",
    "correction_tensor",
    "enumerate_row_masks",
    "ExpectationReport",
    "verify_expectation_identity",
]


def check_p(p: float) -> None:
    """Reject observation probabilities outside (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"observation probability must be in (0, 1], got {p}")


@dataclass(frozen=True)
class UniformMissing:
    """Every entry observed independently with probability p."""

    p: float

    def __post_init__(self):
        check_p(self.p)


@dataclass(frozen=True)
class ColumnBlockMissing:
    """Per row slice, column blocks of size b observed together with probability p."""

    p: float
    b: int

    def __post_init__(self):
        check_p(self.p)
        if self.b < 1:
            raise ValueError(f"block size must be positive, got {self.b}")


@dataclass(frozen=True)
class FrontalSliceMissing:
    """Per row slice, each frontal slice observed whole with probability p."""

    p: float

    def __post_init__(self):
        check_p(self.p)


MissingModel = Union[UniformMissing, ColumnBlockMissing, FrontalSliceMissing]


# Text name -> model class; the text form is the name, then field=value per dataclass field.
MODEL_KINDS = {
    "uniform": UniformMissing,
    "colblock": ColumnBlockMissing,
    "frontal": FrontalSliceMissing,
}
_FIELD_TEXT = {"p": (float, "{:g}"), "b": (int, "{}")}  # (parse, format) per field


def kind_fields(kind: str) -> tuple[str, ...]:
    """Parameter names of the model ``kind`` in text-form order: ``p``, then ``b`` for colblock."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown missing-data model {kind!r}")
    return tuple(f.name for f in fields(MODEL_KINDS[kind]))


def model_for(kind: str, p: float, block_size: int = 1) -> MissingModel:
    """The model named ``uniform``, ``colblock`` or ``frontal``; ``block_size`` is b for colblock."""
    values = {"p": p, "b": block_size}
    args = [values[name] for name in kind_fields(kind)]
    return MODEL_KINDS[kind](*args)


def parse_model(line: str) -> MissingModel:
    """Parse the one-line text form, e.g. ``uniform p=0.5`` or ``colblock p=0.5 b=4``.

    Each key of :func:`kind_fields` must appear exactly once, and no other.
    """
    parts = line.split()
    if not parts:
        raise ValueError("empty missing-model spec")
    kind, kv = parts[0], {}
    try:
        names = kind_fields(kind)
        for tok in parts[1:]:
            key, sep, value = tok.partition("=")
            if not sep:
                raise ValueError(f"{tok!r} is not key=value")
            if key not in names or key in kv:
                raise ValueError(f"{'repeated' if key in kv else 'unknown'} key {key!r} for {kind}")
            kv[key] = value
        return MODEL_KINDS[kind](*(_FIELD_TEXT[name][0](kv[name]) for name in names))
    except KeyError as exc:
        raise ValueError(f"malformed missing-model spec {line!r}: missing {exc}") from None
    except ValueError as exc:
        raise ValueError(f"malformed missing-model spec {line!r}: {exc}") from None


def format_model(model: MissingModel) -> str:
    """The text form read by :func:`parse_model`, e.g. ``colblock p=0.5 b=4``."""
    kinds = [name for name, cls in MODEL_KINDS.items() if type(model) is cls]
    if not kinds:
        raise TypeError(f"not a missing model: {model!r}")
    values = [f"{name}={_FIELD_TEXT[name][1].format(getattr(model, name))}" for name in kind_fields(kinds[0])]
    return " ".join(kinds + values)


def check_block(model: MissingModel, l: int) -> None:
    """Reject a column-block model whose block size does not divide l."""
    if isinstance(model, ColumnBlockMissing) and l % model.b != 0:
        raise ValueError(f"block size {model.b} does not divide column count {l}")


@lru_cache(maxsize=64)
def unit_map(model: MissingModel, l: int, n: int) -> tuple[np.ndarray, int]:
    """(map, units): a read-only (n, l) map from entry (k, j) of a row slice to its unit.

    Units are numbered ``j*n + k`` (uniform), ``j // b`` (column blocks) or
    ``k`` (frontal slices): the order in which mask draws consume the
    generator and the bit order of :func:`enumerate_row_masks`.  The map is
    built, and the block size checked, once per model and shape.
    """
    check_block(model, l)
    k, j = np.indices((n, l))
    if isinstance(model, UniformMissing):
        umap, units = j * n + k, l * n
    elif isinstance(model, ColumnBlockMissing):
        umap, units = j // model.b, l // model.b
    else:
        umap, units = k, n
    umap.setflags(write=False)
    return umap, units


def row_mask_batch(model: MissingModel, l: int, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent row-slice masks, stacked as a (count, n, l) 0/1 array."""
    umap, units = unit_map(model, l, n)
    return (rng.random((count, units)) < model.p)[:, umap].astype(np.float64)


def draw_masked_row(model: MissingModel, a_data: np.ndarray, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """(i, Atilde_i): a uniform row index i of A's (n, m, l) array, then row i under a fresh mask."""
    n, m, l = a_data.shape
    i = int(rng.integers(m))
    return i, row_mask_batch(model, l, n, 1, rng)[0] * a_data[:, i, :]


def draw_mask(model: MissingModel, m: int, l: int, n: int, rng: np.random.Generator) -> Tensor3:
    """Binary mask D of dims m x l x n drawn from the model."""
    rows = row_mask_batch(model, l, n, m, rng)  # (m, n, l)
    return Tensor3(np.ascontiguousarray(rows.transpose(1, 0, 2)))


def correction_tensor(model: MissingModel, l: int, n: int) -> Tensor3:
    """The model's l x l x n correction tensor C (Hermitian, entries 0/1).

    uniform: ones on the diagonal of frontal slice 0.
    column block: every frontal slice block-diagonal with b x b all-ones blocks.
    frontal slice: frontal slice 0 all ones, other slices zero.
    """
    check_block(model, l)
    data = np.zeros((n, l, l))
    if isinstance(model, UniformMissing):
        data[0] = np.eye(l)
    elif isinstance(model, ColumnBlockMissing):
        block = np.ones((model.b, model.b))
        slice0 = np.kron(np.eye(l // model.b), block)
        data[:] = slice0
    else:
        data[0] = np.ones((l, l))
    return Tensor3(data)


def enumerate_row_masks(model: MissingModel, l: int, n: int) -> Iterator[tuple[np.ndarray, float]]:
    """All possible masks of a single row slice with their probabilities.

    Yields (mask, prob) with mask of shape (n, l), in the bit order of the
    units of :func:`unit_map`.  There are 2^(l*n) configurations for uniform,
    2^(l/b) for column blocks and 2^n for frontal slices: keep the dims tiny.
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


def _gram_sum(rows: np.ndarray) -> np.ndarray:
    """sum_t Atilde_t* * Atilde_t over a batch of row slices, (t, n, l) -> (n, l, l).

    The rows stacked as a t x l x n tensor M give the sum as M* * M.
    """
    stacked = Tensor3(rows.transpose(1, 0, 2))
    return tn.tprod(tn.transpose(stacked), stacked).data


def exact_row_gram_expectation(a_row: Tensor3, model: MissingModel) -> Tensor3:
    """E_D[Atilde* * Atilde] for one 1 x l x n row slice, by exhaustive enumeration."""
    if a_row.m != 1:
        raise ValueError(f"expected a 1 x l x n row slice, got dims {a_row.dims}")
    row = a_row.data[:, 0, :]  # (n, l)
    acc = np.zeros((a_row.n, a_row.l, a_row.l))
    for mask, prob in enumerate_row_masks(model, a_row.l, a_row.n):
        acc += prob * _gram_sum((mask * row)[None])
    return Tensor3(acc)


@dataclass(frozen=True)
class ExpectationReport:
    """Max relative deviations of the two correction identities, Monte Carlo."""

    max_rel_err_c1: float
    max_rel_err_c2: float
    trials: int


def verify_expectation_identity(
    a_row: Tensor3, model: MissingModel, trials: int, rng: np.random.Generator
) -> ExpectationReport:
    """Monte Carlo check of the two defining identities of C.

    Estimates E_D[Atilde* * Atilde] over ``trials`` fresh masks of the given
    row slice and reports the max entrywise deviation of

        C o estimate        from  p   * C o (A* * A)   (c1), and
        (1 - C) o estimate  from  p^2 * (1 - C) o (A* * A)   (c2),

    relative to the largest entry magnitude of A* * A.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if a_row.m != 1:
        raise ValueError(f"expected a 1 x l x n row slice, got dims {a_row.dims}")
    l, n, p = a_row.l, a_row.n, model.p
    row = a_row.data[:, 0, :]  # (n, l)

    estimate = np.zeros((n, l, l))
    remaining = trials
    chunk = max(1, min(trials, 8192))
    while remaining:
        take = min(chunk, remaining)
        masks = row_mask_batch(model, l, n, take, rng)
        estimate += _gram_sum(masks * row[None])
        remaining -= take
    estimate /= trials

    exact = _gram_sum(row[None])
    c = correction_tensor(model, l, n).data
    scale = float(np.max(np.abs(exact)))
    if scale == 0.0:
        dev1 = float(np.max(np.abs(c * estimate)))
        dev2 = float(np.max(np.abs((1.0 - c) * estimate)))
        return ExpectationReport(dev1, dev2, trials)
    err1 = np.max(np.abs(c * estimate - p * c * exact)) / scale
    err2 = np.max(np.abs((1.0 - c) * estimate - p * p * (1.0 - c) * exact)) / scale
    return ExpectationReport(float(err1), float(err2), trials)
