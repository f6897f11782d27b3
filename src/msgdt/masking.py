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
one definition of each model's independent units; ``check_trials`` is the
one validator of a sampling check's draw count, and ``check_positive`` of a
finite positive parameter.

Masks are drawn from a seeded NumPy PCG64 generator; with a fixed seed the
draw is bit-reproducible.  Per-row draws consume generator state in
row-major order, one variate per unit.  ``draw_rows`` takes a chunk's
(row, mask) draws from PCG64 in one ``random_raw`` call and decodes the
words as numpy's per-draw ``integers`` and ``random`` calls would: the
stream, and the generator state after it, are those of the per-draw calls,
which still run for other bit generators, for m outside [2, 2**32) and for
a chunk that holds a rejected index draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from . import tensor as tn
from .tensor import Tensor3

__all__ = [
    "UniformMissing",
    "ColumnBlockMissing",
    "FrontalSliceMissing",
    "MissingModel",
    "check_p",
    "check_positive",
    "check_trials",
    "check_block",
    "check_row_budget",
    "MODEL_KINDS",
    "kind_fields",
    "model_for",
    "parse_model",
    "format_model",
    "unit_map",
    "draw_units",
    "masked_rows",
    "draw_rows",
    "draw_mask",
    "correction_tensor",
    "ExpectationReport",
    "verify_expectation_identity",
]


def check_p(p: float) -> None:
    """Reject observation probabilities outside (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"observation probability must be in (0, 1], got {p}")


def check_positive(name: str, value: float) -> None:
    """Reject a ``value`` that is not a finite positive number; ``name`` names it in the message.

    NaN passes a ``value <= 0`` check, so every step size, step constant,
    radius and divisor is checked here instead.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_trials(trials: int) -> None:
    """Reject a Monte Carlo draw count below one: a check over no draws would read as a pass."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


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
        if isinstance(self.b, bool) or not isinstance(self.b, (int, np.integer)):
            raise ValueError(f"block size must be an integer, got {self.b!r}")
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


def check_row_budget(sampling: str, total_iters: int, m: int) -> None:
    """Reject a "once" run of more iterations than A has rows: each iteration takes a row no other has taken."""
    if sampling == "once" and total_iters > m:
        raise ValueError(
            f"{total_iters} iterations need {total_iters} distinct rows but A has only {m}; "
            "sample with replacement (redraw) or lower the iteration count"
        )


@lru_cache(maxsize=64)
def unit_map(model: MissingModel, l: int, n: int) -> tuple[np.ndarray, int]:
    """(map, units): a read-only (n, l) map from entry (k, j) of a row slice to its unit.

    Units are numbered ``j*n + k`` (uniform), ``j // b`` (column blocks) or
    ``k`` (frontal slices): the order in which mask draws consume the
    generator and the bit order of :func:`msgdt.oracle.enumerate_row_masks`.
    The map is built, and the block size checked, once per model and shape.
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


def draw_units(model: MissingModel, l: int, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent row-slice draws as a (count, units) boolean array, True = unit kept.

    Every mask draw consumes the generator so, one variate per unit, row by
    row (:func:`draw_rows` takes each row's index first); the :func:`unit_map`
    expands a draw to (count, n, l) row masks.
    """
    keep = np.empty((count, unit_map(model, l, n)[1]), dtype=np.bool_)
    for rows in tn.row_chunks(count):  # no float array of every variate
        np.less(rng.random(keep[rows].shape), model.p, out=keep[rows])
    return keep


def row_mask_batch(model: MissingModel, l: int, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent row-slice masks, stacked as a (count, n, l) 0/1 array."""
    return draw_units(model, l, n, count, rng)[:, unit_map(model, l, n)[0]].astype(np.float64)


def masked_rows(
    model: MissingModel, a_data: np.ndarray, keep: np.ndarray, rows, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Rows ``rows`` of A's (n, m, l) array, row ``rows[k]`` under the unit draw ``keep[k]``, as (rows, n, l).

    With ``keep = units[rows]`` the result is bit for bit those rows of
    ``hadamard(D, A)`` for the mask D that :func:`draw_mask` expands from the
    draw ``units`` (0/1 times an entry is exact, signed zeros included).
    ``out``, a float64 array of that shape, receives the result.
    """
    n, _, l = a_data.shape
    # A float mask makes the product float x float, without a buffered bool cast; ``take`` lays
    # the expanded mask out row by row, where ``keep[:, map]`` would put the row axis innermost.
    mask = np.take(keep.astype(np.float64), unit_map(model, l, n)[0], axis=1)
    return np.multiply(mask, a_data[:, rows, :].transpose(1, 0, 2), out=out)


_HALF_WORD = 1 << 32  # PCG64 hands integers(m) 32-bit halves when m < 2**32


def draw_rows(
    model: MissingModel, m: int, l: int, n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(idx, keep): ``count`` uniform row indices of m rows, each followed by its row's unit draw.

    Draw k takes ``rng.integers(m)``, then one variate per unit, so the
    stream is the same however ``count`` splits it; ``keep[k]`` masks ``idx[k]``.

    On a PCG64 generator with ``2 <= m < 2**32`` the chunk comes from one
    ``random_raw`` call, decoded by :func:`_pcg64_rows` into the same
    indices, masks and generator state as the per-draw calls.  Any other
    bit generator or m, or a chunk whose index draw numpy would reject and
    redraw, takes the per-draw calls themselves.
    """
    units = unit_map(model, l, n)[1]
    bitgen = rng.bit_generator
    if type(bitgen) is np.random.PCG64 and 2 <= m < _HALF_WORD:
        drawn = _pcg64_rows(bitgen, m, units, count, model.p)
        if drawn is not None:
            return drawn
    idx = np.empty(count, dtype=np.intp)
    variates = np.empty((count, units))
    for k in range(count):  # one integers(m, size=count) call would give another stream
        idx[k] = rng.integers(m)
        rng.random(out=variates[k])
    return idx, variates < model.p


def _pcg64_rows(bitgen: np.random.PCG64, m: int, units: int, count: int, p: float):
    """:func:`draw_rows` on a PCG64 ``bitgen`` from one ``random_raw`` call, or None (state untouched).

    It decodes the 64-bit words the way numpy's per-draw calls consume them:
    ``integers(m)`` takes a 32-bit half through PCG64's buffer (``has_uint32``
    and ``uinteger`` of the state), a fresh word's low half first and its
    high half at the next index draw, and maps the half u to ``(u m) >> 32``
    (Lemire, ACM TOMACS 29(1), 2019); each ``random()`` variate is
    ``(word >> 11) 2**-53``.  Lemire rejects u when ``(u m) mod 2**32`` is
    below ``(2**32 - m) mod m`` (about m / 2**32 per draw) and numpy then
    draws again; such a chunk restores the state and returns None.
    """
    saved = bitgen.state
    buffered = saved["has_uint32"]
    fresh = (count + 1 - buffered) // 2  # index draws that open a word: every other one
    words = bitgen.random_raw(count * units + fresh)
    # A fresh index word opens each pair of draws, after draw 0's variates when a half was buffered.
    is_index = np.zeros(words.size, dtype=np.bool_)
    is_index[buffered * units :: 2 * units + 1] = True
    # The halves in the order the index draws take them: the buffered one, then low, high of each fresh word.
    fresh_halves = words[is_index].astype("<u8", copy=False).view("<u4")
    halves = np.concatenate((np.full(buffered, saved["uinteger"], dtype="<u4"), fresh_halves))
    scaled = halves[:count].astype(np.uint64) * np.uint64(m)
    if ((scaled & np.uint64(_HALF_WORD - 1)) < (_HALF_WORD - m) % m).any():
        bitgen.state = saved
        return None
    state = bitgen.state
    state["has_uint32"] = (buffered + count) % 2
    if halves.size:  # the last fresh word's high half, or the half buffered before
        state["uinteger"] = int(halves[-1])
    bitgen.state = state
    # x 2**-53 < p for the integer x = word >> 11 < 2**53 is, exactly, x < ceil(p 2**53).
    keep = (words >> np.uint64(11)) < np.uint64(math.ceil(float(p) * 2.0**53))
    return (scaled >> np.uint64(32)).astype(np.intp), keep[~is_index].reshape(count, units)


def draw_mask(model: MissingModel, m: int, l: int, n: int, rng: np.random.Generator) -> Tensor3:
    """Binary mask D of dims m x l x n drawn from the model: :func:`draw_units` for m rows, expanded.

    The unit draw is expanded as booleans and cast in one pass into D's (n, m, l)
    float array, the one full-size float array the draw writes.  D and the
    generator state after it are those of :func:`row_mask_batch` for m rows, transposed.
    """
    rows = np.take(draw_units(model, l, n, m, rng), unit_map(model, l, n)[0], axis=1)  # (m, n, l) bool
    return Tensor3(rows.transpose(1, 0, 2))  # Tensor3 casts to contiguous float64 in one copy


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


def _gram_sum(rows: np.ndarray) -> np.ndarray:
    """sum_t Atilde_t* * Atilde_t over a batch of row slices, (t, n, l) -> (n, l, l).

    The rows stacked as a t x l x n tensor M give the sum as M* * M, whose
    spectrum is :func:`~msgdt.tensor.tube_gram`.
    """
    n = rows.shape[1]
    return tn.tube_spectrum(n).inverse(tn.tube_gram(rows.transpose(1, 0, 2)))


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
    check_trials(trials)
    if a_row.m != 1:
        raise ValueError(f"expected a 1 x l x n row slice, got dims {a_row.dims}")
    l, n, p = a_row.l, a_row.n, model.p
    row = a_row.data[:, 0, :]  # (n, l)

    estimate = np.zeros((n, l, l))
    for draws in tn.row_chunks(trials):
        masks = row_mask_batch(model, l, n, draws.stop - draws.start, rng)
        estimate += _gram_sum(masks * row[None])
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
