"""Grayscale frame stacks as tensors, via binary PGM (P5, 8-bit).

A directory of equally sized frames, taken in lexicographic filename
order, becomes an m x l x n tensor with frame k as frontal slice k and
pixel values as reals in [0, 255].  Export rounds and clips to that range,
so integer-valued tensors round-trip losslessly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tensor import Tensor3

__all__ = ["read_pgm", "write_pgm", "ingest_frames", "export_frames"]


def _read_header_token(raw: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines
    while pos < len(raw):
        ch = raw[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(raw) and not raw[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated PGM header")
    return raw[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """One binary PGM frame as a (rows, cols) float array of values in [0, 255]."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM file (magic {raw[:2]!r})")
    try:
        width_tok, pos = _read_header_token(raw, 2)
        height_tok, pos = _read_header_token(raw, pos)
        maxval_tok, pos = _read_header_token(raw, pos)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: only 8-bit PGM supported, got maxval {maxval}")
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: frame width and height must be positive, got {width} x {height}")
    pos += 1  # single whitespace byte after maxval
    pixels = raw[pos : pos + width * height]
    if len(pixels) != width * height:
        raise ValueError(f"{path}: truncated pixel data ({len(pixels)} of {width * height} bytes)")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).astype(np.float64)


def write_pgm(frame: np.ndarray, path) -> None:
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValueError(f"frame must be 2-d, got shape {frame.shape}")
    pixels = np.clip(np.rint(frame), 0, 255).astype(np.uint8)
    header = f"P5\n{frame.shape[1]} {frame.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + pixels.tobytes())


def ingest_frames(directory) -> Tensor3:
    """Stack every .pgm file in the directory, lexicographic order, as slices."""
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".pgm")
    if not paths:
        raise ValueError(f"{directory}: no .pgm frames found")
    frames = [read_pgm(p) for p in paths]
    shapes = {f.shape for f in frames}
    if len(shapes) > 1:
        raise ValueError(f"{directory}: mixed frame dimensions {sorted(shapes)}")
    return Tensor3(np.stack(frames))


def export_frames(t: Tensor3, directory) -> list[Path]:
    """Write frontal slices as frame_0000.pgm, frame_0001.pgm, ..."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(t.n):
        path = directory / f"frame_{k:04d}.pgm"
        write_pgm(t.data[k], path)
        paths.append(path)
    return paths
