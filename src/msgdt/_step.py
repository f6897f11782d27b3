"""The compiled row stage step: ``_step.c``, built with ``cc`` once per machine and loaded with :mod:`ctypes`.

:func:`library` compiles ``_step.c`` with :data:`FLAGS` into
``${XDG_CACHE_HOME:-~/.cache}/msgdt/_step-<key>.so``, where the key is the
SHA-256 of the source, the flags and ``cc --version``, so a new source,
flag set or compiler gets its own build and an unchanged one is loaded as
it is.  The build is written under a temporary name in that directory and
moved into place with :func:`os.replace`, so a process never loads a
half-written file.  There is no fallback: without ``cc`` on ``PATH``, or
when the build fails, :func:`library` raises a RuntimeError that names the
compiler and the source.

The flags keep every build's bits the same: ``-ffp-contract=off`` forbids
fused multiply-adds and, without ``-ffast-math``, nothing is reassociated,
so the step runs each sum in the source's order on any instruction set,
and the AVX2 clone the source asks for on x86-64 gives the baseline's
bits.  The source writes its complex products out in real arithmetic (its
header says why), so no complex-arithmetic flag applies.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_step.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_I, _P, _D = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
# (R, F, L, Q, ahat, u, p b, S or p - 1) [block] (y, work, radius, k0, k1), as _step.c declares them
_HEAD, _TAIL = [_I] * 4 + [_P] * 4, [_P, _P, _D, _I, _I]
ARGTYPES = {"step_uniform": _HEAD + _TAIL, "step_frontal": _HEAD + _TAIL, "step_colblock": _HEAD + [_I] + _TAIL}


def cache_dir() -> Path:
    """Where builds are kept: ``$XDG_CACHE_HOME/msgdt``, or ``~/.cache/msgdt`` without it."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "msgdt"


def compile_source(source: Path, out: Path, flags=FLAGS) -> None:
    """Compile ``source`` into the shared library ``out`` with ``cc`` from ``PATH`` and ``flags``."""
    cc = _compiler()
    done = subprocess.run([cc, *flags, "-o", str(out), str(source), "-lm"], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{cc} could not build {source} (exit {done.returncode}):\n{done.stderr.strip()}")


def load(path: Path) -> ctypes.CDLL:
    """The library at ``path`` with each step function's argument types declared."""
    lib = ctypes.CDLL(str(path))
    for name, argtypes in ARGTYPES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    return lib


def _compiler() -> str:
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError(f"msgdt builds its step from {SOURCE} with a C compiler, and there is no cc on PATH")
    return cc


@functools.cache
def library() -> ctypes.CDLL:
    """The step library of this source, flags and compiler: built into the cache once, then loaded."""
    version = subprocess.run([_compiler(), "--version"], capture_output=True, check=True).stdout
    key = hashlib.sha256(SOURCE.read_bytes() + "\0".join(FLAGS).encode() + b"\0" + version).hexdigest()
    path = cache_dir() / f"_step-{key}.so"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_step-", suffix=".tmp", dir=path.parent)
        os.close(fd)
        try:
            compile_source(SOURCE, Path(tmp))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return load(path)
