"""Correctness gate: counts the operations a run attempts and those that fail.

An operation is one solver run, CLI command, bound report or check.  It
fails if it raises, returns non-finite output or misses its correctness
check; the failure is reported on stderr and counted, and the run goes on.
"""

from __future__ import annotations

import math
import sys
import traceback
from typing import Callable, Iterable, Optional, Sequence


class Gate:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one operation; ``ok`` is whether it met its correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
            print(f"perfbench: FAILED {name} {detail}", file=sys.stderr)
        return ok

    def attempt(self, name: str, ops: int, fn: Callable, *args, **kwargs):
        """Call ``fn``; if it raises, count ``ops`` failed operations and return None.

        On success nothing is counted: the caller checks the result.
        """
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            for _ in range(ops):
                self.check(name, False, f"raised {type(exc).__name__}: {exc}")
            return None


def finite(*values: Optional[float]) -> bool:
    """True iff every value is a finite number (None counts as missing)."""
    return all(v is not None and math.isfinite(v) for v in values)


def phase_ok(error_initial: float, error_swap: float, error_final: float) -> bool:
    """The figure protocol's phase check: the error falls at the swap and again at the end."""
    return finite(error_initial, error_swap, error_final) and (
        error_swap < error_initial and error_final < error_swap
    )


def rel_close(values: Sequence[float], reference: Iterable[float], rtol: float) -> bool:
    """Elementwise |v - r| <= rtol |r| with equal lengths, NaN never matching."""
    reference = list(reference)
    return len(values) == len(reference) and all(
        finite(v) and abs(v - r) <= rtol * abs(r) for v, r in zip(values, reference)
    )
