"""In-memory span recording around msgdt's layers, with self-time arithmetic.

A layer is one msgdt function or method.  ``Tracer.install`` replaces every
module attribute that refers to the layer's function (so ``msgdt.solver``'s
global ``_row_gradient`` and the name ``msgdt.checks`` imported from it are
both wrapped) with a wrapper that records a span per call.  Callers look
these attributes up at call time, so the spans cover every call made after
installation.  A layer whose target no longer exists is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    """``name`` is the metric prefix; ``target`` is ``module:attr[.attr]``.

    ``size`` optionally maps (args, result) to a byte count summed per layer.
    """

    name: str
    target: str
    size: Optional[Callable] = None


@dataclass(slots=True)
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_start = cur_end = None
        for k in sorted(kids, key=lambda k: spans[k].start):
            a, b = max(spans[k].start, s.start), min(spans[k].end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def _resolve(target: str):
    """(owner, attribute name, object) for ``module:attr[.attr]``, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    """Records spans for the calls made into installed layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.sizes: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans, stack, clock, sizes = self.spans, self._stack, self.clock, self.sizes

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(layer.name, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if layer.size is not None:
                sizes[layer.name] = sizes.get(layer.name, 0.0) + layer.size(args, result)
            return result

        return traced

    def install(self, layers: list[Layer], package: str = "msgdt") -> list[str]:
        """Wrap every layer; return the names of the layers that are absent.

        Module-level aliases are found by identity among the loaded modules
        of ``package``; a method target is wrapped on its class.
        """
        absent = []
        for layer in layers:
            found = _resolve(layer.target)
            if found is None:
                absent.append(layer.name)
                continue
            owner, attr, obj = found
            wrapped = self.wrap(layer, obj)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for name, value in list(vars(module).items()):
                    if value is obj:
                        self._patch(module, name, wrapped)
        return absent

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy_s (summed span time) and self_s."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += span.end - span.start
            row["self_s"] += own
        return out
