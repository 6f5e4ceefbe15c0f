"""Outside-in span recording for the traced benchmark run.

The traced run times each layer from the outside: it replaces the
entry points a caller uses (instance methods, a class method, and
module-level names callers imported) with wrappers that record one span
per call.  A span is ``(name, start, end, parent)``; ``name`` is
``"<layer>.<call>"`` and ``parent`` indexes the enclosing span (``-1``
for a top-level span).  Spans stay in memory; :func:`ledger` turns them
into per-layer self times when the run ends.

Calls nest (``engine.submit`` → ``engine.flush`` → ``model.score_batch``),
so a layer's *self* time is its spans' durations minus the durations of
their direct children.  Summing self time over every span telescopes to
the top-level spans' durations, so self shares of the traced wall always
sum to 1 and no child is counted twice.

The recorder assumes the wrapped calls all run on one thread, which
holds for every workload: scoring either runs inline or in worker
processes, never on a parent-side thread.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Ledger", "SpanRecorder", "Tracer", "ledger"]


class SpanRecorder:
    """Collects ``(name, start, end, parent)`` spans of wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so children can point at it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def take(self) -> list[tuple[str, float, float, int]]:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        done = list(self.spans)
        self.spans.clear()
        return done  # type: ignore[return-value]


@dataclass
class Ledger:
    """Per-layer self time and call counts over one set of spans.

    ``wall`` is the summed duration of the top-level spans (the traced
    wall); ``self_s`` values sum to it.  ``totals`` keeps each span
    name's inclusive duration, for figures such as time blocked in a
    particular call.
    """

    wall: float = 0.0
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    totals: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def share(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0) / self.wall if self.wall > 0 else 0.0

    def add(self, other: "Ledger") -> None:
        """Fold another ledger (another traced replay) into this one."""
        self.wall += other.wall
        for table, extra in (
            (self.self_s, other.self_s),
            (self.calls, other.calls),
            (self.totals, other.totals),
        ):
            for key, value in extra.items():
                table[key] += value


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def ledger(spans: list[tuple[str, float, float, int]]) -> Ledger:
    """Self time per layer: each span's duration, minus its direct
    children's durations, credited to the span's layer."""
    out = Ledger()
    for name, start, end, parent in spans:
        duration = end - start
        layer = layer_of(name)
        out.self_s[layer] += duration
        out.calls[layer] += 1
        out.totals[name] += duration
        if parent >= 0:
            out.self_s[layer_of(spans[parent][0])] -= duration
        else:
            out.wall += duration
    return out


class Tracer:
    """Installs span wrappers and removes every one of them on exit.

    Targets, all reached from outside the program:

    * :meth:`wrap_methods` sets wrapped bound methods as *instance*
      attributes, so calls the object makes on itself (``self.flush``)
      are recorded too; exit deletes the attributes again.
    * :meth:`wrap_attr` replaces an attribute of a module or class (a
      module-level function a caller imported, or a method of a class
      whose instances are private); exit restores the original.

    ``recorder.wrap`` records a callable the caller then uses itself.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._undo: list[Callable[[], None]] = []

    def wrap_methods(self, obj: object, layer: str, methods: tuple[str, ...]) -> None:
        for method in methods:
            setattr(obj, method, self.recorder.wrap(f"{layer}.{method}", getattr(obj, method)))
            self._undo.append(lambda obj=obj, method=method: delattr(obj, method))

    def wrap_attr(
        self, owner: object, attr: str, name: str | None = None, replacement: object | None = None
    ) -> None:
        """Replace ``owner.attr`` by a version recorded as ``name``, or by
        ``replacement``, a stand-in the caller built around the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if replacement is None:
            replacement = self.recorder.wrap(name, original)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()
