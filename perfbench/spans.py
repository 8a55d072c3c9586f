"""In-memory spans around the package's public functions, and the
arithmetic the benchmark report needs (self time, tail percentile).

A traced run replaces each public function of the measured modules with
a wrapper at every module attribute that holds it, because callers
resolve names through their own module globals: ``select_final`` finds
``posegrammar.inference.parse_constrained`` and ``cli`` finds its own
imported binding ``posegrammar.cli.parse_constrained``.  Spans stay in
memory until the run ends.  Names with a leading underscore are never
wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call: name, parent span, [start, end] in seconds, failure flag."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    failed: bool = False
    item: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _item: int | None = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), item=self._item)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, failed: bool = False) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def item(self, index: int):
        """A root span for one benchmark item; spans inside carry its index."""
        self._item = index
        span = self.open("bench.item")
        try:
            yield span
        except BaseException:
            self.close(span, failed=True)
            raise
        finally:
            self._item = None
        self.close(span)

    def wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.close(span, failed=True)
                raise
            tracer.close(span)
            return result

        return traced


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` itself (not imported)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Instrumentation:
    """Installs wrappers for the measured modules and removes them again."""

    def __init__(self, tracer: Tracer, measured: dict[str, object], namespaces: list):
        # measured: layer name -> module; namespaces: every module whose
        # attributes may hold one of the measured functions.
        self.tracer = tracer
        self.measured = measured
        self.namespaces = namespaces
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        # Keyed by id: the originals stay referenced by their modules.
        wrappers = {}
        for layer, module in self.measured.items():
            for fname, func in public_functions(module).items():
                wrappers[id(func)] = self.tracer.wrap(func, f"{layer}.{fname}")
        for ns in self.namespaces:
            for attr, value in list(vars(ns).items()):
                if not attr.startswith("_") and id(value) in wrappers:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])

    def remove(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ())) for s in spans
    }


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self time and failed calls."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["self_s"] += own[s.id]
        row["failed"] += int(s.failed)
    return out


def tail_percentile(samples) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    With n sorted samples this is the (n - 10)-th smallest, the
    100 * (n - 10) / n percentile.  Returns (value, percentile, n), or
    None when fewer than 11 samples leave no such percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None
    return xs[n - 11], 100.0 * (n - 10) / n, n
