"""In-memory span recorder and call wrappers for tracing mmdvar from outside.

A span is (name, start_ns, end_ns, parent): ``parent`` is the index of the
enclosing span in the same recorder, or -1 for a root.  Spans are appended
to a list while the traced op runs and reduced or written out only after it
ends, so no I/O happens inside a timed region.

Wrappers replace module attributes that the library's own callers look up
at call time (``montecarlo.build_gram_pack``, ``cli.load_csv``, ...), so
nothing under ``src/`` has to change.  A target that no longer exists in
the library is skipped: its layer then reports zero calls instead of
crashing the benchmark.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator


class Recorder:
    """Collects spans of one process; not thread-safe (one caller)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx, parent = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start)
        traced.__wrapped__ = fn
        return traced

    def adopt(self, spans: list[tuple[str, int, int, int]]) -> None:
        """Append spans recorded by a child process under the open span.

        Child and parent read the same monotonic clock, so start and end
        times stay comparable.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p in spans:
            self.spans.append((name, start, end, base + p if p >= 0 else parent))

    def take(self) -> list[tuple[str, int, int, int]]:
        """Return the spans recorded so far and start a fresh list.

        Call only between ops, when every span has closed.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


@contextmanager
def patched(rec: Recorder, targets: list[tuple[str, str, str]],
            factories: list[tuple[str, str, Callable]] = ()) -> Iterator[None]:
    """Install span wrappers for the duration of the block.

    ``targets`` are (module, attribute, span name) triples.  ``factories``
    are (module, attribute, factory) triples for attributes that need more
    than a span around the call: ``factory(rec, original)`` returns the
    replacement.
    """
    undo: list[tuple[object, str, Callable]] = []
    wanted = [(m, a, lambda rec, fn, name=name: rec.wrap(fn, name)) for m, a, name in targets]
    try:
        for mod_name, attr, factory in [*wanted, *factories]:
            mod = _module(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if callable(fn):
                setattr(mod, attr, factory(rec, fn))
                undo.append((mod, attr, fn))
        yield
    finally:
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)


def reduce_spans(spans: list[tuple[str, int, int, int]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover.
    Spans of one thread nest strictly, so the children's covered time is the
    sum of their durations.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += (end - start) * 1e-9
        agg["self_s"] += (end - start - child_ns[i]) * 1e-9
    return out
