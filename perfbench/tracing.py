"""In-memory spans around calls into factorbal's public functions.

A span records its name, start and end (``time.perf_counter`` seconds),
the index of the span that caused it, and the op it belongs to. Leaf
spans (the module calls) record counts taken from the call's result
and, in a memory pass, the ``tracemalloc`` peak above the memory already
held when the call started. Spans stay in memory until ``Tracer.dump`` writes them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc


class Tracer:
    """Span recorder; with ``memory`` set, leaf calls also record the
    ``tracemalloc`` peak, which the caller must have started."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, parent: bool = True):
        """Open a span; ``parent=False`` detaches it from the open span."""
        rec = {
            "name": name,
            "op": self.op if op is None else op,
            "parent": self._stack[-1] if parent and self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        """Call ``fn`` inside a leaf span.

        ``counts(result)`` may return a dict stored on the span.
        """
        if self.memory:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        with self.span(name) as rec:
            result = fn(*args, **kwargs)
        if self.memory:
            rec["peak_bytes"] = tracemalloc.get_traced_memory()[1] - held
        if counts is not None:
            rec["counts"] = counts(result)
        return result

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)

        return traced

    def dump(self, path, **meta) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "spans": self.spans}, fh)


@contextlib.contextmanager
def patched(module, replacements: dict):
    """Temporarily replace attributes of ``module``; always restores them."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_time(spans: list[dict], index: int) -> float:
    """Span duration minus the part of it its child spans cover."""
    s = spans[index]
    kids = [(c["start"], c["end"]) for c in spans if c["parent"] == index]
    return (s["end"] - s["start"]) - covered(kids)
