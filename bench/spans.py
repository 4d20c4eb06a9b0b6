"""In-memory spans for the traced benchmark run.

A span records name, start, end, parent and the pass it belongs to.
Calls too frequent to keep one span each (``sup_natural``, the
commuting-subset generator, ``canonicalize``) are kept as leaf totals,
a call count and seconds, under the span that was open when they ran.
A span's self time is its duration minus its child spans and leaves.

The untraced run uses ``NULL``, whose spans cost one no-op context
manager per call into the package and which patches nothing.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import defaultdict

_NOOP = contextlib.nullcontext()


class NullTracer:
    def span(self, name: str, memory: bool = False):
        return _NOOP


NULL = NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.pass_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        """Time the enclosed call; with ``memory``, also its tracemalloc peak."""
        rec = {
            "id": len(self.spans),
            "pass": self.pass_id,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "leaves": defaultdict(lambda: [0, 0.0]),
        }
        self.spans.append(rec)
        self._stack.append(rec)
        if memory:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if memory:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def leaf(self, name: str, seconds: float, calls: int) -> None:
        if self._stack:
            tot = self._stack[-1]["leaves"][name]
            tot[0] += calls
            tot[1] += seconds

    # --- wrappers for module attributes -----------------------------------

    def leaf_call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf(name, time.perf_counter() - t, 1)

        return wrapper

    def leaf_generator(self, name: str, fn):
        """Count the items a generator yields and time each step of it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self.leaf(name, time.perf_counter() - t, 0)
                    return
                self.leaf(name, time.perf_counter() - t, 1)
                yield item

        return wrapper

    def span_call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # --- reading the spans back -------------------------------------------

    def of_pass(self, pass_id: int) -> list[dict]:
        return [s for s in self.spans if s["pass"] == pass_id]

    def dump(self) -> list[dict]:
        """Spans as plain records, each with its self time."""
        view = SpanView(self.spans)
        out = []
        for s in self.spans:
            rec = {k: v for k, v in s.items() if k != "leaves"}
            rec["leaves"] = {k: {"calls": c, "s": sec} for k, (c, sec) in s["leaves"].items()}
            rec["self_s"] = view.span_self_s(s)
            out.append(rec)
        return out


class SpanView:
    """Totals over the spans of one pass, by span name and leaf name."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self._child_s: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                self._child_s[s["parent"]] += s["end"] - s["start"]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def span_self_s(self, span: dict) -> float:
        leaves = sum(sec for _, sec in span["leaves"].values())
        return span["end"] - span["start"] - self._child_s[span["id"]] - leaves

    def self_s(self, name: str) -> float:
        return sum(self.span_self_s(s) for s in self.named(name))

    def leaf_calls(self, name: str) -> int:
        return sum(s["leaves"][name][0] for s in self.spans if name in s["leaves"])

    def leaf_s(self, name: str) -> float:
        return sum(s["leaves"][name][1] for s in self.spans if name in s["leaves"])


@contextlib.contextmanager
def patched(patches):
    """Replace module attributes for the duration; ``patches`` is (module, name, new)."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, new in patches:
            setattr(mod, name, new)
        yield
    finally:
        for mod, name, old in reversed(saved):
            setattr(mod, name, old)
