"""In-memory spans around calls into hypstab, recorded from outside.

A `Tracer` replaces module attributes such as
``hypstab.constants.volume_deficit_vs_regular`` with timing wrappers and
puts the originals back on exit.  It sees exactly the calls that look
the attribute up at call time, which is how the package's modules call
each other; no file of the program is edited.

Spans nest through one stack shared by all threads.  That is exact here
because the benchmark runs with ``HYPSTAB_THREADS=1``: the constants
table's single worker thread runs while the main thread waits for it.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    info: object = None  # numbers the wrapper derived from the call

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, module, attr: str, name, info=None):
        """Record a span for every call made through ``module.attr``.

        ``name`` is the span name, or a function of (args, kwargs) giving
        it.  ``info``, if given, maps (args, kwargs, result) to the
        number stored on the span.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def close(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def write_spans(path, passes: list[list[Span]]):
    """Write the spans of every traced pass as JSON (times relative to each pass)."""
    out = []
    for spans in passes:
        t0 = spans[0].start if spans else 0.0
        out.append([dict(asdict(s), start=s.start - t0, end=s.end - t0) for s in spans])
    with open(path, "w") as fh:
        json.dump(out, fh)
