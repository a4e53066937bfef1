"""In-memory spans for the traced run.

A span records a name, start and end (``time.perf_counter`` seconds), the id
of the span that was open when it started, and counts read from the return
value of the call it wraps.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # ids of the spans now open, innermost last

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recorded as a span; ``counts(result)`` is stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record["counts"] = counts(result)
            return result

        return traced


class NullTracer:
    """Stands in for a Tracer in untraced ops: records nothing."""

    spans = ()

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn, counts=None):
        return fn


def self_time(span, spans) -> float:
    """Duration of ``span`` not covered by its direct children.

    Children of one span never overlap: the run is single-threaded and spans
    nest as the calls do.
    """
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
    return (span["end"] - span["start"]) - children
