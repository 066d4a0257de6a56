"""Spans for the traced run.

A span records one call the benchmark makes into a module: its name, start
and end (``perf_counter`` seconds), the span that was open when it started,
the pass (closed-loop unit) it belongs to, the input it ran on, and the
exception type if it raised. Spans stay in memory and are written out when
the run ends. The untraced run uses :data:`NULL`, whose spans record
nothing.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    pass_id: int
    tag: str  # input the call ran on
    phase: str  # "loop" or "probe"
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.pass_id = -1
        self.tag = ""
        self.phase = "loop"

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        s = Span(name, time.perf_counter(), float("nan"), self._open[-1] if self._open else None,
                 self.pass_id, self.tag if tag is None else tag, self.phase)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        except BaseException as e:
            s.error = type(e).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, *, tag: str | None = None, phase: str | None = None) -> list[float]:
        return [s.duration for s in self.spans
                if s.name == name and (tag is None or s.tag == tag) and (phase is None or s.phase == phase)]

    def median(self, name: str, **where) -> float:
        """Median duration of the matching spans; NaN when there are none."""
        d = self.durations(name, **where)
        return statistics.median(d) if d else float("nan")

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class _NullTracer:
    pass_id = -1
    tag = ""

    def span(self, name: str, tag: str | None = None):
        return contextlib.nullcontext()


NULL = _NullTracer()


def span_cost(n: int = 20_000) -> float:
    """Seconds one empty span adds, net of an untraced empty block."""
    def timed(tr) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            with tr.span("x"):
                pass
        return time.perf_counter() - t0

    return max(0.0, min(timed(Tracer()) for _ in range(3)) - min(timed(NULL) for _ in range(3))) / n


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = union_length([(max(c.start, s.start), min(c.end, s.end)) for c in children[i]])
        out.append(s.duration - covered)
    return out


def summary(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, total and self seconds, errors."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
        row["errors"] += s.error is not None
    return out
