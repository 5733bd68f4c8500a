"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions: name, start, end, the span that caused it,
and a trace id shared by every span of one case or request.  They stay in
memory until :meth:`Tracer.dump` writes them out at exit.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (children may nest or overlap; overlap is counted
once).  Calls too hot to afford one span each (the performance engine's
``estimate`` runs thousands of times per case) are *folded*: their time
and count accumulate on the enclosing span and under their own name.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple


class Span:
    """One timed interval (times are ``time.perf_counter`` seconds)."""

    __slots__ = ("name", "trace_id", "start", "end", "parent", "folded")

    def __init__(self, name: str, trace_id, start: float,
                 parent: Optional[int]) -> None:
        self.name = name
        self.trace_id = trace_id
        self.start = start
        self.end = start
        self.parent = parent
        #: seconds spent in folded (span-less) child calls
        self.folded = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Collects spans and counts; one per traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: folded call name -> [count, seconds]
        self.folded: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget everything recorded so far (call between requests,
        with no span open: set-up traffic is not the timed traffic)."""
        self.spans.clear()
        self.folded.clear()
        self.counts.clear()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id=None, parent: Optional[int] = None):
        """Record one span; yields its id (pass it as ``parent`` to a span
        opened on another thread)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent].trace_id
        span = Span(name, trace_id, self.clock(), parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield index
        finally:
            span.end = self.clock()
            stack.pop()

    def fold(self, name: str, seconds: float) -> None:
        """Account one hot call without a span of its own."""
        entry = self.folded.get(name)
        if entry is None:
            entry = self.folded[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds
        stack = self._stack()
        if stack:
            self.spans[stack[-1]].folded += seconds

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and fold its wall time under ``name``."""
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.fold(name, self.clock() - start)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- queries -------------------------------------------------------
    def _children(self) -> Dict[int, List[Span]]:
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return children

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name (folded calls under their own)."""
        children = self._children()
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            inside = covered(
                ((c.start, c.end) for c in children.get(index, ())),
                span.start, span.end,
            )
            own = max(0.0, span.duration - inside - span.folded)
            out[span.name] = out.get(span.name, 0.0) + own
        for name, (_count, seconds) in self.folded.items():
            out[name] = out.get(name, 0.0) + seconds
        return out

    def total_seconds(self) -> Dict[str, float]:
        """Total duration per span name (children included)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        for name, (count, _seconds) in self.folded.items():
            out[name] = out.get(name, 0) + int(count)
        return out

    def coverage(self, root_name: str) -> float:
        """Share of the ``root_name`` spans' wall that named child spans
        cover — the "where did the time go" completeness check."""
        children = self._children()
        wall = inside = 0.0
        for index, span in enumerate(self.spans):
            if span.name != root_name:
                continue
            wall += span.duration
            inside += covered(
                ((c.start, c.end) for c in children.get(index, ())),
                span.start, span.end,
            )
        return inside / wall if wall > 0 else 0.0

    def dump(self, path: str) -> None:
        """Write every span (and the folded/count tables) as JSON."""
        origin = min((s.start for s in self.spans), default=0.0)
        payload = {
            "spans": [
                {
                    "id": index,
                    "name": span.name,
                    "trace": span.trace_id,
                    "start_ms": (span.start - origin) * 1e3,
                    "end_ms": (span.end - origin) * 1e3,
                    "parent": span.parent,
                }
                for index, span in enumerate(self.spans)
            ],
            "folded": {
                name: {"calls": int(count), "ms": seconds * 1e3}
                for name, (count, seconds) in self.folded.items()
            },
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
