"""In-memory spans for the traced benchmark run, and their accounting.

Spans are recorded by the benchmark around its own calls into polarsec;
nothing inside the library is instrumented.  A span is one of:

``op``     the root of one operation; its self time is benchmark glue.
``call``   a public call the operation makes.
``probe``  a second execution, on the same inputs, of a layer function
           that the operation only reaches inside another span (``of``).
``extra``  work only the traced run does: probe inputs and equality
           checks.  It is credited to nothing.

A span's *inner* time is its duration minus the spans nested in it.  Its
*self* time is its inner time minus the inner time of the probes
attributed to it.  Spans nested in a probe or an extra span are
duplicates and are credited to nothing.  So within one operation the self
times add up to its traced duration: the operation's wall time minus the
probes and extras that ran at its top level.  :func:`account` computes
both sides and reports any operation where they disagree.

Single-block calls made tens of thousands of times per operation (the
attack oracle) are recorded with :meth:`Tracer.leaf`, which keeps one
span per (enclosing span, name) holding the total time and call count.
"""
from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(eq=False)
class Span:
    id: int
    name: str
    kind: str
    op: int
    parent: int | None
    of: int | None
    start: float
    end: float = 0.0
    calls: int = 1
    seconds: float | None = None  # set for aggregated leaf spans
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.seconds if self.seconds is not None else self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "kind": self.kind, "op": self.op,
            "parent": self.parent, "of": self.of, "start": self.start,
            "end": self.end, "dur": self.dur, "calls": self.calls,
            "counts": self.counts,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._leaves: dict[tuple[int, str], Span] = {}
        self._op = -1

    def _open(self, name: str, kind: str, of: Span | None, counts: dict) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, kind, self._op, parent,
                    None if of is None else of.id, perf_counter(), counts=counts)
        self.spans.append(span)
        self._stack.append(span)
        return span

    @contextmanager
    def op(self, name: str):
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op += 1
        span = self._open(name, "op", None, {})
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name: str, kind: str = "call", of: Span | None = None, **counts):
        if not self._stack:
            raise RuntimeError("spans belong to an operation")
        if (kind == "probe") != (of is not None):
            raise ValueError("a probe, and only a probe, names the span it stands in")
        span = self._open(name, kind, of, counts)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def probe(self, name: str, of: Span, **counts):
        return self.span(name, "probe", of, **counts)

    def extra(self):
        return self.span("extra", "extra")

    def leaf(self, name: str, seconds: float) -> None:
        """Add one call of ``name`` that took ``seconds`` to the current span."""
        top = self._stack[-1]
        agg = self._leaves.get((top.id, name))
        if agg is None:
            agg = Span(len(self.spans), name, "call", self._op, top.id, None,
                       top.start, top.start, calls=0, seconds=0.0)
            self.spans.append(agg)
            self._leaves[(top.id, name)] = agg
        agg.calls += 1
        agg.seconds += seconds


@dataclass
class Accounting:
    """Per-name totals over the credited spans of a set of operations."""

    self_s: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, dict[str, int]]
    op_traced_s: dict[int, float]
    mismatches: list[str]


# self times and traced durations of one operation agree to this many seconds
TOLERANCE = 1e-6


def account(spans: list[Span]) -> Accounting:
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    probes_of: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
        if s.of is not None:
            probes_of[s.of].append(s)

    # spans below a probe or an extra span repeat work already recorded
    duplicate: set[int] = set()
    for s in spans:  # parents are recorded before their children
        if s.parent is not None and (
            s.parent in duplicate or by_id[s.parent].kind in ("probe", "extra")
        ):
            duplicate.add(s.id)

    def inner(s: Span) -> float:
        return s.dur - sum(c.dur for c in children[s.id])

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    summed: dict[int, float] = defaultdict(float)
    excluded: dict[int, float] = defaultdict(float)
    roots: list[Span] = []
    mismatches: list[str] = []
    for s in spans:
        if s.seconds is None and s.parent is not None:
            parent = by_id[s.parent]
            if s.start < parent.start or s.end > parent.end:
                mismatches.append(f"span {s.id} {s.name} lies outside its parent")
        if s.id in duplicate:
            continue
        if s.kind == "op":
            roots.append(s)
        if s.kind in ("probe", "extra"):
            excluded[s.op] += s.dur
        if s.kind == "extra":
            continue
        own = inner(s) - sum(inner(q) for q in probes_of[s.id])
        summed[s.op] += own
        name = "bench.glue" if s.kind == "op" else s.name
        self_s[name] += own
        calls[name] += s.calls
        for k, v in s.counts.items():
            counts[name][k] += v

    op_traced_s: dict[int, float] = {}
    for root in roots:
        traced = root.dur - excluded[root.op]
        op_traced_s[root.op] = traced
        if abs(summed[root.op] - traced) > TOLERANCE:
            mismatches.append(
                f"op {root.op} {root.name}: self times sum to {summed[root.op]:.9f} s, "
                f"traced duration is {traced:.9f} s"
            )
    return Accounting(dict(self_s), dict(calls),
                      {k: dict(v) for k, v in counts.items()}, op_traced_s, mismatches)
