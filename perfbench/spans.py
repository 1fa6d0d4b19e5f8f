"""Spans recorded in memory around wrapped callables, and the arithmetic on them.

A ``Tracer`` replaces named attributes of modules or classes with
wrappers that open a span on entry and close it on exit. Spans carry a
name, start, end, the id of the enclosing span and the id of the
workload op that was running. Nothing is written until the caller asks
for ``dump()``.

Self time of a span is its duration minus the part of its interval that
its child spans cover; busy time of a name is the summed duration of its
outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

MARK = "__perfbench_span__"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Boundary:
    """One attribute to wrap: ``owner.attr`` becomes a span named ``name``.

    ``tag(args, result)`` runs after the span has closed and returns
    extra fields for it; ``result`` is None when the call raised.
    """

    owner: object
    attr: str
    name: str
    tag: Callable[[tuple, object], dict] | None = None


def _raw(boundary: Boundary):
    return vars(boundary.owner)[boundary.attr]


def _is_wrapper(raw) -> bool:
    func = raw.__func__ if isinstance(raw, classmethod) else raw
    return hasattr(func, MARK)


def wrapped(boundaries: Iterable[Boundary]) -> list[str]:
    """Names of the boundaries that currently carry a tracing wrapper."""
    return [b.name for b in boundaries if _is_wrapper(_raw(b))]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span.tags["failed"] = True
            raise
        finally:
            self._close(span)

    def _wrap(self, func, boundary: Boundary):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(boundary.name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException:
                span.tags["failed"] = True
                raise
            finally:
                self._close(span)
                if boundary.tag is not None:
                    span.tags.update(boundary.tag(args, result))

        setattr(wrapper, MARK, boundary.name)
        return wrapper

    def install(self, boundaries: Iterable[Boundary]):
        for b in boundaries:
            raw = _raw(b)
            if _is_wrapper(raw):
                raise RuntimeError(f"{b.name} is already wrapped")
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, b))
            else:
                new = self._wrap(raw, b)
            self._saved.append((b.owner, b.attr, raw))
            setattr(b.owner, b.attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, boundaries: Iterable[Boundary]) -> Iterator["Tracer"]:
        try:
            self.install(boundaries)
            yield self
        finally:
            self.uninstall()

    def dump(self) -> list[dict]:
        return [vars(s).copy() for s in self.spans]

    def adopt(self, dumped: list[dict], parent: Span):
        """Append spans dumped by another process under ``parent``.

        Timestamps must come from the same system-wide monotonic clock.
        """
        base = len(self.spans)
        for d in dumped:
            self.spans.append(Span(
                id=base + d["id"],
                name=d["name"],
                start=d["start"],
                end=d["end"],
                parent=parent.id if d["parent"] is None else base + d["parent"],
                op=parent.op,
                tags=d["tags"],
            ))


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children = children_of(spans)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = s.duration - covered
    return out


def descendants(spans: list[Span], root: Span) -> list[Span]:
    children = children_of(spans)
    out, todo = [], [root]
    while todo:
        for c in children[todo.pop().id]:
            out.append(c)
            todo.append(c)
    return out


def busy(spans: list[Span], match: Callable[[Span], bool]) -> float:
    """Summed duration of the matching spans that have no matching ancestor."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if not match(s):
            continue
        p = s.parent
        while p is not None and not match(by_id[p]):
            p = by_id[p].parent
        if p is None:
            total += s.duration
    return total
