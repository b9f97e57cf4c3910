"""In-memory span ledger for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions: nothing inside ``src/`` changes.  A span
has a name, a start, an end, the span that caused it (``parent``) and
the id of the operation it belongs to (``op``).  Spans stay in memory
and are written out once, when the run ends.

Calls made once per root (``SubgraphStructure.estimate`` / ``build``)
are too many to keep one span each, so :meth:`Ledger.interpose` can
fold them into one *aggregate* span per parent: ``calls`` invocations
whose durations sum to ``busy`` seconds, plus the ``work`` their
results report.  Clocks are read per call, never per recursion node.

A span's *self time* is its duration minus what its children cover.
Every timed operation is a root span named ``op``, so the self time of
``op`` is the part of the wall clock that no layer span explains — the
unaccounted remainder, reported rather than hidden.

A disabled ledger still times spans (two clock reads each) but keeps
nothing and interposes nothing, so the untraced run shares its code.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Span", "PassTimes", "Ledger"]


@dataclass
class Span:
    id: int
    op: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    calls: int = 1
    #: Summed call time for aggregate spans; ``None`` for plain spans
    #: (whose duration is ``end - start``).
    busy: float | None = None
    #: Work the calls reported (see ``Ledger.interpose(weigh=...)``).
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start if self.busy is None else self.busy


@dataclass
class PassTimes:
    """Per span name, over one slice of the ledger."""

    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: dict[str, int]
    work: dict[str, float]


class Ledger:
    """Records spans for one benchmark process."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = 0
        #: Summed duration of every operation so far (kept when disabled).
        self.op_seconds = 0.0
        self._stack: list[int] = []
        self._aggregates: dict[tuple[int | None, str], Span] = {}

    # ------------------------------------------------------------ record
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), self.op, name, parent, perf_counter())
        if not self.enabled:
            try:
                yield s
            finally:
                s.end = perf_counter()
            return
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self) -> Iterator[Span]:
        """One timed operation: a root span with a fresh op id."""
        self.op += 1
        try:
            with self.span("op") as s:
                yield s
        finally:
            self.op_seconds += s.duration

    def _accumulate(self, name: str, t0: float, t1: float,
                    work: float) -> None:
        parent = self._stack[-1] if self._stack else None
        key = (parent, name)
        agg = self._aggregates.get(key)
        if agg is None:
            agg = Span(len(self.spans), self.op, name, parent, t0,
                       calls=0, busy=0.0)
            self.spans.append(agg)
            self._aggregates[key] = agg
        agg.calls += 1
        agg.busy += t1 - t0
        agg.end = t1
        agg.work += work

    @contextmanager
    def interpose(
        self, obj: Any, attr: str, name: str, *,
        aggregate: bool = False,
        weigh: Callable[[Any], float] | None = None,
    ) -> Iterator[None]:
        """Time every call of ``obj.attr`` for the duration of the block.

        ``obj`` is an instance (the wrapper shadows the method) or a
        module (the wrapper replaces the module global, which the
        layer's own callers look up at call time).  With ``aggregate``
        each parent span gets one folded child instead of one span per
        call, and ``weigh(result)`` is added to its ``work``.
        """
        if not self.enabled:
            yield
            return
        inner = getattr(obj, attr)
        shadowed = attr in vars(obj)

        if aggregate:
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                out = inner(*args, **kwargs)
                self._accumulate(name, t0, perf_counter(),
                                 weigh(out) if weigh else 0.0)
                return out
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return inner(*args, **kwargs)

        setattr(obj, attr, wrapper)
        try:
            yield
        finally:
            if shadowed:
                setattr(obj, attr, inner)
            else:
                delattr(obj, attr)

    # ----------------------------------------------------------- analyse
    def times(self, first: int = 0) -> PassTimes:
        """Self and inclusive seconds per name over ``spans[first:]``
        (one pass: the caller notes ``len(spans)`` before it)."""
        spans = self.spans[first:]
        covered: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        out = PassTimes({}, {}, {}, {})
        for s in spans:
            own = s.duration - covered.get(s.id, 0.0)
            out.self_s[s.name] = out.self_s.get(s.name, 0.0) + own
            out.total_s[s.name] = out.total_s.get(s.name, 0.0) + s.duration
            out.calls[s.name] = out.calls.get(s.name, 0) + s.calls
            out.work[s.name] = out.work.get(s.name, 0.0) + s.work
        return out

    def write(self, path: str | Path) -> Path:
        """Write every span as one JSON line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
        return path
