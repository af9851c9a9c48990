"""In-memory span tracer that instruments the library from the outside.

The benchmark must not edit ``src/``, so layer timing comes from wrapping
public callables at the attribute their *caller* looks up — for example
``repro.core.vzone.fit_vzone`` (what the V-zone detector calls) rather than
``repro.core.fitting.fit_vzone`` (where it is defined).  Every wrapper is
recorded and :meth:`Tracer.uninstall` restores the original objects, so an
untraced run executes exactly the code a user runs.

Spans are kept in memory with parent links.  Each thread keeps its own stack,
so spans opened on a fleet worker thread never parent spans of the request
thread.  A span's *self time* is its duration minus the durations of its
direct children; summed over one thread's spans it equals the duration of
that thread's root spans, which is what lets the benchmark reconcile layer
self-times against wall time.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True, slots=True)
class Span:
    """One finished span."""

    span_id: int
    parent_id: int
    """``span_id`` of the enclosing span on the same thread, -1 for a root."""
    name: str
    thread: int
    start_ns: int
    end_ns: int
    child_ns: int
    """Summed duration of the direct children."""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class _Open:
    __slots__ = ("span_id", "parent_id", "name", "start_ns", "child_ns")

    def __init__(self, span_id: int, parent: "_Open | None", name: str) -> None:
        self.span_id = span_id
        self.parent_id = -1 if parent is None else parent.span_id
        self.name = name
        self.child_ns = 0
        self.start_ns = time.perf_counter_ns()


AfterHook = Callable[["Tracer", tuple, dict, Any], None]
"""Called as ``hook(tracer, args, kwargs, result)`` after a wrapped call
returns, outside its span; used to read counters off the call's result."""


class Tracer:
    """Spans, counters and the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Open:
        stack = self._stack()
        span = _Open(next(self._ids), stack[-1] if stack else None, name)
        stack.append(span)
        return span

    def _close(self, span: _Open) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - span.start_ns
        if stack:
            stack[-1].child_ns += duration
        self.spans.append(
            Span(
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                thread=threading.get_ident(),
                start_ns=span.start_ns,
                end_ns=end,
                child_ns=span.child_ns,
            )
        )

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(opened)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._counter_lock:
            self.counters[name] += value

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple, dict], str],
        after: AfterHook | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``name`` is the span name, or a function of the call's arguments that
        returns it (one wrapped method can serve several layers).  ``owner``
        is a module or the class that defines the method, so that removal
        restores the exact original.
        """
        original = vars(owner)[attr]
        tracer = self
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            opened = tracer._open(namer(args, kwargs) if namer else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(opened)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_ns / 1e6
        return totals

    def thread_self_ms(self, thread: int) -> float:
        """Summed self time of every span recorded on ``thread``."""
        return sum(s.self_ns for s in self.spans if s.thread == thread) / 1e6

    def coverage(self, operations: set[str]) -> float:
        """Share of the ``operations`` spans' time spent in traced children.

        An operation span's self time is the benchmark's own code plus any
        library call left unwrapped, so a layer missing from the
        instrumentation plan lowers this share.
        """
        total = untraced = 0
        for span in self.spans:
            if span.name in operations:
                total += span.duration_ns
                untraced += span.self_ns
        return 1.0 - untraced / total if total else 0.0
