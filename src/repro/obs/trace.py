"""Span-based tracing with Chrome-trace export.

A :class:`Tracer` records a tree of :class:`Span` objects — named,
attributed, nested wall-clock intervals — for one run.  There is one
span API: :func:`span` opens a span in this thread's active tracer, or
a detached (still timed) one when tracing is off, so callers never
branch on whether a tracer exists.  Ingestion opens ``stage:read`` and
``stage:parse``, the executor one ``stage:<name>`` per analysis stage,
``repro corpus`` one ``archive:<name>`` per archive, and analysis
entry points their own spans via the :func:`traced` decorator — so a
single ``--trace out.json`` file shows reading, parsing, cache replay,
link inference, and every analysis pass on one timeline, each nested
where it ran.  Load ``out.json`` into ``chrome://tracing`` / Perfetto,
or read the same tree from the run manifest's ``spans`` section.

The tracer is single-process by design: the sweep's worker processes
report their outcomes back to the parent, and the parent's merge loop
is what gets timed — which is also what keeps trace structure
deterministic across ``--jobs`` settings (durations aside).
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One named interval: start/end offsets (seconds since tracer epoch),
    free-form attributes, and child spans."""

    name: str
    start: float
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def set(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "start": round(self.start, 6),
            "seconds": round(self.seconds, 6),
        }
        if self.attributes:
            data["attributes"] = {k: v for k, v in self.attributes.items()}
        if self.children:
            data["children"] = [child.as_dict() for child in self.children]
        return data


class Tracer:
    """Collects one run's span tree."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a nested span around a ``with`` block.

        The yielded span is live — call ``span.set(key=value)`` inside the
        block to attach results (counts, dispositions) as attributes.
        """
        span = Span(name=name, start=self._now(), attributes=dict(attributes))
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._now()
            self._stack.pop()

    # -- export ------------------------------------------------------------

    def span_tree(self) -> List[Dict[str, Any]]:
        """The nested-dict form embedded in run manifests."""
        return [span.as_dict() for span in self.roots]

    def chrome_trace(self) -> Dict[str, Any]:
        """The Trace Event Format dict for ``chrome://tracing`` / Perfetto."""
        events: List[Dict[str, Any]] = []
        pid = os.getpid()

        def emit(span: Span) -> None:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(span.seconds * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": {k: str(v) for k, v in span.attributes.items()},
                }
            )
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots)}, open={len(self._stack)})"


# The active tracer, if any.  Deep pipeline code (stage spans, analysis
# decorators) looks it up here rather than having a tracer threaded through
# every signature; when no tracer is active, spans are detached.
#
# The activation stack is **thread-local**: a Tracer's span stack is not
# safe for concurrent pushes, so a thread only ever traces into a tracer
# it activated itself.  Threads working on behalf of a traced run (the
# stage watchdog) re-activate the tracer they were handed with
# ``activate_tracer(...)``.
class _TracerStack(threading.local):
    def __init__(self) -> None:
        self.stack: Tuple[Tracer, ...] = ()


_TRACERS = _TracerStack()


def current_tracer() -> Optional[Tracer]:
    """This thread's innermost active tracer, or ``None`` when tracing is off."""
    stack = _TRACERS.stack
    return stack[-1] if stack else None


@contextmanager
def activate_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Scope *tracer* as this thread's active tracer (``None`` → no-op block)."""
    if tracer is None:
        yield None
        return
    _TRACERS.stack = _TRACERS.stack + (tracer,)
    try:
        yield tracer
    finally:
        stack = list(_TRACERS.stack)
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is tracer:
                del stack[index]
                break
        _TRACERS.stack = tuple(stack)


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Span]:
    """Open a span around a ``with`` block in this thread's active tracer.

    With no active tracer the span is *detached*: timed the same way
    (``span.seconds`` is valid after the block) and carrying the same
    attributes, but part of no tree.  Callers that report a stage's
    time read it from the span either way.
    """
    tracer = current_tracer()
    if tracer is not None:
        with tracer.span(name, **attributes) as opened:
            yield opened
        return
    start = time.perf_counter()
    detached = Span(name=name, start=0.0, attributes=dict(attributes))
    try:
        yield detached
    finally:
        detached.end = time.perf_counter() - start


def traced(name: str, metric: Optional[str] = None) -> Callable:
    """Instrument an analysis entry point: histogram + counter + span.

    Every call records ``<metric>.seconds`` (histogram) and
    ``<metric>.calls`` (counter) in the active metrics registry, and
    runs inside a ``<name>`` :func:`span`.  *metric* defaults to
    ``analysis.<name>``.
    """
    metric_base = metric if metric is not None else f"analysis.{name}"

    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            from repro.obs.metrics import get_registry  # noqa: PLC0415 — cycle-free, lazy

            with span(name) as opened:
                result = func(*args, **kwargs)
            registry = get_registry()
            registry.counter(f"{metric_base}.calls").inc()
            registry.histogram(f"{metric_base}.seconds").observe(opened.seconds)
            return result

        return wrapper

    return decorate


__all__ = [
    "Span",
    "Tracer",
    "activate_tracer",
    "current_tracer",
    "span",
    "traced",
]
