"""A process-local metrics registry: counters and histograms.

The pipeline's hot paths (parsing, cache lookups, quarantine
decisions, analysis passes) record what happened here; the CLI snapshots
the registry into the run manifest.  Two instrument kinds:

* :class:`Counter` — monotone event counts (``cache.hits``,
  ``ingest.files.quarantined``).  Counters are the **deterministic**
  slice of a run's metrics: recorded only in the parent process, in
  file and scenario order, they are identical for ``--jobs 1`` and
  ``--jobs 8`` runs over the same input.
* :class:`Histogram` — distributions, in practice wall/CPU timings
  (``analysis.instances.seconds``).  Never deterministic.

:func:`get_registry` returns the active registry; :func:`use_registry`
scopes a fresh one to a ``with`` block so each CLI invocation (and each
test) starts from zero without touching global state.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple


class Counter:
    """A monotonically increasing event count.

    Mutation is locked: the serve daemon's generation thread, its HTTP
    handlers and the stage watchdog's threads share one registry, and an
    unlocked ``+=`` read-modify-write would lose increments under thread
    interleaving — turning the deterministic counter slice of the
    manifest nondeterministic.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class Histogram:
    """A streaming summary of observations: count, sum, min, max, mean."""

    __slots__ = ("count", "total", "min", "max", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def as_dict(self) -> Dict[str, float]:
        data: Dict[str, float] = {"count": self.count, "sum": round(self.total, 6)}
        if self.count:
            data["min"] = round(self.min, 6)
            data["max"] = round(self.max, 6)
            data["mean"] = round(self.mean, 6)
        return data


def _metric_key(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """All instruments of one run, keyed by name plus optional labels."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, **labels: str) -> Counter:
        key = _metric_key(name, labels)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter()
            return self._counters[key]

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = _metric_key(name, labels)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = Histogram()
            return self._histograms[key]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-ready snapshot, keys sorted for stable output."""
        with self._lock:
            return {
                "counters": {
                    key: self._counters[key].value for key in sorted(self._counters)
                },
                "histograms": {
                    key: self._histograms[key].as_dict()
                    for key in sorted(self._histograms)
                },
            }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)})"
        )


# The registry stack is **thread-local**: a worker thread that never
# scoped a registry of its own sees the process-wide default, not
# whatever another thread happens to have pushed.  Threads that work on
# behalf of a scoped run (the stage watchdog, the serve daemon's
# generation thread) re-activate the parent's registry explicitly with
# ``use_registry(parent_registry)`` — inheritance is a decision, never an
# accident of timing.
_DEFAULT_REGISTRY = MetricsRegistry()


class _RegistryStack(threading.local):
    def __init__(self) -> None:
        self.stack: Tuple[MetricsRegistry, ...] = ()


_REGISTRIES = _RegistryStack()


def get_registry() -> MetricsRegistry:
    """The currently active registry (innermost :func:`use_registry`
    on *this thread*, else the process-wide default)."""
    stack = _REGISTRIES.stack
    return stack[-1] if stack else _DEFAULT_REGISTRY


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Scope *registry* (default: a fresh one) as this thread's active registry."""
    if registry is None:
        registry = MetricsRegistry()
    _REGISTRIES.stack = _REGISTRIES.stack + (registry,)
    try:
        yield registry
    finally:
        stack = list(_REGISTRIES.stack)
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is registry:
                del stack[index]
                break
        _REGISTRIES.stack = tuple(stack)


__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "use_registry",
]
