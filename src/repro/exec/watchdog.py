"""Wall-clock deadlines for analysis stages.

A stage that hangs — an exponential blowup in predicate propagation, a
BFS that never drains — must not take the whole corpus run down with it.
:func:`run_with_deadline` runs the stage in a worker thread while the
calling thread keeps the clock:

* at the **soft deadline** the watchdog logs one ``stage over soft
  deadline`` warning and sets the outcome's ``soft_deadline_hit`` flag,
  which is how callers learn of it; the stage keeps running;
* at the **hard deadline** a :class:`StageCancelled` exception is
  injected into the worker thread (CPython async-exception injection),
  which unwinds pure-Python loops at the next bytecode boundary.  A
  worker stuck inside a C call cannot be unwound; after a short grace
  period it is abandoned as a daemon thread and the stage is reported
  timed out regardless.

With no deadlines configured the stage runs inline on the calling thread
— the normal path pays nothing for the protection it does not use.

Either way an ``Exception`` is captured in the outcome, and anything
else (``KeyboardInterrupt``, :class:`~repro.exec.chaos.SimulatedKill`)
is raised on the caller's thread: a kill escapes the same way from an
inline call and from the watchdog's thread, so callers never re-raise
by hand.
"""

from __future__ import annotations

import ctypes
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry, use_registry
from repro.obs.trace import activate_tracer, current_tracer

_log = get_logger("exec.watchdog")

#: How long to wait for a cancelled worker to unwind before abandoning it.
CANCEL_GRACE_SECONDS = 0.5

#: Poll interval while waiting on the worker (keeps soft-deadline
#: resolution reasonable without busy-waiting).
_POLL_SECONDS = 0.02


class StageCancelled(BaseException):
    """Injected into a stage thread at its hard deadline.

    Derives from ``BaseException`` so stage code that catches broad
    ``Exception`` (barriers, lenient loops) cannot swallow the cancel.
    """


@dataclass
class WatchdogOutcome:
    """What happened to one guarded call."""

    value: Any = None
    error: Optional[Exception] = None
    timed_out: bool = False
    soft_deadline_hit: bool = False
    seconds: float = 0.0


def _inject_exception(thread_id: int, exc_type: type) -> bool:
    """Raise *exc_type* asynchronously in the thread with *thread_id*."""
    try:
        affected = ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), ctypes.py_object(exc_type)
        )
    except Exception:  # pragma: no cover - non-CPython fallback
        return False
    if affected > 1:  # pragma: no cover - undo an over-broad injection
        ctypes.pythonapi.PyThreadState_SetAsyncExc(ctypes.c_ulong(thread_id), None)
        return False
    return affected == 1


def run_with_deadline(
    fn: Callable[[], Any],
    *,
    name: str = "stage",
    hard_deadline: Optional[float] = None,
    soft_deadline: Optional[float] = None,
) -> WatchdogOutcome:
    """Run ``fn()`` under soft/hard wall-clock deadlines.

    Returns a :class:`WatchdogOutcome`; exactly one of ``value`` /
    ``error`` / ``timed_out`` describes the ending.  Deadlines are in
    seconds; ``None`` disables the respective deadline.  With neither
    deadline set the call is made inline (no thread).  A
    non-``Exception`` escaping ``fn`` is raised here, inline or threaded.
    """
    start = time.perf_counter()
    if hard_deadline is None and soft_deadline is None:
        outcome = WatchdogOutcome()
        try:
            outcome.value = fn()
        except Exception as exc:  # noqa: BLE001 — barrier: report, don't die
            outcome.error = exc
        outcome.seconds = time.perf_counter() - start
        return outcome

    outcome = WatchdogOutcome()
    escaped: List[BaseException] = []
    done = threading.Event()
    # Observability scoping is thread-local; the worker thread inherits
    # the caller's registry and tracer explicitly so stage metrics and
    # spans land in the same run they would have landed in inline.
    registry = get_registry()
    tracer = current_tracer()

    def worker() -> None:
        try:
            with use_registry(registry), activate_tracer(tracer):
                result = fn()
        except StageCancelled:
            return  # the watchdog already recorded the timeout
        except Exception as exc:  # noqa: BLE001 — barrier: report, don't die
            outcome.error = exc
        except BaseException as exc:  # raised again on the caller's thread
            escaped.append(exc)
        else:
            outcome.value = result
        finally:
            done.set()

    thread = threading.Thread(
        target=worker, name=f"repro-stage-{name}", daemon=True
    )
    thread.start()

    soft_fired = False
    while True:
        elapsed = time.perf_counter() - start
        if done.wait(timeout=_POLL_SECONDS):
            break
        if (
            not soft_fired
            and soft_deadline is not None
            and elapsed >= soft_deadline
        ):
            soft_fired = True
            outcome.soft_deadline_hit = True
            _log.warning(
                "stage over soft deadline", stage=name, soft_deadline=soft_deadline
            )
        if hard_deadline is not None and elapsed >= hard_deadline:
            if done.is_set():  # finished while we were checking — not a timeout
                break
            outcome.timed_out = True
            _log.warning(
                "stage hit hard deadline, cancelling",
                stage=name,
                hard_deadline=hard_deadline,
            )
            if thread.ident is not None:
                _inject_exception(thread.ident, StageCancelled)
            thread.join(CANCEL_GRACE_SECONDS)
            if thread.is_alive():
                # Stuck in a C call; nothing more we can do from here.
                # The daemon thread is abandoned and the run moves on.
                _log.error("cancelled stage did not unwind", stage=name)
            outcome.value = None
            outcome.error = None
            break

    outcome.seconds = time.perf_counter() - start
    if escaped:
        raise escaped[0]
    return outcome


__all__ = [
    "CANCEL_GRACE_SECONDS",
    "StageCancelled",
    "WatchdogOutcome",
    "run_with_deadline",
]
