"""Watchdog semantics: inline fast path, soft/hard deadlines, cancel."""

import contextlib
import io
import json
import time

import pytest

from repro.exec.chaos import SimulatedKill
from repro.exec.watchdog import StageCancelled, run_with_deadline
from repro.obs.logging import configure_logging


def _hang_forever():
    while True:
        time.sleep(0.005)


@contextlib.contextmanager
def _soft_warnings():
    """Collect the stage names of ``stage over soft deadline`` warnings."""
    stream = io.StringIO()
    warned = []
    configure_logging(level="warning", json_mode=True, stream=stream)
    try:
        yield warned
    finally:
        configure_logging(level="warning")
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        warned.extend(
            event["stage"] for event in events if event["event"] == "stage over soft deadline"
        )


class TestInlinePath:
    """No deadlines: the call runs on the calling thread, no watchdog."""

    def test_returns_value(self):
        outcome = run_with_deadline(lambda: 41 + 1)
        assert outcome.value == 42
        assert outcome.error is None
        assert not outcome.timed_out
        assert outcome.seconds >= 0

    def test_captures_exceptions(self):
        outcome = run_with_deadline(lambda: 1 / 0)
        assert isinstance(outcome.error, ZeroDivisionError)
        assert outcome.value is None

    def test_base_exceptions_propagate(self):
        # SIGKILL stand-ins must escape the barrier, inline or threaded.
        def die():
            raise SimulatedKill("now")

        with pytest.raises(SimulatedKill):
            run_with_deadline(die)


class TestGuardedPath:
    def test_fast_call_finishes_normally(self):
        outcome = run_with_deadline(lambda: "done", hard_deadline=5.0)
        assert outcome.value == "done"
        assert not outcome.timed_out
        assert not outcome.soft_deadline_hit

    def test_worker_exception_is_captured(self):
        def boom():
            raise ValueError("bad input")

        outcome = run_with_deadline(boom, hard_deadline=5.0)
        assert isinstance(outcome.error, ValueError)
        assert not outcome.timed_out

    def test_worker_base_exception_propagates(self):
        # A kill raised on the watchdog's thread reaches the caller the
        # way an inline one does; no caller re-raises it by hand.
        def die():
            raise SimulatedKill("now")

        with pytest.raises(SimulatedKill):
            run_with_deadline(die, hard_deadline=5.0)

    def test_hard_deadline_cancels_a_hang(self):
        outcome = run_with_deadline(_hang_forever, hard_deadline=0.15)
        assert outcome.timed_out
        assert outcome.value is None
        assert outcome.error is None
        assert outcome.seconds >= 0.15

    def test_soft_deadline_fires_once_and_stage_completes(self):
        def slowish():
            time.sleep(0.15)
            return "late but fine"

        with _soft_warnings() as warned:
            outcome = run_with_deadline(slowish, soft_deadline=0.05)
        assert outcome.value == "late but fine"
        assert outcome.soft_deadline_hit
        assert warned == ["stage"]
        assert not outcome.timed_out

    def test_soft_then_hard(self):
        with _soft_warnings() as warned:
            outcome = run_with_deadline(
                _hang_forever, soft_deadline=0.05, hard_deadline=0.2
            )
        assert outcome.soft_deadline_hit
        assert outcome.timed_out
        assert warned == ["stage"]


def test_stage_cancelled_is_a_base_exception():
    # Stage code that catches broad Exception must not swallow the cancel.
    assert issubclass(StageCancelled, BaseException)
    assert not issubclass(StageCancelled, Exception)
