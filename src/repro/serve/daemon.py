"""The supervised serve daemon: watch, rebuild, publish, never crash.

:class:`ServeDaemon` owns three threads and one invariant:

* the **HTTP thread(s)** (:class:`~repro.serve.http.ServeHTTP`) answer
  queries from the published generation only;
* the **worker thread** runs the poll loop: debounced corpus watching
  (:class:`~repro.serve.watcher.CorpusWatcher`), circuit-breaker gating
  (:class:`~repro.serve.state.ServeState`), and one
  :func:`~repro.serve.generation.run_generation` per corpus change;
* the **main thread** waits for SIGTERM/SIGINT and runs the drain.

The invariant: *nothing that happens inside a generation can take down
the daemon or corrupt what it serves.*  Stage crashes and hangs are
absorbed by the executor barrier; ingestion crashes and simulated kills
(:class:`~repro.exec.chaos.SimulatedKill`) are caught at the tick
barrier and become failure-counter increments; incomplete generations
publish nothing.  Every generation gets a **fresh**
:class:`~repro.exec.chaos.ChaosPlan` from the environment, so an
``@file``-indirected ``REPRO_CHAOS`` can flip fault injection on and
off under a live daemon — that is how the CI smoke job proves survival.

Warm recovery: generations always run with ``resume=True`` against the
shared checkpoint store and parse cache, both keyed by content digests.
After ``kill -9``, a restarted daemon re-ingests from the parse cache
(every unchanged file replays) and re-executes only the stages the dead
process had not checkpointed — the first generation after a crash is
incremental, not cold.

Drain-then-exit (SIGTERM/SIGINT): stop polling, give the in-flight
generation ``grace`` seconds to finish (and publish — work done is work
kept), then abandon it by tripping the executor's abort event (remaining
stages go ``skipped``; nothing incomplete publishes; checkpoints already
written stay), stop the HTTP listener, exit 0.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.exec.chaos import ChaosPlan, SimulatedKill
from repro.exec.checkpoint import CheckpointStore
from repro.exec.executor import AnalysisExecutor, ExecutorConfig
from repro.ingest.cache import ParseCache
from repro.ingest.parse import check_jobs
from repro.ingest.snapshot import CorpusSnapshot, diff_snapshots
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve.generation import GenerationOutcome, run_generation
from repro.serve.http import ServeHTTP
from repro.serve.state import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_MAX_BACKOFF_SECONDS,
    ServeState,
)
from repro.serve.watcher import CorpusWatcher

_log = get_logger("serve.daemon")


@dataclass
class ServeConfig:
    """Everything a :class:`ServeDaemon` needs to run one corpus."""

    corpus: str
    name: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed/logged
    poll_interval: float = 2.0
    grace: float = 10.0  # drain budget for the in-flight generation
    on_error: str = "skip-block"  # lenient: a daemon analyzes what it can
    jobs: Optional[int] = 1  # accepted (not negative); ingestion is one serial pass
    cache: Optional[ParseCache] = None
    checkpoints: Optional[CheckpointStore] = None
    stage_deadline: Optional[float] = None
    soft_deadline: Optional[float] = None
    generation_deadline: Optional[float] = None
    backoff: float = DEFAULT_BACKOFF_SECONDS
    max_backoff: float = DEFAULT_MAX_BACKOFF_SECONDS
    registry: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        check_jobs(self.jobs)


class ServeDaemon:
    """Supervises the watch → generation → publish loop for one corpus."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = config.registry or MetricsRegistry()
        self.state = ServeState(
            backoff=config.backoff, max_backoff=config.max_backoff
        )
        self.watcher = CorpusWatcher(config.corpus)
        self.http: Optional[ServeHTTP] = None
        self._stop = threading.Event()  # no new generations
        self._shutdown = threading.Event()  # signal received
        self._worker: Optional[threading.Thread] = None
        self._current_executor: Optional[AnalysisExecutor] = None
        self._published_snapshot: Optional[CorpusSnapshot] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the HTTP surface and start the worker (non-blocking)."""
        self.http = ServeHTTP(
            self.state,
            host=self.config.host,
            port=self.config.port,
            registry=self.registry,
        )
        self.http.start()
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-serve-worker", daemon=True
        )
        self._worker.start()
        _log.info(
            "daemon started", corpus=self.config.corpus, url=self.http.url
        )

    def run(self, *, install_signals: bool = True) -> int:
        """Blocking entry point: start, wait for a signal, drain, exit 0."""
        if install_signals:
            # Only the main thread may install handlers; daemon.run() from
            # a test thread simply relies on shutdown() instead.
            if threading.current_thread() is threading.main_thread():
                signal.signal(signal.SIGTERM, self._on_signal)
                signal.signal(signal.SIGINT, self._on_signal)
        if self.http is None:  # callers may start() early to learn the port
            self.start()
        self._shutdown.wait()
        self.drain()
        return 0

    def shutdown(self) -> None:
        """Request drain-then-exit (what the signal handlers do)."""
        self._shutdown.set()

    def _on_signal(self, signum: int, frame: Any) -> None:
        _log.info("signal received, draining", signal=signum)
        self._shutdown.set()

    def drain(self) -> None:
        """Finish-or-abandon the in-flight generation, then stop serving.

        The in-flight generation gets ``grace`` seconds to complete (a
        completed generation still publishes — work done is work kept).
        Past the grace deadline its executor abort trips: remaining
        stages report ``skipped``, the generation cannot publish, and
        its finished stages' checkpoints remain for the next start.
        """
        self._stop.set()
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=max(self.config.grace, 0.0))
            if worker.is_alive():
                executor = self._current_executor
                if executor is not None:
                    _log.warning("grace expired, abandoning generation")
                    self.registry.counter("serve.generations.abandoned").inc()
                    executor.aborted = True
                # A stage hung past its own deadline cannot be joined;
                # the worker is a daemon thread, so exit proceeds anyway.
                worker.join(timeout=2.0)
        if self.http is not None:
            self.http.stop()
        _log.info("daemon stopped", generation=self.state.generation)

    # -- the worker ----------------------------------------------------------

    def _worker_loop(self) -> None:
        # The worker gets the daemon's registry as its thread-local
        # active registry: every counter the ingest/exec layers record
        # lands in the same snapshot /metrics serves.
        with use_registry(self.registry):
            while not self._stop.is_set():
                try:
                    self.tick()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as error:  # noqa: BLE001 — tick barrier
                    # A tick must never kill the loop: this catches
                    # watcher I/O surprises and anything a generation
                    # barrier failed to absorb (incl. SimulatedKill).
                    _log.error(
                        "tick failed",
                        error=f"{type(error).__name__}: {error}",
                    )
                    self.registry.counter("serve.tick.errors").inc()
                self._stop.wait(self.config.poll_interval)

    def tick(self) -> Optional[GenerationOutcome]:
        """One poll cycle; returns the generation outcome if one ran."""
        self.registry.counter("serve.polls").inc()
        snapshot = self.watcher.poll()
        if snapshot is None:
            return None  # corpus not yet stable
        digest = snapshot.digest
        self.state.observe_corpus(digest)
        if not self.state.should_attempt(digest):
            return None  # serving this content already, or breaker armed
        return self._run_generation(snapshot)

    def _run_generation(self, snapshot: CorpusSnapshot) -> GenerationOutcome:
        digest = snapshot.digest
        diff = None
        if self._published_snapshot is not None:
            diff = diff_snapshots(self._published_snapshot, snapshot).as_dict()
        executor = AnalysisExecutor(
            ExecutorConfig(
                stage_deadline=self.config.stage_deadline,
                soft_deadline=self.config.soft_deadline,
                run_deadline=self.config.generation_deadline,
                resume=True,  # warm recovery: replay finished checkpoints
                checkpoints=self.config.checkpoints,
                chaos=ChaosPlan.from_env(),  # fresh per generation (@file)
            )
        )
        self._current_executor = executor
        self.registry.counter("serve.generations.attempted").inc()
        _log.info("generation starting", digest=digest[:12], diff=diff)
        try:
            outcome = run_generation(
                self.config.corpus,
                digest,
                executor=executor,
                name=self.config.name,
                on_error=self.config.on_error,
                cache=self.config.cache,
                diff=diff,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except SimulatedKill as error:
            # The in-process stand-in for a crashed analyzer: the
            # generation dies, the daemon survives, previous keeps serving.
            outcome = GenerationOutcome(
                digest=digest, error=f"SimulatedKill: {error}"
            )
        except Exception as error:  # noqa: BLE001 — generation barrier
            outcome = GenerationOutcome(
                digest=digest, error=f"{type(error).__name__}: {error}"
            )
        finally:
            self._current_executor = None
        if outcome.complete and outcome.payload is not None:
            generation = self.state.publish(outcome.payload, digest)
            self._published_snapshot = snapshot
            self.registry.counter("serve.generations.published").inc()
            _log.info(
                "generation published",
                generation=generation,
                digest=digest[:12],
                status=outcome.payload.get("status"),
            )
        else:
            delay = self.state.record_failure(digest, outcome.error)
            self.registry.counter("serve.generations.failed").inc()
            _log.warning(
                "generation failed, previous keeps serving",
                digest=digest[:12],
                error=outcome.error,
                backoff_seconds=round(delay, 3),
                consecutive_failures=self.state.consecutive_failures,
            )
        return outcome


__all__ = ["ServeConfig", "ServeDaemon"]
