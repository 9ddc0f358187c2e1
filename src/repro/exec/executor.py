"""The resilient analysis executor.

:class:`AnalysisExecutor` drives every per-network analysis stage
(link inference, process graph, instances, pathways, address space,
consistency, reachability, survivability) through one barrier:

* every stage attempt runs under :func:`repro.exec.watchdog
  .run_with_deadline` — a soft deadline produces a warning and keeps
  going, the hard deadline cancels the stage;
* a stage that times out (or dies of resource exhaustion —
  ``RecursionError``/``MemoryError``) is retried down a bounded
  **degradation ladder**: each rung re-runs the analysis with stricter
  bounds (capped prefix atoms, depth limits, edge budgets — the knobs
  the :mod:`repro.core` passes grew for exactly this), and a rung that
  succeeds yields a ``degraded`` result labeled with the rung;
* deterministic exceptions are *not* retried — the same input would
  raise the same way on every rung — and yield ``failed`` immediately;
* finished results (``ok``/``degraded``) are checkpointed per
  ``(archive-digest, stage)`` so a killed run resumes where it stopped;
* a whole-run ``--deadline`` budget skips stages once exhausted
  (checkpoints written earlier still let ``--resume`` finish the rest).

Diagnostics are emitted from the *result summary* (never from timing
data), for fresh and checkpoint-replayed results alike, so an
interrupted-then-resumed run produces the same normalized manifest as an
uninterrupted one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.diag import PHASE_ANALYSIS
from repro.exec.chaos import ChaosPlan
from repro.exec.checkpoint import CheckpointStore
from repro.exec.stage import (
    ANALYSIS_STAGES,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    StageResult,
    status_counts,
    worst_status,
)
from repro.exec.watchdog import run_with_deadline
from repro.ingest.archive import archive_digest
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import span

_log = get_logger("exec.executor")


@dataclass(frozen=True)
class Rung:
    """One step of a degradation ladder: a label plus analysis bounds."""

    label: str
    params: Mapping[str, Any] = field(default_factory=dict)


#: Default ladders per stage.  Rung 0 is always full fidelity; later
#: rungs trade completeness for bounded work, mildest first.  Every
#: bound maps onto an explicit knob of the corresponding core pass, and
#: results produced below rung 0 are labeled ``degraded`` with the rung.
DEFAULT_LADDERS: Dict[str, Tuple[Rung, ...]] = {
    "links": (Rung("full"),),
    "process_graph": (
        Rung("full"),
        Rung("max-edges-20000", {"max_edges": 20000}),
        Rung("max-edges-2000", {"max_edges": 2000}),
    ),
    "instances": (
        Rung("full"),
        Rung("max-processes-5000", {"max_processes": 5000}),
    ),
    "pathways": (
        Rung("full"),
        Rung("max-depth-8", {"max_depth": 8}),
        Rung("max-depth-3", {"max_depth": 3}),
    ),
    "address_space": (
        Rung("full"),
        Rung("max-subnets-2048", {"max_subnets": 2048}),
        Rung("max-subnets-256", {"max_subnets": 256}),
    ),
    "consistency": (
        Rung("full"),
        Rung("max-findings-200", {"max_findings_per_check": 200}),
    ),
    "reachability": (
        Rung("full"),
        Rung("max-atoms-256", {"max_atoms": 256}),
        Rung("max-atoms-32", {"max_atoms": 32}),
    ),
    "survivability": (
        Rung("full"),
        Rung("max-couplings-200", {"max_couplings": 200}),
    ),
}


# -- stage runners -----------------------------------------------------------
# Each runner: (network, params) -> (items, detail), the two fields of the
# StageResult it yields.  ``detail`` is a short deterministic marker
# ("truncated", "approximate", ...), never timing data.  The one hand-off
# between stages is ``Network.instances``: the instances stage fills it
# at full fidelity, and a stage that finds it empty (the instances stage
# degraded, timed out or replayed from a checkpoint) computes it inside
# its own barrier.


def _run_links(network: Any, params: Dict[str, Any]):
    return len(network.links), ""


def _run_process_graph(network: Any, params: Dict[str, Any]):
    from repro.core.process_graph import build_process_graph  # noqa: PLC0415

    graph = build_process_graph(network, **params)
    detail = "truncated" if graph.graph.get("truncated") else ""
    return graph.number_of_edges(), detail


def _run_instances(network: Any, params: Dict[str, Any]):
    if not params:
        return len(network.instances), ""
    from repro.model.instances import compute_instances  # noqa: PLC0415

    # A degraded rung's list never enters the cache, so it cannot
    # poison the stages that read ``network.instances`` after it.
    return len(compute_instances(network, **params)), ""


def _run_pathways(network: Any, params: Dict[str, Any]):
    from repro.core.pathways import route_pathways  # noqa: PLC0415

    pathways = route_pathways(network, **params)
    truncated = any(pathway.truncated for pathway in pathways.values())
    return len(pathways), "truncated" if truncated else ""


def _run_address_space(network: Any, params: Dict[str, Any]):
    from repro.core.address_space import extract_address_space  # noqa: PLC0415

    blocks = extract_address_space(network, **params)
    return len(blocks), ""


def _run_consistency(network: Any, params: Dict[str, Any]):
    from repro.core.consistency import audit_configuration  # noqa: PLC0415

    report = audit_configuration(network, **params)
    return len(report), "truncated" if report.truncated else ""


def _run_reachability(network: Any, params: Dict[str, Any]):
    from repro.core.reachability import ReachabilityAnalysis  # noqa: PLC0415

    analysis = ReachabilityAnalysis(network, **params)
    routes = analysis.routes  # force the fixpoint inside the barrier
    return len(routes), "approximate" if analysis.approximate else ""


def _run_survivability(network: Any, params: Dict[str, Any]):
    from repro.core.survivability import analyze_survivability  # noqa: PLC0415

    report = analyze_survivability(network, **params)
    return len(report.couplings), "truncated" if report.truncated else ""


STAGE_RUNNERS: Dict[str, Callable[[Any, Dict[str, Any]], Tuple[int, str]]] = {
    "links": _run_links,
    "process_graph": _run_process_graph,
    "instances": _run_instances,
    "pathways": _run_pathways,
    "address_space": _run_address_space,
    "consistency": _run_consistency,
    "reachability": _run_reachability,
    "survivability": _run_survivability,
}

#: Exceptions worth retrying on a stricter rung: resource exhaustion the
#: bounds exist to prevent.  Anything else is deterministic — the same
#: rung would raise it again — and fails the stage immediately.
_RETRYABLE = (RecursionError, MemoryError)


@dataclass
class ExecutorConfig:
    """Policy knobs for one :class:`AnalysisExecutor`."""

    stage_deadline: Optional[float] = None  # hard per-attempt wall budget
    soft_deadline: Optional[float] = None  # warn-only budget, never cancels
    run_deadline: Optional[float] = None  # whole-run budget
    resume: bool = False  # replay finished checkpoints
    fail_fast: bool = False  # stop the run at the first timeout/failure
    checkpoints: Optional[CheckpointStore] = None  # None = checkpointing off
    chaos: ChaosPlan = field(default_factory=ChaosPlan)
    #: Stage name -> runner; swap entries to substitute a stage
    #: implementation (e.g. the compressed pathway runner).
    runners: Mapping[str, Callable[[Any, Dict[str, Any]], Tuple[int, str]]] = field(
        default_factory=lambda: dict(STAGE_RUNNERS)
    )


@dataclass
class ArchiveExecution:
    """All stage results of one archive, plus its digest."""

    archive: str
    digest: str
    results: List[StageResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        return worst_status(result.status for result in self.results) or STATUS_OK

    @property
    def counts(self) -> Dict[str, int]:
        return status_counts(self.results)

    def result(self, stage: str) -> Optional[StageResult]:
        for result in self.results:
            if result.stage == stage:
                return result
        return None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "stages": [result.as_dict() for result in self.results],
        }


class AnalysisExecutor:
    """Runs the analysis stages of each archive under the full barrier."""

    def __init__(self, config: Optional[ExecutorConfig] = None):
        self.config = config or ExecutorConfig()
        # --fail-fast tripped; remaining work skips.  An Event, not a
        # bool: the serve daemon's drain trips it from another thread,
        # and the abort must be visible there the instant it is set.
        self._abort = threading.Event()
        self._run_start = time.perf_counter()

    @property
    def aborted(self) -> bool:
        return self._abort.is_set()

    @aborted.setter
    def aborted(self, value: bool) -> None:
        if value:
            self._abort.set()
        else:
            self._abort.clear()

    # -- budgets -------------------------------------------------------------

    def _remaining_run_budget(self) -> Optional[float]:
        if self.config.run_deadline is None:
            return None
        return self.config.run_deadline - (time.perf_counter() - self._run_start)

    def _effective_hard_deadline(self) -> Optional[float]:
        hard = self.config.stage_deadline
        remaining = self._remaining_run_budget()
        if remaining is None:
            return hard
        remaining = max(remaining, 0.0)
        return remaining if hard is None else min(hard, remaining)

    # -- driving -------------------------------------------------------------

    def run_archive(self, archive: str, network: Any) -> ArchiveExecution:
        """Run every analysis stage of one loaded network.

        Each stage runs (or replays) inside one ``stage:<name>`` span, so
        the analysis spans it opens nest under it in the trace.
        """
        inventory = getattr(network, "inventory", None) or []
        digest = archive_digest((record.path, record.sha256) for record in inventory)
        execution = ArchiveExecution(archive=archive, digest=digest)
        metrics = get_registry()
        for stage in ANALYSIS_STAGES:
            with span(f"stage:{stage}") as opened:
                result = self._run_stage(archive, network, digest, stage)
                opened.set(items=result.items, status=result.status)
            execution.results.append(result)
            metrics.counter(f"exec.stage.{result.status}").inc()
            metrics.histogram("exec.stage.seconds", stage=stage).observe(
                result.seconds
            )
            self._emit_diagnostics(network, result)
            if self.config.fail_fast and result.status in (
                STATUS_TIMEOUT,
                STATUS_FAILED,
            ):
                self.aborted = True
                _log.error(
                    "fail-fast abort", archive=archive, stage=stage, status=result.status
                )
        return execution

    def _run_stage(
        self, archive: str, network: Any, digest: str, stage: str
    ) -> StageResult:
        store = self.config.checkpoints
        if store is not None and self.config.resume:
            cached = store.load(digest, stage)
            if cached is not None:
                _log.info("stage replayed from checkpoint", archive=archive, stage=stage)
                return cached
        if self.aborted:
            return StageResult(
                stage=stage, status=STATUS_SKIPPED, attempts=0, detail="fail-fast abort"
            )
        remaining = self._remaining_run_budget()
        if remaining is not None and remaining <= 0:
            return StageResult(
                stage=stage,
                status=STATUS_SKIPPED,
                attempts=0,
                detail="run deadline exhausted",
            )
        result = self._execute_ladder(archive, network, stage)
        if store is not None and result.finished:
            store.store(digest, archive, result)
        return result

    def _execute_ladder(self, archive: str, network: Any, stage: str) -> StageResult:
        ladder = DEFAULT_LADDERS[stage]
        runner = self.config.runners.get(stage) or STAGE_RUNNERS[stage]
        metrics = get_registry()
        total_seconds = 0.0
        last_error = ""
        timed_out = False
        for attempt, rung in enumerate(ladder):
            params = dict(rung.params)

            def call(attempt=attempt, params=params):
                self.config.chaos.trigger(archive, stage, attempt)
                return runner(network, params)

            outcome = run_with_deadline(
                call,
                name=f"{archive}:{stage}",
                hard_deadline=self._effective_hard_deadline(),
                soft_deadline=self.config.soft_deadline,
            )
            total_seconds += outcome.seconds
            if outcome.soft_deadline_hit:
                # The watchdog logs the event; the executor only counts it.
                metrics.counter("exec.stage.soft_deadline").inc()
            if outcome.error is not None:
                if isinstance(outcome.error, _RETRYABLE):
                    timed_out = False
                    last_error = (
                        f"{type(outcome.error).__name__}: {outcome.error}"
                    )
                    _log.warning(
                        "stage exhausted resources, degrading",
                        archive=archive,
                        stage=stage,
                        attempt=attempt,
                        error=last_error,
                    )
                    continue
                return StageResult(
                    stage=stage,
                    status=STATUS_FAILED,
                    seconds=total_seconds,
                    attempts=attempt + 1,
                    error=f"{type(outcome.error).__name__}: {outcome.error}",
                    degradation=rung.label if attempt else "",
                )
            if outcome.timed_out:
                timed_out = True
                last_error = ""
                _log.warning(
                    "stage attempt timed out",
                    archive=archive,
                    stage=stage,
                    attempt=attempt,
                    rung=rung.label,
                )
                continue
            items, detail = outcome.value
            return StageResult(
                stage=stage,
                status=STATUS_OK if attempt == 0 else STATUS_DEGRADED,
                seconds=total_seconds,
                items=items,
                attempts=attempt + 1,
                detail=detail,
                degradation=rung.label if attempt else "",
            )
        # Ladder exhausted without a finished attempt.
        if timed_out:
            return StageResult(
                stage=stage,
                status=STATUS_TIMEOUT,
                seconds=total_seconds,
                attempts=len(ladder),
                detail="hard deadline on every rung",
            )
        return StageResult(
            stage=stage,
            status=STATUS_FAILED,
            seconds=total_seconds,
            attempts=len(ladder),
            error=last_error,
        )

    # -- reporting -----------------------------------------------------------

    @staticmethod
    def _emit_diagnostics(network: Any, result: StageResult) -> None:
        """Fold a stage outcome into the network's diagnostic sink.

        Deterministic by construction — messages derive only from the
        result summary (status, rung, error text), never from wall time
        or checkpoint provenance, so a resumed run re-emits exactly what
        the uninterrupted run would have.
        """
        sink = network.diagnostics
        if result.status == STATUS_DEGRADED:
            sink.warning(
                PHASE_ANALYSIS,
                f"stage {result.stage} degraded ({result.degradation})",
            )
        elif result.status == STATUS_TIMEOUT:
            sink.error(
                PHASE_ANALYSIS,
                f"stage {result.stage} timed out ({result.detail})",
            )
        elif result.status == STATUS_FAILED:
            sink.error(
                PHASE_ANALYSIS,
                f"stage {result.stage} failed: {result.error}",
            )
        elif result.status == STATUS_SKIPPED:
            sink.warning(
                PHASE_ANALYSIS,
                f"stage {result.stage} skipped ({result.detail})",
            )


__all__ = [
    "ANALYSIS_STAGES",
    "AnalysisExecutor",
    "ArchiveExecution",
    "DEFAULT_LADDERS",
    "ExecutorConfig",
    "Rung",
    "STAGE_RUNNERS",
]
