"""The resumable failure-sweep runner.

One sweep = one network × one enumerated scenario list.  Every scenario
is simulated under the executor's robustness contract:

* **exception barrier** — a scenario whose simulation raises becomes a
  ``status: failed`` row; the sweep keeps going;
* **deadlines** — with a scenario deadline configured, the simulation
  runs under :func:`~repro.exec.watchdog.run_with_deadline`; a hang
  becomes a ``status: timeout`` row;
* **chaos** — :class:`~repro.exec.chaos.ChaosPlan` triggers fire at the
  top of every scenario with ``stage = scenario_id`` (ids are fnmatch-
  and ``REPRO_CHAOS``-safe by construction);
* **checkpoints** — finished rows (``ok``/``degraded``) persist their
  delta into the :class:`~repro.exec.checkpoint.CheckpointStore` under
  ``(archive digest, "sweep1.<scenario_id>")``; ``resume=True`` replays
  them without re-simulating;
* **kill semantics** — :class:`~repro.exec.chaos.SimulatedKill` (and any
  other non-``Exception``) is never converted to a row; the watchdog
  raises it, and it propagates out of the sweep with whatever
  checkpoints were already written.

Determinism: scenario outcomes depend only on the network and the chaos
rules, never on worker interleaving, so the ranked row list — sorted by
:func:`~repro.sweep.baseline.severity_key` — is identical at any
``jobs`` value and for any permutation of the scenario list.

One loop reads every result in enumeration order, serial or pooled,
and checkpoints each finished one as it reads it.  Under ``fail_fast``
it stops at the first unfinished result, and every scenario after that
one reports ``skipped``; what is stored, and what a later ``--resume``
replays, is therefore the same at any ``jobs`` value.  A kill at
scenario *k* leaves exactly the finished scenarios before *k*: a pooled
result that finished behind a still-running earlier scenario is lost
with the kill.

Parallel execution ships the pickled network, its transfer table and
the baseline to each worker process once (initializer), then maps
scenarios through the pool in submission order; the pure-Python
simulation holds the GIL, so threads would serialize and processes are
the only parallelism that pays.  This scenario pool is the program's
one parallel grain: a scenario is a whole routing fixpoint (about 18 ms
at 48 routers), so its IPC amortizes, where per-file parsing and
per-archive threads did not.  The pool never runs more workers than the
usable CPUs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.survivability import SurvivabilityReport
from repro.exec.chaos import ChaosPlan
from repro.exec.checkpoint import CheckpointStore
from repro.exec.stage import (
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
from repro.model.network import Network
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.routing.engine import RoutingSimulation, TransferTable
from repro.sweep.baseline import (
    BaselineSnapshot,
    compute_baseline,
    scenario_delta,
    severity_key,
)
from repro.sweep.scenarios import (
    DEFAULT_DOUBLE_BUDGET,
    Scenario,
    ScenarioPlan,
    dedupe_scenario_ids,
    enumerate_scenarios,
)

_log = get_logger("sweep")

#: Below this many scenarios, auto job selection stays serial: a pool's
#: start-up and IPC cost is not repaid by a small sweep.
PARALLEL_THRESHOLD = 24

#: Auto-detected worker ceiling — returns diminish well before the core
#: counts of large hosts.
MAX_AUTO_JOBS = 16

#: Checkpoint stage-key prefix.  The ``1`` is the sweep schema version:
#: bumping it orphans (and therefore invalidates) every older sweep
#: checkpoint when delta semantics change.
SCENARIO_STAGE_PREFIX = "sweep1."

#: Fixpoint round limit for the baseline and every scenario; a scenario
#: that reaches it becomes a ``degraded`` (diverged) row.
MAX_ITERATIONS = 1000


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int], n_items: int) -> int:
    """Turn a user ``jobs`` request into a concrete worker count.

    ``None``/``0`` auto-detects: serial below :data:`PARALLEL_THRESHOLD`
    items, else one worker per CPU capped at :data:`MAX_AUTO_JOBS`.
    Explicit requests are honored up to the item count and the usable
    CPUs: a pool wider than the hardware time-slices the same cores and
    pays IPC for it, so ``--jobs 4`` on a 1-CPU host runs serial.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if n_items <= 0:
        return 1
    if not jobs:  # None or 0 → auto
        if n_items < PARALLEL_THRESHOLD:
            return 1
        return max(1, min(available_cpus(), MAX_AUTO_JOBS, n_items))
    return max(1, min(jobs, n_items, available_cpus()))


@dataclass
class SweepConfig:
    """Everything that shapes one sweep run.

    The enumeration knobs (``depth``/``double_budget``/``seed``/
    ``max_scenarios``) feed :func:`~repro.sweep.scenarios.enumerate_scenarios`;
    the rest configure execution.
    """

    depth: int = 1
    double_budget: int = DEFAULT_DOUBLE_BUDGET
    seed: int = 0
    max_scenarios: Optional[int] = None
    jobs: Optional[int] = None
    #: Hard per-scenario wall-clock deadline (seconds); ``None`` = none.
    scenario_deadline: Optional[float] = None
    #: Soft per-scenario deadline: logs a warning, never cancels.
    scenario_soft_deadline: Optional[float] = None
    fail_fast: bool = False
    checkpoints: Optional[CheckpointStore] = None
    resume: bool = False
    chaos: ChaosPlan = field(default_factory=ChaosPlan)


@dataclass
class SweepResult:
    """One finished sweep: ranked rows plus run accounting."""

    archive: str
    plan: Dict[str, Any]
    baseline: Dict[str, Any]
    #: One dict per scenario, ranked most-damaging first (severity_key).
    rows: List[Dict[str, Any]] = field(default_factory=list)
    seconds: float = 0.0
    workers: int = 1
    replayed: int = 0
    #: Scenario id of the fail-fast trigger, when the sweep stopped early.
    stopped_after: Optional[str] = None

    @property
    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for row in self.rows:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
        return counts

    @property
    def worst_status(self) -> Optional[str]:
        return worst_status(row["status"] for row in self.rows)

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "archive": self.archive,
            "plan": dict(self.plan),
            "baseline": dict(self.baseline),
            "status_counts": self.status_counts,
            "rows": [dict(row) for row in self.rows],
            "seconds": round(self.seconds, 6),
            "workers": self.workers,
            "replayed": self.replayed,
        }
        if self.stopped_after is not None:
            data["stopped_after"] = self.stopped_after
        return data


def _simulate(
    network: Network,
    scenario: Scenario,
    baseline: BaselineSnapshot,
    table: TransferTable,
) -> Dict[str, Any]:
    """Simulate one scenario and return its delta payload.

    ``validate=False``: the scenario enumerator derived the failure sets
    from the network model itself, so re-validation could only reject
    its own input.  *table* is the network's one compiled transfer table.
    """
    simulation = RoutingSimulation(
        network,
        failed_routers=scenario.failed_routers,
        failed_subnets=scenario.failed_subnets,
        validate=False,
        table=table,
    ).run(max_iterations=MAX_ITERATIONS, on_divergence="degrade")
    return scenario_delta(baseline, simulation, scenario)


def _execute_scenario(
    scenario: Scenario, state: Dict[str, Any]
) -> Tuple[StageResult, bool]:
    """One scenario under chaos + deadline + exception barrier.

    *state* holds what every scenario of the sweep shares: the network,
    its transfer table, archive name, baseline, chaos plan and the two
    deadlines.  Returns the scenario's result and whether its attempt
    crossed the soft deadline; the parent counts the latter, so a pool
    worker's event is not lost.  Runs on the calling thread (serial
    path) or inside a worker process (parallel path) — the semantics are
    identical because the watchdog wraps the attempt in both, and raises
    a non-``Exception`` escapee (SimulatedKill, KeyboardInterrupt) rather
    than folding it into a row.
    """
    archive = state["archive"]

    def attempt() -> Dict[str, Any]:
        state["chaos"].trigger(archive, scenario.scenario_id, 0)
        return _simulate(state["network"], scenario, state["baseline"], state["table"])

    hard_deadline = state["hard_deadline"]
    outcome = run_with_deadline(
        attempt,
        name=f"{archive}:{scenario.scenario_id}",
        hard_deadline=hard_deadline,
        soft_deadline=state["soft_deadline"],
    )
    stage = SCENARIO_STAGE_PREFIX + scenario.scenario_id
    if outcome.timed_out:
        result = StageResult(
            stage=stage,
            status=STATUS_TIMEOUT,
            seconds=outcome.seconds,
            detail=f"hard deadline {hard_deadline}s",
        )
    elif outcome.error is not None:
        result = StageResult(
            stage=stage,
            status=STATUS_FAILED,
            seconds=outcome.seconds,
            error=f"{type(outcome.error).__name__}: {outcome.error}",
        )
    else:
        delta = outcome.value
        diverged = not delta.get("converged", True)
        result = StageResult(
            stage=stage,
            status=STATUS_DEGRADED if diverged else STATUS_OK,
            seconds=outcome.seconds,
            items=int(delta.get("lost_pairs", 0)),
            degradation="diverged" if diverged else "",
            data=delta,
        )
    return result, outcome.soft_deadline_hit


# -- process-pool plumbing ---------------------------------------------------
#
# The worker state is installed once per worker process by the pool
# initializer; scenarios then cross the process boundary as the only
# per-task payload.

_WORKER_STATE: Dict[str, Any] = {}


def _init_sweep_worker(state: Dict[str, Any]) -> None:
    _WORKER_STATE.update(state)


def _sweep_worker(scenario: Scenario) -> Tuple[StageResult, bool]:
    return _execute_scenario(scenario, _WORKER_STATE)


def _build_row(scenario: Scenario, result: StageResult) -> Dict[str, Any]:
    """The JSON-ready report row for one (scenario, result) pair."""
    row: Dict[str, Any] = {
        "scenario": scenario.scenario_id,
        "kind": scenario.kind,
        "failed_routers": list(scenario.failed_routers),
        "failed_subnets": list(scenario.failed_subnets),
        "tags": list(scenario.tags),
        "status": result.status,
        "seconds": round(result.seconds, 6),
        "delta": dict(result.data) if result.data else None,
    }
    for key in ("detail", "error", "degradation"):
        if getattr(result, key):
            row[key] = getattr(result, key)
    if result.from_checkpoint:
        row["from_checkpoint"] = True
    return row


def run_network_sweep(
    network: Network,
    archive: str = "network",
    survivability: Optional[SurvivabilityReport] = None,
    config: Optional[SweepConfig] = None,
    plan: Optional[ScenarioPlan] = None,
) -> SweepResult:
    """Sweep every failure scenario of one network.

    ``network.digest`` keys the checkpoint store; a network without one
    (not read from bytes) runs uncheckpointed even when a store is
    configured.  *plan* overrides scenario enumeration (tests permute
    it); the ranked output is order-invariant either way.  The baseline
    is always recomputed — it is deterministic from the network and
    cheap relative to the scenario fan-out, so checkpointing its
    (potentially large) pair set buys nothing.
    """
    config = config or SweepConfig()
    start = time.perf_counter()
    if plan is None:
        plan = enumerate_scenarios(
            network,
            depth=config.depth,
            double_budget=config.double_budget,
            seed=config.seed,
            survivability=survivability,
            max_scenarios=config.max_scenarios,
        )
    # Defensive for caller-supplied plans: the result table and the
    # checkpoint keys are scenario-id keyed, so duplicates would silently
    # overwrite each other's verdicts.
    scenarios = dedupe_scenario_ids(list(plan.scenarios), network)
    metrics = get_registry()

    digest = network.digest
    store = config.checkpoints if digest is not None else None

    # Replay finished scenarios from the checkpoint store.
    results: Dict[str, StageResult] = {}
    # Scenarios whose attempt crossed the soft deadline.
    over_soft: Set[str] = set()
    replayed = 0
    if config.resume and store is not None:
        for scenario in scenarios:
            loaded = store.load(digest, SCENARIO_STAGE_PREFIX + scenario.scenario_id)
            if loaded is not None and loaded.finished:
                results[scenario.scenario_id] = loaded
                replayed += 1
    pending = [s for s in scenarios if s.scenario_id not in results]

    # One transfer table for the baseline and every scenario.
    table = TransferTable(network)
    baseline = compute_baseline(network, max_iterations=MAX_ITERATIONS, table=table)
    state = {
        "network": network,
        "table": table,
        "archive": archive,
        "baseline": baseline,
        "chaos": config.chaos,
        "hard_deadline": config.scenario_deadline,
        "soft_deadline": config.scenario_soft_deadline,
    }

    # The serial path and the pool differ only in how a scenario becomes
    # its result; both yield results in enumeration order.
    workers = resolve_jobs(config.jobs, len(pending))
    pool: Optional[ProcessPoolExecutor] = None
    outcomes: Iterator[Tuple[StageResult, bool]]
    stopped_after: Optional[str] = None
    try:
        if workers > 1:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_sweep_worker,
                initargs=(state,),
            )
            outcomes = pool.map(_sweep_worker, pending)
        else:
            outcomes = (_execute_scenario(scenario, state) for scenario in pending)
        for scenario, (result, soft_deadline_hit) in zip(pending, outcomes):
            results[scenario.scenario_id] = result
            if soft_deadline_hit:
                over_soft.add(scenario.scenario_id)
            if result.finished:
                if store is not None:
                    store.store(digest, archive, result)
            elif config.fail_fast:
                stopped_after = scenario.scenario_id
                break
    except BaseException:
        # A kill (SimulatedKill crosses the process boundary and is
        # raised here by the pool) ends the sweep without waiting.
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    if pool is not None:
        # After a fail-fast stop: drop what has not started, wait for
        # what is still running.
        pool.shutdown(cancel_futures=True)

    if stopped_after is not None:
        ids = [scenario.scenario_id for scenario in scenarios]
        for scenario in scenarios[ids.index(stopped_after) + 1:]:
            results[scenario.scenario_id] = StageResult(
                stage=SCENARIO_STAGE_PREFIX + scenario.scenario_id,
                status=STATUS_SKIPPED,
                detail=f"fail-fast after {stopped_after}",
            )

    # Metrics are recorded parent-side, in enumeration order, so the
    # registry reads identically at any jobs value.
    ordered: List[Tuple[Scenario, StageResult]] = [
        (s, results[s.scenario_id]) for s in scenarios
    ]
    for scenario, result in ordered:
        metrics.counter(f"sweep.scenario.{result.status}").inc()
        if scenario.scenario_id in over_soft:
            metrics.counter("sweep.scenario.soft_deadline").inc()
        if result.from_checkpoint:
            metrics.counter("sweep.scenario.replayed").inc()
        else:
            metrics.histogram("sweep.scenario.seconds").observe(result.seconds)

    rows = sorted(
        (_build_row(scenario, result) for scenario, result in ordered),
        key=severity_key,
    )
    counts = status_counts(result for _s, result in ordered)
    seconds = time.perf_counter() - start
    _log.info(
        "sweep done",
        archive=archive,
        scenarios=len(rows),
        replayed=replayed,
        workers=workers,
        worst=worst_status(r["status"] for r in rows) if rows else None,
        seconds=round(seconds, 3),
        **{f"n_{k}": v for k, v in counts.items() if v},
    )
    return SweepResult(
        archive=archive,
        plan=plan.as_dict(),
        baseline=baseline.as_dict(),
        rows=rows,
        seconds=seconds,
        workers=workers,
        replayed=replayed,
        stopped_after=stopped_after,
    )


__all__ = [
    "MAX_AUTO_JOBS",
    "MAX_ITERATIONS",
    "PARALLEL_THRESHOLD",
    "SCENARIO_STAGE_PREFIX",
    "SweepConfig",
    "SweepResult",
    "available_cpus",
    "resolve_jobs",
    "run_network_sweep",
]
