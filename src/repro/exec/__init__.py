"""Resilient analysis execution.

One bad archive — or one pathological analysis blowup — must not take a
31-network corpus run down with it.  This package wraps every
per-network analysis stage in an exception barrier with wall-clock
deadlines (:mod:`~repro.exec.watchdog`), bounded
retry-with-degradation ladders (:mod:`~repro.exec.executor`),
content-addressed per-(archive, stage) checkpoints for ``--resume``
(:mod:`~repro.exec.checkpoint`), injectable chaos hooks for testing the
whole thing (:mod:`~repro.exec.chaos`), and deadline defaults derived
from measured stage timings (:mod:`~repro.exec.budget`).
"""

from repro.exec.budget import DeadlineSuggestion, suggest_stage_deadline
from repro.exec.chaos import CHAOS_ENV, ChaosError, ChaosPlan, ChaosRule, SimulatedKill
from repro.exec.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    default_checkpoint_dir,
)
from repro.exec.executor import (
    DEFAULT_LADDERS,
    AnalysisExecutor,
    ArchiveExecution,
    ExecutorConfig,
    Rung,
)
from repro.exec.stage import (
    ANALYSIS_STAGES,
    FINISHED_STATUSES,
    STATUSES,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    StageResult,
    status_counts,
    worst_status,
)
from repro.exec.watchdog import StageCancelled, WatchdogOutcome, run_with_deadline

__all__ = [
    "ANALYSIS_STAGES",
    "AnalysisExecutor",
    "ArchiveExecution",
    "CHAOS_ENV",
    "CHECKPOINT_SCHEMA",
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "CheckpointStore",
    "DEFAULT_LADDERS",
    "DeadlineSuggestion",
    "ExecutorConfig",
    "FINISHED_STATUSES",
    "Rung",
    "STATUSES",
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "STATUS_TIMEOUT",
    "SimulatedKill",
    "StageCancelled",
    "StageResult",
    "WatchdogOutcome",
    "default_checkpoint_dir",
    "run_with_deadline",
    "status_counts",
    "suggest_stage_deadline",
    "worst_status",
]
