"""Resilient analysis execution.

One bad archive — or one pathological analysis blowup — must not take a
31-network corpus run down with it.  This package wraps every
per-network analysis stage in an exception barrier with wall-clock
deadlines (:mod:`~repro.exec.watchdog`), bounded
retry-with-degradation ladders (:mod:`~repro.exec.executor`),
content-addressed per-(archive, stage) checkpoints for ``--resume``
(:mod:`~repro.exec.checkpoint`), injectable chaos hooks for testing the
whole thing (:mod:`~repro.exec.chaos`), deadline defaults derived
from measured stage timings (:mod:`~repro.exec.budget`), and a
corpus-level scheduler that walks the archives in order and accounts
for every one of them (:mod:`~repro.exec.scheduler`).
"""

from repro.exec.budget import DeadlineSuggestion, suggest_stage_deadline
from repro.exec.chaos import CHAOS_ENV, ChaosError, ChaosPlan, ChaosRule, SimulatedKill
from repro.exec.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    archive_digest,
    default_checkpoint_dir,
)
from repro.exec.executor import (
    DEFAULT_LADDERS,
    AnalysisExecutor,
    ArchiveExecution,
    ExecutorConfig,
    Rung,
    StageContext,
)
from repro.exec.scheduler import ArchiveOutcome, CorpusScheduler, archive_name
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
    "ArchiveOutcome",
    "CHAOS_ENV",
    "CHECKPOINT_SCHEMA",
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "CheckpointStore",
    "CorpusScheduler",
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
    "StageContext",
    "StageResult",
    "WatchdogOutcome",
    "archive_digest",
    "archive_name",
    "default_checkpoint_dir",
    "run_with_deadline",
    "status_counts",
    "suggest_stage_deadline",
    "worst_status",
]
