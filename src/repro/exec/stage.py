"""The stage vocabulary of the resilient analysis executor.

Every per-network analysis pass runs as one *stage* and ends in exactly
one :class:`StageResult`.  The stage state machine (see ARCHITECTURE.md,
"Execution & failure semantics")::

    ok ──► degraded ──► timeout ──► failed        (increasing severity)
                                        skipped   (never attempted)

* ``ok`` — the stage completed at full fidelity.
* ``degraded`` — the full-fidelity attempt blew its budget; a retry on a
  degradation rung (capped prefix set, depth limit, ...) produced a
  clearly-labeled approximate result.
* ``timeout`` — every attempt hit the hard deadline; the stage was
  cancelled and contributes no result (but the run kept going).
* ``failed`` — the stage raised; the exception is recorded and the run
  kept going.
* ``skipped`` — the stage never started (run deadline exhausted, or an
  earlier failure under ``--fail-fast``).

``ok`` and ``degraded`` are *finished* states — they are checkpointed and
replayed by ``--resume``.  ``timeout``/``failed``/``skipped`` are
*unfinished*: a resumed run re-executes exactly those pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_TIMEOUT = "timeout"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"

#: All stage statuses, mildest first.
STATUSES = (STATUS_OK, STATUS_DEGRADED, STATUS_TIMEOUT, STATUS_FAILED, STATUS_SKIPPED)

#: Severity rank used by :func:`worst_status` (skipped ranks below failed:
#: a skipped stage was a policy decision, not a malfunction — but it still
#: leaves the pair unfinished).
_SEVERITY = {
    STATUS_OK: 0,
    STATUS_DEGRADED: 1,
    STATUS_SKIPPED: 2,
    STATUS_TIMEOUT: 3,
    STATUS_FAILED: 4,
}

#: Statuses that leave a usable (possibly approximate) result behind.
FINISHED_STATUSES = (STATUS_OK, STATUS_DEGRADED)

#: The per-network analysis stages the executor drives, in dependency
#: order.  ``links`` is the model's link-inference pass; the remaining
#: seven are the paper's analyses (§3, §5–§8).
ANALYSIS_STAGES = (
    "links",
    "process_graph",
    "instances",
    "pathways",
    "address_space",
    "consistency",
    "reachability",
    "survivability",
)


@dataclass
class StageResult:
    """The outcome of one (archive, stage) pair: the summary a checkpoint
    stores.

    A fresh result and one replayed from a checkpoint carry the same
    fields and differ only in ``from_checkpoint``; the analysis product
    itself stays inside the stage runner.
    """

    stage: str
    status: str = STATUS_OK
    seconds: float = 0.0
    items: int = 0
    attempts: int = 1
    detail: str = ""
    error: str = ""
    degradation: str = ""
    from_checkpoint: bool = False
    #: Optional JSON-ready payload that persists through checkpoints:
    #: small structured summaries a resumed run needs to rebuild its
    #: report — e.g. one failure scenario's reachability delta.  Keep it
    #: small and deterministic.
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown stage status: {self.status!r}")

    @property
    def finished(self) -> bool:
        """True when the pair needs no re-execution on ``--resume``."""
        return self.status in FINISHED_STATUSES

    @property
    def degraded(self) -> bool:
        """True for any not-fully-ok outcome (feeds the error budget)."""
        return self.status != STATUS_OK

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the checkpoint/manifest form)."""
        data: Dict[str, Any] = {
            "stage": self.stage,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "items": self.items,
            "attempts": self.attempts,
        }
        for key in ("detail", "error", "degradation"):
            if getattr(self, key):
                data[key] = getattr(self, key)
        if self.from_checkpoint:
            data["from_checkpoint"] = True
        if self.data:
            data["data"] = self.data
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StageResult":
        """Rebuild a result from its summary (e.g. a checkpoint entry)."""
        return cls(
            stage=data["stage"],
            status=data["status"],
            seconds=float(data.get("seconds", 0.0)),
            items=int(data.get("items", 0)),
            attempts=int(data.get("attempts", 1)),
            detail=str(data.get("detail", "")),
            error=str(data.get("error", "")),
            degradation=str(data.get("degradation", "")),
            from_checkpoint=bool(data.get("from_checkpoint", False)),
            data=dict(data.get("data") or {}),
        )


def worst_status(statuses: Iterable[str]) -> Optional[str]:
    """The most severe status present, or ``None`` for an empty iterable."""
    worst: Optional[str] = None
    for status in statuses:
        if status not in _SEVERITY:
            raise ValueError(f"unknown stage status: {status!r}")
        if worst is None or _SEVERITY[status] > _SEVERITY[worst]:
            worst = status
    return worst


def status_counts(results: Iterable[StageResult]) -> Dict[str, int]:
    """``{status: count}`` over *results* — the run's error budget view."""
    counts = {status: 0 for status in STATUSES}
    for result in results:
        counts[result.status] += 1
    return counts


__all__ = [
    "ANALYSIS_STAGES",
    "FINISHED_STATUSES",
    "STATUSES",
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "STATUS_TIMEOUT",
    "StageResult",
    "status_counts",
    "worst_status",
]
