"""Normalization of ``repro corpus --json`` payloads.

Two ``repro corpus`` runs over the same bytes must report the same
results, whatever flags only tune how they run (``--jobs``,
``--archive-jobs``, ``--compress``).  This module defines what
"results" means: :func:`normalize_corpus_payload` strips every field
that legitimately varies between two such runs — wall seconds,
throughput rates, cache/checkpoint hit statistics — and keeps
everything that must agree: archive order and identity,
router/file/parsed/cached/quarantined counts, per-stage statuses and
item counts, diagnostics exit codes, and the corpus totals.  The
equivalence tests and the CI gates diff exactly this view.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.manifest import normalize_execution
from repro.obs.trace import Span


def stage_row(
    name: str, seconds: float, items: int, counters: Optional[Dict[str, int]] = None
) -> Dict[str, Any]:
    """One ``stages`` row of a corpus payload: wall seconds, item count,
    items per second, and any counters (``parsed``/``cached`` on the
    parse row).  ``--stage-deadline auto`` reads the same shape from the
    throughput benchmark's results (:mod:`repro.exec.budget`)."""
    row: Dict[str, Any] = {"name": name, "seconds": round(seconds, 6), "items": items}
    if items and seconds > 0:
        row["items_per_second"] = round(items / seconds, 1)
    if counters:
        row["counters"] = dict(counters)
    return row


def span_row(stage: Span) -> Dict[str, Any]:
    """The :func:`stage_row` of a ``stage:<name>`` span: its ``items``
    attribute is the item count, every other attribute a counter."""
    counters = dict(stage.attributes)
    items = counters.pop("items", 0)
    return stage_row(stage.name.split(":", 1)[-1], stage.seconds, items, counters)


def _normalize_stage(stage: Dict[str, Any]) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "name": stage.get("name"),
        "items": stage.get("items"),
    }
    if stage.get("counters"):
        entry["counters"] = dict(stage["counters"])
    if stage.get("status") is not None:
        entry["status"] = stage["status"]
    return entry


def _normalize_archive(entry: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "archive": entry.get("archive"),
        "routers": entry.get("routers"),
        "files": entry.get("files"),
        "parsed": entry.get("parsed"),
        "cached": entry.get("cached"),
        "quarantined": entry.get("quarantined"),
        "exit_code": entry.get("exit_code"),
        "status": entry.get("status"),
        "stage_counts": entry.get("stage_counts"),
        "execution": normalize_execution(entry.get("execution")),
        "stages": [_normalize_stage(stage) for stage in entry.get("stages", [])],
    }


def normalize_corpus_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic core of a ``repro corpus --json`` payload.

    Two runs over the same corpus with the same cache temperature must
    normalize identically whatever ``--jobs`` and ``--archive-jobs``
    were.  Stripped: wall seconds and throughput rates, cache and
    checkpoint statistics, and the scheduling knobs themselves.
    Kept: archives in corpus order with their counts, statuses, stage
    outcomes, and exit codes; the execution policy flags; ignored loose
    files; and the corpus totals.
    """
    execution = payload.get("execution") or {}
    normalized_execution: Optional[Dict[str, Any]] = None
    if execution:
        normalized_execution = {
            key: execution.get(key)
            for key in (
                "stage_deadline",
                "soft_deadline",
                "run_deadline",
                "resume",
                "fail_fast",
            )
        }
    totals = {
        key: value
        for key, value in (payload.get("totals") or {}).items()
        if key != "seconds"
    }
    normalized: Dict[str, Any] = {
        "corpus": payload.get("corpus"),
        "execution": normalized_execution,
        "archives": [
            _normalize_archive(entry) for entry in payload.get("archives", [])
        ],
        "totals": totals,
    }
    ignored: List[str] = payload.get("ignored_files") or []
    if ignored:
        normalized["ignored_files"] = list(ignored)
    return normalized


__all__ = ["normalize_corpus_payload", "span_row", "stage_row"]
