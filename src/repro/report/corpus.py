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


__all__ = ["normalize_corpus_payload"]
