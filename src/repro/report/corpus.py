"""Rows of the ``repro corpus --json`` payload.

Two ``repro corpus`` runs over the same bytes must report the same
results, whatever flags only tune how they run (``--jobs``,
``--archive-jobs``, ``--compress``): their payloads must be equal under
:func:`repro.obs.manifest.normalize_run`, the one run-equivalence rule.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.manifest import normalize_run
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


#: ``perfbench`` imports the corpus gate's normalizer by this name; it is
#: the one run-equivalence rule.
normalize_corpus_payload = normalize_run


__all__ = ["normalize_corpus_payload", "span_row", "stage_row"]
