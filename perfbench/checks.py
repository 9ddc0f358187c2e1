"""Output checks: each returns a list of failure messages (empty = pass).

The checks are pure functions over what the measured child captured —
CLI payloads, generation payloads, per-edit records — so the self-test
can feed them tampered copies and see each one fail.  Normalizers come
from the program (``normalize_corpus_payload``, ``normalize_generation``);
the checks only decide what must agree.
"""

from __future__ import annotations

from typing import Any, Dict, List


def _stage_rows(payload: Dict[str, Any]):
    for entry in payload.get("archives", []):
        for stage in (entry.get("execution") or {}).get("stages", []):
            yield entry["archive"], stage


def stage_failures(payload: Dict[str, Any]) -> List[str]:
    """Every archive×stage pair of a ``repro corpus`` payload is ``ok``."""
    failures = [
        f"{archive}:{stage['stage']} is {stage['status']}"
        for archive, stage in _stage_rows(payload)
        if stage.get("status") != "ok"
    ]
    if not any(True for _ in _stage_rows(payload)):
        failures.append("payload has no archive×stage results")
    return failures


def instance_counts(payload: Dict[str, Any]) -> Dict[str, int]:
    """Archive → routing instances found (the ``instances`` stage items)."""
    return {
        archive: stage.get("items")
        for archive, stage in _stage_rows(payload)
        if stage.get("stage") == "instances"
    }


def check_corpus(
    payload: Dict[str, Any],
    expect: Dict[str, Any],
    resumed_equal: bool,
    notes: Dict[str, Any],
) -> List[str]:
    """``paper-corpus``: stages ok, parsed = files, spec counts, resume.

    ``notes`` receives every known instance-count disagreement by name
    and value; an unknown disagreement, or a known one with another
    value, fails.
    """
    failures = stage_failures(payload)
    archives = {entry["archive"]: entry for entry in payload.get("archives", [])}
    if sorted(archives) != sorted(expect["archives"]):
        failures.append(
            f"archives {sorted(archives)} != generated {sorted(expect['archives'])}"
        )
    found = instance_counts(payload)
    gaps = expect.get("known_instance_gaps", {})
    recorded = notes.setdefault("instance_disagreements", {})
    for name, truth in sorted(expect["archives"].items()):
        entry = archives.get(name)
        if entry is None:
            continue
        if entry.get("parsed") != entry.get("files"):
            failures.append(f"{name}: parsed {entry.get('parsed')} of {entry.get('files')} files")
        if entry.get("routers") != truth["routers"]:
            failures.append(f"{name}: {entry.get('routers')} routers, spec {truth['routers']}")
        got = found.get(name)
        if got != truth["instances"]:
            if name in gaps and got is not None and got - truth["instances"] == gaps[name]:
                recorded[name] = {"spec": truth["instances"], "found": got}
            else:
                failures.append(f"{name}: {got} instances, spec {truth['instances']}")
    if not resumed_equal:
        failures.append("--resume re-run does not normalize to the cold run")
    return failures


def check_pod(
    payload: Dict[str, Any],
    expect: Dict[str, Any],
    classes: int,
    pathway_mismatches: List[str],
) -> List[str]:
    """``pod-compress``: stages ok, class count, compressed = direct pathways."""
    failures = stage_failures(payload)
    routers = payload.get("totals", {}).get("routers")
    if routers != expect["routers"]:
        failures.append(f"{routers} routers, generator built {expect['routers']}")
    if classes != expect["classes"]:
        failures.append(f"{classes} classes, generator predicts {expect['classes']}")
    if not payload.get("compress"):
        failures.append("payload does not record --compress")
    failures.extend(f"pathway of {router}: compressed != direct" for router in pathway_mismatches)
    return failures


def check_sweep(payload: Dict[str, Any], enumerated: int) -> List[str]:
    """``sweep-backbone``: every scenario ok, count = ``enumerate_scenarios``."""
    rows = [row for entry in payload.get("archives", []) for row in entry.get("rows", [])]
    failures = [
        f"scenario {row.get('scenario')} is {row.get('status')}"
        for row in rows
        if row.get("status") != "ok"
    ]
    if len(rows) != enumerated:
        failures.append(f"{len(rows)} scenarios swept, enumerate_scenarios gives {enumerated}")
    return failures


def check_serve(
    edits: List[Dict[str, Any]], expected_edits: int, final_equal: bool
) -> List[str]:
    """``serve-edit``: one complete generation and one parse per edit."""
    failures = []
    if len(edits) != expected_edits:
        failures.append(f"{len(edits)} edits served, script has {expected_edits}")
    previous = None
    for index, record in enumerate(edits):
        if not record.get("complete"):
            failures.append(f"edit {index}: generation incomplete ({record.get('error')})")
        if previous is not None and record.get("generation") != previous + 1:
            failures.append(
                f"edit {index}: generation {record.get('generation')} after {previous}"
            )
        if record.get("parsed") != 1:
            failures.append(f"edit {index}: parsed {record.get('parsed')} files, not 1")
        previous = record.get("generation")
    if not final_equal:
        failures.append("last generation does not normalize to a cold one-shot run")
    return failures
