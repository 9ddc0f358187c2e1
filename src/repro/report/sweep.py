"""Rendering of failure-sweep results.

:func:`format_sweep_report` turns one archive's ranked sweep rows into
the human table.  Two ``repro sweep --json`` payloads over the same
bytes — at any ``--jobs``, uninterrupted or killed-then-``--resume``d —
must be equal under :func:`repro.obs.manifest.normalize_run`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.report.tables import format_table

#: Default number of ranked rows the human table shows per archive.
DEFAULT_TOP = 15


def _delta_cell(row: Dict[str, Any]) -> str:
    delta = row.get("delta")
    if not delta:
        return "-"
    parts = [f"-{delta.get('lost_pairs', 0)} pairs"]
    partitioned = delta.get("partitioned_instances") or []
    if partitioned:
        parts.append(f"{len(partitioned)} inst split")
    changed = delta.get("changed_paths", 0)
    if changed:
        parts.append(f"{changed} rerouted")
    return ", ".join(parts)


def format_sweep_report(
    sweep: Dict[str, Any], top: Optional[int] = DEFAULT_TOP
) -> str:
    """The fragility table for one archive's sweep payload dict."""
    rows = sweep.get("rows", [])
    shown = rows if top is None else rows[:top]
    table_rows = [
        (
            row["scenario"],
            row["status"],
            _delta_cell(row),
            ",".join(row.get("tags", [])) or "-",
            row.get("error") or row.get("detail") or "",
        )
        for row in shown
    ]
    lines = [
        format_table(
            ["scenario", "status", "impact", "static tags", "note"],
            table_rows,
            title=(
                f"fragility ranking — {sweep.get('archive')} "
                f"({len(rows)} scenario(s))"
            ),
        )
    ]
    if top is not None and len(rows) > top:
        lines.append(f"  ... {len(rows) - top} lower-impact scenario(s) not shown")
    baseline = sweep.get("baseline") or {}
    plan = sweep.get("plan") or {}
    lines.append(
        f"  baseline: {baseline.get('pairs', 0)} reachable pairs across "
        f"{baseline.get('instances', 0)} instance(s); plan: "
        f"{plan.get('singles', 0)} single(s), "
        f"{plan.get('doubles_sampled', 0)} of {plan.get('doubles_possible', 0)} "
        f"double(s)"
    )
    counts = sweep.get("status_counts") or {}
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    if summary:
        lines.append(f"  scenario statuses: {summary}")
    if sweep.get("stopped_after"):
        lines.append(f"  fail-fast: stopped after {sweep['stopped_after']}")
    return "\n".join(lines)


__all__ = ["DEFAULT_TOP", "format_sweep_report"]
