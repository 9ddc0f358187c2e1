"""Run manifests: account for every input file of every run.

The paper's corpus is 8,035 configuration files across 31 networks; a
batch analyzer that cannot say exactly which files it read, which it
parsed, which it replayed from cache, and which it quarantined is
unauditable at that scale.  ``--run-report r.json`` closes that gap: the
manifest inventories every input file (path, size, SHA-256, cache
disposition), snapshots the metrics registry, embeds the span tree, and
records the diagnostics summary plus the final exit code.

Schema (``repro-run-report/1``)::

    {
      "schema": "repro-run-report/1",
      "command": "analyze", "argv": [...], "exit_code": 0,
      "environment": {...},            # python, parser version, jobs, cache stats
      "archives": [{
          "name": ..., "path": ..., "routers": N, "files": N,
          "dispositions": {"parsed": n, "cached": n, "quarantined": n},
          "diagnostics": {"error": n, "warning": n, "info": n},
          "exit_code": n,
          "inventory": [{"path", "size", "sha256", "disposition", "router"}, ...]
      }, ...],
      "totals": {...},                 # summed over archives
      "metrics": {...},                # MetricsRegistry.snapshot()
      "spans": [...],                  # Tracer.span_tree()
      "timing": {"total_seconds": s}
    }

Determinism: two runs over the same bytes must agree on every field
but the :data:`VOLATILE` keys (wall time, replay provenance, store
statistics, the flags that only tune how a run runs).
:func:`normalize_run` drops exactly those keys, at any depth, from this
manifest and from every other run document (the ``repro corpus`` and
``repro sweep`` payloads, serve generations); every gate that compares
two runs compares what it returns.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

MANIFEST_SCHEMA = "repro-run-report/1"

#: The dispositions an input file can end a run with.
DISPOSITION_PARSED = "parsed"  # parsed fresh this run
DISPOSITION_CACHED = "cached"  # replayed from the parse cache
DISPOSITION_QUARANTINED = "quarantined"  # binary/undecodable/unparseable

DISPOSITIONS = (DISPOSITION_PARSED, DISPOSITION_CACHED, DISPOSITION_QUARANTINED)


@dataclass(frozen=True)
class FileRecord:
    """One input file's accounting entry."""

    path: str
    size: int
    sha256: str
    disposition: str
    router: Optional[str] = None

    def __post_init__(self) -> None:
        if self.disposition not in DISPOSITIONS:
            raise ValueError(f"unknown disposition: {self.disposition!r}")

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "path": self.path,
            "size": self.size,
            "sha256": self.sha256,
            "disposition": self.disposition,
        }
        if self.router is not None:
            data["router"] = self.router
        return data


def archive_entry(
    network: Any, path: Optional[str] = None, execution: Any = None
) -> Dict[str, Any]:
    """The manifest entry for one ingested archive.

    *network* is duck-typed (``name``, ``inventory``, ``diagnostics``,
    ``quarantined``, ``__len__``) so this module stays import-free of the
    model layer.  Networks built outside ``from_directory``/
    ``from_configs`` have no inventory; they yield an empty one.

    *execution* (optional) is the archive's
    :class:`repro.exec.executor.ArchiveExecution` (duck-typed:
    ``as_dict``); when given, the entry carries the per-stage statuses
    under ``"execution"``.
    """
    inventory: List[FileRecord] = list(getattr(network, "inventory", None) or [])
    dispositions = {disposition: 0 for disposition in DISPOSITIONS}
    for record in inventory:
        dispositions[record.disposition] += 1
    diagnostics = network.diagnostics
    entry = {
        "name": network.name,
        "path": path,
        "routers": len(network),
        "files": len(inventory),
        "dispositions": dispositions,
        "diagnostics": diagnostics.counts(),
        "exit_code": diagnostics.exit_code(),
        "inventory": [record.as_dict() for record in inventory],
    }
    if execution is not None:
        entry["execution"] = execution.as_dict()
    return entry


def build_manifest(
    *,
    command: str,
    argv: Optional[List[str]],
    archives: List[Dict[str, Any]],
    exit_code: int,
    registry: Optional[Any] = None,
    tracer: Optional[Any] = None,
    environment: Optional[Dict[str, Any]] = None,
    total_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble the run manifest dict (see the module docstring schema)."""
    env: Dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }
    if environment:
        env.update(environment)
    totals = {
        "archives": len(archives),
        "routers": sum(entry["routers"] for entry in archives),
        "files": sum(entry["files"] for entry in archives),
    }
    for disposition in DISPOSITIONS:
        totals[disposition] = sum(
            entry["dispositions"][disposition] for entry in archives
        )
    stage_totals: Dict[str, int] = {}
    for entry in archives:
        for stage in (entry.get("execution") or {}).get("stages", []):
            status = stage.get("status", "ok")
            stage_totals[status] = stage_totals.get(status, 0) + 1
    if stage_totals:
        totals["stages"] = {
            status: stage_totals[status] for status in sorted(stage_totals)
        }
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "exit_code": exit_code,
        "environment": env,
        "archives": archives,
        "totals": totals,
        "metrics": registry.snapshot() if registry is not None else None,
        "spans": tracer.span_tree() if tracer is not None else [],
        "timing": {
            "total_seconds": round(total_seconds, 6) if total_seconds is not None else None
        },
    }
    return manifest


def write_manifest(manifest: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")


#: The keys on which two runs over the same bytes legitimately differ.
#: Nothing else may: an analysis result or an input's accounting never
#: goes here, and a key added to a run document later is compared.
VOLATILE = frozenset(
    {
        # Wall time.
        "seconds",  # a stage's, scenario's, sweep's or corpus total's
        "total_seconds",  # an archive's summed stage seconds; the manifest's run time
        "items_per_second",  # a stage row's items over its seconds
        "parsed_per_second",  # an archive's parsed files over its parse seconds
        "timing",  # the manifest's wall-clock block
        "spans",  # the manifest's span tree, with each span's seconds
        "histograms",  # the metrics registry's timing distributions
        # How a result was obtained, not what it is.
        "from_checkpoint",  # a stage or scenario replayed by --resume
        "replayed",  # an archive sweep's count of replayed scenarios
        "workers",  # the processes an archive's sweep ran on
        # Store statistics: what the parse cache and checkpoints held.
        "cache",  # parse-cache hits/misses/stores
        "checkpoints",  # checkpoint-store hits/misses/stores
        # Flags that tune how a run runs, never its results.
        "argv",  # the command line itself
        "jobs",  # --jobs
        "resume",  # --resume
        "compress",  # --compress adds the plan, never a result
        # What changed since the previous serve generation.
        "diff",
    }
)


def normalize_run(document: Any) -> Any:
    """*document* without its :data:`VOLATILE` keys, at any depth.

    Lists keep their order and every other key is kept, so two run
    documents are equivalent exactly when their normalized forms are
    equal.  Keys are read as field names: a document keyed by data (a
    router name may be ``cache``) copies that part around this filter.
    """
    if isinstance(document, dict):
        return {
            key: normalize_run(value)
            for key, value in document.items()
            if key not in VOLATILE
        }
    if isinstance(document, list):
        return [normalize_run(item) for item in document]
    return document


__all__ = [
    "DISPOSITIONS",
    "DISPOSITION_CACHED",
    "DISPOSITION_PARSED",
    "DISPOSITION_QUARANTINED",
    "FileRecord",
    "MANIFEST_SCHEMA",
    "VOLATILE",
    "archive_entry",
    "build_manifest",
    "normalize_run",
    "write_manifest",
]
