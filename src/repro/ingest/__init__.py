"""Cached, instrumented corpus ingestion.

The paper's method was applied to 8,035 configuration files across 31
networks, and the authors ran their tooling over a provider archive of
23,417 routers.  At that scale ingestion is a batch workload: it parses
each file once, skips work it has already done, and reports where the
time went.  This package provides those pieces:

* :mod:`repro.ingest.parallel` — the serial parse pass: per-file sinks
  merged in file order, strict-mode errors re-raised at their file;
* :mod:`repro.ingest.cache` — a persistent content-addressed parse cache
  keyed by file bytes + parser version + mode, replaying diagnostics
  faithfully on hits;
* :mod:`repro.ingest.timer` — per-stage wall-time/item-count
  instrumentation surfaced by ``repro corpus``.

:class:`repro.model.network.Network`'s ``from_directory``/``from_configs``
constructors drive this pass via their ``cache=`` and ``timer=``
keywords.
"""

from repro.ingest.cache import (
    CACHE_FORMAT,
    CacheEntry,
    CacheStats,
    ParseCache,
    default_cache_dir,
)
from repro.ingest.parallel import (
    ON_ERROR_POLICIES,
    ParseOutcome,
    ParseTask,
    parse_many,
    parse_one,
)
from repro.ingest.snapshot import (
    CorpusSnapshot,
    FileStat,
    SnapshotDiff,
    diff_snapshots,
    scan_stats,
    snapshot_corpus,
)
from repro.ingest.timer import StageRecord, StageTimer

__all__ = [
    "CACHE_FORMAT",
    "CacheEntry",
    "CacheStats",
    "CorpusSnapshot",
    "FileStat",
    "ON_ERROR_POLICIES",
    "ParseCache",
    "ParseOutcome",
    "ParseTask",
    "SnapshotDiff",
    "StageRecord",
    "StageTimer",
    "default_cache_dir",
    "diff_snapshots",
    "parse_many",
    "parse_one",
    "scan_stats",
    "snapshot_corpus",
]
