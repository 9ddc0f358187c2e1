"""Cached, instrumented corpus ingestion.

The paper's method was applied to 8,035 configuration files across 31
networks, and the authors ran their tooling over a provider archive of
23,417 routers.  At that scale ingestion is a batch workload: it parses
each file once, skips work it has already done, and reports where the
time went.  This package provides those pieces:

* :mod:`repro.ingest.archive` — what an archive on disk is: which
  directories are archives, which files belong to one, which files are
  config text, the archive's name and its digest — one rule each, for
  every command;
* :mod:`repro.ingest.parse` — the serial parse pass: per-file sinks
  merged in file order, strict-mode errors re-raised at their file, and
  the ``stage:parse`` span that times it;
* :mod:`repro.ingest.cache` — a persistent content-addressed parse cache
  keyed by file bytes + parser version + mode, replaying diagnostics
  faithfully on hits;
* :mod:`repro.ingest.snapshot` — stat-level corpus snapshots for the
  serve daemon's change detection.

:class:`repro.model.network.Network`'s ``from_directory``/``from_configs``
constructors drive this pass via their ``cache=`` keyword and record
its ``stage:read``/``stage:parse`` spans as ``Network.ingest_stages``.
"""

from repro.ingest.cache import (
    CACHE_FORMAT,
    CacheEntry,
    ParseCache,
    default_cache_dir,
)
from repro.ingest.parse import (
    ON_ERROR_POLICIES,
    ParseOutcome,
    ParseTask,
    parse_many,
    parse_one,
    parse_stage,
)
from repro.ingest.snapshot import (
    CorpusSnapshot,
    FileStat,
    SnapshotDiff,
    diff_snapshots,
    scan_stats,
    snapshot_corpus,
)

__all__ = [
    "CACHE_FORMAT",
    "CacheEntry",
    "CorpusSnapshot",
    "FileStat",
    "ON_ERROR_POLICIES",
    "ParseCache",
    "ParseOutcome",
    "ParseTask",
    "SnapshotDiff",
    "default_cache_dir",
    "diff_snapshots",
    "parse_many",
    "parse_one",
    "parse_stage",
    "scan_stats",
    "snapshot_corpus",
]
