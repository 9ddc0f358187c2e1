"""Content-addressed checkpoints for per-(archive, stage) analysis results.

A killed or crashed ``repro corpus`` run must not throw away every
finished result.  The executor checkpoints each *finished* stage
(``ok``/``degraded`` — see :mod:`repro.exec.stage`) under a key derived
from the **bytes** of the archive's configuration files, so ``--resume``
replays exactly the work whose inputs have not changed:

* the archive digest is :func:`repro.ingest.archive.archive_digest`,
  the SHA-256 over the sorted ``(path, sha256)`` inventory of the
  archive — the same per-file digests the run manifest records;
* the entry stores that digest *again* in its payload and ``load``
  re-validates it, so an entry that was written under one inventory can
  never be replayed against another (the edit-between-runs race);
* entries also carry the parser version: a parser upgrade invalidates
  every checkpoint, because re-parsed configs may analyze differently.

Entries are JSON files named ``<digest>-<stage>.json`` in the shared
store core (:mod:`repro.store`), which owns the fan-out, atomic writes,
eviction and the ``checkpoint.*`` counters; a stale entry is evicted
there like a damaged one.  All I/O is best-effort: a broken checkpoint
store degrades to misses, never to run failures.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.exec.stage import StageResult
from repro.store import StaleEntry, Store, StoreStats

#: Bump when the on-disk entry layout changes.
CHECKPOINT_FORMAT = 1

CHECKPOINT_SCHEMA = f"repro-checkpoint/{CHECKPOINT_FORMAT}"


def default_checkpoint_dir(cache_root: Optional[str] = None) -> str:
    """``$REPRO_CHECKPOINT_DIR``, else ``<cache_root>/checkpoints``.

    *cache_root* defaults to the parse cache's
    :func:`~repro.ingest.cache.default_cache_dir`.
    """
    override = os.environ.get("REPRO_CHECKPOINT_DIR")
    if override:
        return override
    if cache_root is None:
        from repro.ingest.cache import default_cache_dir  # noqa: PLC0415 — lazy

        cache_root = default_cache_dir()
    return os.path.join(cache_root, "checkpoints")


def _parser_version() -> int:
    from repro.model.dialect import PARSER_VERSION  # noqa: PLC0415 — cycle

    return PARSER_VERSION


class CheckpointStore:
    """Persistent per-(archive, stage) store of finished stage results."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_checkpoint_dir()
        self.disk = Store(self.root, "checkpoint")

    @property
    def stats(self) -> StoreStats:
        return self.disk.stats

    def load(self, digest: str, stage: str) -> Optional[StageResult]:
        """The checkpointed result for ``(digest, stage)``, or ``None``.

        Entries whose stored digest, stage, schema, or parser version
        disagree with the current run are stale and evicted — the
        defense against replaying a checkpoint over edited config bytes.
        """

        def decode(data: bytes) -> StageResult:
            entry = json.loads(data)
            if not isinstance(entry, dict) or not isinstance(entry.get("result"), dict):
                raise ValueError("not a checkpoint entry")
            expected = {
                "schema": CHECKPOINT_SCHEMA,
                "archive_digest": digest,
                "stage": stage,
                "parser_version": _parser_version(),
            }
            for key, value in expected.items():
                if entry.get(key) != value:
                    raise StaleEntry(f"{key} {entry.get(key)!r} != {value!r}")
            result = StageResult.from_dict(entry["result"])
            result.from_checkpoint = True
            return result

        return self.disk.get(f"{digest}-{stage}.json", decode)

    def store(self, digest: str, archive: str, result: StageResult) -> bool:
        """Persist a finished stage result; ``False`` when the write failed."""
        entry = {
            "schema": CHECKPOINT_SCHEMA,
            "archive": archive,
            "archive_digest": digest,
            "stage": result.stage,
            "parser_version": _parser_version(),
            "result": result.as_dict(),
        }
        return self.disk.put(
            f"{digest}-{result.stage}.json",
            lambda: json.dumps(entry, indent=2, sort_keys=True).encode("utf-8"),
        )


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "default_checkpoint_dir",
]
