"""Content-addressed checkpoints for per-(archive, stage) analysis results.

A killed or crashed ``repro corpus`` run must not throw away every
finished result.  The executor checkpoints each *finished* stage
(``ok``/``degraded`` — see :mod:`repro.exec.stage`) under a key derived
from the **bytes** of the archive's configuration files, so ``--resume``
replays exactly the work whose inputs have not changed:

* the archive digest is the SHA-256 over the sorted ``(path, sha256)``
  inventory of the archive — the same per-file digests the run manifest
  records;
* the entry stores that digest *again* in its payload and ``load``
  re-validates it, so an entry that was written under one inventory can
  never be replayed against another (the edit-between-runs race);
* entries also carry the parser version: a parser upgrade invalidates
  every checkpoint, because re-parsed configs may analyze differently.

Entries are JSON files under ``<root>/<aa>/<digest>-<stage>.json``
(git-style fan-out), written via temp file + ``os.replace`` so a killed
run leaves only complete entries behind.  All I/O is best-effort: a
broken checkpoint store degrades to cache misses, never to run failures.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.exec.stage import StageResult
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry

_log = get_logger("exec.checkpoint")

#: Bump when the on-disk entry layout changes.
CHECKPOINT_FORMAT = 1

CHECKPOINT_SCHEMA = f"repro-checkpoint/{CHECKPOINT_FORMAT}"


def default_checkpoint_dir() -> str:
    """``$REPRO_CHECKPOINT_DIR``, else ``<parse-cache dir>/checkpoints``."""
    override = os.environ.get("REPRO_CHECKPOINT_DIR")
    if override:
        return override
    from repro.ingest.cache import default_cache_dir  # noqa: PLC0415 — lazy

    return os.path.join(default_cache_dir(), "checkpoints")


def archive_digest(inventory: Iterable) -> str:
    """SHA-256 over the sorted ``(path, sha256)`` pairs of an inventory.

    *inventory* is an iterable of :class:`repro.obs.manifest.FileRecord`
    (duck-typed: ``path``/``sha256``).  Any changed, added, or removed
    file changes the digest — and therefore invalidates every checkpoint
    keyed under it.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-archive:")
    for path, sha in sorted((record.path, record.sha256) for record in inventory):
        digest.update(f"{path}\0{sha}\0".encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CheckpointStats:
    """Hit/miss/store accounting for one store instance's lifetime.

    Increments are locked: the serve daemon updates these counters on
    its generation thread while other threads read them, and an
    unlocked ``+=`` can lose counts under thread interleaving.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0
    write_failures: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, stat: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, stat, getattr(self, stat) + amount)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "invalidated": self.invalidated,
                "write_failures": self.write_failures,
            }


@dataclass
class CheckpointStore:
    """Persistent per-(archive, stage) store of finished stage results."""

    root: str = field(default_factory=default_checkpoint_dir)
    stats: CheckpointStats = field(default_factory=CheckpointStats)
    _write_failure_logged: bool = field(default=False, repr=False, compare=False)

    def _key(self, digest: str, stage: str) -> str:
        return os.path.join(self.root, digest[:2], f"{digest}-{stage}.json")

    @staticmethod
    def _parser_version() -> int:
        from repro.model.dialect import PARSER_VERSION  # noqa: PLC0415 — cycle

        return PARSER_VERSION

    # -- access ------------------------------------------------------------

    def load(self, digest: str, stage: str) -> Optional[StageResult]:
        """The checkpointed result for ``(digest, stage)``, or ``None``.

        Entries whose stored digest, schema, or parser version disagree
        with the current run are invalidated (deleted and counted) — the
        defense against replaying a checkpoint over edited config bytes.
        """
        path = self._key(digest, stage)
        metrics = get_registry()
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.stats.count("misses")
            metrics.counter("exec.checkpoint.misses").inc()
            return None
        except Exception:  # noqa: BLE001 — damage degrades to a miss
            self._invalidate(path, metrics, reason="unreadable")
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CHECKPOINT_SCHEMA
            or entry.get("archive_digest") != digest
            or entry.get("stage") != stage
            or entry.get("parser_version") != self._parser_version()
            or not isinstance(entry.get("result"), dict)
        ):
            self._invalidate(path, metrics, reason="stale")
            return None
        try:
            result = StageResult.from_dict(entry["result"])
        except Exception:  # noqa: BLE001
            self._invalidate(path, metrics, reason="malformed")
            return None
        result.from_checkpoint = True
        self.stats.count("hits")
        metrics.counter("exec.checkpoint.hits").inc()
        return result

    def _invalidate(self, path: str, metrics, reason: str) -> None:
        self.stats.count("misses")
        self.stats.count("invalidated")
        metrics.counter("exec.checkpoint.misses").inc()
        metrics.counter("exec.checkpoint.invalidated").inc()
        if reason in ("unreadable", "malformed"):
            # Damaged on disk (vs merely stale) — parity with the parse
            # cache's ``cache.corrupt`` accounting.
            metrics.counter("checkpoint.corrupt").inc()
            _log.warning("corrupt checkpoint evicted", path=path, reason=reason)
        else:
            _log.info("invalidated checkpoint", path=path, reason=reason)
        try:
            os.remove(path)
        except OSError:
            pass

    def store(self, digest: str, archive: str, result: StageResult) -> bool:
        """Persist a finished stage result; ``False`` when the write failed."""
        path = self._key(digest, result.stage)
        entry = {
            "schema": CHECKPOINT_SCHEMA,
            "archive": archive,
            "archive_digest": digest,
            "stage": result.stage,
            "parser_version": self._parser_version(),
            "result": result.as_dict(),
        }
        try:
            from repro.exec.chaos import maybe_io_error  # noqa: PLC0415 — cycle

            maybe_io_error("checkpoint", path)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle, indent=2, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except Exception as error:  # noqa: BLE001 — a read-only store is still a store
            self.stats.count("write_failures")
            get_registry().counter("checkpoint.write_failures").inc()
            if not self._write_failure_logged:
                self._write_failure_logged = True
                _log.warning(
                    "checkpoint.write_failed",
                    root=self.root,
                    error=f"{type(error).__name__}: {error}",
                    note="further failures counted, not logged",
                )
            return False
        self.stats.count("stores")
        get_registry().counter("exec.checkpoint.stores").inc()
        return True

    def entries(self) -> Tuple[str, ...]:
        """All entry paths currently on disk (test/debug helper)."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    found.append(os.path.join(dirpath, name))
        return tuple(sorted(found))

    def __repr__(self) -> str:
        return f"CheckpointStore({self.root!r}, {self.stats.as_dict()})"


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA",
    "CheckpointStats",
    "CheckpointStore",
    "archive_digest",
    "default_checkpoint_dir",
]
