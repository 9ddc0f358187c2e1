"""The on-disk store core shared by the parse cache and the checkpoints.

``repro`` keeps two persistent stores: :class:`repro.ingest.cache.ParseCache`
(pickled parse results) and :class:`repro.exec.checkpoint.CheckpointStore`
(JSON stage results).  Everything about *how* an entry lives on disk is
one policy, implemented once here and never specialised per store:

* entries are files under ``<directory>/<aa>/<name>``, where ``aa`` is
  the first two characters of the (hex digest) name — git-style fan-out;
* a write goes to a temp file beside the entry and is renamed into place
  with :func:`os.replace`, so concurrent and killed runs only ever see
  complete entries.  The chaos ``io-error`` hook
  (:func:`repro.exec.chaos.maybe_io_error`) fires first, matched by the
  store's prefix and the entry path;
* an entry that cannot be read or decoded is damage: it is deleted and
  counted as a miss and an eviction, and logged as a warning.  A decoder
  may also reject an intact entry by raising :class:`StaleEntry` — the
  same eviction, logged at info, because a parser upgrade makes every
  old entry stale;
* a failed write is counted and logged once per store.  Nothing here
  raises into the caller: a broken store degrades to misses;
* :class:`StoreStats` counts ``hits``/``misses``/``stores``/``evictions``/
  ``write_failures`` under a lock, and each count also increments the
  registry counter ``<prefix>.<stat>`` (``cache.hits``,
  ``checkpoint.evictions``, ...).

What an entry *means* — its key, codec and validation — stays with each
store.
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry

_log = get_logger("store")

T = TypeVar("T")

#: Temp-file prefix of in-flight writes; never a complete entry.
TMP_PREFIX = ".tmp-"


class StaleEntry(Exception):
    """An intact entry that no longer applies (another schema, parser
    version or key): evicted like damage, but logged as bookkeeping."""


@dataclass
class StoreStats:
    """Lifetime counters of one store.

    Increments are locked: the serve daemon counts on its generation
    thread while other threads read, and an unlocked ``+=`` can lose
    counts under thread interleaving.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    write_failures: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, stat: str) -> None:
        with self._lock:
            setattr(self, stat, getattr(self, stat) + 1)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "write_failures": self.write_failures,
            }


class Store:
    """One directory of fanned-out entries under the policy above.

    *prefix* names the store in metric names, chaos ``io-error`` rules
    and log events.
    """

    def __init__(self, directory: str, prefix: str) -> None:
        self.directory = directory
        self.prefix = prefix
        self.stats = StoreStats()
        self._write_failure_logged = False

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name[:2], name)

    def _count(self, stat: str) -> None:
        self.stats.count(stat)
        get_registry().counter(f"{self.prefix}.{stat}").inc()

    def get(self, name: str, decode: Callable[[bytes], T]) -> Optional[T]:
        """``decode(bytes)`` of entry *name*; ``None`` when it is absent,
        damaged (unreadable, or *decode* raised) or stale (*decode*
        raised :class:`StaleEntry`)."""
        path = self.path(name)
        try:
            with open(path, "rb") as handle:
                value = decode(handle.read())
        except FileNotFoundError:
            self._count("misses")
            return None
        except Exception as error:  # noqa: BLE001 — any damage degrades to a miss
            self._evict(path, error)
            return None
        self._count("hits")
        return value

    def _evict(self, path: str, error: Exception) -> None:
        self._count("misses")
        self._count("evictions")
        log = _log.info if isinstance(error, StaleEntry) else _log.warning
        log(
            "store.evicted",
            store=self.prefix,
            path=path,
            reason=f"{type(error).__name__}: {error}",
        )
        try:
            os.remove(path)
        except OSError:
            pass

    def put(self, name: str, encode: Callable[[], bytes]) -> bool:
        """Write ``encode()`` as entry *name*; ``False`` when the write failed."""
        # Lazy: importing repro.exec pulls in the executor, which
        # ingest-only callers never need.
        from repro.exec.chaos import maybe_io_error  # noqa: PLC0415

        path = self.path(name)
        try:
            maybe_io_error(self.prefix, path)
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=TMP_PREFIX)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(encode())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except Exception as error:  # noqa: BLE001 — a read-only store is still a store
            self._count("write_failures")
            if not self._write_failure_logged:
                self._write_failure_logged = True
                _log.warning(
                    "store.write_failed",
                    store=self.prefix,
                    root=self.directory,
                    error=f"{type(error).__name__}: {error}",
                    note="further failures counted, not logged",
                )
            return False
        self._count("stores")
        return True

    def entries(self) -> Tuple[str, ...]:
        """Every complete entry on disk, sorted (in-flight temp files excluded)."""
        return tuple(
            sorted(
                os.path.join(dirpath, name)
                for dirpath, _dirnames, names in os.walk(self.directory)
                for name in names
                if not name.startswith(TMP_PREFIX)
            )
        )


__all__ = ["StaleEntry", "Store", "StoreStats", "TMP_PREFIX"]
