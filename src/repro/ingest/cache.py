"""Content-addressed parse cache: never parse the same bytes twice.

Archive analysis is re-run constantly — after every collection cycle,
after every tooling change, for every CLI command — but the configuration
files themselves rarely change.  This cache keys each file by the SHA-256
of its **bytes** plus the parser version and parse mode, and stores the
parsed :class:`~repro.ios.config.RouterConfig` together with every
:class:`~repro.diag.Diagnostic` the parse emitted.  A hit therefore
replays lenient-mode results *faithfully*: same config, same diagnostics,
same quarantine decision as a cold parse.

The key contract (see ARCHITECTURE.md):

* same bytes + same mode + same :data:`~repro.model.dialect.PARSER_VERSION`
  → the cached entry is authoritative;
* any parser behavior change MUST bump ``PARSER_VERSION`` (old entries
  then miss and age out);
* strict-mode parse *failures* are never cached — strict runs abort, and
  the next run must re-raise from a real parse.

Entries are pickle files under ``<root>/objects/<aa>/<digest>`` where
``aa`` is the first two hex digits (git-style fan-out).  Writes go
through a temp file + :func:`os.replace`, so concurrent runs sharing a
cache directory see only complete entries.  A corrupt or unreadable
entry is treated as a miss and deleted.

This is the only parse store.  A ``<root>/blocks`` directory left by
older versions (a stanza-level tier, since removed) is never read and
is safe to delete.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.diag import Diagnostic
from repro.ios.config import RouterConfig
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry

#: Bump when the on-disk entry layout changes (independent of the parser).
CACHE_FORMAT = 1


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


@dataclass
class CacheEntry:
    """One cached parse result: the config (or ``None`` when the file was
    quarantined) plus the diagnostics the parse emitted."""

    config: Optional[RouterConfig]
    diagnostics: Tuple[Diagnostic, ...] = ()
    quarantined: bool = False


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance's lifetime.

    Increments are locked: the serve daemon updates these counters on
    its generation thread while other threads read them, and an
    unlocked ``+=`` can lose counts under thread interleaving.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
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
                "evictions": self.evictions,
                "write_failures": self.write_failures,
            }


@dataclass
class ParseCache:
    """Persistent content-addressed store of parse results.

    ``root`` defaults to :func:`default_cache_dir`.  All methods are
    best-effort: I/O failures degrade to cache misses, never to pipeline
    errors — a broken cache must not break ingestion.
    """

    root: str = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)
    _write_failure_logged: bool = field(default=False, repr=False, compare=False)

    @classmethod
    def coerce(cls, cache: Union["ParseCache", str, None]) -> Optional["ParseCache"]:
        """Accept a cache instance, a directory path, or ``None``."""
        if cache is None or isinstance(cache, ParseCache):
            return cache
        return cls(root=str(cache))

    # -- keys --------------------------------------------------------------

    def key(self, data: bytes, mode: str) -> str:
        """SHA-256 over a version/mode header plus the file bytes."""
        from repro.model.dialect import PARSER_VERSION  # noqa: PLC0415 — cycle

        digest = hashlib.sha256()
        digest.update(
            f"repro-parse:{CACHE_FORMAT}:{PARSER_VERSION}:{mode}:".encode("ascii")
        )
        digest.update(data)
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key)

    # -- access ------------------------------------------------------------

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key``, or ``None`` (corrupt entries are evicted)."""
        path = self._path(key)
        metrics = get_registry()
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            self.stats.count("misses")
            metrics.counter("cache.misses").inc()
            return None
        except Exception:  # noqa: BLE001 — any damage degrades to a miss
            self._evict_corrupt(path, metrics)
            return None
        if not isinstance(entry, CacheEntry):
            self._evict_corrupt(path, metrics)
            return None
        self.stats.count("hits")
        metrics.counter("cache.hits").inc()
        return entry

    def _evict_corrupt(self, path: str, metrics) -> None:
        self.stats.count("misses")
        self.stats.count("evictions")
        metrics.counter("cache.misses").inc()
        metrics.counter("cache.corrupt").inc()
        try:
            os.remove(path)
        except OSError:
            pass

    def put(self, key: str, entry: CacheEntry) -> bool:
        """Store ``entry`` atomically; ``False`` when the write failed.

        A failed write (read-only dir, ``ENOSPC``, injected ``io-error``
        chaos) degrades silently by contract, but not *invisibly*: it
        counts ``cache.write_failures`` and logs one warning per cache
        instance so operators can tell caching is off.
        """
        # Lazy import: importing repro.exec pulls in the whole executor,
        # which ingest-only callers never need.
        from repro.exec.chaos import maybe_io_error  # noqa: PLC0415

        path = self._path(key)
        try:
            maybe_io_error("cache", path)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except Exception as error:  # noqa: BLE001 — a read-only cache is still a cache
            self.stats.count("write_failures")
            get_registry().counter("cache.write_failures").inc()
            if not self._write_failure_logged:
                self._write_failure_logged = True
                get_logger("ingest.cache").warning(
                    "cache.write_failed",
                    root=self.root,
                    error=f"{type(error).__name__}: {error}",
                    note="further failures counted, not logged",
                )
            return False
        self.stats.count("stores")
        get_registry().counter("cache.stores").inc()
        return True

    def __repr__(self) -> str:
        return f"ParseCache({self.root!r}, {self.stats.as_dict()})"


__all__ = [
    "CACHE_FORMAT",
    "CacheEntry",
    "CacheStats",
    "ParseCache",
    "default_cache_dir",
]
