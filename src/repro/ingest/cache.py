"""Content-addressed parse cache: never parse the same bytes twice.

Archive analysis is re-run constantly — after every collection cycle,
after every tooling change, for every CLI command — but the configuration
files themselves rarely change.  This cache keys each file by the SHA-256
of its **bytes** plus the parser version and parse mode, and stores the
parsed :class:`~repro.ios.config.RouterConfig` together with the parse's
compact diagnostic stream: the explicit :class:`~repro.diag.Diagnostic`
rows plus :class:`~repro.diag.UnmodeledRun` entries over the config's
``unmodeled_stanzas``, so each unmodeled stanza's text is stored once
(in ``unmodeled_lines``) and its info row is built only when read.  A
hit therefore replays lenient-mode results *faithfully*: same config,
same diagnostics, same quarantine decision as a cold parse.

The key contract (see ARCHITECTURE.md):

* same bytes + same mode + same :data:`~repro.model.dialect.PARSER_VERSION`
  → the cached entry is authoritative;
* any parser behavior change MUST bump ``PARSER_VERSION`` (old entries
  then miss and age out);
* strict-mode parse *failures* are never cached — strict runs abort, and
  the next run must re-raise from a real parse.

Entries are pickled :class:`CacheEntry` objects in the shared store core
(:mod:`repro.store`) under ``<root>/objects``: fan-out, atomic writes,
eviction of damaged entries and the ``cache.*`` counters live there.
This module owns the key, the codec and the entry check.

This is the only parse store.  A ``<root>/blocks`` directory left by
older versions (a stanza-level tier, since removed) is never read and
is safe to delete.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.diag import StreamEntry
from repro.ios.config import RouterConfig
from repro.store import Store, StoreStats

#: Bump when the on-disk entry layout changes (independent of the parser).
#: 2: ``Prefix`` gained its cached-hash slot; a format-1 entry would load
#: prefixes without it and fail at their first hash, so it must miss.
CACHE_FORMAT = 2


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
    quarantined) plus the parse's compact diagnostic stream."""

    config: Optional[RouterConfig]
    diagnostics: Tuple[StreamEntry, ...] = ()
    quarantined: bool = False


def _decode(data: bytes) -> CacheEntry:
    entry = pickle.loads(data)
    if not isinstance(entry, CacheEntry):
        raise TypeError(f"not a cache entry: {type(entry).__name__}")
    return entry


class ParseCache:
    """Persistent content-addressed store of parse results.

    ``root`` defaults to :func:`default_cache_dir`.  All methods are
    best-effort: I/O failures degrade to cache misses, never to pipeline
    errors — a broken cache must not break ingestion.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_cache_dir()
        self.disk = Store(os.path.join(self.root, "objects"), "cache")

    @property
    def stats(self) -> StoreStats:
        return self.disk.stats

    @classmethod
    def coerce(cls, cache: Union["ParseCache", str, None]) -> Optional["ParseCache"]:
        """Accept a cache instance, a directory path, or ``None``."""
        if cache is None or isinstance(cache, ParseCache):
            return cache
        return cls(root=str(cache))

    def key(self, data: bytes, mode: str) -> str:
        """SHA-256 over a version/mode header plus the file bytes."""
        from repro.model.dialect import PARSER_VERSION  # noqa: PLC0415 — cycle

        digest = hashlib.sha256()
        digest.update(
            f"repro-parse:{CACHE_FORMAT}:{PARSER_VERSION}:{mode}:".encode("ascii")
        )
        digest.update(data)
        return digest.hexdigest()

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key``, or ``None`` (damaged entries are evicted)."""
        return self.disk.get(key, _decode)

    def put(self, key: str, entry: CacheEntry) -> bool:
        """Store ``entry``; ``False`` when the write failed."""
        return self.disk.put(
            key, lambda: pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        )


__all__ = [
    "CACHE_FORMAT",
    "CacheEntry",
    "ParseCache",
    "default_cache_dir",
]
