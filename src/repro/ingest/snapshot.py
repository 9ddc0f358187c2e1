"""Corpus snapshots and digest diffs: know exactly what changed.

The serve daemon (:mod:`repro.serve`) re-analyzes a corpus directory
whenever its contents change.  Detecting "changed" cheaply and *safely*
is this module's job:

* :func:`scan_stats` walks the corpus and records ``(size, mtime_ns)``
  per config file — pure ``os.stat``, no reads; two identical
  consecutive scans are the watcher's debounce signal that the corpus
  is not mid-edit;
* :func:`snapshot_corpus` additionally hashes each file (SHA-256 over
  bytes — the same digest :class:`~repro.ingest.cache.ParseCache` keys
  on), yielding a :class:`CorpusSnapshot` whose :attr:`~CorpusSnapshot.digest`
  changes iff any file's bytes, name, or membership changed;
* :func:`diff_snapshots` names the changed/added/removed paths, which
  the daemon reports per generation — the audit trail for the
  "re-parses exactly the edited file" guarantee (the *mechanism* is the
  parse cache: unchanged bytes replay as ``cached`` dispositions, so
  only the diff is re-parsed).

The file selection and the digest are the archive rules of
:mod:`repro.ingest.archive`, the ones ``Network.from_directory`` reads
by: every regular file directly inside the directory is a member
(binary droppings are *quarantined* by ingestion, not excluded), and a
directory that vanishes mid-poll snapshots as empty.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.ingest.archive import archive_digest, archive_files


@dataclass(frozen=True)
class FileStat:
    """Stat-level identity of one corpus file (no content read)."""

    size: int
    mtime_ns: int


@dataclass(frozen=True)
class CorpusSnapshot:
    """Content-level identity of a corpus directory at one instant."""

    root: str
    #: relative path → SHA-256 hex digest of the file bytes
    files: Dict[str, str] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """The :func:`~repro.ingest.archive.archive_digest` of the files."""
        return archive_digest(self.files.items())

    def __len__(self) -> int:
        return len(self.files)


@dataclass(frozen=True)
class SnapshotDiff:
    """Paths whose bytes differ between two snapshots."""

    changed: Tuple[str, ...] = ()
    added: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.changed or self.added or self.removed)

    def __len__(self) -> int:
        return len(self.changed) + len(self.added) + len(self.removed)

    def as_dict(self) -> dict:
        return {
            "changed": list(self.changed),
            "added": list(self.added),
            "removed": list(self.removed),
        }


def scan_stats(root: str) -> Dict[str, FileStat]:
    """Stat-level scan: relative path → :class:`FileStat`.

    Cheap enough to run every poll tick.  Files that vanish between the
    walk and the stat (mid-edit renames) are simply omitted — the next
    tick sees the settled state, and the watcher's two-identical-scans
    debounce keeps a half-written corpus from being analyzed.
    """
    stats: Dict[str, FileStat] = {}
    try:
        names = archive_files(root)
    except OSError:  # the directory vanished mid-poll: nothing to watch
        return stats
    for rel in names:
        try:
            info = os.stat(os.path.join(root, rel))
        except OSError:
            continue
        stats[rel] = FileStat(size=info.st_size, mtime_ns=info.st_mtime_ns)
    return stats


def snapshot_corpus(root: str) -> CorpusSnapshot:
    """Content-level snapshot: hash every config file under ``root``."""
    files: Dict[str, str] = {}
    try:
        names = archive_files(root)
    except OSError:  # the directory vanished mid-poll: an empty corpus
        return CorpusSnapshot(root=root)
    for rel in names:
        try:
            with open(os.path.join(root, rel), "rb") as handle:
                data = handle.read()
        except OSError:
            continue
        files[rel] = hashlib.sha256(data).hexdigest()
    return CorpusSnapshot(root=root, files=files)


def diff_snapshots(old: CorpusSnapshot, new: CorpusSnapshot) -> SnapshotDiff:
    """The paths whose bytes differ between ``old`` and ``new``."""
    old_files, new_files = old.files, new.files
    changed = tuple(
        sorted(
            path
            for path in old_files
            if path in new_files and new_files[path] != old_files[path]
        )
    )
    added = tuple(sorted(path for path in new_files if path not in old_files))
    removed = tuple(sorted(path for path in old_files if path not in new_files))
    return SnapshotDiff(changed=changed, added=added, removed=removed)


__all__ = [
    "CorpusSnapshot",
    "FileStat",
    "SnapshotDiff",
    "diff_snapshots",
    "scan_stats",
    "snapshot_corpus",
]
