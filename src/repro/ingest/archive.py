"""What an archive on disk is: one rule for every command.

The paper's input is one directory of per-router configuration files
per network, with whatever the collection scripts left beside them
(§2, §4.1).  Every command that reads such a directory goes through
this module, so they all agree on:

* :func:`discover_archives` — which directories under a corpus root are
  archives: its subdirectories, or the root itself when it has none;
  loose files beside archive subdirectories are returned as ignored;
* :func:`archive_name` — an archive's name: its last path component,
  trailing separators stripped (``net1/`` is ``net1``);
* :func:`archive_files` — the files that belong to an archive: the
  sorted regular files directly inside it, no recursion, no suffix
  filter;
* :func:`read_config_text` — which of those files are config text: a
  NUL byte in the first 8 KiB, or more than 5% replacement characters
  after a lossy UTF-8 decode, quarantines the file with a warning
  diagnostic;
* :func:`archive_digest` — the archive's content digest over its
  ``(path, sha256)`` pairs, which keys checkpoints and names serve
  snapshots.

:func:`read_archive` applies the selection and the text sniff to a
whole archive; ingestion, ``repro share`` and ``repro anonymize`` all
read through it, so the files they analyze, share or skip are the
same files.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.diag import PHASE_READ, DiagnosticSink


def discover_archives(root: str) -> Tuple[List[str], List[str]]:
    """``(archive paths, ignored loose files)`` under the corpus ``root``.

    Subdirectories are the archives (the paper's layout: one directory
    per network); a flat directory of config files is itself one
    archive.  A *mixed* directory — loose files beside archive
    subdirectories — is almost always misplaced data, so the loose files
    come back as ignored for the caller to name, never silently dropped.
    """
    entries = sorted(os.listdir(root))
    subdirs = [
        os.path.join(root, entry)
        for entry in entries
        if os.path.isdir(os.path.join(root, entry))
    ]
    if not subdirs:
        return [root], []
    loose = [entry for entry in entries if os.path.isfile(os.path.join(root, entry))]
    return subdirs, loose


def archive_name(path: str) -> str:
    """The name of the archive at ``path``: its last component once the
    path is normalized, so ``net1/`` and ``net1/.`` are both ``net1``."""
    return os.path.basename(os.path.normpath(path)) or path


def archive_files(path: str) -> List[str]:
    """Names of the regular files directly inside ``path``, sorted.

    Raises :class:`OSError` when ``path`` cannot be listed.
    """
    return [
        entry for entry in sorted(os.listdir(path)) if os.path.isfile(os.path.join(path, entry))
    ]


def read_config_text(
    full_path: str, entry: str, sink: DiagnosticSink
) -> Tuple[Optional[str], bytes]:
    """Read a config file, skipping binary/undecodable content.

    Collection scripts leave tarballs, core dumps, and editor droppings in
    real archives; those must not abort the run.  NUL bytes or a high
    replacement-character ratio after a lossy decode mark a file as
    non-text: it is skipped with a warning diagnostic.

    Returns ``(text, raw_bytes)``; text is ``None`` for non-text files.
    The raw bytes feed the parse cache's content hash.
    """
    with open(full_path, "rb") as handle:
        raw = handle.read()
    if b"\0" in raw[:8192]:
        sink.warning(
            PHASE_READ, "skipped binary file (NUL bytes)", file=entry
        )
        return None, raw
    text = raw.decode("utf-8", errors="replace")
    if text:
        bad = text.count("�")
        if bad and bad / len(text) > 0.05:
            sink.warning(
                PHASE_READ,
                f"skipped undecodable file ({bad} invalid byte(s))",
                file=entry,
            )
            return None, raw
        if bad:
            sink.info(
                PHASE_READ,
                f"replaced {bad} undecodable byte(s)",
                file=entry,
            )
    return text, raw


class ArchiveFile(NamedTuple):
    """One file of an archive as read: ``text`` is ``None`` when the
    sniff quarantined it, and ``diagnostics`` holds its read rows."""

    name: str
    diagnostics: DiagnosticSink
    text: Optional[str]
    data: bytes


def read_archive(path: str) -> List[ArchiveFile]:
    """Read every file of the archive at ``path``, in file order."""
    files = []
    for entry in archive_files(path):
        sink = DiagnosticSink()
        text, raw = read_config_text(os.path.join(path, entry), entry, sink)
        files.append(ArchiveFile(entry, sink, text, raw))
    return files


def archive_digest(files: Iterable[Tuple[str, str]]) -> str:
    """SHA-256 over the sorted ``(path, sha256)`` pairs of an archive.

    Any changed, added, or removed file changes the digest — and
    therefore invalidates every checkpoint keyed under it.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-archive:")
    for path, sha in sorted(files):
        digest.update(f"{path}\0{sha}\0".encode("utf-8"))
    return digest.hexdigest()


__all__ = [
    "ArchiveFile",
    "archive_digest",
    "archive_files",
    "archive_name",
    "discover_archives",
    "read_archive",
    "read_config_text",
]
