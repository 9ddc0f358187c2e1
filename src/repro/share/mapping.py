"""The trusted-party mapping file (§4's single-blind methodology).

The paper's corpus worked because a few trusted group members kept the
identity of each network — and nothing identifying traveled with the
anonymized files.  :class:`ShareMapping` is that artifact for the
shareable-corpus pipeline: the anonymization key, every name/ASN/address
rewrite, the file renames, and which routers of the shared archive are
decoys.  It is written strictly *outside* the shared output directory
(:func:`ensure_mapping_outside` enforces it), because a mapping that
ships with the archive undoes the anonymization.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.anonymize import PrefixPreservingAnonymizer
from repro.net import Prefix

SHARE_MAPPING_SCHEMA = "repro-share-mapping/1"


@dataclass
class ShareMapping:
    """Everything the trusted party keeps about one share run."""

    #: The anonymization key (hex-decodable bytes); with it, the full
    #: address permutation is reproducible — it never enters the archive.
    key: bytes
    #: Original name → pseudo-name (hostnames, route maps, descriptions).
    names: Dict[str, str] = field(default_factory=dict)
    #: Original public ASN → pseudo-ASN (string keyed, JSON-friendly).
    asns: Dict[str, str] = field(default_factory=dict)
    #: Original address → anonymized address (dotted quads).
    addresses: Dict[str, str] = field(default_factory=dict)
    #: Original archive name → its share record: ``shared`` (output
    #: directory name, ``None`` for a flat single-archive share),
    #: ``path`` (original location), ``files`` (original file →
    #: shared file), and ``decoys`` (see :mod:`repro.share.decoys`).
    archives: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def decoy_routers(self, archive: str) -> frozenset:
        """The decoy router names planted into *archive*'s shared form."""
        entry = self.archives.get(archive) or {}
        decoys = entry.get("decoys") or {}
        return frozenset(decoys.get("routers") or ())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SHARE_MAPPING_SCHEMA,
            "key": self.key.hex(),
            "names": dict(sorted(self.names.items())),
            "asns": dict(sorted(self.asns.items())),
            "addresses": dict(sorted(self.addresses.items())),
            "archives": {
                name: self.archives[name] for name in sorted(self.archives)
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShareMapping":
        schema = payload.get("schema")
        if schema != SHARE_MAPPING_SCHEMA:
            raise ValueError(
                f"not a share mapping (schema {schema!r}, "
                f"wanted {SHARE_MAPPING_SCHEMA!r})"
            )
        return cls(
            key=bytes.fromhex(payload["key"]),
            names=dict(payload.get("names") or {}),
            asns=dict(payload.get("asns") or {}),
            addresses=dict(payload.get("addresses") or {}),
            archives=dict(payload.get("archives") or {}),
        )

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")

    @classmethod
    def read(cls, path: str) -> "ShareMapping":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


class Renamer:
    """The original → shared renaming of one mapping, at the name, ASN
    and prefix positions :func:`repro.compress.payload.canonicalize`
    rewrites.

    Addresses are renamed by re-running the keyed prefix-preserving
    anonymizer — the first *L* output bits depend only on the first *L*
    input bits, so anonymizing a prefix's network address and re-masking
    reproduces exactly what the shared files contain, whatever host bits
    the original carried.
    """

    def __init__(self, mapping: ShareMapping):
        self._names = mapping.names
        self._asns = mapping.asns
        self._ip = PrefixPreservingAnonymizer(key=mapping.key)

    def name(self, value: str) -> str:
        mapped = self._names.get(value)
        if mapped is not None:
            return mapped
        # Lenient ingestion renames duplicate hostnames "name~N"; the
        # mapping knows the base name only.
        base, tilde, suffix = value.rpartition("~")
        if tilde and suffix.isdigit() and base in self._names:
            return self._names[base] + "~" + suffix
        return value

    def asn(self, value: Any) -> Any:
        mapped = self._asns.get(str(value))
        return int(mapped) if mapped is not None else value

    def prefix(self, value: str) -> str:
        try:
            original = Prefix(value)
        except ValueError:
            return value
        anonymized = self._ip.anonymize_int(original.network.value)
        return str(Prefix(anonymized, original.length))


def default_mapping_path(outdir: str) -> str:
    """Where the mapping lands when the caller does not say: next to the
    output directory, never inside it."""
    return os.path.normpath(outdir).rstrip(os.sep) + ".mapping.json"


def ensure_mapping_outside(outdir: str, mapping_path: str) -> None:
    """Refuse a mapping destination inside the shareable output tree."""
    out_real = os.path.realpath(outdir)
    mapping_real = os.path.realpath(os.path.dirname(mapping_path) or ".")
    if mapping_real == out_real or mapping_real.startswith(out_real + os.sep):
        raise ValueError(
            f"mapping file {mapping_path!r} would land inside the shared "
            f"output directory {outdir!r}; the trusted-party mapping must "
            f"never travel with the archive"
        )


__all__ = [
    "SHARE_MAPPING_SCHEMA",
    "Renamer",
    "ShareMapping",
    "default_mapping_path",
    "ensure_mapping_outside",
]
