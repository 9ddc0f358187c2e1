"""The shareable-corpus pipeline.

``share_corpus`` turns a corpus directory (one subdirectory per network,
the paper's layout, or a flat directory forming one archive) into a
shareable copy: every config file content-anonymized with one per-run
key (§4.1), every file *name* replaced by the pseudo-name of its stem (a
real hostname in a file name leaks exactly what the content scrub
removed), and — optionally — each archive expanded with NetCloak-style
decoy routers.  Archives are found and read by the rules of
:mod:`repro.ingest.archive`, so the files shared are exactly the files
ingestion reads as config text; the ones it quarantines on read are
skipped and listed in the mapping.  What comes out is the archive tree plus a
:class:`~repro.share.mapping.ShareMapping` for the trusted party, never
written inside the archive tree.

Decoy admissibility is decided by a salt probe: a decoy component is
acceptable only if, in the combined network, it creates no router-name
collision, no link touching both sides, no routing instance mixing real
and decoy routers, and no recovered address block built from subnets of
both sides.  Those four conditions are exactly what makes every analysis
stage decomposable into "real part" + "decoy part" — the certify gate
(:mod:`repro.share.certify`) then proves the real part unchanged end to
end.  Candidates that fail are re-rolled with the next salt (new
addresses, new names, new AS numbers) up to ``max_salt_probes`` times.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.anonymize import Anonymizer
from repro.core.address_space import extract_address_space, mentioned_subnets
from repro.ingest.archive import archive_name, discover_archives, read_archive
from repro.model.network import Network
from repro.share.decoys import DECOY_TEMPLATES, DecoySet, synthesize_decoys
from repro.share.mapping import ShareMapping


class ShareError(RuntimeError):
    """The corpus cannot be shared as requested (fail closed, never emit
    an archive whose invariance is in doubt)."""


@dataclass
class ShareOptions:
    """Knobs of one share run."""

    key: bytes
    decoys: int = 0
    decoy_template: str = "enterprise"
    max_salt_probes: int = 16

    def __post_init__(self) -> None:
        if self.decoys and self.decoy_template not in DECOY_TEMPLATES:
            raise ShareError(
                f"unknown decoy template {self.decoy_template!r} "
                f"(choose from {', '.join(DECOY_TEMPLATES)})"
            )
        if self.max_salt_probes < 1:
            raise ShareError("max_salt_probes must be at least 1")


@dataclass
class SharedArchive:
    """One archive's share record."""

    original: str
    path: str
    shared: Optional[str]  # output subdirectory name; None for a flat share
    files: Dict[str, str] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)
    decoys: Optional[DecoySet] = None

    def to_dict(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "shared": self.shared,
            "path": self.path,
            "files": dict(sorted(self.files.items())),
        }
        if self.skipped:
            entry["skipped"] = sorted(self.skipped)
        if self.decoys is not None:
            entry["decoys"] = self.decoys.to_dict()
        return entry


@dataclass
class ShareResult:
    """What one ``share_corpus`` run produced."""

    outdir: str
    mapping: ShareMapping
    archives: List[SharedArchive] = field(default_factory=list)
    ignored: List[str] = field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        """The run-manifest ``share`` block (identity-free by design)."""
        return {
            "archives": len(self.archives),
            "files": sum(len(a.files) for a in self.archives),
            "decoy_routers": sum(
                len(a.decoys.routers) for a in self.archives if a.decoys
            ),
            "decoy_template": next(
                (a.decoys.template for a in self.archives if a.decoys), None
            ),
            "salts": {
                a.shared or ".": a.decoys.salt
                for a in self.archives
                if a.decoys is not None
            },
        }


def shared_file_name(anonymizer: Anonymizer, file_name: str) -> str:
    """Pseudo-name for an output file: hash the stem, keep the extension.

    The stem is hashed with the same ``hash_name`` that scrubbed the
    content, so a file named after its hostname gets *the same*
    pseudo-name as the hostname token inside it — the shared archive
    stays self-consistent without ever revealing that they matched.
    """
    stem, ext = os.path.splitext(file_name)
    return anonymizer.hash_name(stem) + ext


def _probe_networks(
    real_files: Dict[str, str], decoy_set: DecoySet
) -> Tuple[Network, Network, Network]:
    """Parse the real, decoy, and combined shared networks for the probe.

    Decoy entries are keyed by router name (their file stems *are* their
    anonymized hostnames); real entries are keyed by shared file name.
    Texts are parsed once — the combined network reuses the parsed
    models.
    """
    real_net = Network.from_configs(real_files, name="real", on_error="skip-block")
    decoy_net = Network.from_configs(
        {os.path.splitext(f)[0]: text for f, text in decoy_set.files.items()},
        name="decoy",
        on_error="skip-block",
    )
    combined = Network.from_configs(
        {
            **{name: router.config for name, router in real_net.routers.items()},
            **{name: router.config for name, router in decoy_net.routers.items()},
        },
        name="combined",
        on_error="skip-block",
    )
    return real_net, decoy_net, combined


def check_decoy_admissible(
    real_files: Dict[str, str], decoy_set: DecoySet
) -> Optional[str]:
    """``None`` if the decoy component is admissible, else the reason.

    The four conditions jointly guarantee that instances, pathways,
    address trees, and survivability all decompose into independent real
    and decoy parts (the decoy component is a disconnected subgraph with
    a disjoint address plan), so stripping decoy-attributed results
    recovers exactly the real-only analysis.
    """
    decoy_names = set(decoy_set.routers)
    decoy_net_expected = len(decoy_names)

    real_net, decoy_net, combined = _probe_networks(real_files, decoy_set)

    if (
        len(decoy_net) != decoy_net_expected
        or decoy_net.quarantined
        or decoy_net.diagnostics.exit_code() != 0
    ):
        # Synthesized-then-anonymized configs must parse without a single
        # warning or error (info-level "unmodeled command" chatter is
        # normal), or the candidate is rejected.
        return "decoy component did not parse cleanly"

    # 1. No name collision with real routers (hostnames and file stems —
    #    from_directory names routers by either).
    real_names = set()
    for key, router in real_net.routers.items():
        stem = os.path.splitext(key)[0]
        real_names.add(stem)
        real_names.add(router.config.hostname or stem)
    if decoy_names & real_names:
        return "router name collision between real and decoy routers"
    if set(real_net.routers) & set(decoy_net.routers):
        return "configuration key collision between real and decoy routers"

    # 2. No link touches both sides (a shared subnet would fake a link).
    for link in combined.links:
        members = set(link.routers)
        if members & decoy_names and members - decoy_names:
            return f"link on {link.subnet} joins real and decoy routers"

    # 3. No routing instance mixes real and decoy routers (a shared
    #    private ASN or IGP adjacency would merge instances).
    for instance in combined.instances:
        members = instance.routers
        if members & decoy_names and members - decoy_names:
            return (
                f"instance {instance.protocol}:{instance.instance_id} "
                f"mixes real and decoy routers"
            )

    # 4. Address blocks separate: no recovered block joins subnets of
    #    both sides, and the real-side blocks are exactly the blocks of
    #    the real-only network.
    real_subnets = set(mentioned_subnets(real_net))
    decoy_subnets = set(mentioned_subnets(decoy_net))
    if real_subnets & decoy_subnets:
        return "real and decoy configurations mention a common subnet"
    real_side = []
    for block in extract_address_space(combined):
        subnets = set(block.subnets)
        if subnets & real_subnets and subnets & decoy_subnets:
            return f"address block {block.prefix} joins real and decoy subnets"
        if subnets & real_subnets:
            real_side.append((block.prefix, tuple(sorted(map(str, block.subnets)))))
    real_only = [
        (block.prefix, tuple(sorted(map(str, block.subnets))))
        for block in extract_address_space(real_net)
    ]
    if sorted(real_side, key=repr) != sorted(real_only, key=repr):
        return "decoy expansion perturbs the real address tree"
    return None


def _stamp_roles(real_files: Dict[str, str], decoy_set: DecoySet) -> None:
    """Record each decoy's equivalence class in the combined network.

    Trusted-party metadata only (it names no real router): the audit
    trail showing whether decoys blend into existing role classes or sit
    in fresh singleton classes of their own.
    """
    from repro.compress import build_compression_plan  # noqa: PLC0415

    _real, _decoy, combined = _probe_networks(real_files, decoy_set)
    plan = build_compression_plan(combined)
    decoy_names = set(decoy_set.routers)
    stamps: Dict[str, str] = {}
    for cls in plan.classes:
        members = set(cls.members)
        blended = bool(members - decoy_names)
        for router in members & decoy_names:
            stamps[router] = (
                f"{cls.role}/c{cls.class_id}" + ("" if blended else "/decoy-only")
            )
    decoy_set.role_stamps = stamps


def _expand_with_decoys(
    archive: str, shared_files: Dict[str, str], options: ShareOptions
) -> DecoySet:
    """Probe salts until an admissible decoy component is found."""
    reasons = []
    for salt in range(options.max_salt_probes):
        candidate = synthesize_decoys(
            archive,
            options.key,
            salt,
            options.decoys,
            template=options.decoy_template,
        )
        reason = check_decoy_admissible(shared_files, candidate)
        if reason is None:
            _stamp_roles(shared_files, candidate)
            return candidate
        reasons.append(f"salt {salt}: {reason}")
    raise ShareError(
        f"no admissible decoy component for archive {archive!r} after "
        f"{options.max_salt_probes} salt probes:\n  " + "\n  ".join(reasons)
    )


def share_corpus(root: str, outdir: str, options: ShareOptions) -> ShareResult:
    """Anonymize (and optionally decoy-expand) a corpus into *outdir*.

    One :class:`Anonymizer` spans the whole corpus, so names, addresses,
    and AS numbers shared across archives anonymize consistently — the
    cross-network comparisons of §5–§7 survive sharing.
    """
    if not os.path.isdir(root):
        raise ShareError(f"{root} is not a directory")
    archives, ignored = discover_archives(root)
    flat = archives == [root]
    anonymizer = Anonymizer(key=options.key)
    result = ShareResult(
        outdir=outdir,
        mapping=ShareMapping(key=options.key),
        ignored=list(ignored),
    )
    os.makedirs(outdir, exist_ok=True)

    for path in archives:
        name = archive_name(path)
        files = read_archive(path)
        shared_files: Dict[str, str] = {}
        record = SharedArchive(
            original=name,
            path=os.path.abspath(path),
            shared=None if flat else anonymizer.hash_name(name),
            skipped=[file.name for file in files if file.text is None],
        )
        for file in files:
            if file.text is None:
                continue
            out_name = shared_file_name(anonymizer, file.name)
            if out_name in shared_files:
                raise ShareError(
                    f"pseudo-name collision on {out_name!r} in archive "
                    f"{name!r} (two files share a stem?)"
                )
            shared_files[out_name] = anonymizer.anonymize_config(file.text)
            record.files[file.name] = out_name

        if options.decoys > 0:
            decoy_set = _expand_with_decoys(name, shared_files, options)
            overlap = set(decoy_set.files) & set(shared_files)
            if overlap:
                raise ShareError(f"decoy file name collision in {name!r}: {sorted(overlap)}")
            shared_files.update(decoy_set.files)
            record.decoys = decoy_set

        target = outdir if flat else os.path.join(outdir, record.shared)
        os.makedirs(target, exist_ok=True)
        for out_name, text in shared_files.items():
            with open(os.path.join(target, out_name), "w") as handle:
                handle.write(text)

        result.archives.append(record)
        result.mapping.archives[name] = record.to_dict()

    exported = anonymizer.export_mapping()
    result.mapping.names = exported["names"]
    result.mapping.asns = exported["asns"]
    result.mapping.addresses = exported["addresses"]
    return result


__all__ = [
    "ShareError",
    "ShareOptions",
    "SharedArchive",
    "ShareResult",
    "check_decoy_admissible",
    "share_corpus",
    "shared_file_name",
]
