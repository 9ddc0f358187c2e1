"""The analysis-invariance certification gate.

A shared corpus is only trustworthy if every analysis result computed
from it is the result the original would have given — that is the whole
premise of sharing anonymized configurations (§4.1) and of the decoy
expansion.  ``certify_share`` proves it the hard way: load both corpora,
run the full analysis executor on each archive pair, build the
:func:`~repro.compress.payload.analysis_payload` of both sides with the
stage statuses, strip decoy-only results from the shared side, and
:func:`~repro.compress.payload.certify` the two, the original side
renamed through the trusted-party mapping
(:class:`~repro.share.mapping.Renamer`).

The gate is fail-closed by construction: decoy filtering only removes
results *entirely* attributable to decoy routers, so any artifact that
mixes real and decoy state — a fake link, a merged instance, a joined
address block — survives filtering, lands in the comparison, and
diverges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.compress.payload import Certificate, analysis_payload, certify
from repro.core.address_space import mentioned_subnets
from repro.model.network import Network
from repro.share.mapping import Renamer, ShareMapping


def _within(items: Iterable[str], pool: FrozenSet[str]) -> bool:
    """True when *items* is non-empty and entirely inside *pool*."""
    items = set(items)
    return bool(items) and items <= pool


def _decoy_subnets(network: Network, decoy_routers: FrozenSet[str]) -> FrozenSet[str]:
    members = {
        name: router.config
        for name, router in network.routers.items()
        if name in decoy_routers
    }
    if not members:
        return frozenset()
    decoy_net = Network.from_configs(members, name="decoys", on_error="skip-block")
    return frozenset(str(subnet) for subnet in mentioned_subnets(decoy_net))


def _strip_decoys(
    payload: Dict[str, Any], network: Network, decoys: FrozenSet[str]
) -> None:
    """Remove every result of *payload* that only decoy routers produce."""
    decoy_ids = frozenset(
        entry["id"]
        for entry in payload["instances"]
        if _within((process[0] for process in entry["processes"]), decoys)
    )
    payload["instances"] = [
        entry for entry in payload["instances"] if entry["id"] not in decoy_ids
    ]
    # Decoy-only instances are strippable from real pathways: the
    # admissibility conditions leave the external-world sentinel as the
    # *only* junction between the two sides, so a real router's pathway
    # can reach a decoy instance solely through ``external`` — never
    # through a link, adjacency, or redistribution.  An instance mixing
    # real and decoy routers is not decoy-only and stays (fail closed).
    pathways = {}
    for router, entry in payload["pathways"].items():
        if router in decoys:
            continue
        entry["layers"] = {
            node: depth for node, depth in entry["layers"].items() if node not in decoy_ids
        }
        for key in ("edges", "policies"):
            entry[key] = [
                row for row in entry[key] if row[0] not in decoy_ids and row[1] not in decoy_ids
            ]
        pathways[router] = entry
    payload["pathways"] = pathways

    decoy_subnets = _decoy_subnets(network, decoys)
    payload["address_tree"] = [
        block
        for block in payload["address_tree"]
        if not _within(block["subnets"], decoy_subnets)
    ]

    surv = payload["survivability"]
    decoy_links = {
        str(link.subnet) for link in network.links if _within(link.routers, decoys)
    }
    surv["articulation_routers"] = [
        router for router in surv["articulation_routers"] if router not in decoys
    ]
    surv["bridge_links"] = [link for link in surv["bridge_links"] if link not in decoy_links]
    surv["couplings"] = [
        coupling for coupling in surv["couplings"] if not _within(coupling["routers"], decoys)
    ]
    surv["static_route_conflicts"] = {
        prefix: routers
        for prefix, routers in surv["static_route_conflicts"].items()
        if not _within(routers, decoys)
    }


def analysis_summary(
    network: Network,
    decoy_routers: FrozenSet[str] = frozenset(),
    executor: Optional[Any] = None,
    archive: str = "archive",
) -> Dict[str, Any]:
    """The certified analysis snapshot of one network.

    Runs the full analysis executor (so stage statuses — including
    degraded-mode behavior on faulted corpora — are part of the
    certificate), then adds the analysis payload with every decoy-only
    result stripped.  Mixed real/decoy results are *kept*: they are
    evidence of a bad decoy set and must fail certification.
    """
    from repro.exec import AnalysisExecutor, ExecutorConfig  # noqa: PLC0415

    if executor is None:
        executor = AnalysisExecutor(ExecutorConfig())
    execution = executor.run_archive(archive, network)
    payload = analysis_payload(network)
    _strip_decoys(payload, network, decoy_routers)
    return {
        "stages": {result.stage: result.status for result in execution.results},
        **payload,
    }


def certify_archive(
    original: Network,
    shared: Network,
    mapping: ShareMapping,
    decoy_routers: FrozenSet[str],
    archive: str = "archive",
) -> Certificate:
    """Compare one original/shared network pair under the mapping.

    The router read from original file ``f`` pairs with the router read
    from its shared copy ``files[f]``; a router whose file has no shared
    router keeps its name, and so diverges.
    """
    files = mapping.archives[archive]["files"]
    shared_by_file = {router.source: name for name, router in shared.routers.items()}
    routers = {
        name: shared_by_file[files[router.source]]
        for name, router in original.routers.items()
        if files.get(router.source) in shared_by_file
    }
    return certify(
        analysis_summary(original, archive=archive),
        analysis_summary(shared, decoy_routers, archive=archive),
        rename=Renamer(mapping, routers),
    )


@dataclass
class ShareCertification:
    """The full corpus certificate: one :class:`Certificate` per archive."""

    archives: Dict[str, Certificate] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(certificate.ok for certificate in self.archives.values())

    def divergent_sections(self) -> List[str]:
        return sorted(
            f"{archive}:{section}"
            for archive, certificate in self.archives.items()
            for section, matched in certificate.sections.items()
            if not matched
        )

    def to_dict(self) -> Dict[str, Any]:
        archives = {}
        for archive, certificate in self.archives.items():
            entry: Dict[str, Any] = {
                "ok": certificate.ok,
                "sections": dict(certificate.sections),
            }
            if certificate.diff:
                entry["divergence"] = certificate.divergence
                entry["diff"] = {
                    section: {"original": original, "shared": shared}
                    for section, (original, shared) in certificate.diff.items()
                }
            archives[archive] = entry
        return {"ok": self.ok, "archives": archives}


def certify_share(
    root: str,
    outdir: str,
    mapping: ShareMapping,
    mode: str = "lenient",
) -> ShareCertification:
    """Certify a whole share run: every archive of *root* against *outdir*.

    Archives are located through the mapping (the only place the
    original ↔ shared correspondence exists).  ``mode`` mirrors the
    ingestion modes of the rest of the CLI; both sides always load with
    the same policy, so parse-fault handling cannot differ between them.
    """
    on_error = "strict" if mode == "strict" else "skip-block"
    certification = ShareCertification()
    for archive_name in sorted(mapping.archives):
        entry = mapping.archives[archive_name]
        original_path = entry["path"]
        shared_name = entry.get("shared")
        shared_path = outdir if shared_name is None else os.path.join(outdir, shared_name)
        original = Network.from_directory(original_path, on_error=on_error)
        shared = Network.from_directory(shared_path, on_error=on_error)
        certification.archives[archive_name] = certify_archive(
            original,
            shared,
            mapping,
            mapping.decoy_routers(archive_name),
            archive=archive_name,
        )
    return certification


__all__ = [
    "ShareCertification",
    "analysis_summary",
    "certify_archive",
    "certify_share",
]
