"""The analysis-invariance certification gate.

A shared corpus is only trustworthy if every analysis result computed
from it is the result the original would have given — that is the whole
premise of sharing anonymized configurations (§4.1) and of the decoy
expansion.  ``certify_share`` proves it the hard way: load both corpora,
run the full analysis executor on each archive pair, summarize
instances, pathways, address trees, and survivability on both sides,
strip decoy-attributed results from the shared side, and compare the
two summaries under :func:`repro.report.normalize_shared_payload` (the
original side renamed through the trusted-party mapping, both sides
canonicalized).

The gate is fail-closed by construction: decoy filtering only removes
results *entirely* attributable to decoy routers, so any artifact that
mixes real and decoy state — a fake link, a merged instance, a joined
address block — survives filtering, lands in the comparison, and
diverges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional

from repro.core.address_space import extract_address_space, mentioned_subnets
from repro.core.instances import compute_instances
from repro.core.pathways import ROUTER_RIB, route_pathways
from repro.core.process_graph import EXTERNAL_NODE
from repro.core.survivability import analyze_survivability
from repro.model.network import Network
from repro.report import normalize_shared_payload
from repro.share.mapping import ShareMapping

#: The sections the certificate compares, in report order.
CERTIFIED_SECTIONS = (
    "stages",
    "instances",
    "pathways",
    "address_tree",
    "survivability",
)


def _node_key(node: Any) -> str:
    """Stable, label-free pathway node keys (labels embed names and ids)."""
    if node == EXTERNAL_NODE:
        return "external"
    if node == ROUTER_RIB:
        return "rib"
    if isinstance(node, int):
        return f"i:{node}"
    return f"?:{node!r}"


def _decoy_subnets(network: Network, decoy_routers: FrozenSet[str]):
    if not decoy_routers:
        return frozenset()
    members = {
        name: router.config
        for name, router in network.routers.items()
        if name in decoy_routers
    }
    if not members:
        return frozenset()
    decoy_net = Network.from_configs(members, name="decoys", on_error="skip-block")
    return frozenset(mentioned_subnets(decoy_net))


def analysis_summary(
    network: Network,
    decoy_routers: FrozenSet[str] = frozenset(),
    executor: Optional[Any] = None,
    archive: str = "archive",
) -> Dict[str, Any]:
    """The certified analysis snapshot of one network.

    Runs the full analysis executor (so stage statuses — including
    degraded-mode behavior on faulted corpora — are part of the
    certificate), then summarizes the four §3 result families with every
    decoy-only artifact stripped.  Mixed real/decoy artifacts are *kept*:
    they are evidence of a bad decoy set and must fail certification.
    """
    from repro.exec import AnalysisExecutor, ExecutorConfig  # noqa: PLC0415

    if executor is None:
        executor = AnalysisExecutor(ExecutorConfig())
    execution = executor.run_archive(archive, network)
    stages = {result.stage: result.status for result in execution.results}

    instances = compute_instances(network)

    instance_entries = []
    for instance in instances:
        if instance.routers and instance.routers <= decoy_routers:
            continue
        processes = sorted(
            ([key[0], key[1], key[2]] for key in instance.processes), key=repr
        )
        instance_entries.append(
            {
                "id": f"i:{instance.instance_id}",
                "protocol": instance.protocol,
                "processes": processes,
            }
        )

    # Decoy-only instances are strippable from real pathways: the
    # admissibility conditions leave the external-world sentinel as the
    # *only* junction between the two sides, so a real router's pathway
    # can reach a decoy instance solely through ``external`` — never
    # through a link, adjacency, or redistribution.  An instance mixing
    # real and decoy routers is not decoy-only and stays (fail closed).
    decoy_instance_ids = {
        instance.instance_id
        for instance in instances
        if instance.routers and instance.routers <= decoy_routers
    }

    def _is_decoy_node(node: Any) -> bool:
        return isinstance(node, int) and node in decoy_instance_ids

    pathways: Dict[str, Any] = {}
    for router, pathway in route_pathways(network, instances=instances).items():
        if router in decoy_routers:
            continue
        pathways[router] = {
            "nodes": sorted(
                (_node_key(n) for n in pathway.graph.nodes if not _is_decoy_node(n)),
                key=repr,
            ),
            "edges": sorted(
                [_node_key(a), _node_key(b), data.get("kind")]
                for a, b, data in pathway.graph.edges(data=True)
                if not (_is_decoy_node(a) or _is_decoy_node(b))
            ),
            "layers": {
                _node_key(node): depth
                for node, depth in pathway.layers.items()
                if not _is_decoy_node(node)
            },
            "policies": sorted(
                [_node_key(src), _node_key(dst), route_map]
                for src, dst, route_map in pathway.policies
                if not (_is_decoy_node(src) or _is_decoy_node(dst))
            ),
            "external_depth": pathway.external_depth(),
            "truncated": pathway.truncated,
        }

    decoy_subnets = _decoy_subnets(network, decoy_routers)
    address_tree = []
    for block in extract_address_space(network):
        subnets = set(block.subnets)
        if subnets and subnets <= decoy_subnets:
            continue
        address_tree.append(
            {
                "prefix": str(block.prefix),
                "subnets": sorted(str(subnet) for subnet in block.subnets),
            }
        )

    report = analyze_survivability(network, instances=instances)
    decoy_link_subnets = {
        link.subnet
        for link in network.links
        if link.routers and set(link.routers) <= decoy_routers
    }
    survivability = {
        "articulation_routers": sorted(
            router
            for router in report.articulation_routers
            if router not in decoy_routers
        ),
        "bridge_links": sorted(
            str(link) for link in report.bridge_links if link not in decoy_link_subnets
        ),
        "couplings": [
            {
                "a": f"i:{coupling.instance_a}",
                "b": f"i:{coupling.instance_b}",
                "routers": sorted(coupling.routers),
                "mechanisms": sorted(coupling.mechanisms),
            }
            for coupling in report.couplings
            if not (coupling.routers and coupling.routers <= decoy_routers)
        ],
        "static_route_conflicts": {
            str(prefix): sorted(routers)
            for prefix, routers in report.static_route_conflicts.items()
            if not (routers and set(routers) <= decoy_routers)
        },
        "truncated": report.truncated,
    }

    return {
        "stages": stages,
        "instances": instance_entries,
        "pathways": pathways,
        "address_tree": address_tree,
        "survivability": survivability,
    }


@dataclass
class ArchiveCertificate:
    """The per-archive verdict, with the normalized evidence on divergence."""

    archive: str
    sections: Dict[str, bool] = field(default_factory=dict)
    diff: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.sections.values())

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "ok": self.ok,
            "sections": dict(self.sections),
        }
        if self.diff:
            entry["diff"] = self.diff
        return entry


@dataclass
class ShareCertification:
    """The full corpus certificate."""

    archives: List[ArchiveCertificate] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(archive.ok for archive in self.archives)

    def divergent_sections(self) -> List[str]:
        return sorted(
            {
                f"{archive.archive}:{section}"
                for archive in self.archives
                for section, matched in archive.sections.items()
                if not matched
            }
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "archives": {
                archive.archive: archive.to_dict() for archive in self.archives
            },
        }


def certify_archive(
    original: Network,
    shared: Network,
    mapping: ShareMapping,
    decoy_routers: FrozenSet[str],
    archive: str = "archive",
) -> ArchiveCertificate:
    """Compare one original/shared network pair under the mapping."""
    context = {
        "names": mapping.names,
        "asns": mapping.asns,
        "key": mapping.key,
    }
    original_summary = analysis_summary(original, frozenset(), archive=archive)
    shared_summary = analysis_summary(shared, decoy_routers, archive=archive)
    normalized_original = normalize_shared_payload(original_summary, mapping=context)
    normalized_shared = normalize_shared_payload(shared_summary)
    certificate = ArchiveCertificate(archive=archive)
    for section in CERTIFIED_SECTIONS:
        left = normalized_original.get(section)
        right = normalized_shared.get(section)
        matched = left == right
        certificate.sections[section] = matched
        if not matched:
            certificate.diff[section] = {"original": left, "shared": right}
    return certificate


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
        certification.archives.append(
            certify_archive(
                original,
                shared,
                mapping,
                mapping.decoy_routers(archive_name),
                archive=archive_name,
            )
        )
    return certification


__all__ = [
    "CERTIFIED_SECTIONS",
    "ArchiveCertificate",
    "ShareCertification",
    "analysis_summary",
    "certify_archive",
    "certify_share",
]
