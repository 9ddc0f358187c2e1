"""One-shot markdown design report for a network.

Bundles the whole analysis battery — the §8.1 operational tasks — into a
single human-readable document: inventory, routing instances, design
classification, protocol roles, address plan, packet-filter placement,
OSPF areas, and survivability.  This is the artifact an operator would
actually hand around after pointing the tool at a config archive.
"""

from __future__ import annotations

from typing import List

from repro.core import analyze_survivability, classify_design, extract_address_space
from repro.core.areas import analyze_ospf_areas
from repro.core.filters import analyze_filter_placement
from repro.core.roles import classify_roles
from repro.model.network import Network


def generate_design_report(network: Network) -> str:
    """Render a markdown routing-design report for *network*."""
    lines: List[str] = []
    out = lines.append

    out(f"# Routing design report — {network.name}")
    out("")

    # --- inventory ---------------------------------------------------------
    sizes = network.config_sizes()
    census = network.interface_type_census()
    out("## Inventory")
    out("")
    out(f"- routers: **{len(network)}**")
    out(f"- links inferred: **{len(network.links)}**")
    out(f"- external-facing interfaces: **{len(network.external_interfaces)}**")
    out(
        f"- configuration size: {sum(sizes)} lines total, "
        f"avg {sum(sizes) // max(1, len(sizes))} per router"
    )
    top_types = sorted(census.items(), key=lambda kv: -kv[1])[:5]
    out(
        "- interface mix: "
        + ", ".join(f"{kind} ×{count}" for kind, count in top_types)
    )
    out("")

    # --- design class ---------------------------------------------------------
    evidence = classify_design(network)
    out("## Design classification")
    out("")
    out(f"**{evidence.design.value}**")
    for note in evidence.notes:
        out(f"- {note}")
    out(f"- internal BGP ASs: {evidence.internal_as_count}")
    out(f"- external ASs peered with: {evidence.external_as_count}")
    out(f"- external EBGP sessions: {evidence.ebgp_external_sessions}")
    if evidence.staging_instance_count:
        out(f"- staging IGP instances: {evidence.staging_instance_count}")
    if evidence.igp_to_igp_redistribution_count:
        out(
            f"- direct IGP-to-IGP redistribution statements: "
            f"{evidence.igp_to_igp_redistribution_count}"
        )
    out("")

    # --- instances ---------------------------------------------------------------
    out("## Routing instances")
    out("")
    out("| id | protocol | AS | routers |")
    out("|---|---|---|---|")
    for instance in sorted(network.instances, key=lambda i: -i.size):
        out(
            f"| {instance.instance_id} | {instance.protocol} | "
            f"{instance.asn or ''} | {instance.size} |"
        )
    out("")

    # --- roles ----------------------------------------------------------------------
    roles = classify_roles(network)
    out("## Protocol roles (IGP/EGP)")
    out("")
    for protocol in ("ospf", "eigrp", "rip"):
        intra, inter = roles.igp_intra[protocol], roles.igp_inter[protocol]
        if intra or inter:
            out(f"- {protocol}: {intra} intra-domain, {inter} inter-domain instance(s)")
    out(
        f"- EBGP sessions: {roles.ebgp_intra} intra-network, "
        f"{roles.ebgp_inter} to external networks"
    )
    out("")

    # --- address plan -------------------------------------------------------------------
    out("## Address space structure")
    out("")
    for block in extract_address_space(network):
        out(f"- `{block.prefix}` — {len(block.subnets)} subnets, {block.utilization:.0%} used")
    out("")

    # --- filters ------------------------------------------------------------------------------
    placement = analyze_filter_placement(network)
    out("## Packet filtering")
    out("")
    if placement.has_filters:
        out(
            f"- {placement.total_rules} filter rules in "
            f"{len(placement.applications)} applications"
        )
        out(
            f"- {placement.internal_fraction:.0%} of rules applied to "
            f"internal links"
        )
        largest = placement.largest_filter()
        if largest is not None:
            out(f"- largest filter: access-list {largest[0]} with {largest[1]} clauses")
    else:
        out("- no packet filters defined")
    out("")

    # --- areas ---------------------------------------------------------------
    structures = [s for s in analyze_ospf_areas(network) if s.areas]
    if structures:
        out("## OSPF areas")
        out("")
        for structure in structures:
            out(
                f"- instance {structure.instance_id}: areas "
                f"{', '.join(structure.area_ids)}; "
                f"{structure.abr_count()} ABR(s)"
            )
            for detached in structure.detached_areas():
                out(f"  - **warning**: area {detached} has no ABR to the backbone")
        out("")

    # --- survivability ------------------------------------------------------------
    report = analyze_survivability(network)
    out("## Survivability")
    out("")
    out(f"- articulation routers: {len(report.articulation_routers)}")
    if report.articulation_routers:
        shown = ", ".join(report.articulation_routers[:10])
        more = (
            f" (+{len(report.articulation_routers) - 10} more)"
            if len(report.articulation_routers) > 10
            else ""
        )
        out(f"  - {shown}{more}")
    out(f"- bridge links: {len(report.bridge_links)}")
    for coupling in report.fragile_couplings:
        out(
            f"- **single point of failure**: instances "
            f"{coupling.instance_a}↔{coupling.instance_b} coupled only by "
            f"{sorted(coupling.routers)[0]}"
        )
    for prefix, routers in list(report.static_route_conflicts.items())[:10]:
        out(
            f"- maintenance conflict: `{prefix}` statically routed on "
            f"{', '.join(routers)}"
        )
    out("")
    return "\n".join(lines)
