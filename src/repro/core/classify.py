"""Design classification (§7).

The classic textbooks define only two routing architectures; §7 tests how
many production networks actually follow them:

* **backbone** — many EBGP sessions to external peers, IBGP distributes
  external routes from border to interior routers, a small number of IGP
  instances carries infrastructure routes, and external routes are *never*
  redistributed into the IGP;
* **enterprise** — a small number of BGP speakers talk to the outside world
  and inject (redistribute) routes into a small number of IGP instances
  from which most routers learn their routes;
* everything else is **unclassifiable** (20 of the paper's 31 networks).

The classifier also detects **staging instances** — single-router IGP
instances with external peers, used by tier-2 ISPs to connect customers who
do not run BGP (§7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Set

from repro.core.instances import (
    RoutingInstance,
    compute_instances,
    find_external_adjacent_instances,
    instance_of,
)
from repro.model.exchange import Redistribution
from repro.model.network import Network


class DesignClass(str, Enum):
    """The §7 routing-design taxonomy."""

    BACKBONE = "backbone"
    ENTERPRISE = "enterprise"
    UNCLASSIFIABLE = "unclassifiable"


@dataclass
class DesignEvidence:
    """The measurements the classification is based on."""

    network: str
    router_count: int
    bgp_speaker_count: int
    largest_bgp_instance_size: int
    ebgp_external_sessions: int
    internal_as_count: int
    external_as_count: int
    igp_instance_count: int
    staging_instance_count: int
    core_igp_instance_count: int
    bgp_redistributed_into_igp: bool
    igp_coverage: float  # fraction of routers in the largest few IGP instances
    igp_to_igp_redistribution_count: int = 0
    bgp_fed_core_instances: int = 0  # core IGP instances receiving BGP routes
    design: DesignClass = DesignClass.UNCLASSIFIABLE
    notes: List[str] = field(default_factory=list)


def is_staging_instance(
    instance: RoutingInstance, external_ids: Set[int]
) -> bool:
    """A staging instance: one in-network router, externally adjacent."""
    return (
        instance.protocol in ("ospf", "eigrp", "igrp", "rip")
        and instance.size == 1
        and instance.instance_id in external_ids
    )


def classify_design(
    network: Network, instances: Optional[List[RoutingInstance]] = None
) -> DesignEvidence:
    """Classify one network's routing design against the textbook patterns."""
    if instances is None:
        instances = compute_instances(network)
    external_ids = find_external_adjacent_instances(network, instances)

    igp_instances = [
        inst for inst in instances if inst.protocol in ("ospf", "eigrp", "igrp", "rip")
    ]
    bgp_instances = [inst for inst in instances if inst.protocol == "bgp"]
    staging = [inst for inst in igp_instances if is_staging_instance(inst, external_ids)]
    core_igp = [inst for inst in igp_instances if inst not in staging]

    router_count = len(network.routers)
    bgp_speakers = {
        router.name
        for router in network.routers.values()
        if router.config.bgp_process is not None
    }
    largest_bgp = max((inst.size for inst in bgp_instances), default=0)
    ebgp_external = sum(
        1
        for session in network.bgp_sessions
        if session.is_ebgp and session.crosses_network_boundary
    )
    internal_asns = {inst.asn for inst in bgp_instances if inst.asn is not None}
    external_asns = {
        session.remote_as
        for session in network.bgp_sessions
        if session.crosses_network_boundary and session.remote_as is not None
    }

    igp_to_igp, bgp_fed = _redistribution_structure(network, instances)
    core_igp_ids = {inst.instance_id for inst in core_igp}
    redistributes_bgp_into_igp = bool(bgp_fed)

    top_igp_coverage = 0.0
    if router_count:
        covered: Set[str] = set()
        for inst in sorted(core_igp, key=lambda i: -i.size)[:3]:
            covered.update(inst.routers)
        top_igp_coverage = len(covered) / router_count

    evidence = DesignEvidence(
        network=network.name,
        router_count=router_count,
        bgp_speaker_count=len(bgp_speakers),
        largest_bgp_instance_size=largest_bgp,
        ebgp_external_sessions=ebgp_external,
        internal_as_count=len(internal_asns),
        external_as_count=len(external_asns),
        igp_instance_count=len(igp_instances),
        staging_instance_count=len(staging),
        core_igp_instance_count=len(core_igp),
        bgp_redistributed_into_igp=redistributes_bgp_into_igp,
        igp_coverage=top_igp_coverage,
        igp_to_igp_redistribution_count=igp_to_igp,
        bgp_fed_core_instances=len(bgp_fed & core_igp_ids),
    )
    evidence.design = _decide(evidence)
    return evidence


def _redistribution_structure(network: Network, instances):
    """Measure how routes cross instance boundaries on shared routers.

    Returns ``(igp_to_igp, bgp_fed)``: the number of redistribution
    statements moving routes directly between two *different* IGP
    instances (a thing textbook designs never do), and the set of IGP
    instance ids that receive routes redistributed from BGP.
    """
    membership = instance_of(instances)
    igp_to_igp = 0
    bgp_fed = set()
    for record in network.route_exchange:
        if not isinstance(record, Redistribution) or record.target[1] == "bgp":
            continue
        if record.source[1] == "bgp":
            bgp_fed.add(membership[record.target].instance_id)
        elif record.source in membership:
            if membership[record.source].instance_id != membership[record.target].instance_id:
                igp_to_igp += 1
    return igp_to_igp, bgp_fed


def _decide(ev: DesignEvidence) -> DesignClass:
    if ev.router_count == 0:
        return DesignClass.UNCLASSIFIABLE

    # Backbone: a network-spanning (I)BGP instance distributes external
    # routes learned over many EBGP sessions; external routes never enter
    # the IGP; the IGP layer is a handful of infrastructure instances.
    bgp_fraction = ev.largest_bgp_instance_size / ev.router_count
    if (
        bgp_fraction >= 0.5
        and ev.ebgp_external_sessions >= 2
        and not ev.bgp_redistributed_into_igp
        and ev.internal_as_count <= 2
        and ev.core_igp_instance_count <= 3
        and ev.igp_to_igp_redistribution_count == 0
        and ev.staging_instance_count <= 2
        # A large population of staging instances is the tier-2 pattern,
        # which the paper does not count as a textbook backbone.
    ):
        ev.notes.append(
            f"IBGP spans {bgp_fraction:.0%} of routers; "
            f"{ev.ebgp_external_sessions} external EBGP sessions; "
            "no BGP-to-IGP redistribution"
        )
        return DesignClass.BACKBONE

    # Enterprise: few border BGP speakers injecting external routes into a
    # small number of IGP instances that cover (nearly) all routers; every
    # IGP instance is fed from BGP, and routes never hop directly between
    # IGP instances (that is compartment glue, not a textbook design).
    few_speakers = ev.bgp_speaker_count <= max(4, round(0.1 * ev.router_count))
    if (
        ev.bgp_speaker_count > 0
        and few_speakers
        and ev.bgp_redistributed_into_igp
        and ev.core_igp_instance_count <= 3
        and ev.bgp_fed_core_instances == ev.core_igp_instance_count
        and ev.igp_to_igp_redistribution_count == 0
        and ev.internal_as_count <= 1
        and ev.staging_instance_count == 0
        # Textbook enterprises never use an IGP to talk to another network.
        and ev.igp_coverage >= 0.8
    ):
        ev.notes.append(
            f"{ev.bgp_speaker_count} border BGP speaker(s) inject into "
            f"{ev.core_igp_instance_count} IGP instance(s) covering "
            f"{ev.igp_coverage:.0%} of routers"
        )
        return DesignClass.ENTERPRISE

    return DesignClass.UNCLASSIFIABLE
