"""Replicated pod fabric: the compression stress template.

Data-center-style design scaled for the topology-compression work: a
two-router core, two EBGP border routers that redistribute into the IGP
(the §7.1 enterprise pattern), and P identical pods of two aggregation
routers plus *k* access routers.  Every access router dual-homes to its
pod's aggregation pair; every aggregation router dual-homes to both
cores.  One network-wide OSPF process covers everything, so all routers
share a single routing instance.

Replication is exact by construction: every pod carries byte-identical
policy (same packet-filter clauses, same ACL numbers per position), the
wiring inside each pod is isomorphic, and only addresses differ.  The
compression planner should therefore collapse a 100k-router fabric to a
handful of equivalence classes — which is the point: this template
emits the 10k–100k-router corpora the compression plan is benchmarked
and certified against.

Unlike the other templates this one takes no random flavor pass — the
flavor generators draw per-router variation from the RNG, which would
(correctly!) split the equivalence classes and defeat the template's
purpose.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.classify import DesignClass
from repro.net import Prefix
from repro.synth.addressing import NetworkAddressPlan
from repro.synth.builder import NetworkBuilder
from repro.synth.spec import ExpectedInstance, NetworkSpec
from repro.synth.templates.enterprise import (
    PROVIDER_ASNS,
    _cover,
    _network_statement,
    _process_for,
)

#: The single network-wide OSPF process every router participates in.
OSPF_PROCESS = 100

#: Packet-filter size on access LAN interfaces (identical across pods).
ACCESS_FILTER_RULES = 8


def pod_count(n_routers: int, access_per_pod: int = 8) -> int:
    """Pods needed to reach roughly *n_routers* total routers."""
    per_pod = 2 + access_per_pod
    return max(1, (n_routers - 4 + per_pod - 1) // per_pod)


def build_pods(
    name: str,
    index: int,
    n_routers: int,
    seed: int = 0,  # noqa: ARG001 — accepted for builder-API uniformity
    access_per_pod: int = 8,
    with_filters: bool = True,
) -> Tuple[Dict[str, str], NetworkSpec]:
    """Generate a replicated pod fabric of roughly *n_routers* routers.

    Returns ``(configs, spec)`` where *configs* maps router name → IOS
    text.  The actual router count is ``4 + pods * (2 + access_per_pod)``
    rounded up from *n_routers*; read it back from ``spec.router_count``.
    """
    if n_routers < 4 + 2 + access_per_pod:
        raise ValueError("pod fabric needs cores, borders, and one full pod")
    # The standard /14-per-network plan exhausts its point-to-point pool
    # around a few thousand routers; the fabric gets a private /8 pair.
    plan = NetworkAddressPlan(
        internal=Prefix("10.0.0.0/8"), external=Prefix("192.0.0.0/8")
    )
    builder = NetworkBuilder(plan)
    local_as = 64512 + (index % 1000)
    igp = "ospf"

    cores = [f"{name}-core{i}" for i in range(2)]
    borders = [f"{name}-border{i}" for i in range(2)]
    loopbacks = {}
    for router in cores + borders:
        builder.add_router(router)
        lb = loopbacks[router] = builder.add_loopback(router)
        _cover(builder, lb, igp, OSPF_PROCESS)

    # Core pair, and borders dual-homed to both cores.
    for end in builder.connect(cores[0], cores[1], kind="GigabitEthernet"):
        _cover(builder, end, igp, OSPF_PROCESS)
    for border in borders:
        for core in cores:
            for end in builder.connect(border, core, kind="GigabitEthernet"):
                _cover(builder, end, igp, OSPF_PROCESS)

    pods = pod_count(n_routers, access_per_pod)
    for pod in range(pods):
        aggs = [f"{name}-p{pod}-agg{i}" for i in range(2)]
        accesses = [f"{name}-p{pod}-acc{i}" for i in range(access_per_pod)]
        for router in aggs + accesses:
            builder.add_router(router)
            lb = builder.add_loopback(router)
            _cover(builder, lb, igp, OSPF_PROCESS)
        for agg in aggs:
            for core in cores:
                for end in builder.connect(agg, core, kind="GigabitEthernet"):
                    _cover(builder, end, igp, OSPF_PROCESS)
        for access in accesses:
            for agg in aggs:
                for end in builder.connect(access, agg, kind="GigabitEthernet"):
                    _cover(builder, end, igp, OSPF_PROCESS)
            lan = builder.add_lan(access, kind="FastEthernet", length=28)
            _cover(builder, lan, igp, OSPF_PROCESS)
            if with_filters:
                builder.add_packet_filter(
                    lan, ACCESS_FILTER_RULES, direction="in", extended=True
                )

    # Borders: EBGP to one provider each, summarize into the IGP.
    provider_asns = []
    for border_index, border in enumerate(borders):
        uplink = builder.add_external_link(border, kind="Serial")
        provider_asn = PROVIDER_ASNS[(index + border_index) % len(PROVIDER_ASNS)]
        provider_asns.append(provider_asn)
        builder.external_ebgp_session(uplink, local_as, provider_asn)
        bgp = builder.routers[border].bgp_process
        bgp.networks.append(_network_statement(plan.internal))
        map_name = "EXT-IN"
        builder.add_route_map_permitting(border, map_name, [Prefix(0, 0)])
        target = _process_for(builder, border, igp, OSPF_PROCESS)
        builder.redistribute(
            border, target, "bgp", source_id=local_as, route_map=map_name, metric=100
        )
        builder.redistribute(border, target, "connected")

    # IBGP between the borders over their loopbacks.
    builder.ibgp_session(loopbacks[borders[0]], loopbacks[borders[1]], local_as)

    total = 4 + pods * (2 + access_per_pod)
    spec = NetworkSpec(
        name=name,
        design=DesignClass.ENTERPRISE,
        router_count=total,
        internal_as_count=1,
        external_as_count=len(set(provider_asns)),
        has_filters=with_filters,
        internal_filter_fraction=1.0 if with_filters else None,
        external_interfaces=list(builder.external_interfaces),
    )
    spec.expected_instances.append(
        ExpectedInstance(protocol=igp, size=total, external=True)
    )
    spec.expected_instances.append(
        ExpectedInstance(protocol="bgp", size=2, asn=local_as, external=True)
    )
    return builder.serialize(), spec


__all__ = ["ACCESS_FILTER_RULES", "OSPF_PROCESS", "build_pods", "pod_count"]
