"""Survivability / what-if analysis (§8.1 "Network engineering").

"The operators can also evaluate the robustness of the routing design to
equipment failures and planned maintenance activities.  For example,
analysis of the routing design data can uncover scenarios where a single
link or session failure would disconnect part of the network.  The
operators can also schedule maintenance activities to avoid disabling
multiple routers with static routes to the same destination prefix."

This module answers those questions from the static model:

* physical single points of failure — articulation routers and bridge
  links of the router-level topology,
* routing-design single points of failure — routers that alone carry the
  route exchange between two instances (net5's glue-router redundancy
  question, §5.1, generalized),
* static-route maintenance conflicts — destination prefixes that several
  routers reach via static routes, which maintenance must not disable
  together.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.core.instances import RoutingInstance, compute_instances, instance_of
from repro.model.exchange import Peering, Redistribution
from repro.model.network import Network
from repro.obs.trace import traced
from repro.net import Prefix


@dataclass
class InstanceCoupling:
    """How two routing instances exchange routes, and through whom."""

    instance_a: int
    instance_b: int
    routers: Set[str] = field(default_factory=set)
    mechanisms: Set[str] = field(default_factory=set)  # redistribution | ebgp

    @property
    def redundancy(self) -> int:
        """How many routers must fail to sever this coupling."""
        return len(self.routers)

    @property
    def is_single_point_of_failure(self) -> bool:
        return self.redundancy == 1


@dataclass
class SurvivabilityReport:
    """The full §8.1 what-if summary for one network."""

    articulation_routers: List[str]
    bridge_links: List[Prefix]
    couplings: List[InstanceCoupling]
    static_route_conflicts: Dict[Prefix, List[str]]
    #: True when a ``max_couplings`` bound dropped instance pairs — the
    #: coupling list is a sample, not the full pairing.
    truncated: bool = False

    @property
    def fragile_couplings(self) -> List[InstanceCoupling]:
        return [c for c in self.couplings if c.is_single_point_of_failure]


def physical_topology(network: Network) -> nx.Graph:
    """The router-level topology graph (one edge per inferred link)."""
    graph = nx.Graph()
    graph.add_nodes_from(network.routers)
    for link in network.links:
        routers = link.routers
        for i, a in enumerate(routers):
            for b in routers[i + 1:]:
                graph.add_edge(a, b, subnet=link.subnet)
    return graph


def articulation_routers(network: Network) -> List[str]:
    """Routers whose single failure disconnects the physical topology."""
    graph = physical_topology(network)
    return sorted(nx.articulation_points(graph))


def bridge_links(network: Network) -> List[Prefix]:
    """Links whose single failure disconnects the physical topology."""
    graph = physical_topology(network)
    bridges = set(nx.bridges(graph))
    result = []
    for link in network.links:
        routers = link.routers
        if len(routers) == 2 and (
            (routers[0], routers[1]) in bridges or (routers[1], routers[0]) in bridges
        ):
            result.append(link.subnet)
    return sorted(result)


def instance_couplings(
    network: Network,
    instances: Optional[List[RoutingInstance]] = None,
    max_couplings: Optional[int] = None,
) -> List[InstanceCoupling]:
    """Which routers carry the route exchange between each instance pair.

    A coupling exists wherever a router redistributes between two
    instances, or terminates an in-network EBGP session between two BGP
    instances.  Its redundancy is the number of distinct routers providing
    it — net5's instances 1 and 4 have redundancy 6 (§5.1).

    ``max_couplings`` is the degraded-mode bound on distinct instance
    pairs tracked; pairs first seen after the limit are skipped (known
    pairs keep accumulating routers).  Pass the result to
    :func:`analyze_survivability` via its own ``max_couplings`` to have
    the report's ``truncated`` flag reflect the drop.
    """
    if instances is None:
        instances = compute_instances(network)
    membership = instance_of(instances)
    couplings: Dict[Tuple[int, int], InstanceCoupling] = {}

    dropped = [False]

    def touch(a: int, b: int, router: str, mechanism: str) -> None:
        key = (min(a, b), max(a, b))
        coupling = couplings.get(key)
        if coupling is None:
            if max_couplings is not None and len(couplings) >= max_couplings:
                dropped[0] = True
                return
            coupling = couplings[key] = InstanceCoupling(
                instance_a=key[0], instance_b=key[1]
            )
        coupling.routers.add(router)
        coupling.mechanisms.add(mechanism)

    # The exchange table's canonical order decides, under a
    # ``max_couplings`` bound, which instance pairs make the cut.
    for record in network.route_exchange:
        if isinstance(record, Redistribution):
            if record.source not in membership:
                continue
            a = membership[record.source].instance_id
            b = membership[record.target].instance_id
            if a != b:
                touch(a, b, record.router, "redistribution")
        elif isinstance(record, Peering) and record.is_ebgp:
            a = membership[record.local].instance_id
            b = membership[record.remote].instance_id
            if a != b:
                touch(a, b, record.local[0], "ebgp")
                touch(a, b, record.remote[0], "ebgp")

    result = sorted(couplings.values(), key=lambda c: (c.instance_a, c.instance_b))
    result = _CouplingList(result)
    result.truncated = dropped[0]
    return result


class _CouplingList(List[InstanceCoupling]):
    """A coupling list that remembers whether a bound dropped pairs."""

    truncated: bool = False


def static_route_conflicts(
    network: Network, min_routers: int = 2
) -> Dict[Prefix, List[str]]:
    """Destination prefixes reached via static routes on several routers.

    §8.1: maintenance should avoid disabling multiple routers holding
    static routes to the same destination prefix simultaneously.
    """
    by_prefix: Dict[Prefix, Set[str]] = defaultdict(set)
    for name, router in network.routers.items():
        for route in router.config.static_routes:
            by_prefix[route.prefix].add(name)
    return {
        prefix: sorted(routers)
        for prefix, routers in sorted(by_prefix.items())
        if len(routers) >= min_routers
    }


@traced("survivability")
def analyze_survivability(
    network: Network,
    instances: Optional[List[RoutingInstance]] = None,
    max_couplings: Optional[int] = None,
) -> SurvivabilityReport:
    """Run the full §8.1 what-if battery.

    ``max_couplings`` is the degraded-mode bound on distinct instance
    pairs tracked; the report is marked ``truncated`` when it bit.
    """
    couplings = instance_couplings(network, instances, max_couplings=max_couplings)
    return SurvivabilityReport(
        articulation_routers=articulation_routers(network),
        bridge_links=bridge_links(network),
        couplings=list(couplings),
        static_route_conflicts=static_route_conflicts(network),
        truncated=getattr(couplings, "truncated", False),
    )
