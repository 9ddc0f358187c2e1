"""IGP/EGP role classification (§5.2, Table 1).

Routing protocol instances that have adjacencies with the instances of
another network serve as EGPs (inter-domain); otherwise they serve as IGPs
(intra-domain).  For BGP the paper counts *EBGP sessions* rather than
instances: a session is inter-domain when its peer is outside the network,
intra-domain when both ends are inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.instances import (
    RoutingInstance,
    compute_instances,
    find_external_adjacent_instances,
)
from repro.model.network import Network

#: Protocols reported in Table 1's IGP columns.
IGP_PROTOCOLS = ("ospf", "eigrp", "rip")

#: Router-level role names (the §5 hand-classification, mechanized).
ROLE_BORDER = "border"
ROLE_GLUE = "glue"
ROLE_INTERIOR = "interior"
ROLE_HOST = "host"


@dataclass(frozen=True)
class RouterRole:
    """The routing role of a single router.

    The paper's operators classify routers by hand into a handful of
    roles — border routers facing other networks, glue routers joining
    routing instances, plain interior routers.  This signature is the
    mechanized version: it is derived once per network in a single pass
    and is hashable, so the topology-compression pass can bucket routers
    by it.
    """

    #: Folded (IGRP→EIGRP), sorted, deduplicated protocols running here.
    protocols: Tuple[str, ...] = ()
    #: The router terminates an external-facing interface or a BGP
    #: session whose peer is outside the data set.
    external: bool = False
    #: The router redistributes between RIBs.
    redistributor: bool = False
    #: The router terminates an in-network EBGP session.
    ebgp: bool = False

    @property
    def role(self) -> str:
        if self.external:
            return ROLE_BORDER
        if self.redistributor or self.ebgp:
            return ROLE_GLUE
        if self.protocols:
            return ROLE_INTERIOR
        return ROLE_HOST


def classify_router_roles(network: Network) -> Dict[str, RouterRole]:
    """Assign a :class:`RouterRole` to every router, in one linear pass.

    Unlike :func:`classify_roles` (the Table 1 census over *instances*),
    this classifies individual *routers* — the bucketing key the
    ``repro.compress`` plan construction starts from.  Complexity is
    O(processes + sessions + interfaces); nothing here iterates processes
    per router.
    """
    protocols: Dict[str, set] = {name: set() for name in network.routers}
    external = set()
    redistributor = set()
    ebgp = set()
    for key, proc in network.processes.items():
        protocols[key[0]].add(_fold_protocol(key[1]))
        if proc.config.redistributes:
            redistributor.add(key[0])
    for router, _interface in network.external_interfaces:
        external.add(router)
    for session in network.bgp_sessions:
        if session.remote_key is None:
            external.add(session.local[0])
        elif session.is_ebgp:
            ebgp.add(session.local[0])
    return {
        name: RouterRole(
            protocols=tuple(sorted(protocols[name])),
            external=name in external,
            redistributor=name in redistributor,
            ebgp=name in ebgp,
        )
        for name in network.routers
    }


@dataclass
class RoleCensus:
    """Counts of protocol instances/sessions by routing role.

    ``igp_intra[p]``/``igp_inter[p]`` count routing *instances* of IGP
    protocol ``p`` serving intra-/inter-domain roles.  ``ebgp_intra`` /
    ``ebgp_inter`` count *EBGP sessions* whose peer is inside/outside the
    network.  (IGRP is folded into EIGRP, as in the paper.)
    """

    igp_intra: Dict[str, int] = field(default_factory=dict)
    igp_inter: Dict[str, int] = field(default_factory=dict)
    ebgp_intra: int = 0
    ebgp_inter: int = 0

    def add(self, other: "RoleCensus") -> None:
        for protocol, count in other.igp_intra.items():
            self.igp_intra[protocol] = self.igp_intra.get(protocol, 0) + count
        for protocol, count in other.igp_inter.items():
            self.igp_inter[protocol] = self.igp_inter.get(protocol, 0) + count
        self.ebgp_intra += other.ebgp_intra
        self.ebgp_inter += other.ebgp_inter

    @property
    def total_intra(self) -> int:
        return sum(self.igp_intra.values()) + self.ebgp_intra

    @property
    def total_inter(self) -> int:
        return sum(self.igp_inter.values()) + self.ebgp_inter

    def unconventional_igp_fraction(self) -> float:
        """Fraction of IGP instances serving as EGPs (paper: 11%)."""
        inter = sum(self.igp_inter.values())
        total = inter + sum(self.igp_intra.values())
        return inter / total if total else 0.0

    def unconventional_ebgp_fraction(self) -> float:
        """Fraction of EBGP sessions used intra-network (paper: 10%)."""
        total = self.ebgp_intra + self.ebgp_inter
        return self.ebgp_intra / total if total else 0.0


def _fold_protocol(protocol: str) -> str:
    """IGRP is reported together with EIGRP in Table 1."""
    return "eigrp" if protocol == "igrp" else protocol


def classify_roles(
    network: Network, instances: Optional[List[RoutingInstance]] = None
) -> RoleCensus:
    """Compute the Table 1 role census for one network."""
    if instances is None:
        instances = compute_instances(network)
    census = RoleCensus(
        igp_intra={protocol: 0 for protocol in IGP_PROTOCOLS},
        igp_inter={protocol: 0 for protocol in IGP_PROTOCOLS},
    )
    external_ids = find_external_adjacent_instances(network, instances)
    for instance in instances:
        protocol = _fold_protocol(instance.protocol)
        if protocol not in IGP_PROTOCOLS:
            continue
        if instance.instance_id in external_ids:
            census.igp_inter[protocol] += 1
        else:
            census.igp_intra[protocol] += 1
    seen_pairs = set()
    for session in network.bgp_sessions:
        if not session.is_ebgp:
            continue
        if session.crosses_network_boundary:
            census.ebgp_inter += 1
        else:
            # Both ends of an internal session appear as configured
            # neighbors; count the session (the pair) once.
            pair = tuple(sorted((session.local, session.remote_key)))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            census.ebgp_intra += 1
    return census


def census_over_networks(networks: List[Network]) -> RoleCensus:
    """Aggregate the role census over a corpus (the actual Table 1)."""
    total = RoleCensus(
        igp_intra={protocol: 0 for protocol in IGP_PROTOCOLS},
        igp_inter={protocol: 0 for protocol in IGP_PROTOCOLS},
    )
    for network in networks:
        total.add(classify_roles(network))
    return total
