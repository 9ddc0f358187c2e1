"""Incremental construction of synthetic router configurations.

:class:`NetworkBuilder` is the shared toolkit of the design templates: it
creates routers, wires point-to-point links and LANs, attaches external
peerings, configures routing processes and policies, and finally serializes
every router to IOS text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ios.config import (
    AccessList,
    AclRule,
    BgpNeighbor,
    BgpProcess,
    EigrpProcess,
    InterfaceConfig,
    NetworkStatement,
    OspfProcess,
    RedistributeConfig,
    RipProcess,
    RouteMap,
    RouteMapClause,
    RouterConfig,
    StaticRoute,
)
from repro.ios.serializer import serialize_config
from repro.net import IPv4Address, Prefix
from repro.synth.addressing import NetworkAddressPlan


@dataclass
class BuiltInterface:
    """Handle returned by interface-creating methods."""

    router: str
    name: str
    prefix: Prefix
    address: IPv4Address


class NetworkBuilder:
    """Builds a set of router configurations for one synthetic network."""

    def __init__(self, plan: NetworkAddressPlan, rng: Optional[random.Random] = None):
        self.plan = plan
        self.rng = rng or random.Random(0)
        self.routers: Dict[str, RouterConfig] = {}
        self._iface_counters: Dict[Tuple[str, str], int] = {}
        self._acl_counters: Dict[str, int] = {}
        #: Ground truth: interfaces that face outside the network.
        self.external_interfaces: List[Tuple[str, str]] = []

    # -- routers and interfaces --------------------------------------------

    def add_router(self, name: str) -> RouterConfig:
        if name in self.routers:
            raise ValueError(f"duplicate router {name}")
        config = RouterConfig(hostname=name)
        self.routers[name] = config
        return config

    def _next_interface_name(self, router: str, kind: str) -> str:
        counter = self._iface_counters.get((router, kind), 0)
        self._iface_counters[(router, kind)] = counter + 1
        if kind in ("Loopback", "Tunnel", "Dialer", "Multilink", "Null", "Port"):
            return f"{kind}{counter}"
        slot, port = divmod(counter, 8)
        return f"{kind}{slot}/{port}"

    def add_interface(
        self,
        router: str,
        kind: str,
        prefix: Prefix,
        host_index: int = 0,
        point_to_point: bool = False,
        description: Optional[str] = None,
    ) -> BuiltInterface:
        """Add an interface on *router* with the *host_index*-th usable
        address of *prefix*."""
        config = self.routers[router]
        name = self._next_interface_name(router, kind)
        if prefix.length == 32:
            address = prefix.network
        else:
            hosts = list(prefix.host_addresses())
            address = hosts[host_index]
        iface = InterfaceConfig(
            name=name,
            address=address,
            netmask=prefix.netmask,
            point_to_point=point_to_point,
            description=description,
        )
        config.interfaces[name] = iface
        return BuiltInterface(router=router, name=name, prefix=prefix, address=address)

    def add_loopback(self, router: str) -> BuiltInterface:
        return self.add_interface(router, "Loopback", self.plan.loopback())

    def connect(
        self, a: str, b: str, kind: str = "Serial", subnet: Optional[Prefix] = None
    ) -> Tuple[BuiltInterface, BuiltInterface]:
        """Connect two routers with a point-to-point /30 link."""
        if subnet is None:
            subnet = self.plan.p2p_subnet()
        end_a = self.add_interface(a, kind, subnet, host_index=0, point_to_point=True)
        end_b = self.add_interface(b, kind, subnet, host_index=1, point_to_point=True)
        return end_a, end_b

    def add_lan(
        self, router: str, kind: str = "FastEthernet", length: int = 24
    ) -> BuiltInterface:
        """Attach a host LAN to *router* (the router takes the first host)."""
        return self.add_interface(router, kind, self.plan.lan_subnet(length))

    def add_external_link(
        self, router: str, kind: str = "Serial"
    ) -> BuiltInterface:
        """Attach a /30 toward an external router whose config we don't have.

        The far end of the subnet is, by construction, absent from the
        network, so the analyzer should classify this interface as
        external-facing.  Recorded in :attr:`external_interfaces`.
        """
        subnet = self.plan.external_subnet()
        iface = self.add_interface(router, kind, subnet, host_index=0, point_to_point=True)
        self.external_interfaces.append((router, iface.name))
        return iface

    def external_neighbor_address(self, iface: BuiltInterface) -> IPv4Address:
        """The (absent) far-end address of an external /30."""
        hosts = list(iface.prefix.host_addresses())
        for host in hosts:
            if host != iface.address:
                return host
        raise ValueError(f"no far-end address in {iface.prefix}")

    # -- routing processes ---------------------------------------------------

    def ensure_ospf(self, router: str, process_id: int) -> OspfProcess:
        config = self.routers[router]
        process = config.ospf(process_id)
        if process is None:
            process = OspfProcess(process_id=process_id)
            config.ospf_processes.append(process)
        return process

    def ensure_eigrp(self, router: str, asn: int, protocol: str = "eigrp") -> EigrpProcess:
        config = self.routers[router]
        process = config.eigrp(asn)
        if process is None:
            process = EigrpProcess(asn=asn, protocol=protocol)
            config.eigrp_processes.append(process)
        return process

    def ensure_rip(self, router: str) -> RipProcess:
        config = self.routers[router]
        if config.rip_process is None:
            config.rip_process = RipProcess(version=2)
        return config.rip_process

    def ensure_bgp(self, router: str, asn: int) -> BgpProcess:
        config = self.routers[router]
        if config.bgp_process is None:
            config.bgp_process = BgpProcess(asn=asn)
        elif config.bgp_process.asn != asn:
            raise ValueError(f"{router} already runs BGP AS {config.bgp_process.asn}")
        return config.bgp_process

    def cover_ospf(self, iface: BuiltInterface, process_id: int, area: str = "0") -> None:
        process = self.ensure_ospf(iface.router, process_id)
        process.networks.append(
            NetworkStatement(
                address=iface.prefix.network,
                wildcard=iface.prefix.wildcard,
                area=area,
            )
        )

    def cover_eigrp(self, iface: BuiltInterface, asn: int, protocol: str = "eigrp") -> None:
        process = self.ensure_eigrp(iface.router, asn, protocol=protocol)
        process.networks.append(
            NetworkStatement(
                address=iface.prefix.network, wildcard=iface.prefix.wildcard
            )
        )

    def cover_rip(self, iface: BuiltInterface) -> None:
        process = self.ensure_rip(iface.router)
        process.networks.append(NetworkStatement(address=iface.prefix.network))

    # -- BGP sessions ----------------------------------------------------------

    def ibgp_session(
        self, a: BuiltInterface, b: BuiltInterface, asn: int
    ) -> None:
        """A bidirectional IBGP session between two interface addresses."""
        bgp_a = self.ensure_bgp(a.router, asn)
        bgp_b = self.ensure_bgp(b.router, asn)
        bgp_a.neighbors.append(BgpNeighbor(address=b.address, remote_as=asn))
        bgp_b.neighbors.append(BgpNeighbor(address=a.address, remote_as=asn))

    def ebgp_session(
        self,
        a: BuiltInterface,
        b: BuiltInterface,
        asn_a: int,
        asn_b: int,
    ) -> None:
        """A bidirectional EBGP session between two in-network routers."""
        bgp_a = self.ensure_bgp(a.router, asn_a)
        bgp_b = self.ensure_bgp(b.router, asn_b)
        bgp_a.neighbors.append(BgpNeighbor(address=b.address, remote_as=asn_b))
        bgp_b.neighbors.append(BgpNeighbor(address=a.address, remote_as=asn_a))

    def external_ebgp_session(
        self, iface: BuiltInterface, local_asn: int, remote_asn: int
    ) -> BgpNeighbor:
        """An EBGP session to the absent far end of an external link."""
        bgp = self.ensure_bgp(iface.router, local_asn)
        neighbor = BgpNeighbor(
            address=self.external_neighbor_address(iface), remote_as=remote_asn
        )
        bgp.neighbors.append(neighbor)
        return neighbor

    # -- policies ---------------------------------------------------------------

    def _next_acl_number(self, router: str, extended: bool = False) -> str:
        base = 100 if extended else 1
        limit = 199 if extended else 99
        key = f"{router}:{'x' if extended else 's'}"
        counter = self._acl_counters.get(key, base)
        if extended and counter == 200:
            counter = 2000  # roll over into the expanded extended range
        elif not extended and counter == 100:
            counter = 1300  # roll over into the expanded standard range
        limit = 2699 if extended else 1999
        if counter > limit:
            raise RuntimeError(f"out of ACL numbers on {router}")
        self._acl_counters[key] = counter + 1
        return str(counter)

    def add_prefix_acl(
        self, router: str, permits: List[Prefix], denies: Optional[List[Prefix]] = None
    ) -> str:
        """A standard ACL usable as a route filter: denies first, then permits."""
        config = self.routers[router]
        number = self._next_acl_number(router)
        acl = AccessList(name=number)
        for prefix in denies or []:
            acl.rules.append(
                AclRule(
                    action="deny",
                    source=prefix.network,
                    source_wildcard=prefix.wildcard,
                )
            )
        for prefix in permits:
            acl.rules.append(
                AclRule(
                    action="permit",
                    source=prefix.network,
                    source_wildcard=prefix.wildcard,
                )
            )
        config.access_lists[number] = acl
        return number

    def add_prefix_list(
        self,
        router: str,
        name: str,
        entries: List[Tuple[str, Prefix, Optional[int], Optional[int]]],
    ) -> str:
        """A named prefix list from (action, prefix, ge, le) tuples."""
        from repro.ios.config import PrefixList, PrefixListEntry  # noqa: PLC0415

        config = self.routers[router]
        plist = PrefixList(name=name)
        for sequence, (action, prefix, ge, le) in enumerate(entries, start=1):
            plist.entries.append(
                PrefixListEntry(
                    sequence=sequence * 5, action=action, prefix=prefix, ge=ge, le=le
                )
            )
        config.prefix_lists[name] = plist
        return name

    def add_route_map_permitting(
        self, router: str, name: str, permits: List[Prefix], set_tag: Optional[int] = None
    ) -> RouteMap:
        """A route map whose single permit clause matches a prefix ACL."""
        config = self.routers[router]
        acl = self.add_prefix_acl(router, permits)
        clause = RouteMapClause(action="permit", sequence=10, match_ip_address=[acl])
        if set_tag is not None:
            clause.set_tag = set_tag
        route_map = RouteMap(name=name, clauses=[clause])
        config.route_maps[name] = route_map
        return route_map

    def add_packet_filter(
        self,
        iface: BuiltInterface,
        rule_count: int,
        direction: str = "in",
        extended: bool = True,
    ) -> str:
        """Attach a packet filter with *rule_count* clauses to an interface."""
        config = self.routers[iface.router]
        number = self._next_acl_number(iface.router, extended=extended)
        acl = AccessList(name=number)
        for index in range(max(0, rule_count - 1)):
            # Vary the clauses so they are not copy-paste identical.
            protocol = ("tcp", "udp", "ip", "icmp", "pim")[index % 5]
            port = str(1024 + (index * 7) % 40000)
            block = Prefix((10 << 24) | (index << 8), 24)
            rule = AclRule(
                action="deny" if index % 3 else "permit",
                protocol=protocol,
                source=block.network,
                source_wildcard=block.wildcard,
                dest_any=True,
            )
            if protocol in ("tcp", "udp"):
                rule.port_op, rule.port = "eq", port
            acl.rules.append(rule)
        acl.rules.append(AclRule(action="permit", protocol="ip", source_any=True, dest_any=True))
        config.access_lists[number] = acl
        stored = config.interfaces[iface.name]
        if direction == "in":
            stored.access_group_in = number
        else:
            stored.access_group_out = number
        return number

    def redistribute(
        self,
        router: str,
        target,
        source_protocol: str,
        source_id: Optional[int] = None,
        route_map: Optional[str] = None,
        metric: Optional[int] = None,
        subnets: bool = True,
        tag: Optional[int] = None,
    ) -> None:
        """Add a redistribution statement to a process config object."""
        target.redistributes.append(
            RedistributeConfig(
                source_protocol=source_protocol,
                source_id=source_id,
                route_map=route_map,
                metric=metric,
                subnets=subnets,
                tag=tag,
            )
        )

    def add_static_route(
        self, router: str, prefix: Prefix, next_hop: IPv4Address
    ) -> None:
        self.routers[router].static_routes.append(
            StaticRoute(prefix=prefix, next_hop=next_hop)
        )

    # -- output -------------------------------------------------------------------

    def serialize(self) -> Dict[str, str]:
        """Serialize every router to IOS text, keyed by router name."""
        return {name: serialize_config(config) for name, config in self.routers.items()}
