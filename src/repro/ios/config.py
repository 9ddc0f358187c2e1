"""Typed object model for the routing-relevant subset of Cisco IOS.

Every class here corresponds to a configuration construct the paper's
analysis depends on.  The model is vendor-flavored (Cisco IOS) because the
paper's corpus is, but the downstream analysis (:mod:`repro.core`) only sees
the abstractions in :mod:`repro.model`, so other vendors could be added by
writing another front end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net import IPv4Address, Prefix, classful_prefix

# Known IOS interface hardware types, longest-match first so that
# "FastEthernet" does not parse as "Ethernet" and "GigabitEthernet" does not
# parse as "Ethernet".  The list mirrors Table 3 of the paper.
INTERFACE_TYPES: Tuple[str, ...] = (
    "GigabitEthernet",
    "FastEthernet",
    "TenGigabitEthernet",
    "TokenRing",
    "Multilink",
    "Ethernet",
    "Loopback",
    "Channel",
    "Virtual",
    "Tunnel",
    "Dialer",
    "Serial",
    "Async",
    "Fddi",
    "Hssi",
    "Null",
    "Port",
    "ATM",
    "POS",
    "CBR",
    "BRI",
)

_IFACE_NAME_RE = re.compile(
    "^(" + "|".join(INTERFACE_TYPES) + r")([0-9/.:]*)$"
)

# JunOS media prefixes, mapped onto the equivalent hardware categories so
# the Table 3 census treats both vendors uniformly.
_JUNOS_KINDS = {
    "so": "POS",
    "ge": "GigabitEthernet",
    "fe": "FastEthernet",
    "xe": "TenGigabitEthernet",
    "at": "ATM",
    "t1": "Serial",
    "e1": "Serial",
    "t3": "Serial",
    "e3": "Serial",
    "se": "Serial",
    "fxp": "Ethernet",
    "em": "Ethernet",
    "lo": "Loopback",
    "gr": "Tunnel",
    "ip": "Tunnel",
}

_JUNOS_NAME_RE = re.compile(r"^([a-z]{2,3})-?[0-9/.:]*$")


def interface_kind(name: str) -> str:
    """Return the hardware type of an interface name (IOS or JunOS style).

    >>> interface_kind("Serial1/0.5")
    'Serial'
    >>> interface_kind("FastEthernet0/1")
    'FastEthernet'
    >>> interface_kind("so-0/0/0.0")
    'POS'
    """
    match = _IFACE_NAME_RE.match(name)
    if match is not None:
        return match.group(1)
    junos = _JUNOS_NAME_RE.match(name)
    if junos is not None and junos.group(1) in _JUNOS_KINDS:
        return _JUNOS_KINDS[junos.group(1)]
    return "Unknown"


@dataclass
class InterfaceConfig:
    """One ``interface`` stanza."""

    name: str
    description: Optional[str] = None
    address: Optional[IPv4Address] = None
    netmask: Optional[IPv4Address] = None
    secondary_addresses: List[Tuple[IPv4Address, IPv4Address]] = field(default_factory=list)
    access_group_in: Optional[str] = None
    access_group_out: Optional[str] = None
    shutdown: bool = False
    bandwidth_kbit: Optional[int] = None
    encapsulation: Optional[str] = None
    point_to_point: bool = False
    frame_relay_dlci: Optional[int] = None
    unnumbered_source: Optional[str] = None
    extra_lines: List[str] = field(default_factory=list)

    @property
    def kind(self) -> str:
        """The hardware type, e.g. ``Serial`` for ``Serial1/0.5``."""
        return interface_kind(self.name)

    @property
    def is_numbered(self) -> bool:
        return self.address is not None and self.netmask is not None

    @property
    def prefix(self) -> Optional[Prefix]:
        """The connected subnet of the primary address, or ``None``."""
        if not self.is_numbered:
            return None
        return Prefix.from_netmask(self.address.value, self.netmask.value)


@dataclass
class NetworkStatement:
    """A ``network`` statement inside a routing process.

    OSPF form carries a wildcard and an area; EIGRP may carry a wildcard;
    RIP and BGP carry a bare (classful or masked) network.
    """

    address: IPv4Address
    wildcard: Optional[IPv4Address] = None
    area: Optional[str] = None
    mask: Optional[IPv4Address] = None  # BGP "network x mask y" form

    def match_bits(self) -> Tuple[int, int]:
        """``(fixed, value)``: the statement covers exactly the addresses
        whose *fixed* bits equal *value*.

        A wildcard fixes its zero bits (non-contiguous ones included); a
        ``mask`` and the bare classful form fix their prefix's network
        bits.
        """
        if self.wildcard is not None:
            fixed = (~self.wildcard.value) & 0xFFFFFFFF
            return fixed, self.address.value & fixed
        if self.mask is not None:
            prefix = Prefix.from_netmask(self.address.value, self.mask.value)
        else:
            prefix = classful_prefix(self.address)
        return prefix.netmask.value, prefix.network_int

    def matches_interface(self, iface_address: IPv4Address) -> bool:
        """Whether this statement associates an interface address with
        the routing process (the ``network`` coverage rule of §2.2)."""
        fixed, value = self.match_bits()
        return (iface_address.value & fixed) == value

    def prefix(self) -> Prefix:
        """The prefix this statement names (classful when bare)."""
        if self.wildcard is not None:
            return Prefix.from_wildcard(self.address.value, self.wildcard.value)
        if self.mask is not None:
            return Prefix.from_netmask(self.address.value, self.mask.value)
        return classful_prefix(self.address)


@dataclass
class RedistributeConfig:
    """A ``redistribute`` statement: route transfer between processes on the
    same router (the dashed arrows of Figure 3)."""

    source_protocol: str  # connected | static | ospf | eigrp | rip | igrp | bgp
    source_id: Optional[int] = None  # process id or AS number where applicable
    metric: Optional[int] = None
    metric_type: Optional[int] = None
    subnets: bool = False
    route_map: Optional[str] = None
    tag: Optional[int] = None


@dataclass
class DistributeList:
    """A ``distribute-list`` statement: a route filter on a process."""

    acl: str
    direction: str  # "in" | "out"
    interface: Optional[str] = None
    source_protocol: Optional[str] = None  # "out <protocol>" form


@dataclass
class OspfProcess:
    """One ``router ospf <pid>`` stanza."""

    process_id: int
    router_id: Optional[IPv4Address] = None
    networks: List[NetworkStatement] = field(default_factory=list)
    redistributes: List[RedistributeConfig] = field(default_factory=list)
    distribute_lists: List[DistributeList] = field(default_factory=list)
    passive_interfaces: List[str] = field(default_factory=list)
    default_information_originate: bool = False
    summary_addresses: List[Prefix] = field(default_factory=list)
    extra_lines: List[str] = field(default_factory=list)

    protocol = "ospf"


@dataclass
class EigrpProcess:
    """One ``router eigrp <asn>`` stanza (also used for classic IGRP)."""

    asn: int
    protocol: str = "eigrp"  # "eigrp" | "igrp"
    networks: List[NetworkStatement] = field(default_factory=list)
    redistributes: List[RedistributeConfig] = field(default_factory=list)
    distribute_lists: List[DistributeList] = field(default_factory=list)
    passive_interfaces: List[str] = field(default_factory=list)
    no_auto_summary: bool = False
    extra_lines: List[str] = field(default_factory=list)


@dataclass
class RipProcess:
    """The ``router rip`` stanza (at most one per router)."""

    version: Optional[int] = None
    networks: List[NetworkStatement] = field(default_factory=list)
    redistributes: List[RedistributeConfig] = field(default_factory=list)
    distribute_lists: List[DistributeList] = field(default_factory=list)
    passive_interfaces: List[str] = field(default_factory=list)
    extra_lines: List[str] = field(default_factory=list)

    protocol = "rip"


@dataclass
class BgpNeighbor:
    """The collected ``neighbor <addr> ...`` statements for one peer."""

    address: IPv4Address
    remote_as: Optional[int] = None
    description: Optional[str] = None
    route_map_in: Optional[str] = None
    route_map_out: Optional[str] = None
    distribute_list_in: Optional[str] = None
    distribute_list_out: Optional[str] = None
    prefix_list_in: Optional[str] = None
    prefix_list_out: Optional[str] = None
    update_source: Optional[str] = None
    next_hop_self: bool = False
    send_community: bool = False
    route_reflector_client: bool = False


@dataclass
class BgpProcess:
    """One ``router bgp <asn>`` stanza."""

    asn: int
    router_id: Optional[IPv4Address] = None
    neighbors: List[BgpNeighbor] = field(default_factory=list)
    networks: List[NetworkStatement] = field(default_factory=list)
    redistributes: List[RedistributeConfig] = field(default_factory=list)
    extra_lines: List[str] = field(default_factory=list)

    protocol = "bgp"

    def neighbor(self, address: str) -> Optional[BgpNeighbor]:
        """Look up a neighbor by dotted-quad address."""
        want = IPv4Address(address)
        for nbr in self.neighbors:
            if nbr.address == want:
                return nbr
        return None


@dataclass
class AclRule:
    """One clause of an access list.

    Standard ACLs match only on source; extended ACLs carry a protocol,
    destination, and optionally a port comparison.  ``source``/``dest`` of
    ``None`` with the corresponding ``*_any`` flag set model the ``any``
    keyword; a bare host address is modeled with a ``0.0.0.0`` wildcard.
    """

    action: str  # "permit" | "deny"
    source: Optional[IPv4Address] = None
    source_wildcard: Optional[IPv4Address] = None
    source_any: bool = False
    protocol: Optional[str] = None  # extended only: ip, tcp, udp, icmp, pim, ...
    dest: Optional[IPv4Address] = None
    dest_wildcard: Optional[IPv4Address] = None
    dest_any: bool = False
    port_op: Optional[str] = None  # eq | gt | lt | range
    port: Optional[str] = None

    @property
    def is_extended(self) -> bool:
        return self.protocol is not None

    def source_prefix(self) -> Optional[Prefix]:
        """The source as a prefix, when the wildcard is contiguous."""
        if self.source_any:
            return Prefix(0, 0)
        if self.source is None:
            return None
        if self.source_wildcard is None:
            return Prefix(self.source.value, 32)
        try:
            return Prefix.from_wildcard(self.source.value, self.source_wildcard.value)
        except ValueError:
            return None

    def dest_prefix(self) -> Optional[Prefix]:
        """The destination as a prefix, when present and contiguous."""
        if self.dest_any:
            return Prefix(0, 0)
        if self.dest is None:
            return None
        if self.dest_wildcard is None:
            return Prefix(self.dest.value, 32)
        try:
            return Prefix.from_wildcard(self.dest.value, self.dest_wildcard.value)
        except ValueError:
            return None

    def matches_address(self, address: IPv4Address) -> bool:
        """Whether *address* matches the rule's source specification."""
        if self.source_any:
            return True
        if self.source is None:
            return False
        wild = self.source_wildcard.value if self.source_wildcard else 0
        return (self.source.value | wild) == (address.value | wild)

    def _matches_dest(self, address: IPv4Address) -> bool:
        if self.dest_any:
            return True
        if self.dest is None:
            return False
        wild = self.dest_wildcard.value if self.dest_wildcard else 0
        return (self.dest.value | wild) == (address.value | wild)

    def _matches_port(self, port: Optional[int]) -> bool:
        if self.port_op is None:
            return True
        if port is None:
            return False
        if self.port_op == "range":
            low, high = (int(part) for part in self.port.split("-", 1))
            return low <= port <= high
        value = int(self.port) if self.port.isdigit() else None
        if value is None:
            return False
        return {
            "eq": port == value,
            "neq": port != value,
            "gt": port > value,
            "lt": port < value,
        }.get(self.port_op, False)

    def matches_flow(
        self,
        source: IPv4Address,
        dest: IPv4Address,
        protocol: str = "ip",
        port: Optional[int] = None,
    ) -> bool:
        """Full packet-filter semantics: does this clause match the flow?

        Standard clauses match on source only.  Extended clauses match
        protocol (``ip`` in the clause matches everything; a specific
        protocol matches itself), source, destination, and the optional
        destination-port comparison.
        """
        if not self.matches_address(source):
            return False
        if not self.is_extended:
            return True
        if self.protocol != "ip" and self.protocol != protocol:
            return False
        if not self._matches_dest(dest):
            return False
        return self._matches_port(port)


@dataclass
class AccessList:
    """A numbered or named access list: an ordered list of clauses."""

    name: str  # number as string, or a name
    rules: List[AclRule] = field(default_factory=list)

    @property
    def is_extended(self) -> bool:
        if self.name.isdigit():
            number = int(self.name)
            return 100 <= number <= 199 or 2000 <= number <= 2699
        return any(rule.is_extended for rule in self.rules)

    def permits_address(self, address: IPv4Address) -> bool:
        """First-match evaluation against a bare address (implicit deny)."""
        for rule in self.rules:
            if rule.matches_address(address):
                return rule.action == "permit"
        return False

    def permits_flow(
        self,
        source: IPv4Address,
        dest: IPv4Address,
        protocol: str = "ip",
        port: Optional[int] = None,
    ) -> bool:
        """First-match packet-filter evaluation of a flow (implicit deny)."""
        for rule in self.rules:
            if rule.matches_flow(source, dest, protocol=protocol, port=port):
                return rule.action == "permit"
        return False

    def permitted_prefixes(self) -> List[Prefix]:
        """The prefixes named by permit clauses (route-filter reading)."""
        result = []
        for rule in self.rules:
            if rule.action != "permit":
                continue
            prefix = rule.source_prefix()
            if prefix is not None:
                result.append(prefix)
        return result


@dataclass
class PrefixListEntry:
    """One ``ip prefix-list`` entry.

    Without ``ge``/``le`` the entry matches exactly the named prefix; with
    them it matches any more-specific prefix whose length falls in the
    bounds (``ge`` defaults to the entry length + 1 semantics are *not*
    emulated — IOS uses explicit values, and so do we: ``ge``/``le`` are
    inclusive bounds on the candidate's length, candidate must be inside
    the entry's prefix).
    """

    sequence: int
    action: str  # "permit" | "deny"
    prefix: "Prefix"
    ge: Optional[int] = None
    le: Optional[int] = None

    def matches(self, candidate: "Prefix") -> bool:
        if not self.prefix.contains(candidate):
            return False
        if self.ge is None and self.le is None:
            return candidate.length == self.prefix.length
        low = self.ge if self.ge is not None else self.prefix.length
        high = self.le if self.le is not None else 32
        return low <= candidate.length <= high


@dataclass
class PrefixList:
    """A named ``ip prefix-list``: ordered entries, first match wins."""

    name: str
    entries: List[PrefixListEntry] = field(default_factory=list)

    def sorted_entries(self) -> List[PrefixListEntry]:
        return sorted(self.entries, key=lambda entry: entry.sequence)

    def permits(self, candidate: "Prefix") -> bool:
        for entry in self.sorted_entries():
            if entry.matches(candidate):
                return entry.action == "permit"
        return False  # implicit deny


@dataclass
class CommunityList:
    """An ``ip community-list``: first-match permit/deny of community values."""

    name: str
    entries: List[Tuple[str, str]] = field(default_factory=list)  # (action, community)

    def permits(self, communities: Tuple[str, ...]) -> bool:
        """True when any of the route's communities is permitted before
        being denied (first-match per community value)."""
        for action, community in self.entries:
            if community in communities:
                return action == "permit"
        return False


@dataclass
class RouteMapClause:
    """One ``route-map NAME permit|deny SEQ`` clause with its match/set lines."""

    action: str  # "permit" | "deny"
    sequence: int
    match_ip_address: List[str] = field(default_factory=list)  # ACL references
    match_prefix_lists: List[str] = field(default_factory=list)
    match_communities: List[str] = field(default_factory=list)  # community-list refs
    match_tags: List[int] = field(default_factory=list)
    set_metric: Optional[int] = None
    set_tag: Optional[int] = None
    set_local_preference: Optional[int] = None
    set_community: Optional[str] = None
    extra_lines: List[str] = field(default_factory=list)


@dataclass
class RouteMap:
    """A named route map: ordered clauses evaluated first-match."""

    name: str
    clauses: List[RouteMapClause] = field(default_factory=list)

    def sorted_clauses(self) -> List[RouteMapClause]:
        return sorted(self.clauses, key=lambda clause: clause.sequence)


@dataclass
class StaticRoute:
    """An ``ip route`` statement."""

    prefix: Prefix
    next_hop: Optional[IPv4Address] = None
    interface: Optional[str] = None
    distance: Optional[int] = None
    tag: Optional[int] = None


@dataclass
class RouterConfig:
    """The parsed configuration of one router.

    ``line_count`` and ``command_count`` reflect the *source text* (the
    quantities reported in Figure 4), so they are populated by the parser,
    not derived from the model.
    """

    hostname: Optional[str] = None
    interfaces: Dict[str, InterfaceConfig] = field(default_factory=dict)
    ospf_processes: List[OspfProcess] = field(default_factory=list)
    eigrp_processes: List[EigrpProcess] = field(default_factory=list)
    rip_process: Optional[RipProcess] = None
    bgp_process: Optional[BgpProcess] = None
    access_lists: Dict[str, AccessList] = field(default_factory=dict)
    prefix_lists: Dict[str, PrefixList] = field(default_factory=dict)
    community_lists: Dict[str, CommunityList] = field(default_factory=dict)
    route_maps: Dict[str, RouteMap] = field(default_factory=dict)
    static_routes: List[StaticRoute] = field(default_factory=list)
    unmodeled_lines: List[str] = field(default_factory=list)
    line_count: int = 0
    command_count: int = 0
    #: One ``(line_number, head_line)`` record per stanza a parse with a
    #: diagnostic sink kept in ``unmodeled_lines`` without modeling it;
    #: ``head_line`` is the very string held there.  The stanzas' info
    #: rows are built from these (:class:`repro.diag.UnmodeledRun`).
    #: Provenance, not configuration: left out of ``==``.
    unmodeled_stanzas: Sequence[Tuple[int, str]] = field(
        default=(), compare=False, repr=False
    )

    def routing_processes(self) -> List[object]:
        """All routing processes in declaration-independent order."""
        processes: List[object] = []
        processes.extend(self.ospf_processes)
        processes.extend(self.eigrp_processes)
        if self.rip_process is not None:
            processes.append(self.rip_process)
        if self.bgp_process is not None:
            processes.append(self.bgp_process)
        return processes

    def ospf(self, process_id: int) -> Optional[OspfProcess]:
        for process in self.ospf_processes:
            if process.process_id == process_id:
                return process
        return None

    def eigrp(self, asn: int) -> Optional[EigrpProcess]:
        for process in self.eigrp_processes:
            if process.asn == asn:
                return process
        return None

    def access_list(self, name: str) -> Optional[AccessList]:
        return self.access_lists.get(str(name))
