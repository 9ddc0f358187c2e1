"""Routing processes and their identities.

A routing process is identified network-wide by ``(router, protocol, id)``,
where *id* is the OSPF process id, EIGRP/IGRP or BGP AS number, and ``None``
for RIP (IOS allows one RIP process per router).  §3.2 of the paper stresses
that process ids have **no network-wide semantics** — they merely distinguish
processes on one router — so all cross-router grouping is done by adjacency,
never by id equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.ios.config import (
    BgpProcess,
    EigrpProcess,
    InterfaceConfig,
    OspfProcess,
    RedistributeConfig,
    RipProcess,
)
from repro.net import IPv4Address

# Pseudo-protocol name for the local RIB that holds connected subnets and
# static routes (Figure 3 of the paper).
LOCAL_RIB = "local"

#: (router, protocol, id) — hashable process identity used as a graph vertex.
ProcessKey = Tuple[str, str, Optional[int]]

AnyProcessConfig = Union[OspfProcess, EigrpProcess, RipProcess, BgpProcess]


def process_key(router: str, config: AnyProcessConfig) -> ProcessKey:
    """Build the :data:`ProcessKey` for a parsed routing-process stanza."""
    if isinstance(config, OspfProcess):
        return (router, "ospf", config.process_id)
    if isinstance(config, EigrpProcess):
        return (router, config.protocol, config.asn)
    if isinstance(config, RipProcess):
        return (router, "rip", None)
    if isinstance(config, BgpProcess):
        return (router, "bgp", config.asn)
    raise TypeError(f"not a routing process config: {type(config).__name__}")


def local_rib_key(router: str) -> ProcessKey:
    """The :data:`ProcessKey` of a router's local RIB (connected + static)."""
    return (router, LOCAL_RIB, None)


def process_sort_key(key: ProcessKey) -> Tuple[str, str, int]:
    """Total order over process keys (process ids may be None)."""
    return (key[0], key[1], -1 if key[2] is None else key[2])


def redistribute_source(
    router: str, statement: RedistributeConfig, keys: Sequence[ProcessKey]
) -> Optional[ProcessKey]:
    """The RIB a ``redistribute`` statement on *router* reads.

    *keys* are the router's process keys.  ``connected`` and ``static``
    read the local RIB and ``rip`` the router's one RIP process; any
    other protocol reads the process with the statement's id, or, for a
    statement without one, the lowest-id process of that protocol.
    ``None`` when no such process runs on the router.
    """
    protocol = statement.source_protocol
    if protocol in ("connected", "static"):
        return local_rib_key(router)
    if protocol == "rip":
        wanted = (router, "rip", None)
        return wanted if wanted in keys else None
    wanted = (router, protocol, statement.source_id)
    if wanted in keys:
        return wanted
    if statement.source_id is None:
        candidates = [key for key in keys if key[1] == protocol]
        if candidates:
            return min(candidates, key=process_sort_key)
    return None


@dataclass
class RoutingProcess:
    """A routing process resolved against its router's interfaces."""

    key: ProcessKey
    config: AnyProcessConfig
    covered_interfaces: List[str] = field(default_factory=list)
    passive_interfaces: List[str] = field(default_factory=list)

    @property
    def router(self) -> str:
        return self.key[0]

    @property
    def protocol(self) -> str:
        return self.key[1]

    @property
    def process_id(self) -> Optional[int]:
        return self.key[2]

    @property
    def is_bgp(self) -> bool:
        return self.protocol == "bgp"

    @property
    def asn(self) -> Optional[int]:
        """The AS number (BGP and EIGRP use their id as an ASN)."""
        return self.key[2] if self.protocol in ("bgp", "eigrp", "igrp") else None

    def active_interfaces(self) -> List[str]:
        """Covered interfaces that can form adjacencies (non-passive)."""
        passive = set(self.passive_interfaces)
        return [name for name in self.covered_interfaces if name not in passive]


def covered_interface_names(
    config: AnyProcessConfig, interfaces: List[InterfaceConfig]
) -> List[str]:
    """The interfaces a process is associated with via ``network`` statements.

    This implements the coverage rule of §2.2: a ``network`` statement covers
    an interface when the statement's (wildcard/classful) range contains the
    interface's primary address.  BGP ``network`` statements announce
    prefixes rather than binding interfaces, so BGP processes cover nothing
    here — their adjacencies come from ``neighbor`` statements.
    """
    if isinstance(config, BgpProcess):
        return []
    covered = []
    for iface in interfaces:
        if not iface.is_numbered:
            continue
        address: IPv4Address = iface.address
        if any(statement.matches_interface(address) for statement in config.networks):
            covered.append(iface.name)
    return covered
