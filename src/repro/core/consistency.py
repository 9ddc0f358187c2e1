"""Configuration consistency and vulnerability checks (§8.1).

"The operator can identify connections to neighboring domains that do not
have packet or route filters, or internal links and routers with
incomplete routing protocol adjacencies."  This module implements that
vulnerability assessment, plus the reference hygiene every config auditor
needs (dangling and unused policy objects, one-sided BGP sessions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.model.network import Network


@dataclass
class ConsistencyFinding:
    """One audit finding."""

    category: str
    router: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.category}] {self.router}: {self.detail}"


@dataclass
class ConsistencyReport:
    """All findings, grouped for reporting."""

    findings: List[ConsistencyFinding] = field(default_factory=list)
    #: True when ``max_findings_per_check`` dropped findings from at
    #: least one check — the report is a sample, not the full audit.
    truncated: bool = False

    def by_category(self, category: str) -> List[ConsistencyFinding]:
        return [f for f in self.findings if f.category == category]

    @property
    def is_clean(self) -> bool:
        return not self.findings

    def __len__(self) -> int:
        return len(self.findings)


def unprotected_edges(network: Network) -> List[ConsistencyFinding]:
    """External-facing interfaces without packet filters, and external BGP
    sessions without route policies — the §8.1 edge-protection check."""
    findings = []
    for router, iface_name in sorted(network.external_interfaces):
        iface = network.interface_index[(router, iface_name)]
        if iface.access_group_in is None:
            findings.append(
                ConsistencyFinding(
                    category="unfiltered-edge-interface",
                    router=router,
                    detail=f"external-facing {iface_name} has no inbound packet filter",
                )
            )
    for session in network.bgp_sessions:
        if not session.crosses_network_boundary:
            continue
        router = session.local[0]
        bgp = network.routers[router].config.bgp_process
        nbr = bgp.neighbor(str(session.neighbor_address)) if bgp else None
        if nbr is None:
            continue
        if not any(
            (nbr.route_map_in, nbr.distribute_list_in, nbr.prefix_list_in)
        ):
            findings.append(
                ConsistencyFinding(
                    category="unfiltered-external-session",
                    router=router,
                    detail=(
                        f"EBGP session to {nbr.address} (AS {nbr.remote_as}) "
                        "accepts routes without any inbound policy"
                    ),
                )
            )
    return findings


def incomplete_adjacencies(network: Network) -> List[ConsistencyFinding]:
    """Internal links where only one side's IGP can form an adjacency —
    routes will never flow, usually a forgotten ``network`` statement or a
    stray ``passive-interface``.

    Adjacency capability is judged on :meth:`active_interfaces` — the same
    set instance computation uses — not on coverage alone: a passive
    interface advertises its subnet but can never bring up an adjacency,
    so it counts as covered-but-not-adjacent and is flagged with its own
    wording.
    """
    active: Set[Tuple[str, str]] = set()
    passive: Set[Tuple[str, str]] = set()
    for proc in network.processes.values():
        if proc.is_bgp:
            continue
        proc_active = set(proc.active_interfaces())
        for name in proc_active:
            active.add((proc.router, name))
        for name in proc.covered_interfaces:
            if name not in proc_active:
                passive.add((proc.router, name))
    # An interface active under any process on its router can adjacency.
    passive -= active
    findings = []
    for link in network.links:
        ends = [(end.router, end.interface) for end in link.ends]
        adjacent = [end for end in ends if end in active]
        if adjacent and len(adjacent) < len(ends):
            for router, iface_name in ends:
                if (router, iface_name) in active:
                    continue
                if (router, iface_name) in passive:
                    detail = (
                        f"{iface_name} on shared subnet {link.subnet} is "
                        "covered only passively while a neighbor's is active "
                        "(no adjacency can form)"
                    )
                else:
                    detail = (
                        f"{iface_name} on shared subnet {link.subnet} is "
                        "not covered by any IGP process while a neighbor's is"
                    )
                findings.append(
                    ConsistencyFinding(
                        category="incomplete-adjacency",
                        router=router,
                        detail=detail,
                    )
                )
    return findings


def _policy_references(config) -> List[Tuple[str, str]]:
    """Every policy object a router's statements reference, as
    ``(kind, object name)`` pairs in config-walk order."""
    refs: List[Tuple[str, str]] = []
    for iface in config.interfaces.values():
        for acl in (iface.access_group_in, iface.access_group_out):
            if acl:
                refs.append(("access-list", acl))
    for process in config.routing_processes():
        for redist in process.redistributes:
            if redist.route_map:
                refs.append(("route-map", redist.route_map))
        for dist in getattr(process, "distribute_lists", []):
            refs.append(("access-list", dist.acl))
    if config.bgp_process:
        for nbr in config.bgp_process.neighbors:
            for acl in (nbr.distribute_list_in, nbr.distribute_list_out):
                if acl:
                    refs.append(("access-list", acl))
            for rmap in (nbr.route_map_in, nbr.route_map_out):
                if rmap:
                    refs.append(("route-map", rmap))
            for plist in (nbr.prefix_list_in, nbr.prefix_list_out):
                if plist:
                    refs.append(("prefix-list", plist))
    for route_map in config.route_maps.values():
        for clause in route_map.clauses:
            for acl in clause.match_ip_address:
                refs.append(("access-list", str(acl)))
            for plist in clause.match_prefix_lists:
                refs.append(("prefix-list", plist))
            for clist in clause.match_communities:
                refs.append(("community-list", clist))
    return refs


def _policy_tables(config) -> Dict[str, dict]:
    """A router's policy-object tables by kind, in reporting order."""
    return {
        "access-list": config.access_lists,
        "route-map": config.route_maps,
        "prefix-list": config.prefix_lists,
        "community-list": config.community_lists,
    }


def dangling_references(network: Network) -> List[ConsistencyFinding]:
    """Policy objects referenced but never defined."""
    findings = []
    for name, router in network.routers.items():
        tables = _policy_tables(router.config)
        for kind, ref in _policy_references(router.config):
            if ref not in tables[kind]:
                findings.append(
                    ConsistencyFinding(
                        category="dangling-reference",
                        router=name,
                        detail=f"{kind} {ref} is referenced but not defined",
                    )
                )
    return findings


def unused_policies(network: Network) -> List[ConsistencyFinding]:
    """Defined policy objects no statement references — dead configuration,
    often a vestige of abandoned changes (§8.2).

    A name referenced as any kind of object counts as used for every
    kind.
    """
    findings = []
    for name, router in network.routers.items():
        used = {ref for _kind, ref in _policy_references(router.config)}
        for kind, table in _policy_tables(router.config).items():
            for object_name in table:
                if object_name not in used:
                    findings.append(
                        ConsistencyFinding(
                            category="unused-policy",
                            router=name,
                            detail=f"{kind} {object_name} is defined but never applied",
                        )
                    )
    return findings


def one_sided_sessions(network: Network) -> List[ConsistencyFinding]:
    """BGP sessions whose peer is in the data set but has no matching
    neighbor statement back — the session can never establish."""
    findings = []
    for session in network.bgp_sessions:
        if session.remote_key is None:
            continue
        remote_router = session.remote_key[0]
        local_router = session.local[0]
        remote_bgp = network.routers[remote_router].config.bgp_process
        has_reverse = False
        for nbr in remote_bgp.neighbors if remote_bgp else []:
            owner = network.address_map.get(nbr.address.value)
            if owner is not None and owner[0] == local_router:
                has_reverse = True
                break
        if not has_reverse:
            findings.append(
                ConsistencyFinding(
                    category="one-sided-session",
                    router=local_router,
                    detail=(
                        f"BGP neighbor {session.neighbor_address} on "
                        f"{remote_router} has no matching neighbor statement back"
                    ),
                )
            )
    return findings


def audit_configuration(
    network: Network, max_findings_per_check: Optional[int] = None
) -> ConsistencyReport:
    """Run the full §8.1 vulnerability/consistency battery.

    ``max_findings_per_check`` is the degraded-mode bound: each check
    contributes at most that many findings (checks emit in deterministic
    order, so the kept prefix is stable) and the report is marked
    ``truncated`` when anything was dropped.
    """
    report = ConsistencyReport()
    for check in (
        unprotected_edges,
        incomplete_adjacencies,
        dangling_references,
        unused_policies,
        one_sided_sessions,
    ):
        findings = check(network)
        if (
            max_findings_per_check is not None
            and len(findings) > max_findings_per_check
        ):
            findings = findings[:max_findings_per_check]
            report.truncated = True
        report.findings.extend(findings)
    return report
