"""Routing design extraction — the paper's primary contribution (§3).

Given a :class:`repro.model.Network`, this package derives the four
abstractions of §3 plus the analyses of §5–§7:

* :mod:`repro.core.process_graph` — routing process graphs (§3.1),
* :mod:`repro.core.instances` — routing instances and the instance graph
  (§3.2),
* :mod:`repro.core.pathways` — route pathway graphs (§3.3),
* :mod:`repro.core.address_space` — address space structure (§3.4),
* :mod:`repro.core.roles` — IGP/EGP role classification (§5.2, Table 1),
* :mod:`repro.core.filters` — packet-filter placement analysis (§5.3,
  Figure 11),
* :mod:`repro.core.classify` — design classification (§7),
* :mod:`repro.core.census` — interface and config-size censuses (Figure 4,
  Table 3),
* :mod:`repro.core.reachability` — reachability analysis (§6.2, Figure 12),
* :mod:`repro.core.missing` — missing-router detection (§3.4).
"""

from repro.core.address_space import AddressBlock, extract_address_space
from repro.core.census import config_size_distribution, interface_census
from repro.core.classify import DesignClass, classify_design
from repro.core.diff import DesignDiff, diff_designs
from repro.core.survivability import (
    SurvivabilityReport,
    analyze_survivability,
    instance_couplings,
)
from repro.core.filters import FilterPlacement, analyze_filter_placement
from repro.core.instances import RoutingInstance, build_instance_graph, compute_instances
from repro.core.missing import find_suspect_external_interfaces
from repro.core.packet_reach import Flow, FlowVerdict, PacketReachability
from repro.core.pathways import route_pathway, route_pathways
from repro.core.process_graph import (
    EXTERNAL_NODE,
    NodeKind,
    build_process_graph,
    local_rib_node,
    process_node,
    router_rib_node,
)
from repro.core.reachability import ReachabilityAnalysis, RouteSet
from repro.core.roles import (
    RoleCensus,
    RouterRole,
    classify_roles,
    classify_router_roles,
)

__all__ = [
    "AddressBlock",
    "DesignClass",
    "DesignDiff",
    "Flow",
    "FlowVerdict",
    "PacketReachability",
    "SurvivabilityReport",
    "analyze_survivability",
    "diff_designs",
    "instance_couplings",
    "EXTERNAL_NODE",
    "FilterPlacement",
    "NodeKind",
    "ReachabilityAnalysis",
    "RoleCensus",
    "RouteSet",
    "RoutingInstance",
    "analyze_filter_placement",
    "build_instance_graph",
    "build_process_graph",
    "classify_design",
    "RouterRole",
    "classify_roles",
    "classify_router_roles",
    "compute_instances",
    "config_size_distribution",
    "extract_address_space",
    "find_suspect_external_interfaces",
    "interface_census",
    "local_rib_node",
    "process_node",
    "route_pathway",
    "route_pathways",
    "router_rib_node",
]
