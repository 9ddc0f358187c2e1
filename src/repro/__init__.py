"""repro — reverse engineering of routing designs from router configurations.

A full reimplementation of the system behind Maltz et al., *Routing Design
in Operational Networks: A Look from the Inside* (SIGCOMM 2004): a Cisco
IOS configuration parser, a structure-preserving anonymizer, the four
routing-design abstractions (routing process graphs, routing instances,
route pathway graphs, address space structure), the downstream analyses
(IGP/EGP roles, packet-filter placement, design classification,
reachability), a control-plane simulator, and a synthetic corpus generator
standing in for the paper's proprietary configuration dumps.

Quickstart::

    from repro import Network, classify_design
    net = Network.from_directory("configs/net5")
    print(len(net.instances), "routing instances")
    print(classify_design(net).design)
"""

from repro.anonymize import Anonymizer
from repro.core import (
    ReachabilityAnalysis,
    RouteSet,
    RoutingInstance,
    build_instance_graph,
    build_process_graph,
    classify_design,
    classify_roles,
    compute_instances,
    extract_address_space,
    route_pathway,
)
from repro.ios import RouterConfig, parse_config, serialize_config
from repro.model import Network, Router
from repro.net import IPv4Address, Prefix
from repro.routing import RoutingSimulation

__version__ = "1.0.0"

__all__ = [
    "Anonymizer",
    "IPv4Address",
    "Network",
    "Prefix",
    "ReachabilityAnalysis",
    "RouteSet",
    "Router",
    "RouterConfig",
    "RoutingInstance",
    "RoutingSimulation",
    "build_instance_graph",
    "build_process_graph",
    "classify_design",
    "classify_roles",
    "compute_instances",
    "extract_address_space",
    "parse_config",
    "route_pathway",
    "serialize_config",
]
