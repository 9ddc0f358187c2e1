"""Route pathway graphs (§3.3).

For any router, the route pathway graph shows where the routes used by that
router come from: starting at the router RIB, a breadth-first search walks
*backwards* along route flow through the routing instance model, recording
the instances the search passes through.

The search reads only the router's *attachment signature* — the instance
ids of its processes, in ``processes_on`` order — plus the instance graph
and the depth bound.  :func:`route_pathways` therefore runs one search per
signature and hands the result to every router that shares it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import networkx as nx

from repro.core.instances import (
    RoutingInstance,
    build_instance_graph,
    compute_instances,
    instance_of,
)
from repro.core.process_graph import EXTERNAL_NODE
from repro.model.network import Network
from repro.obs.trace import traced

#: Pathway nodes are instance ids, the external-world sentinel, or the
#: router RIB sentinel string.
PathwayNode = Union[int, Tuple[str, str, Optional[int]], str]

ROUTER_RIB = "router-rib"


@dataclass
class RoutePathway:
    """The result of a pathway search for one router.

    ``graph`` is a directed graph with edges pointing along route flow
    (source instance → consumer), rooted at the ``ROUTER_RIB`` node.  No
    node label names the router, so routers with one attachment signature
    can share the graph.
    ``layers`` maps each node to its BFS depth from the router RIB — the
    "number of layers of routing protocols and redistributions" §5.1 counts
    for net5's router 3.
    """

    router: str
    graph: nx.DiGraph
    layers: Dict[PathwayNode, int] = field(default_factory=dict)
    #: Policies applied on the traversed edges: (source, target, route map).
    #: §3.3: pathways "locate all the routing policies that affect the
    #: routes seen by any particular router, and pinpoint where the
    #: policies are applied".
    policies: List[Tuple[PathwayNode, PathwayNode, str]] = field(default_factory=list)
    #: True when a ``max_depth`` bound stopped the search before the
    #: frontier drained — deeper feeders exist but were not explored.
    truncated: bool = False

    @property
    def instances(self) -> List[int]:
        return sorted(node for node in self.graph.nodes if isinstance(node, int))

    @property
    def reaches_external(self) -> bool:
        return EXTERNAL_NODE in self.graph.nodes

    @property
    def depth(self) -> int:
        """Maximum BFS depth — the layering of the design seen by this router."""
        return max(self.layers.values(), default=0)

    def external_depth(self) -> Optional[int]:
        """How many hops external routes travel to reach this router."""
        return self.layers.get(EXTERNAL_NODE)


@traced("pathways")
def route_pathway(
    network: Network,
    router: str,
    instances: Optional[List[RoutingInstance]] = None,
    instance_graph: Optional[nx.MultiDiGraph] = None,
    max_depth: Optional[int] = None,
) -> RoutePathway:
    """Compute the route pathway graph for *router* (§3.3).

    The search starts from the router RIB, first reaching the instances of
    the processes running on the router, then following instance-graph edges
    *against* route flow (an edge A→B in the instance graph means routes
    flow from A to B, so B's routes "come from" A).

    ``max_depth`` is the degraded-mode bound: nodes at that BFS depth are
    recorded but not expanded, and ``truncated`` is set on the result when
    the bound actually cut anything off.
    """
    if router not in network.routers:
        raise KeyError(f"unknown router: {router}")
    if instances is None:
        instances = compute_instances(network)
    if instance_graph is None:
        instance_graph = build_instance_graph(network, instances)
    membership = instance_of(instances)

    pathway = nx.DiGraph()
    pathway.add_node(ROUTER_RIB, label="Router RIB")
    layers: Dict[PathwayNode, int] = {ROUTER_RIB: 0}
    queue: deque = deque()

    # Depth 1: the instances whose processes run on this router feed the
    # router RIB directly through route selection.
    for proc in network.processes_on(router):
        instance = membership[proc.key]
        node = instance.instance_id
        if node not in layers:
            layers[node] = 1
            pathway.add_node(node, label=instance.label)
            queue.append(node)
        pathway.add_edge(node, ROUTER_RIB, kind="selection")

    # BFS backwards along route flow.
    policies: List[Tuple[PathwayNode, PathwayNode, str]] = []
    truncated = False
    while queue:
        node = queue.popleft()
        if max_depth is not None and layers[node] >= max_depth:
            # Depth bound: record the node but do not expand its feeders.
            if instance_graph.in_degree(node) > 0:
                truncated = True
            continue
        for source, _target, data in instance_graph.in_edges(node, data=True):
            if source not in layers:
                layers[source] = layers[node] + 1
                label = instance_graph.nodes[source].get("label", str(source))
                pathway.add_node(source, label=label)
                queue.append(source)
            if data.get("route_map"):
                entry = (source, node, data["route_map"])
                if entry not in policies:
                    policies.append(entry)
            if not pathway.has_edge(source, node):
                pathway.add_edge(source, node, kind=data.get("kind", "unknown"))

    return RoutePathway(
        router=router,
        graph=pathway,
        layers=layers,
        policies=policies,
        truncated=truncated,
    )


def route_pathways(
    network: Network,
    instances: Optional[List[RoutingInstance]] = None,
    instance_graph: Optional[nx.MultiDiGraph] = None,
    max_depth: Optional[int] = None,
) -> Dict[str, RoutePathway]:
    """Every router's route pathway, one search per attachment signature.

    Routers whose processes belong to the same sequence of instances get
    the same pathway, so :func:`route_pathway` runs once per distinct
    sequence and each member receives the shared result under its own
    name (the graph, layers and policies are shared, not copied).  Keys
    are in sorted router order.
    """
    if instances is None:
        instances = compute_instances(network)
    if instance_graph is None:
        instance_graph = build_instance_graph(network, instances)
    membership = instance_of(instances)
    shared: Dict[Tuple[int, ...], RoutePathway] = {}
    pathways: Dict[str, RoutePathway] = {}
    for router in sorted(network.routers):
        signature = tuple(
            membership[proc.key].instance_id for proc in network.processes_on(router)
        )
        if signature not in shared:
            # A module-global lookup: a wrapper set on the module
            # attribute sees every search.
            shared[signature] = route_pathway(
                network,
                router,
                instances=instances,
                instance_graph=instance_graph,
                max_depth=max_depth,
            )
        pathways[router] = replace(shared[signature], router=router)
    return pathways
