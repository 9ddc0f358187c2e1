"""Route pathway graphs (§3.3).

For any router, the route pathway graph shows where the routes used by that
router come from: starting at the router RIB, a breadth-first search walks
*backwards* along route flow through the routing instance model, recording
the instances the search passes through.

The search reads only the router's *attachment signature* — the instance
ids of its processes, in ``processes_on`` order — plus the instance graph
and the depth bound.  :func:`route_pathways` therefore runs one search per
signature and hands the result to every router that shares it.  Searches
read the instance graph through a :class:`FeederTable` compiled from it
once, and record what they find as plain data; a pathway's graph is built
only when :attr:`RoutePathway.graph` is read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import networkx as nx

from repro.core.instances import RoutingInstance, build_instance_graph
from repro.core.process_graph import EXTERNAL_NODE
from repro.model.network import Network
from repro.model.processes import ProcessKey
from repro.obs.trace import traced

#: Pathway nodes are instance ids, the external-world sentinel, or the
#: router RIB sentinel string.
PathwayNode = Union[int, Tuple[str, str, Optional[int]], str]

ROUTER_RIB = "router-rib"


@dataclass
class RoutePathway:
    """The result of a pathway search for one router.

    ``layers`` maps each node, in discovery order, to its BFS depth from
    the router RIB — the "number of layers of routing protocols and
    redistributions" §5.1 counts for net5's router 3.  ``labels`` names
    each node; no label names the router, so routers with one attachment
    signature can share the result.  ``edges`` are the traversed edges,
    pointing along route flow (source instance → consumer), in the order
    the search first met them.
    """

    router: str
    layers: Dict[PathwayNode, int] = field(default_factory=dict)
    labels: Dict[PathwayNode, str] = field(default_factory=dict)
    #: ``(source, target, kind)``; ``kind`` is ``selection`` into the RIB,
    #: else the kind of the first instance-graph edge between the two.
    edges: List[Tuple[PathwayNode, PathwayNode, str]] = field(default_factory=list)
    #: Policies applied on the traversed edges: (source, target, route map).
    #: §3.3: pathways "locate all the routing policies that affect the
    #: routes seen by any particular router, and pinpoint where the
    #: policies are applied".
    policies: List[Tuple[PathwayNode, PathwayNode, str]] = field(default_factory=list)
    #: True when a ``max_depth`` bound stopped the search before the
    #: frontier drained — deeper feeders exist but were not explored.
    truncated: bool = False

    @property
    def graph(self) -> nx.DiGraph:
        """The pathway as a directed graph rooted at ``ROUTER_RIB``: the
        nodes in ``layers`` order with their ``label``, then the edges with
        their ``kind``.  Built anew on each read."""
        graph = nx.DiGraph()
        for node in self.layers:
            graph.add_node(node, label=self.labels[node])
        for source, target, kind in self.edges:
            graph.add_edge(source, target, kind=kind)
        return graph

    @property
    def instances(self) -> List[int]:
        return sorted(node for node in self.layers if isinstance(node, int))

    @property
    def reaches_external(self) -> bool:
        return EXTERNAL_NODE in self.layers

    @property
    def depth(self) -> int:
        """Maximum BFS depth — the layering of the design seen by this router."""
        return max(self.layers.values(), default=0)

    def external_depth(self) -> Optional[int]:
        """How many hops external routes travel to reach this router."""
        return self.layers.get(EXTERNAL_NODE)


@dataclass(frozen=True)
class FeederTable:
    """An instance graph compiled for pathway searches.

    :func:`feeder_table` derives each node's feeders once; every search
    over the graph reads them from here.
    """

    #: Process key → (its instance id, the instance's label).
    starts: Dict[ProcessKey, Tuple[int, str]]
    #: Instance-graph node → its distinct feeders in ``in_edges`` order,
    #: each ``(source, kind of the first parallel edge, source label)``.
    #: Empty exactly when the node has no in-edge.
    feeders: Dict[PathwayNode, Tuple[Tuple[PathwayNode, str, str], ...]]
    #: Instance-graph node → ``(source, node, route map)`` for each of its
    #: in-edges that carries a route map, in ``in_edges`` order, each once.
    policies: Dict[PathwayNode, Tuple[Tuple[PathwayNode, PathwayNode, str], ...]]


def feeder_table(
    network: Network,
    instances: Optional[List[RoutingInstance]] = None,
    instance_graph: Optional[nx.MultiDiGraph] = None,
) -> FeederTable:
    """Compile *instance_graph* (built from *instances* when not given).

    *instances* defaults to ``network.instances``.
    """
    if instances is None:
        instances = network.instances
    if instance_graph is None:
        instance_graph = build_instance_graph(network, instances)
    labels = {
        node: data.get("label", str(node)) for node, data in instance_graph.nodes(data=True)
    }
    starts = {}
    for instance in instances:
        # One entry per instance: a BGP label reads every process's ASN.
        start = (instance.instance_id, instance.label)
        for key in instance.processes:
            starts[key] = start
    feeders = {}
    policies = {}
    for node, by_source in instance_graph.pred.items():
        feeders[node] = tuple(
            (source, next(iter(parallel.values())).get("kind", "unknown"), labels[source])
            for source, parallel in by_source.items()
        )
        policies[node] = tuple(
            dict.fromkeys(
                (source, node, data["route_map"])
                for source, parallel in by_source.items()
                for data in parallel.values()
                if data.get("route_map")
            )
        )
    return FeederTable(starts=starts, feeders=feeders, policies=policies)


@traced("pathways")
def route_pathway(
    network: Network,
    router: str,
    instances: Optional[List[RoutingInstance]] = None,
    instance_graph: Optional[nx.MultiDiGraph] = None,
    max_depth: Optional[int] = None,
    *,
    feeders: Optional[FeederTable] = None,
) -> RoutePathway:
    """Compute the route pathway graph for *router* (§3.3).

    The search starts from the router RIB, first reaching the instances of
    the processes running on the router, then following instance-graph edges
    *against* route flow (an edge A→B in the instance graph means routes
    flow from A to B, so B's routes "come from" A).

    ``max_depth`` is the degraded-mode bound: nodes at that BFS depth are
    recorded but not expanded, and ``truncated`` is set on the result when
    the bound actually cut anything off.

    *feeders* is the instance graph already compiled by
    :func:`feeder_table`; without it the search compiles its own from
    *instances* and *instance_graph*.
    """
    if router not in network.routers:
        raise KeyError(f"unknown router: {router}")
    if feeders is None:
        feeders = feeder_table(network, instances, instance_graph)

    layers: Dict[PathwayNode, int] = {ROUTER_RIB: 0}
    labels: Dict[PathwayNode, str] = {ROUTER_RIB: "Router RIB"}
    edges: List[Tuple[PathwayNode, PathwayNode, str]] = []
    queue: deque = deque()

    # Depth 1: the instances whose processes run on this router feed the
    # router RIB directly through route selection.
    for proc in network.processes_on(router):
        node, label = feeders.starts[proc.key]
        if node not in layers:
            layers[node] = 1
            labels[node] = label
            edges.append((node, ROUTER_RIB, "selection"))
            queue.append(node)

    # BFS backwards along route flow.  Each node is expanded at most once,
    # so its edges and policies are never met twice.
    policies: List[Tuple[PathwayNode, PathwayNode, str]] = []
    truncated = False
    while queue:
        node = queue.popleft()
        if max_depth is not None and layers[node] >= max_depth:
            # Depth bound: record the node but do not expand its feeders.
            truncated = truncated or bool(feeders.feeders[node])
            continue
        depth = layers[node] + 1
        for source, kind, label in feeders.feeders[node]:
            if source not in layers:
                layers[source] = depth
                labels[source] = label
                queue.append(source)
            edges.append((source, node, kind))
        policies.extend(feeders.policies[node])

    return RoutePathway(
        router=router,
        layers=layers,
        labels=labels,
        edges=edges,
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
    sequence, over one :class:`FeederTable`, and each member receives the
    shared result under its own name (the layers, edges and policies are
    shared, not copied).  Keys are in sorted router order.
    """
    feeders = feeder_table(network, instances, instance_graph)
    shared: Dict[Tuple[int, ...], RoutePathway] = {}
    pathways: Dict[str, RoutePathway] = {}
    for router in sorted(network.routers):
        signature = tuple(feeders.starts[proc.key][0] for proc in network.processes_on(router))
        if signature not in shared:
            # A module-global lookup: a wrapper set on the module
            # attribute sees every search.
            shared[signature] = route_pathway(
                network, router, max_depth=max_depth, feeders=feeders
            )
        pathways[router] = replace(shared[signature], router=router)
    return pathways
