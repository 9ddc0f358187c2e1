"""Reference route pathway search: one ``nx.DiGraph`` built per search.

The breadth-first search that :mod:`repro.core.pathways` replaced with a
feeder table, kept for the differential tests only.  Each search walks
the instance graph's ``in_edges`` views, builds its pathway graph edge by
edge and scans the whole policy list before appending; ``route_pathways``
hands one search per attachment signature to every member.  The code is
the replaced module's, without the ``traced`` decorator (so reference
searches leave the run counters alone), with its result type renamed
:class:`ReferencePathway` and with the payload's pathway section as it
was computed from that graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx

from repro.compress.payload import _ref
from repro.core.instances import (
    RoutingInstance,
    build_instance_graph,
    compute_instances,
    instance_of,
)
from repro.core.pathways import ROUTER_RIB, PathwayNode
from repro.core.process_graph import EXTERNAL_NODE
from repro.model.network import Network


@dataclass
class ReferencePathway:
    """The result of a pathway search for one router, graph included."""

    router: str
    graph: nx.DiGraph
    layers: Dict[PathwayNode, int] = field(default_factory=dict)
    policies: List[Tuple[PathwayNode, PathwayNode, str]] = field(default_factory=list)
    truncated: bool = False

    @property
    def instances(self) -> List[int]:
        return sorted(node for node in self.graph.nodes if isinstance(node, int))

    @property
    def reaches_external(self) -> bool:
        return EXTERNAL_NODE in self.graph.nodes

    @property
    def depth(self) -> int:
        return max(self.layers.values(), default=0)

    def external_depth(self) -> Optional[int]:
        return self.layers.get(EXTERNAL_NODE)


def route_pathway(
    network: Network,
    router: str,
    instances: Optional[List[RoutingInstance]] = None,
    instance_graph: Optional[nx.MultiDiGraph] = None,
    max_depth: Optional[int] = None,
) -> ReferencePathway:
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

    return ReferencePathway(
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
) -> Dict[str, ReferencePathway]:
    if instances is None:
        instances = compute_instances(network)
    if instance_graph is None:
        instance_graph = build_instance_graph(network, instances)
    membership = instance_of(instances)
    shared: Dict[Tuple[int, ...], ReferencePathway] = {}
    pathways: Dict[str, ReferencePathway] = {}
    for router in sorted(network.routers):
        signature = tuple(
            membership[proc.key].instance_id for proc in network.processes_on(router)
        )
        if signature not in shared:
            shared[signature] = route_pathway(
                network,
                router,
                instances=instances,
                instance_graph=instance_graph,
                max_depth=max_depth,
            )
        pathways[router] = replace(shared[signature], router=router)
    return pathways


def pathway_payload(pathway: ReferencePathway) -> Dict[str, Any]:
    """The analysis payload's pathway entry, edges read off the graph."""
    return {
        "layers": {_ref(node): depth for node, depth in pathway.layers.items()},
        "edges": sorted(
            [_ref(source), _ref(target), data["kind"]]
            for source, target, data in pathway.graph.edges(data=True)
        ),
        "policies": sorted(
            [_ref(source), _ref(target), route_map]
            for source, target, route_map in pathway.policies
        ),
        "truncated": pathway.truncated,
    }
