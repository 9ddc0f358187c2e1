"""Routing process graphs (§3.1).

The routing process graph models how routing information flows through the
network.  Its vertices are RIBs:

* one **process RIB** per routing process,
* one **local RIB** per router, holding connected subnets and static routes
  (the modeling device introduced in §2.4 / Figure 3),
* one **router RIB** per router, where route selection deposits the routes
  actually used for forwarding,
* a single **external world** vertex, standing for everything outside the
  data set.

Edges carry a ``kind`` attribute:

* ``adjacency`` — two processes on different routers exchange routes
  directly (added in both directions, one edge per direction);
* ``redistribution`` — a directed transfer between RIBs on one router;
* ``selection`` — process/local RIB → router RIB;
* ``external`` — route exchange with the external world.

Policies (route maps, distribute lists) are recorded as edge annotations, as
§3.1 prescribes.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

import networkx as nx

from repro.model.exchange import Peering, Redistribution
from repro.model.network import Network
from repro.model.processes import ProcessKey, local_rib_key, process_sort_key

#: The pseudo-node standing for the world outside the configuration set.
EXTERNAL_NODE: Tuple[str, str, Optional[int]] = ("<external>", "external", None)


class NodeKind(str, Enum):
    """What a process-graph vertex represents."""

    PROCESS = "process"
    LOCAL = "local"
    ROUTER_RIB = "router-rib"
    EXTERNAL = "external"


#: The graph node for a router's local RIB.
local_rib_node = local_rib_key


def router_rib_node(router: str) -> ProcessKey:
    """The graph node for a router's router RIB (forwarding RIB)."""
    return (router, "rib", None)


class _BoundedMultiDiGraph(nx.MultiDiGraph):
    """A MultiDiGraph that stops accepting edges past ``edge_limit``.

    Used by the degraded analysis mode: a pathological archive (e.g. an
    injected adjacency storm) can emit orders of magnitude more edges
    than routers; bounding insertion keeps the stage inside its budget
    and marks the result via ``graph.graph["truncated"]``.
    """

    def __init__(self, *args, edge_limit: Optional[int] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.edge_limit = edge_limit
        self._edges_added = 0

    def add_edge(self, u_for_edge, v_for_edge, key=None, **attr):
        if self.edge_limit is not None:
            if self._edges_added >= self.edge_limit:
                self.graph["truncated"] = True
                return None
            self._edges_added += 1
        return super().add_edge(u_for_edge, v_for_edge, key, **attr)


def build_process_graph(
    network: Network, max_edges: Optional[int] = None
) -> nx.MultiDiGraph:
    """Build the routing process graph for *network*.

    Returns a :class:`networkx.MultiDiGraph` whose nodes carry ``kind``
    (a :class:`NodeKind` value), ``router`` and ``protocol`` attributes, and
    whose edges carry ``kind`` plus policy annotations (``route_map``,
    ``acl_in``, ``acl_out`` where applicable).

    The selection and IGP adjacency edges come from the model; the
    redistribution, BGP and external edges are the network's
    route-exchange table (:mod:`repro.model.exchange`).

    ``max_edges`` is the degraded-mode bound: edge insertion stops once
    the graph holds that many edges (deterministically — construction
    order is fixed) and ``graph.graph["truncated"]`` is set.
    """
    graph = _BoundedMultiDiGraph(edge_limit=max_edges)
    graph.graph["truncated"] = False
    graph.add_node(EXTERNAL_NODE, kind=NodeKind.EXTERNAL, router=None, protocol="external")

    # Vertices: process RIBs, local RIBs, router RIBs.  Vertices and
    # selection edges are sorted, and the exchange table is in canonical
    # order, so what survives a ``max_edges`` truncation is a function of
    # the network, not of config ingestion order.
    keys = sorted(network.processes, key=process_sort_key)
    for key in keys:
        graph.add_node(key, kind=NodeKind.PROCESS, router=key[0], protocol=key[1])
    routers = sorted(network.routers)
    for router in routers:
        graph.add_node(local_rib_node(router), kind=NodeKind.LOCAL, router=router, protocol="local")
        graph.add_node(
            router_rib_node(router), kind=NodeKind.ROUTER_RIB, router=router, protocol="rib"
        )

    for router in routers:
        graph.add_edge(local_rib_node(router), router_rib_node(router), kind="selection")
    for key in keys:
        graph.add_edge(key, router_rib_node(key[0]), kind="selection")

    for key_a, key_b, link in network.igp_adjacencies:
        graph.add_edge(key_a, key_b, kind="adjacency", subnet=str(link.subnet))
        graph.add_edge(key_b, key_a, kind="adjacency", subnet=str(link.subnet))

    for record in network.route_exchange:
        if isinstance(record, Redistribution):
            statement = record.statement
            graph.add_edge(
                record.source,
                record.target,
                kind="redistribution",
                route_map=statement.route_map,
                tag=statement.tag,
                metric=statement.metric,
            )
        elif isinstance(record, Peering):
            bgp = "ebgp" if record.is_ebgp else "ibgp"
            graph.add_edge(record.local, record.remote, kind="adjacency", bgp=bgp)
            graph.add_edge(record.remote, record.local, kind="adjacency", bgp=bgp)
        else:
            session = record.session
            if session is not None:
                attrs = {
                    "bgp": "ebgp" if session.is_ebgp else "ibgp",
                    "neighbor": str(session.neighbor_address),
                }
            else:
                # An IGP process that actively covers an external-facing
                # interface — the unconventional usage §5.2 quantifies.
                attrs = {"interface": record.interface}
            graph.add_edge(EXTERNAL_NODE, record.process, kind="external", **attrs)
            graph.add_edge(record.process, EXTERNAL_NODE, kind="external", **attrs)
    return graph
