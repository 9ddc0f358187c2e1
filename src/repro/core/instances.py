"""The routing instance graph (§3.2).

Routing instances themselves are model structure: the flood fill is
:mod:`repro.model.instances`, and ``Network.instances`` caches its
full-fidelity result.  ``RoutingInstance``, ``compute_instances`` and
``instance_of`` are re-exported here.

The **routing instance graph** abstracts the process graph: one node per
instance (plus the external world), with edges where route exchange occurs
between instances — redistribution on a shared router, or an EBGP session.
"""

from __future__ import annotations

from typing import List, Optional, Set

import networkx as nx

from repro.core.process_graph import EXTERNAL_NODE
from repro.model.exchange import ExternalExchange, Peering, Redistribution
from repro.model.instances import RoutingInstance, compute_instances, instance_of
from repro.model.network import Network


def build_instance_graph(
    network: Network, instances: Optional[List[RoutingInstance]] = None
) -> nx.MultiDiGraph:
    """Build the routing instance graph (Figure 6 / Figure 9).

    Nodes are instance ids (ints) plus :data:`EXTERNAL_NODE`.  Node
    attributes: ``instance`` (the :class:`RoutingInstance`), ``label``,
    ``size``.  Edge attributes: ``kind`` (``redistribution`` | ``ebgp`` |
    ``external``), ``router`` (where redistribution happens), ``route_map``.

    Redistribution edges are directed (route flow); EBGP and external edges
    are added in both directions.  The edges are the network's
    route-exchange table seen through instance membership, in its order:
    redistributions, then one EBGP edge pair per instance pair, then the
    external edges by instance id.  *instances* defaults to
    ``network.instances``.
    """
    if instances is None:
        instances = network.instances
    membership = instance_of(instances)

    graph = nx.MultiDiGraph()
    graph.add_node(EXTERNAL_NODE, label="External World", size=0, instance=None)
    for instance in instances:
        graph.add_node(
            instance.instance_id,
            label=instance.label,
            size=instance.size,
            instance=instance,
        )

    seen_pairs = set()
    external: Set[int] = set()
    for record in network.route_exchange:
        if isinstance(record, Redistribution):
            # Local RIB sources are intra-router, not shown here.
            if record.source not in membership:
                continue
            a = membership[record.source].instance_id
            b = membership[record.target].instance_id
            if a != b:
                statement = record.statement
                graph.add_edge(
                    a,
                    b,
                    kind="redistribution",
                    router=record.router,
                    route_map=statement.route_map,
                    tag=statement.tag,
                )
        elif isinstance(record, Peering):
            if not record.is_ebgp:
                continue
            a = membership[record.local].instance_id
            b = membership[record.remote].instance_id
            pair = (min(a, b), max(a, b))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                graph.add_edge(a, b, kind="ebgp")
                graph.add_edge(b, a, kind="ebgp")
        else:
            external.add(membership[record.process].instance_id)

    for instance_id in sorted(external):
        graph.add_edge(EXTERNAL_NODE, instance_id, kind="external")
        graph.add_edge(instance_id, EXTERNAL_NODE, kind="external")
    return graph


def find_external_adjacent_instances(network: Network) -> Set[int]:
    """Instance ids that have an adjacency with another network (§5.2).

    A BGP instance is externally adjacent when one of its processes has an
    unresolved neighbor; an IGP instance when one of its processes actively
    covers an external-facing interface.
    """
    membership = instance_of(network.instances)
    return {
        membership[record.process].instance_id
        for record in network.route_exchange
        if isinstance(record, ExternalExchange)
    }


__all__ = [
    "RoutingInstance",
    "build_instance_graph",
    "compute_instances",
    "find_external_adjacent_instances",
    "instance_of",
]
