"""Routing instances and the routing instance graph (§3.2).

A **routing instance** is the set of routing processes, running the same
protocol, that share routing information directly.  Instances are computed
by transitive closure (flood fill) over process adjacencies; the closure
stops at edges between processes of different protocol types and at EBGP
adjacencies between BGP speakers with different AS numbers.

The **routing instance graph** abstracts the process graph: one node per
instance (plus the external world), with edges where route exchange occurs
between instances — redistribution on a shared router, or an EBGP session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import networkx as nx

from repro.core.process_graph import EXTERNAL_NODE
from repro.model.exchange import ExternalExchange, Peering, Redistribution
from repro.model.network import Network
from repro.model.processes import ProcessKey, process_sort_key
from repro.obs.trace import traced


@dataclass
class RoutingInstance:
    """A maximal set of same-protocol, mutually-adjacent routing processes."""

    instance_id: int
    protocol: str
    processes: Set[ProcessKey] = field(default_factory=set)

    @property
    def routers(self) -> Set[str]:
        return {key[0] for key in self.processes}

    @property
    def size(self) -> int:
        """Number of routers participating in the instance."""
        return len(self.routers)

    @property
    def asn(self) -> Optional[int]:
        """For single-AS BGP instances, the AS number; else ``None``.

        Every process in a BGP instance shares one AS by construction
        (EBGP boundaries stop the closure), so this is well-defined.
        """
        if self.protocol != "bgp":
            return None
        asns = {key[2] for key in self.processes}
        return next(iter(asns)) if len(asns) == 1 else None

    @property
    def label(self) -> str:
        if self.protocol == "bgp" and self.asn is not None:
            return f"instance {self.instance_id} BGP AS {self.asn}"
        return f"instance {self.instance_id} {self.protocol}"

    def __contains__(self, key: ProcessKey) -> bool:
        return key in self.processes


def _adjacency_lists(
    network: Network, merge_ebgp: bool = False
) -> Dict[ProcessKey, List[ProcessKey]]:
    """Undirected adjacency lists between processes, honoring the closure
    boundaries.

    *merge_ebgp* disables the EBGP/AS boundary — the ablation discussed in
    DESIGN.md (net5's four BGP ASs would collapse into one instance).
    """
    neighbors: Dict[ProcessKey, List[ProcessKey]] = {key: [] for key in network.processes}
    for key_a, key_b, _link in network.igp_adjacencies:
        # igp_adjacencies already guarantees equal protocols.
        neighbors[key_a].append(key_b)
        neighbors[key_b].append(key_a)
    for session in network.bgp_sessions:
        if session.remote_key is None:
            continue
        if session.is_ebgp and not merge_ebgp:
            continue  # EBGP between different ASs: instance boundary.
        neighbors[session.local].append(session.remote_key)
        neighbors[session.remote_key].append(session.local)
    return neighbors


@traced("instances")
def compute_instances(
    network: Network,
    merge_ebgp: bool = False,
    max_processes: Optional[int] = None,
) -> List[RoutingInstance]:
    """Flood-fill the process adjacency structure into routing instances.

    Instances are numbered deterministically (processes visited in sorted
    order), largest-independent of input dict ordering, starting at 1 to
    match the paper's figures.

    ``max_processes`` is the degraded-mode bound: only the first N
    processes (in sorted order) participate, with adjacencies restricted
    to that subset — a deterministic truncation for pathological inputs.
    """
    neighbors = _adjacency_lists(network, merge_ebgp=merge_ebgp)
    if max_processes is not None and len(neighbors) > max_processes:
        kept = set(sorted(neighbors, key=process_sort_key)[:max_processes])
        neighbors = {
            key: [peer for peer in peers if peer in kept]
            for key, peers in neighbors.items()
            if key in kept
        }
    assigned: Dict[ProcessKey, int] = {}
    instances: List[RoutingInstance] = []
    for start in sorted(neighbors, key=process_sort_key):
        if start in assigned:
            continue
        instance = RoutingInstance(instance_id=len(instances) + 1, protocol=start[1])
        stack = [start]
        while stack:
            key = stack.pop()
            if key in assigned:
                continue
            assigned[key] = instance.instance_id
            instance.processes.add(key)
            for neighbor in neighbors[key]:
                if neighbor not in assigned:
                    stack.append(neighbor)
        instances.append(instance)
    return instances


def instance_of(
    instances: List[RoutingInstance],
) -> Dict[ProcessKey, RoutingInstance]:
    """Invert an instance list into a process → instance mapping."""
    mapping: Dict[ProcessKey, RoutingInstance] = {}
    for instance in instances:
        for key in instance.processes:
            mapping[key] = instance
    return mapping


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
    external edges by instance id.
    """
    if instances is None:
        instances = compute_instances(network)
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


def find_external_adjacent_instances(
    network: Network, instances: List[RoutingInstance]
) -> Set[int]:
    """Instance ids that have an adjacency with another network (§5.2).

    A BGP instance is externally adjacent when one of its processes has an
    unresolved neighbor; an IGP instance when one of its processes actively
    covers an external-facing interface.
    """
    membership = instance_of(instances)
    return {
        membership[record.process].instance_id
        for record in network.route_exchange
        if isinstance(record, ExternalExchange)
    }
