"""Routing instances (§3.2): the flood fill over process adjacencies.

A **routing instance** is the set of routing processes, running the same
protocol, that share routing information directly.  Instances are the
connected components of the adjacencies the model already holds
(``Network.igp_adjacencies`` and ``Network.bgp_sessions``); the closure
stops at edges between processes of different protocol types and at EBGP
adjacencies between BGP speakers with different AS numbers.

:func:`compute_instances` runs the flood fill; ``Network.instances``
runs it once per network at full fidelity and caches the result, and
every analysis reads it there.  The routing instance graph built on top
of the instances is :mod:`repro.core.instances`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.model.processes import ProcessKey, process_sort_key
from repro.obs.trace import traced

if TYPE_CHECKING:
    from repro.model.network import Network


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
    network: "Network", merge_ebgp: bool = False
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
    network: "Network",
    merge_ebgp: bool = False,
    max_processes: Optional[int] = None,
) -> List[RoutingInstance]:
    """Flood-fill the process adjacency structure into routing instances.

    Instances are numbered deterministically (processes visited in sorted
    order), largest-independent of input dict ordering, starting at 1 to
    match the paper's figures.  Analyses read the full-fidelity result
    cached as ``Network.instances``; call this directly only for a
    variant (the *merge_ebgp* ablation, a degraded bound).

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


__all__ = ["RoutingInstance", "compute_instances", "instance_of"]
