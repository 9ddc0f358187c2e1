"""Baseline snapshot and per-scenario delta computation.

The sweep simulates every failure scenario against one cached baseline:
the no-failure :class:`~repro.routing.RoutingSimulation` fixpoint,
reduced to exactly the facts deltas are computed from —

* the **reachability pairs**: every ``(router, destination prefix)``
  with a RIB entry, held per router as ``prefix -> next hop``
  (``via_router``), for lost/gained and pathway-change counting,
* the **instance topology**: for each routing instance, its member
  routers and the physical links among them, for partition detection.

Deltas are deliberately computed over *surviving* routers only: a failed
router trivially loses its whole RIB, which would drown the interesting
signal — what the rest of the network can no longer reach.

A delta compares each surviving router's scenario RIB with its baseline
map by prefix; only the lost and gained pairs are formatted, and the
samples are sorted as ``(router, "a.b.c.d/len")`` strings, so
``10.0.0.0/8`` comes before ``9.0.0.0/8``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.model.network import Network
from repro.net import Prefix
from repro.routing.engine import RoutingSimulation, TransferTable
from repro.sweep.scenarios import Scenario

#: How many lost/gained pairs each delta payload names explicitly.
SAMPLE_LIMIT = 10

#: ``router -> {destination prefix: next-hop router}``.
NextHops = Dict[str, Dict[Prefix, Optional[str]]]


@dataclass
class BaselineSnapshot:
    """The no-failure fixpoint, reduced to delta-computation facts."""

    #: Every router's reachability pairs with their next hops.
    next_hops: NextHops
    #: ``instance_id -> member routers``.
    instance_members: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: ``instance_id -> [(router_a, router_b, link subnet str), ...]``.
    instance_edges: Dict[int, List[Tuple[str, str, str]]] = field(
        default_factory=dict
    )
    converged: bool = True
    iterations: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "pairs": sum(len(hops) for hops in self.next_hops.values()),
            "instances": len(self.instance_members),
            "converged": self.converged,
            "iterations": self.iterations,
        }


def compute_baseline(
    network: Network,
    max_iterations: int = 1000,
    *,
    table: Optional[TransferTable] = None,
) -> BaselineSnapshot:
    """Run the no-failure simulation and snapshot it for delta queries.

    *table* is the network's compiled transfer table, shared with the
    scenario simulations; without one the simulation compiles its own.
    """
    simulation = RoutingSimulation(network, table=table).run(
        max_iterations=max_iterations, on_divergence="degrade"
    )
    next_hops: NextHops = {
        router: {prefix: route.via_router for prefix, route in rib.items()}
        for router, rib in simulation.router_ribs.items()
    }
    members = {
        instance.instance_id: frozenset(instance.routers)
        for instance in network.instances
    }
    edges: Dict[int, List[Tuple[str, str, str]]] = {
        instance_id: [] for instance_id in members
    }
    for link in network.links:
        routers = link.routers
        subnet = str(link.subnet)
        for instance_id, instance_routers in members.items():
            on_link = [router for router in routers if router in instance_routers]
            for i, a in enumerate(on_link):
                for b in on_link[i + 1:]:
                    edges[instance_id].append((a, b, subnet))
    return BaselineSnapshot(
        next_hops=next_hops,
        instance_members=members,
        instance_edges=edges,
        converged=simulation.converged,
        iterations=simulation.iterations,
    )


def partitioned_instances(
    baseline: BaselineSnapshot,
    failed_routers: Tuple[str, ...],
    failed_subnets: Tuple[str, ...],
) -> List[int]:
    """Instance ids whose surviving members are no longer connected.

    An instance is *partitioned* when, after removing the failed routers
    and the links over failed subnets, its surviving members fall into
    more than one connected component — the instance's interior route
    flooding can no longer stitch them together.
    """
    failed_router_set = set(failed_routers)
    failed_subnet_set = set(failed_subnets)
    partitioned: List[int] = []
    for instance_id, members in sorted(baseline.instance_members.items()):
        alive = members - failed_router_set
        if len(alive) < 2:
            continue
        adjacency: Dict[str, Set[str]] = {router: set() for router in alive}
        for a, b, subnet in baseline.instance_edges.get(instance_id, ()):
            if subnet in failed_subnet_set:
                continue
            if a in adjacency and b in adjacency:
                adjacency[a].add(b)
                adjacency[b].add(a)
        start = next(iter(sorted(alive)))
        seen = {start}
        queue = deque([start])
        while queue:
            for neighbor in adjacency[queue.popleft()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        if len(seen) != len(alive):
            partitioned.append(instance_id)
    return partitioned


def scenario_delta(
    baseline: BaselineSnapshot,
    simulation: RoutingSimulation,
    scenario: Scenario,
    sample_limit: int = SAMPLE_LIMIT,
) -> Dict[str, Any]:
    """The JSON-ready delta of one simulated scenario vs. the baseline.

    All counts are over *surviving* routers; ``failed_router_pairs``
    separately accounts for the pairs that vanished with the failed
    routers themselves.
    """
    failed = set(scenario.failed_routers)
    ribs = simulation.router_ribs
    lost: List[Tuple[str, Prefix]] = []
    gained: List[Tuple[str, Prefix]] = []
    failed_router_pairs = 0
    changed_paths = 0
    for router, hops in baseline.next_hops.items():
        if router in failed:
            failed_router_pairs += len(hops)
            continue
        rib = ribs.get(router, {})
        kept = 0
        for prefix, via in hops.items():
            route = rib.get(prefix)
            if route is None:
                lost.append((router, prefix))
            else:
                kept += 1
                if route.via_router != via:
                    changed_paths += 1
        if len(rib) > kept:  # some scenario prefix is not in the baseline
            gained.extend((router, prefix) for prefix in rib if prefix not in hops)
    partitioned = partitioned_instances(
        baseline, scenario.failed_routers, scenario.failed_subnets
    )
    return {
        "lost_pairs": len(lost),
        "lost_sample": _sample(lost, sample_limit),
        "gained_pairs": len(gained),
        "gained_sample": _sample(gained, sample_limit),
        "failed_router_pairs": failed_router_pairs,
        "changed_paths": changed_paths,
        "partitioned_instances": partitioned,
        "converged": simulation.converged,
        "iterations": simulation.iterations,
    }


def _sample(pairs: List[Tuple[str, Prefix]], limit: int) -> List[str]:
    """The first *limit* of *pairs* in ``(router, prefix string)`` order."""
    named = sorted((router, str(prefix)) for router, prefix in pairs)
    return [f"{router}->{prefix}" for router, prefix in named[:limit]]


def severity_key(row: Dict[str, Any]) -> Tuple[int, int, int, str]:
    """Sort key ranking scenario rows most-damaging first.

    Lost reachability dominates, then instance partitions, then pathway
    churn; the scenario id breaks ties so ranking is total and
    deterministic whatever order the rows were produced in.
    """
    delta = row.get("delta") or {}
    return (
        -int(delta.get("lost_pairs") or 0),
        -len(delta.get("partitioned_instances") or ()),
        -int(delta.get("changed_paths") or 0),
        str(row.get("scenario")),
    )


__all__ = [
    "BaselineSnapshot",
    "SAMPLE_LIMIT",
    "compute_baseline",
    "partitioned_instances",
    "scenario_delta",
    "severity_key",
]
