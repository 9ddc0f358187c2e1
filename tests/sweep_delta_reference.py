"""Reference sweep deltas: string-keyed reachability pair sets.

The delta computation :func:`repro.sweep.scenario_delta` replaced, kept
for the differential tests only.  The baseline holds every
``(router, str(prefix))`` pair of the no-failure fixpoint in one set and
their next hops in a dict keyed the same way; a scenario's delta formats
every pair of its RIBs, takes set differences, and sorts the lost and
gained pairs as strings.  The instance topology is derived here too, as
it was, and only :func:`repro.sweep.partitioned_instances` (unchanged) is
shared with the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.routing import RoutingSimulation
from repro.sweep import Scenario, partitioned_instances
from repro.sweep.baseline import SAMPLE_LIMIT

Pair = Tuple[str, str]  # (router, destination prefix)


@dataclass
class ReferenceBaseline:
    pairs: FrozenSet[Pair]
    next_hops: Dict[Pair, Optional[str]]
    instance_members: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    instance_edges: Dict[int, List[Tuple[str, str, str]]] = field(default_factory=dict)
    converged: bool = True
    iterations: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "pairs": len(self.pairs),
            "instances": len(self.instance_members),
            "converged": self.converged,
            "iterations": self.iterations,
        }


def reachability_pairs(
    simulation: RoutingSimulation,
) -> Tuple[Set[Pair], Dict[Pair, Optional[str]]]:
    pairs: Set[Pair] = set()
    next_hops: Dict[Pair, Optional[str]] = {}
    for router, rib in simulation.router_ribs.items():
        for prefix, route in rib.items():
            pair = (router, str(prefix))
            pairs.add(pair)
            next_hops[pair] = route.via_router
    return pairs, next_hops


def reference_baseline(network, max_iterations: int = 1000) -> ReferenceBaseline:
    simulation = RoutingSimulation(network).run(
        max_iterations=max_iterations, on_divergence="degrade"
    )
    pairs, next_hops = reachability_pairs(simulation)
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
    return ReferenceBaseline(
        pairs=frozenset(pairs),
        next_hops=next_hops,
        instance_members=members,
        instance_edges=edges,
        converged=simulation.converged,
        iterations=simulation.iterations,
    )


def reference_delta(
    baseline: ReferenceBaseline,
    simulation: RoutingSimulation,
    scenario: Scenario,
    sample_limit: int = SAMPLE_LIMIT,
) -> Dict[str, Any]:
    failed = set(scenario.failed_routers)
    scenario_pairs, scenario_hops = reachability_pairs(simulation)
    base_pairs = {pair for pair in baseline.pairs if pair[0] not in failed}
    failed_router_pairs = len(baseline.pairs) - len(base_pairs)
    lost = sorted(base_pairs - scenario_pairs)
    gained = sorted(scenario_pairs - base_pairs)
    changed_paths = sum(
        1
        for pair in base_pairs & scenario_pairs
        if baseline.next_hops.get(pair) != scenario_hops.get(pair)
    )
    partitioned = partitioned_instances(
        baseline, scenario.failed_routers, scenario.failed_subnets
    )
    return {
        "lost_pairs": len(lost),
        "lost_sample": [f"{router}->{prefix}" for router, prefix in lost[:sample_limit]],
        "gained_pairs": len(gained),
        "gained_sample": [
            f"{router}->{prefix}" for router, prefix in gained[:sample_limit]
        ],
        "failed_router_pairs": failed_router_pairs,
        "changed_paths": changed_paths,
        "partitioned_instances": partitioned,
        "converged": simulation.converged,
        "iterations": simulation.iterations,
    }
