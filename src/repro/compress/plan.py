"""Grouping routers into equivalence classes — the compression plan.

The class construction runs three refinement layers:

1. **local signatures** (role, process set, policy digest, degree
   profile) seed the partition;
2. **WL color refinement** over the link topology splits routers whose
   neighborhoods differ at any radius;
3. **instance-set refinement** splits routers whose processes belong to
   different routing-instance sets.

Layer 3 is what makes pathway expansion *exact* rather than heuristic: a
route pathway (§3.3) depends only on the router's set of routing
instances plus the shared instance graph — the router name appears in
nothing but :attr:`RoutePathway.router`.  Two routers with the same
instance-id set therefore have identical pathways by construction.  WL
alone cannot guarantee that: two isomorphic-but-disconnected pods
(separate OSPF instances) would color identically yet live in different
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.instances import RoutingInstance, instance_of
from repro.core.roles import classify_router_roles
from repro.compress.signature import signature_colors
from repro.model.network import Network


@dataclass(frozen=True)
class EquivalenceClass:
    """One bucket of mutually equivalent routers."""

    class_id: str
    #: Members in sorted name order; the first is the representative.
    members: Tuple[str, ...]
    #: The router whose analyses stand in for the whole class.
    representative: str
    #: Router role (border/glue/interior/host) shared by every member.
    role: str
    #: Sorted routing-instance ids every member participates in.
    instance_ids: Tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class CompressionPlan:
    """The full partition of one network's routers."""

    network: str
    classes: List[EquivalenceClass] = field(default_factory=list)
    #: router name -> class id.
    router_class: Dict[str, str] = field(default_factory=dict)

    @property
    def n_routers(self) -> int:
        return len(self.router_class)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def ratio(self) -> float:
        """Compression ratio: concrete routers per class (>= 1.0)."""
        return self.n_routers / self.n_classes if self.classes else 1.0

    def class_of(self, router: str) -> EquivalenceClass:
        class_id = self.router_class[router]
        for cls in self.classes:
            if cls.class_id == class_id:
                return cls
        raise KeyError(class_id)

    def as_dict(self) -> Dict[str, object]:
        return {
            "network": self.network,
            "routers": self.n_routers,
            "classes": self.n_classes,
            "ratio": round(self.ratio, 3),
            "class_sizes": [cls.size for cls in self.classes],
        }


def _instance_sets(
    network: Network, instances: List[RoutingInstance]
) -> Dict[str, FrozenSet[int]]:
    """``router -> frozenset(instance ids)`` in one pass over processes."""
    membership = instance_of(instances)
    sets: Dict[str, set] = {name: set() for name in network.routers}
    for key in network.processes:
        instance = membership.get(key)
        if instance is not None:
            sets[key[0]].add(instance.instance_id)
    return {name: frozenset(ids) for name, ids in sets.items()}


def build_compression_plan(
    network: Network, instances: Optional[List[RoutingInstance]] = None
) -> CompressionPlan:
    """Partition *network*'s routers into equivalence classes.

    Deterministic: classes are ordered (and numbered) by their first
    member's name, members are sorted, and every refinement layer
    assigns ids by sorting — the same network yields the same plan
    whatever order its configs were ingested in.  *instances* defaults
    to ``network.instances``.
    """
    if instances is None:
        instances = network.instances
    colors = signature_colors(network)
    roles = classify_router_roles(network)
    instance_sets = _instance_sets(network, instances)

    buckets: Dict[Tuple[int, FrozenSet[int]], List[str]] = {}
    for router in network.routers:
        key = (colors[router], instance_sets[router])
        buckets.setdefault(key, []).append(router)

    groups = sorted(
        (sorted(members) for members in buckets.values()),
        key=lambda members: members[0],
    )
    plan = CompressionPlan(network=network.name)
    for index, members in enumerate(groups):
        representative = members[0]
        cls = EquivalenceClass(
            class_id=f"class-{index:04d}",
            members=tuple(members),
            representative=representative,
            role=roles[representative].role,
            instance_ids=tuple(sorted(instance_sets[representative])),
        )
        plan.classes.append(cls)
        for member in members:
            plan.router_class[member] = cls.class_id
    return plan


__all__ = ["CompressionPlan", "EquivalenceClass", "build_compression_plan"]
