"""Longitudinal design diffing (§8.2 "Evolution of the routing design").

"Routing design is not a discrete activity ... Acquiring a deeper
understanding of the evolution of the routing design requires a
longitudinal analysis with multiple snapshots of the router configuration
data over time.  We plan to pursue this analysis as part of our ongoing
work."

This module implements that planned analysis: given two snapshots of a
network (two sets of configuration files), report what changed at the
*design* level — routers, links, external adjacencies, routing instances
(matched by router overlap, not by id), and policy volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.core.instances import RoutingInstance
from repro.model.network import Network
from repro.net import Prefix


@dataclass
class InstanceChange:
    """One matched instance across snapshots, with its size delta."""

    protocol: str
    before_size: int
    after_size: int
    routers_added: Set[str] = field(default_factory=set)
    routers_removed: Set[str] = field(default_factory=set)

    @property
    def grew(self) -> bool:
        return self.after_size > self.before_size


@dataclass
class DesignDiff:
    """The design-level difference between two snapshots."""

    routers_added: List[str]
    routers_removed: List[str]
    links_added: List[Prefix]
    links_removed: List[Prefix]
    instances_added: List[Tuple[str, int]]  # (protocol, size)
    instances_removed: List[Tuple[str, int]]
    instances_changed: List[InstanceChange]
    filter_rules_before: int
    filter_rules_after: int

    @property
    def is_empty(self) -> bool:
        return not (
            self.routers_added
            or self.routers_removed
            or self.links_added
            or self.links_removed
            or self.instances_added
            or self.instances_removed
            or any(
                change.routers_added or change.routers_removed
                for change in self.instances_changed
            )
            or self.filter_rules_before != self.filter_rules_after
        )

    def summary_lines(self) -> List[str]:
        lines = []
        if self.routers_added:
            lines.append(f"+{len(self.routers_added)} routers")
        if self.routers_removed:
            lines.append(f"-{len(self.routers_removed)} routers")
        if self.links_added:
            lines.append(f"+{len(self.links_added)} links")
        if self.links_removed:
            lines.append(f"-{len(self.links_removed)} links")
        for protocol, size in self.instances_added:
            lines.append(f"new {protocol} instance ({size} routers)")
        for protocol, size in self.instances_removed:
            lines.append(f"removed {protocol} instance ({size} routers)")
        for change in self.instances_changed:
            if change.routers_added or change.routers_removed:
                lines.append(
                    f"{change.protocol} instance resized "
                    f"{change.before_size} -> {change.after_size}"
                )
        delta = self.filter_rules_after - self.filter_rules_before
        if delta:
            lines.append(f"filter rules {'+' if delta > 0 else ''}{delta}")
        return lines or ["no design-level changes"]


def _total_filter_rules(network: Network) -> int:
    from repro.core.filters import analyze_filter_placement  # noqa: PLC0415

    return analyze_filter_placement(network).total_rules


def _match_instances(
    before: List[RoutingInstance], after: List[RoutingInstance]
) -> Tuple[List[Tuple[RoutingInstance, RoutingInstance]], List[RoutingInstance], List[RoutingInstance]]:
    """Greedy best-overlap matching of same-protocol instances."""
    unmatched_after = list(after)
    pairs = []
    lost = []
    for old in sorted(before, key=lambda i: -i.size):
        best = None
        best_overlap = 0
        for new in unmatched_after:
            if new.protocol != old.protocol:
                continue
            overlap = len(old.routers & new.routers)
            if overlap > best_overlap:
                best, best_overlap = new, overlap
        if best is None:
            lost.append(old)
        else:
            unmatched_after.remove(best)
            pairs.append((old, best))
    return pairs, lost, unmatched_after


def diff_designs(before: Network, after: Network) -> DesignDiff:
    """Compare two snapshots of (nominally) the same network."""
    routers_before = set(before.routers)
    routers_after = set(after.routers)
    links_before = {link.subnet for link in before.links}
    links_after = {link.subnet for link in after.links}

    pairs, lost, gained = _match_instances(before.instances, after.instances)

    changes = []
    for old, new in pairs:
        changes.append(
            InstanceChange(
                protocol=old.protocol,
                before_size=old.size,
                after_size=new.size,
                routers_added=new.routers - old.routers,
                routers_removed=old.routers - new.routers,
            )
        )

    return DesignDiff(
        routers_added=sorted(routers_after - routers_before),
        routers_removed=sorted(routers_before - routers_after),
        links_added=sorted(links_after - links_before),
        links_removed=sorted(links_before - links_after),
        instances_added=[(i.protocol, i.size) for i in gained],
        instances_removed=[(i.protocol, i.size) for i in lost],
        instances_changed=changes,
        filter_rules_before=_total_filter_rules(before),
        filter_rules_after=_total_filter_rules(after),
    )
