"""Reference route-set algebra: disjoint prefix atoms, split and re-summarized.

The prefix-atom algebra that the span kernel of :mod:`repro.net.prefix`
replaced, kept for the differential tests only.  A set is the sorted,
summarized list of its prefixes; a union re-sorts and re-summarizes to a
fixpoint; a filter splits each atom against each rule with
:func:`prefix_complement`.  :class:`ReferenceReachability` reuses the
analysis' constructor (origins, edges and their compiled rule lists) and
nothing of its set algebra: each origin enters as the reference set of
its atoms, and each edge's filters are re-applied here from their rules.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.process_graph import EXTERNAL_NODE
from repro.core.reachability import ReachabilityAnalysis, ReachNode
from repro.net import Prefix

UNIVERSE = Prefix(0, 0)


def summarize_prefixes(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Collapse a set of prefixes into a minimal covering list.

    Removes prefixes contained in others and merges adjacent siblings into
    their common supernet, repeatedly, until a fixpoint.  The result is
    sorted and covers exactly the union of the inputs.
    """
    working = sorted(set(prefixes))
    changed = True
    while changed:
        changed = False
        result: List[Prefix] = []
        for prefix in working:
            if result and result[-1].contains(prefix):
                changed = True
                continue
            if (
                result
                and result[-1].length == prefix.length
                and prefix.length > 0
                and result[-1].supernet() == prefix.supernet()
            ):
                result[-1] = prefix.supernet()
                changed = True
                continue
            result.append(prefix)
        working = result
    return working


def prefix_complement(container: Prefix, inner: Prefix) -> List[Prefix]:
    """The prefixes covering ``container`` minus ``inner``.

    Standard trie walk: at each level from *inner* up to *container*, emit
    the sibling subtree.  Returns at most ``inner.length - container.length``
    prefixes.
    """
    if not container.contains(inner):
        raise ValueError(f"{container} does not contain {inner}")
    result: List[Prefix] = []
    current = inner
    while current.length > container.length:
        sibling = Prefix(
            current.network_int ^ (1 << (32 - current.length)), current.length
        )
        result.append(sibling)
        current = current.supernet()
    return result


class RouteSet:
    """An immutable set of IPv4 addresses represented as disjoint prefixes."""

    __slots__ = ("_atoms",)

    def __init__(self, prefixes: Iterable[Prefix] = ()):
        self._atoms: Tuple[Prefix, ...] = tuple(summarize_prefixes(prefixes))

    @classmethod
    def universe(cls) -> "RouteSet":
        return cls([UNIVERSE])

    @classmethod
    def empty(cls) -> "RouteSet":
        return cls()

    @property
    def atoms(self) -> Tuple[Prefix, ...]:
        return self._atoms

    def is_empty(self) -> bool:
        return not self._atoms

    def union(self, other: "RouteSet") -> "RouteSet":
        return RouteSet(self._atoms + other._atoms)

    def coarsened(self, max_atoms: int) -> "RouteSet":
        """Widen the longest prefixes to their supernets (then
        re-summarize) until at most *max_atoms* atoms remain."""
        if len(self._atoms) <= max_atoms:
            return self
        atoms = list(self._atoms)
        while len(atoms) > max_atoms:
            longest = max(atom.length for atom in atoms)
            if longest == 0:
                break  # already the universe; cannot widen further
            atoms = summarize_prefixes(
                atom.supernet() if atom.length == longest else atom
                for atom in atoms
            )
        return RouteSet(atoms)

    def intersection(self, other: "RouteSet") -> "RouteSet":
        atoms: List[Prefix] = []
        for a in self._atoms:
            for b in other._atoms:
                if a.contains(b):
                    atoms.append(b)
                elif b.contains(a):
                    atoms.append(a)
        return RouteSet(atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteSet):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self):
        return iter(self._atoms)


class PrefixFilter:
    """An ordered first-match permit/deny prefix filter (implicit deny),
    applied atom by atom with exact splitting."""

    def __init__(self, rules: List[Tuple[str, Prefix]]):
        self.rules = rules

    def apply(self, routes: RouteSet) -> RouteSet:
        permitted: List[Prefix] = []
        for atom in routes.atoms:
            permitted.extend(self._filter_atom(atom))
        return RouteSet(permitted)

    def _filter_atom(self, atom: Prefix) -> List[Prefix]:
        permitted: List[Prefix] = []
        remaining = [atom]
        for action, rule_prefix in self.rules:
            if not remaining:
                break
            next_remaining: List[Prefix] = []
            for piece in remaining:
                if rule_prefix.contains(piece):
                    if action == "permit":
                        permitted.append(piece)
                elif piece.contains(rule_prefix):
                    if action == "permit":
                        permitted.append(rule_prefix)
                    next_remaining.extend(prefix_complement(piece, rule_prefix))
                else:
                    next_remaining.append(piece)
            remaining = next_remaining
        return permitted  # implicit deny for whatever remains


class ReferenceReachability(ReachabilityAnalysis):
    """:class:`ReachabilityAnalysis` propagating reference route sets."""

    def _propagate(self, origins) -> Dict[ReachNode, RouteSet]:
        filters = [
            [PrefixFilter(policy.rules) for policy in edge.filters]
            for edge in self.edges
        ]
        routes: Dict[ReachNode, RouteSet] = {
            node: RouteSet(origin.atoms) for node, origin in origins.items()
        }
        for instance in self.instances:
            routes.setdefault(instance.instance_id, RouteSet.empty())
        routes.setdefault(EXTERNAL_NODE, RouteSet.empty())
        changed = True
        iterations = 0
        limit = 4 * (len(self.instances) + 1) + 8
        while changed and iterations < limit:
            changed = False
            iterations += 1
            for edge, policies in zip(self.edges, filters):
                incoming = routes[edge.source]
                for policy in policies:
                    incoming = policy.apply(incoming)
                merged = routes[edge.target].union(incoming)
                if self.max_atoms is not None and len(merged) > self.max_atoms:
                    merged = merged.coarsened(self.max_atoms)
                    self.approximate = True
                if merged != routes[edge.target]:
                    routes[edge.target] = merged
                    changed = True
        self.rounds = iterations
        return routes
