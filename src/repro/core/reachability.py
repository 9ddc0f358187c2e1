"""Reachability analysis over the routing instance model (§6.2).

A completely accurate answer to "which hosts can communicate" would require
modeling per-router route selection; the paper's middle ground propagates
*sets of routes* through the routing instance graph, applying the route
policies annotated on each edge.  This module implements that analysis:

* :class:`RouteSet` — a set of addresses with exact set algebra, held as
  the integer spans of :mod:`repro.net.prefix` and read out as disjoint
  maximal prefixes,
* :class:`PrefixFilter` — first-match permit/deny prefix rules compiled
  from access lists and route maps; a first-match pass over address spans
  handles partial overlaps exactly,
* :class:`ReachabilityAnalysis` — origination + fixpoint propagation, and
  the queries used in the net15 case study (Figure 12 / Table 2): which
  external routes enter the network, whether a default route is admitted,
  and whether hosts in one address block can reach another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.instances import instance_of
from repro.core.process_graph import EXTERNAL_NODE
from repro.model.exchange import Peering, Redistribution
from repro.model.network import Network
from repro.model.processes import ProcessKey
from repro.net import Prefix, summarize_prefixes
from repro.net.prefix import (
    Spans,
    prefix_spans,
    span_difference,
    span_intersection,
    span_prefixes,
    span_union,
)
from repro.obs.trace import traced

#: Propagation-graph nodes: instance ids or the external-world sentinel.
ReachNode = Union[int, Tuple[str, str, Optional[int]]]

UNIVERSE = Prefix(0, 0)
_UNIVERSE_SPANS: Spans = (UNIVERSE.span,)


class RouteSet:
    """An immutable set of IPv4 addresses, held as integer spans.

    The spans (:data:`repro.net.prefix.Spans`) are the set's one spelling:
    equality, hashing and the set algebra work on them, at a cost per
    contiguous address range rather than per prefix.  :attr:`atoms`, the
    set as disjoint maximal prefixes sorted by address, is decomposed from
    the spans on first use; ``len()`` and iteration read it.
    """

    __slots__ = ("_spans", "_atoms")

    def __init__(self, prefixes: Iterable[Prefix] = ()):
        self._spans: Spans = prefix_spans(prefixes)
        self._atoms: Optional[Tuple[Prefix, ...]] = None

    @classmethod
    def from_spans(cls, spans: Spans) -> "RouteSet":
        """The set of *spans*, which must already be in canonical form."""
        routes = cls.__new__(cls)
        routes._spans = spans
        routes._atoms = None
        return routes

    @classmethod
    def universe(cls) -> "RouteSet":
        return cls.from_spans(_UNIVERSE_SPANS)

    @classmethod
    def empty(cls) -> "RouteSet":
        return cls.from_spans(())

    @property
    def spans(self) -> Spans:
        return self._spans

    @property
    def atoms(self) -> Tuple[Prefix, ...]:
        if self._atoms is None:
            self._atoms = tuple(span_prefixes(self._spans))
        return self._atoms

    def is_empty(self) -> bool:
        return not self._spans

    def has_default(self) -> bool:
        """True when the set is the full universe (a default route survives)."""
        return self._spans == _UNIVERSE_SPANS

    def covers(self, prefix: Prefix) -> bool:
        """True when every address of *prefix* is in the set."""
        span = (prefix.span,)
        return span_intersection(self._spans, span) == span

    def overlaps(self, prefix: Prefix) -> bool:
        """True when any address of *prefix* is in the set."""
        return bool(span_intersection(self._spans, (prefix.span,)))

    def union(self, other: "RouteSet") -> "RouteSet":
        return RouteSet.from_spans(span_union(self._spans, other._spans))

    def coarsened(self, max_atoms: int) -> "RouteSet":
        """An over-approximation of the set with at most *max_atoms* atoms.

        Repeatedly widens the longest prefixes to their supernets (then
        re-summarizes) until the atom count fits.  The result is a
        superset of the original — safe for reachability in the "may
        reach" direction, and deterministic.
        """
        atoms = self.atoms
        if len(atoms) <= max_atoms:
            return self
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
        return RouteSet.from_spans(span_intersection(self._spans, other._spans))

    def total_addresses(self) -> int:
        return sum(hi - lo for lo, hi in self._spans)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteSet):
            return NotImplemented
        return self._spans == other._spans

    def __hash__(self) -> int:
        return hash(self._spans)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __repr__(self) -> str:
        inside = ", ".join(str(atom) for atom in self.atoms)
        return f"RouteSet({{{inside}}})"


@dataclass
class PrefixFilter:
    """An ordered first-match permit/deny prefix filter (implicit deny).

    This is the compiled form of a route policy: access lists and route
    maps are both lowered to a flat rule list whose first-match semantics
    equal the original construct's (deny shadowing included).  Which rule
    an address meets first depends on the address alone, so the filter is
    the set of addresses it permits, found once by a first-match pass
    over the universe, and applying it is one intersection.
    """

    rules: List[Tuple[str, Prefix]] = field(default_factory=list)
    _permitted: Spans = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        permitted: Spans = ()
        remaining = _UNIVERSE_SPANS
        for action, prefix in self.rules:
            if not remaining:
                break
            rule = (prefix.span,)
            if action == "permit":
                permitted = span_union(permitted, span_intersection(remaining, rule))
            remaining = span_difference(remaining, rule)
        self._permitted = permitted  # implicit deny for what remains

    def apply(self, routes: RouteSet) -> RouteSet:
        return RouteSet.from_spans(span_intersection(routes.spans, self._permitted))

    def permitted_set(self) -> RouteSet:
        """The addresses this filter would admit from the full universe."""
        return RouteSet.from_spans(self._permitted)

    @classmethod
    def pass_all(cls) -> "PrefixFilter":
        return cls(rules=[("permit", UNIVERSE)])

    @classmethod
    def deny_all(cls) -> "PrefixFilter":
        return cls(rules=[])

    @classmethod
    def from_access_list(cls, acl) -> "PrefixFilter":
        """Compile an :class:`repro.ios.config.AccessList` used as a route filter."""
        rules: List[Tuple[str, Prefix]] = []
        for rule in acl.rules:
            prefix = rule.source_prefix()
            if prefix is not None:
                rules.append((rule.action, prefix))
        return cls(rules=rules)

    @classmethod
    def from_prefix_list(cls, plist) -> "PrefixFilter":
        """Compile an ``ip prefix-list`` for the address-set algebra.

        ``ge``/``le`` length bounds select which *routes* match, but at
        address granularity every matching route lies inside the entry's
        prefix, so the entry's prefix is the correct address set here (the
        simulator applies the exact per-route semantics).
        """
        rules: List[Tuple[str, Prefix]] = []
        for entry in plist.sorted_entries():
            rules.append((entry.action, entry.prefix))
        return cls(rules=rules)

    @classmethod
    def from_route_map(cls, route_map, access_lists, prefix_lists=None) -> "PrefixFilter":
        """Compile a route map given its router's ACL/prefix-list tables.

        Each clause's match set is the union of its referenced ACLs' (or
        prefix-lists') permitted sets (an empty match list matches
        everything); clauses are flattened in sequence order, preserving
        first-match semantics.
        """
        prefix_lists = prefix_lists or {}
        rules: List[Tuple[str, Prefix]] = []
        for clause in route_map.sorted_clauses():
            if not clause.match_ip_address and not clause.match_prefix_lists:
                rules.append((clause.action, UNIVERSE))
                continue
            for acl_name in clause.match_ip_address:
                acl = access_lists.get(str(acl_name))
                if acl is None:
                    continue
                for prefix in cls.from_access_list(acl).permitted_set():
                    rules.append((clause.action, prefix))
            for plist_name in clause.match_prefix_lists:
                plist = prefix_lists.get(plist_name)
                if plist is None:
                    continue
                for prefix in cls.from_prefix_list(plist).permitted_set():
                    rules.append((clause.action, prefix))
        return cls(rules=rules)


@dataclass
class ReachEdge:
    """One policy-annotated route-flow edge in the propagation graph."""

    source: ReachNode
    target: ReachNode
    kind: str  # "redistribution" | "ebgp" | "external"
    filters: List[PrefixFilter] = field(default_factory=list)
    router: Optional[str] = None
    label: Optional[str] = None

    def transfer(self, routes: RouteSet) -> RouteSet:
        for policy in self.filters:
            routes = policy.apply(routes)
        return routes


class ReachabilityAnalysis:
    """Reachability over the routing instance model of one network."""

    def __init__(self, network: Network, max_atoms: Optional[int] = None):
        self.network = network
        self.instances = network.instances
        self.membership = instance_of(self.instances)
        self.edges: List[ReachEdge] = []
        self.origins: Dict[ReachNode, RouteSet] = {}
        #: Degraded-mode bound on atoms per route set during propagation;
        #: sets beyond it are widened (see :meth:`RouteSet.coarsened`).
        self.max_atoms = max_atoms
        #: True once any route set was actually coarsened — answers are
        #: then over-approximate in the "may reach" direction.
        self.approximate = False
        #: Rounds the last propagation ran (see :meth:`_propagate`).
        self.rounds = 0
        self._routes: Optional[Dict[ReachNode, RouteSet]] = None
        self._external_routes: Optional[Dict[ReachNode, RouteSet]] = None
        self._build()

    # -- construction --------------------------------------------------------

    @traced("reachability", metric="analysis.reachability")
    def _build(self) -> None:
        self._build_origins()
        self._build_edges()

    def _compile_route_map(self, router: str, name: Optional[str]) -> Optional[PrefixFilter]:
        if name is None:
            return None
        config = self.network.routers[router].config
        route_map = config.route_maps.get(name)
        if route_map is None:
            return None
        return PrefixFilter.from_route_map(
            route_map, config.access_lists, config.prefix_lists
        )

    def _compile_acl(self, router: str, name: Optional[str]) -> Optional[PrefixFilter]:
        if name is None:
            return None
        acl = self.network.routers[router].config.access_lists.get(str(name))
        if acl is None:
            return None
        return PrefixFilter.from_access_list(acl)

    def _compile_prefix_list(
        self, router: str, name: Optional[str]
    ) -> Optional[PrefixFilter]:
        if name is None:
            return None
        plist = self.network.routers[router].config.prefix_lists.get(name)
        if plist is None:
            return None
        return PrefixFilter.from_prefix_list(plist)

    def _build_origins(self) -> None:
        self.origins[EXTERNAL_NODE] = RouteSet.universe()
        for instance in self.instances:
            prefixes: List[Prefix] = []
            for key in instance.processes:
                proc = self.network.processes[key]
                router_config = self.network.routers[key[0]].config
                if instance.protocol == "bgp":
                    prefixes.extend(
                        statement.prefix() for statement in proc.config.networks
                    )
                else:
                    for name in proc.covered_interfaces:
                        iface = router_config.interfaces.get(name)
                        if iface is not None and iface.prefix is not None:
                            prefixes.append(iface.prefix)
                for redist in proc.config.redistributes:
                    if redist.source_protocol == "connected":
                        prefixes.extend(
                            iface.prefix
                            for iface in router_config.interfaces.values()
                            if iface.prefix is not None
                        )
                    elif redist.source_protocol == "static":
                        prefixes.extend(
                            route.prefix for route in router_config.static_routes
                        )
            self.origins[instance.instance_id] = RouteSet(prefixes)

    def _session_filters(self, session, direction: str) -> List[PrefixFilter]:
        """Compile the in- or outbound policies of one BGP session end
        (none for a missing end)."""
        if session is None:
            return []
        router = session.local[0]
        bgp = self.network.routers[router].config.bgp_process
        nbr = bgp.neighbor(str(session.neighbor_address)) if bgp else None
        if nbr is None:
            return []
        if direction == "in":
            acl, plist, rmap = nbr.distribute_list_in, nbr.prefix_list_in, nbr.route_map_in
        else:
            acl, plist, rmap = nbr.distribute_list_out, nbr.prefix_list_out, nbr.route_map_out
        policies = (
            self._compile_acl(router, acl),
            self._compile_prefix_list(router, plist),
            self._compile_route_map(router, rmap),
        )
        return [policy for policy in policies if policy is not None]

    def _igp_filters(self, key: ProcessKey) -> Tuple[List[PrefixFilter], List[PrefixFilter]]:
        """Compile an IGP process's distribute lists: ``(inbound, outbound)``."""
        inbound: List[PrefixFilter] = []
        outbound: List[PrefixFilter] = []
        for dist in self.network.processes[key].config.distribute_lists:
            policy = self._compile_acl(key[0], dist.acl)
            if policy is not None:
                (inbound if dist.direction == "in" else outbound).append(policy)
        return inbound, outbound

    def _build_edges(self) -> None:
        """The route-exchange table seen through instance membership, each
        edge carrying its compiled policies."""
        membership = self.membership
        for record in self.network.route_exchange:
            if isinstance(record, Redistribution):
                if record.source not in membership:
                    continue  # local RIB sources are intra-router
                source = membership[record.source].instance_id
                target = membership[record.target].instance_id
                if source == target:
                    continue
                route_map = self._compile_route_map(record.router, record.statement.route_map)
                self.edges.append(
                    ReachEdge(
                        source=source,
                        target=target,
                        kind="redistribution",
                        filters=[route_map] if route_map is not None else [],
                        router=record.router,
                        label=record.statement.route_map,
                    )
                )
            elif isinstance(record, Peering):
                if not record.is_ebgp:
                    continue  # IBGP is intra-instance
                forward, reverse = record.session, record.reverse
                self._add_exchange(
                    membership[record.local].instance_id,
                    membership[record.remote].instance_id,
                    "ebgp",
                    inbound=self._session_filters(reverse, "out")
                    + self._session_filters(forward, "in"),
                    outbound=self._session_filters(forward, "out")
                    + self._session_filters(reverse, "in"),
                )
            elif record.session is not None:
                self._add_exchange(
                    membership[record.process].instance_id,
                    EXTERNAL_NODE,
                    "external",
                    inbound=self._session_filters(record.session, "in"),
                    outbound=self._session_filters(record.session, "out"),
                    router=record.process[0],
                )
            else:
                inbound, outbound = self._igp_filters(record.process)
                self._add_exchange(
                    membership[record.process].instance_id,
                    EXTERNAL_NODE,
                    "external",
                    inbound=inbound,
                    outbound=outbound,
                    router=record.process[0],
                )

    def _add_exchange(
        self,
        node: ReachNode,
        peer: ReachNode,
        kind: str,
        inbound: List[PrefixFilter],
        outbound: List[PrefixFilter],
        router: Optional[str] = None,
    ) -> None:
        """Route flow both ways: *peer* → *node* under *inbound*, then
        *node* → *peer* under *outbound*."""
        self.edges.append(
            ReachEdge(source=peer, target=node, kind=kind, filters=inbound, router=router)
        )
        self.edges.append(
            ReachEdge(source=node, target=peer, kind=kind, filters=outbound, router=router)
        )

    # -- propagation ---------------------------------------------------------

    def _propagate(self, origins: Dict[ReachNode, RouteSet]) -> Dict[ReachNode, RouteSet]:
        """Push every node's set over every edge, round by round, until a
        round changes nothing; :attr:`rounds` counts the rounds run.

        The cap of ``4N + 8`` rounds, with N the instances plus the
        external node, never cuts an exact run short.  A filter only
        removes addresses, so an address that reaches a node along a walk
        also reaches it along the simple path left when the walk's cycles
        are cut out, which has at most N - 1 edges.  Each round extends
        every path by at least one edge, so an exact run is at its
        fixpoint after N - 1 rounds and stops within N.  With
        ``max_atoms``, each coarsened set contains the exact run's set
        after every round (widening only adds addresses; union and filters
        keep containment).  The exact run is at its fixpoint long before
        the cap, so a coarsened run, stopped by the cap or not,
        over-approximates, which is all that :attr:`approximate` promises.
        """
        routes: Dict[ReachNode, RouteSet] = dict(origins)
        for instance in self.instances:
            routes.setdefault(instance.instance_id, RouteSet.empty())
        routes.setdefault(EXTERNAL_NODE, RouteSet.empty())
        changed = True
        rounds = 0
        limit = 4 * (len(self.instances) + 1) + 8
        while changed and rounds < limit:
            changed = False
            rounds += 1
            for edge in self.edges:
                incoming = edge.transfer(routes[edge.source])
                merged = routes[edge.target].union(incoming)
                if self.max_atoms is not None and len(merged) > self.max_atoms:
                    merged = merged.coarsened(self.max_atoms)
                    self.approximate = True
                if merged != routes[edge.target]:
                    routes[edge.target] = merged
                    changed = True
        self.rounds = rounds
        return routes

    @property
    def routes(self) -> Dict[ReachNode, RouteSet]:
        """Fixpoint route sets per node, from all origins."""
        if self._routes is None:
            self._routes = self._propagate(self.origins)
        return self._routes

    @property
    def external_routes(self) -> Dict[ReachNode, RouteSet]:
        """Fixpoint restricted to routes originating in the external world."""
        if self._external_routes is None:
            self._external_routes = self._propagate(
                {EXTERNAL_NODE: RouteSet.universe()}
            )
        return self._external_routes

    # -- queries -------------------------------------------------------------

    def routes_of(self, instance_id: int) -> RouteSet:
        return self.routes.get(instance_id, RouteSet.empty())

    def external_routes_into(self, instance_id: int) -> RouteSet:
        """External routes admitted into an instance — bounds the load its
        processes must carry (the net15 scalability prediction of §6.2)."""
        return self._strip_universe(self.external_routes.get(instance_id, RouteSet.empty()))

    def default_route_admitted(self, instance_id: int) -> bool:
        return self.external_routes.get(instance_id, RouteSet.empty()).has_default()

    def routes_announced_externally(self) -> RouteSet:
        """Internal routes that escape to the external world."""
        internal = self._propagate(
            {
                node: routes
                for node, routes in self.origins.items()
                if node != EXTERNAL_NODE
            }
        )
        return internal.get(EXTERNAL_NODE, RouteSet.empty())

    @staticmethod
    def _strip_universe(routes: RouteSet) -> RouteSet:
        return RouteSet.empty() if routes.has_default() else routes

    def predicted_route_load(self, instance_id: int) -> int:
        """Upper-bound the routes an instance's processes must carry (§6.2).

        "The reachability analysis establishes that the ingress filters
        ... control the maximum number of external routes that can be
        injected into the OSPF instances.  Combined with the number of
        routers in the OSPF instance, the maximum load on the OSPF
        processes can be predicted."

        The bound is the instance's own route count at fixpoint: internal
        originations plus everything admitted through policy.  A universe
        atom (an admitted default route) counts as one route.
        """
        return len(self.routes_of(instance_id))

    def instances_serving(self, prefix: Prefix) -> List[int]:
        """Instance ids whose origins cover (any of) *prefix* — the
        instances hosts in *prefix* are attached to."""
        return [
            instance.instance_id
            for instance in self.instances
            if self.origins[instance.instance_id].overlaps(prefix)
        ]

    def can_send(self, source: Prefix, destination: Prefix) -> bool:
        """Hosts in *source* hold routes toward *destination*.

        True when some instance serving *source* has learned a route
        covering *destination* (or originates it).
        """
        for instance_id in self.instances_serving(source):
            if self.routes_of(instance_id).overlaps(destination):
                return True
        return False

    def can_communicate(self, a: Prefix, b: Prefix) -> bool:
        """Two-way reachability: a→b packets and b→a replies both routable."""
        return self.can_send(a, b) and self.can_send(b, a)
