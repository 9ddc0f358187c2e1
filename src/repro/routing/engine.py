"""Control-plane fixpoint simulation.

The simulator propagates routes between process RIBs until nothing changes,
then selects the best route per prefix into each router RIB — a concrete
realization of Figure 3's RIB/redistribution/selection model.  Fidelity is
deliberately modest (hop-count IGP metrics, AD-based selection, no timers):
enough to answer the paper's structural questions, not to emulate vendor
quirks.

The fixpoint is semi-naive.  Every route that enters a process or local
RIB is stamped from one monotone counter, and every transfer edge — a
``redistribute`` statement, one direction of an IGP adjacency, a BGP
session — keeps a mark: the counter when it last read its source.  Each
round an edge sends only the source routes stamped after its mark, in the
source RIB's order.  That is exact, not a heuristic: a RIB entry is
replaced only by a route with a strictly better preference key, and a
transfer depends only on the route and on static configuration, so
re-sending a route the edge already sent can never install anything.  The
RIBs after every round, their insertion order, the iteration count and
divergence are those of re-sending every route over every edge each round.

Everything a run reads from static configuration is compiled once per
network into a :class:`TransferTable`: each edge's constants (a
redistribution's route map and summaries; an IGP direction's
distribute-list ACLs, metric increment and sending router; a BGP session's
neighbor options and inbound filters) and every seed route (connected,
static, originated), built once and shared.  A run only masks the table
by its failures — a failed router's processes and routes, a failed
subnet's adjacencies and connected routes — so a failure sweep compiles
one table for its baseline and every scenario.

The IGP exchange prices each offered route before building it: the
route's stored preference key (``Route.rank``) with the metric increment
added is compared with the installed entry's, and the advanced copy is
built only when it strictly wins.  That is exact too: advancing changes
only ``metric`` and ``via_router``, and ``via_router`` is not in the key.
"""

from __future__ import annotations

import difflib
from dataclasses import replace
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.ios.config import AccessList, PrefixList, RouteMap, RouterConfig
from repro.model.network import BgpSession, Network
from repro.model.processes import LOCAL_RIB, ProcessKey, redistribute_source
from repro.net import IPv4Address, Prefix
from repro.routing.policy import (
    acl_permits_route,
    apply_route_map,
    prefix_list_permits_route,
)
from repro.routing.route import Route

#: A RIB: best route per prefix.
Rib = Dict[Prefix, Route]


class _Stamps(dict):
    """One RIB's install stamps, prefix -> stamp, in the RIB's own order.

    Both dicts gain a key only together and never lose one, so their
    value views stay aligned.  ``latest`` is the newest stamp.
    """

    __slots__ = ("latest",)

    def __init__(self) -> None:
        super().__init__()
        self.latest = 0


# -- the transfer table --------------------------------------------------------


class _Redistribution(NamedTuple):
    """One ``redistribute`` statement: *source*'s routes into *target*."""

    edge: int
    target: ProcessKey
    #: The RIB it reads (``None`` when the statement names no process).
    source: Optional[ProcessKey]
    #: ``connected``/``static``: only the local RIB's routes of that protocol.
    only: Optional[str]
    route_map: Optional[RouteMap]
    config: RouterConfig
    protocol: str
    metric: Optional[int]
    tag: Optional[int]
    summaries: Tuple[Prefix, ...]


class _IgpDirection(NamedTuple):
    """One direction of an IGP adjacency: *src*'s routes into *dst*."""

    edge: int
    src: ProcessKey
    dst: ProcessKey
    #: The sending router, the advanced routes' ``via_router``.
    via: str
    #: Out-ACLs of *src*, then in-ACLs of *dst*, that apply on this link;
    #: a route crosses only when every one permits it.
    filters: Tuple[AccessList, ...]
    #: OSPF-style interface cost, or 1 (hop count).
    increment: int


class _BgpTransfer(NamedTuple):
    """One configured session, remote (*src*) → local (*dst*)."""

    edge: int
    src: ProcessKey
    dst: ProcessKey
    ebgp: bool
    src_asn: int
    dst_asn: int
    sends_communities: bool
    #: *src* reflects IBGP-learned routes to *dst* (RFC 4456 client).
    src_treats_dst_as_client: bool
    #: Routes arriving at *dst* count as learned from a client.
    dst_treats_src_as_client: bool
    in_acl: Optional[AccessList]
    in_plist: Optional[PrefixList]
    in_map: Optional[RouteMap]
    dst_config: RouterConfig


class TransferTable:
    """What every fixpoint round reads from static configuration, per network.

    Compiled once from *network* and shared, read-only, by every
    :class:`RoutingSimulation` given it — the sweep's baseline and each
    of its scenarios.  A run masks it by its failures and binds the live
    edges to its RIBs.  Its routes and prefixes are shared too, so every
    run's RIBs probe with the same ``Prefix`` objects.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        #: Each router's processes, in ``network.processes`` order.
        self.router_processes: Dict[str, List[ProcessKey]] = {
            name: [] for name in network.routers
        }
        for key in network.processes:
            self.router_processes[key[0]].append(key)
        edges = 0
        # One object per prefix value, so RIB probes hit on identity.
        shared: Dict[Prefix, Prefix] = {}

        def share(prefix: Prefix) -> Prefix:
            return shared.setdefault(prefix, prefix)

        #: Per router: its connected routes (with the subnet that must be
        #: up) and static routes (``None``: always up), in seeding order.
        self.local_seeds: List[Tuple[str, List[Tuple[Optional[Prefix], Route]]]] = []
        for name, router in network.routers.items():
            seeds: List[Tuple[Optional[Prefix], Route]] = []
            for iface in router.config.interfaces.values():
                if iface.shutdown or iface.prefix is None:
                    continue
                prefix = share(iface.prefix)
                route = Route(prefix=prefix, protocol="connected", origin_router=name)
                seeds.append((prefix, route))
            for static in router.config.static_routes:
                route = Route(
                    prefix=share(static.prefix), protocol="static", tag=static.tag, origin_router=name
                )
                seeds.append((None, route))
            self.local_seeds.append((name, seeds))

        #: Originated routes in seeding order, each with its process and
        #: the subnet that must be up (``None``: none).  IGP processes
        #: originate their covered subnets; OSPF "default-information
        #: originate" injects a default route (as IOS does when the router
        #: has one; we always inject — the "always" variant — which is the
        #: common design use); BGP network statements originate
        #: unconditionally (simplification: IOS requires an IGP/connected
        #: route to exist first).
        self.origins: List[Tuple[ProcessKey, Optional[Prefix], Route]] = []
        for key, proc in network.processes.items():
            if proc.is_bgp:
                continue
            interfaces = network.routers[key[0]].config.interfaces
            for iface_name in proc.covered_interfaces:
                iface = interfaces.get(iface_name)
                if iface is None or iface.shutdown or iface.prefix is None:
                    continue
                prefix = share(iface.prefix)
                route = Route(prefix=prefix, protocol=proc.protocol, origin_router=key[0])
                self.origins.append((key, prefix, route))
        default = share(Prefix(0, 0))
        for key, proc in network.processes.items():
            if key[1] == "ospf" and getattr(proc.config, "default_information_originate", False):
                route = Route(
                    prefix=default, protocol="ospf", redistributed=True, origin_router=key[0]
                )
                self.origins.append((key, None, route))
        for key, proc in network.processes.items():
            if proc.is_bgp:
                for statement in proc.config.networks:
                    route = Route(
                        prefix=share(statement.prefix()), protocol="bgp", origin_router=key[0]
                    )
                    self.origins.append((key, None, route))

        #: Every ``redistribute`` statement in step order: processes in
        #: ``network.processes`` order, statements in config order.
        self.redistributions: List[_Redistribution] = []
        for router in network.routers:
            processes = network.processes_on(router)
            keys = [proc.key for proc in processes]
            config = network.routers[router].config
            for proc in processes:
                summaries = tuple(
                    share(summary)
                    for summary in getattr(proc.config, "summary_addresses", None) or ()
                )
                for statement in proc.config.redistributes:
                    only = statement.source_protocol
                    self.redistributions.append(
                        _Redistribution(
                            edge=edges,
                            target=proc.key,
                            source=redistribute_source(router, statement, keys),
                            only=only if only in ("connected", "static") else None,
                            route_map=(
                                config.route_maps.get(statement.route_map)
                                if statement.route_map is not None
                                else None
                            ),
                            config=config,
                            protocol="bgp" if proc.is_bgp else proc.protocol,
                            metric=statement.metric,
                            tag=statement.tag,
                            summaries=summaries,
                        )
                    )
                    edges += 1

        #: Per IGP adjacency, in ``network.igp_adjacencies`` order: the
        #: link's subnet and its two directions.
        self.igp: List[Tuple[Optional[Prefix], _IgpDirection, _IgpDirection]] = []
        for key_a, key_b, link in network.igp_adjacencies:
            interfaces = {end.router: end.interface for end in link.ends}
            forward = self._compile_igp(edges, key_a, key_b, interfaces)
            backward = self._compile_igp(edges + 1, key_b, key_a, interfaces)
            self.igp.append((link.subnet, forward, backward))
            edges += 2

        #: Per resolved BGP session, in ``network.bgp_sessions`` order.
        self.bgp: List[_BgpTransfer] = []
        for session in network.bgp_sessions:
            if session.remote_key is None:
                continue
            self.bgp.append(self._compile_bgp(edges, session))
            edges += 1

        #: How many transfer edges (and so marks) a run keeps.
        self.edges = edges

    def _compile_igp(
        self, edge: int, src: ProcessKey, dst: ProcessKey, interfaces: Dict[str, str]
    ) -> _IgpDirection:
        network = self.network
        src_config = network.routers[src[0]].config
        dst_config = network.routers[dst[0]].config
        src_iface = interfaces.get(src[0])
        dst_iface = interfaces.get(dst[0])
        dst_proc = network.processes[dst]
        # Interface-qualified distribute-lists apply only to routes crossing
        # that interface (the paper's "distribute-list 44 in Serial1/0.5").
        # A list naming no defined ACL filters nothing.
        filters = [
            src_config.access_lists.get(d.acl)
            for d in network.processes[src].config.distribute_lists
            if d.direction == "out" and d.interface in (None, src_iface)
        ] + [
            dst_config.access_lists.get(d.acl)
            for d in dst_proc.config.distribute_lists
            if d.direction == "in" and d.interface in (None, dst_iface)
        ]
        # OSPF-style interface cost: reference bandwidth 100 Mbit over the
        # receiving router's interface bandwidth; hop count when unset.
        increment = 1
        if dst_proc.protocol == "ospf" and dst_iface is not None:
            iface = dst_config.interfaces.get(dst_iface)
            if iface is not None and iface.bandwidth_kbit:
                increment = max(1, 100_000 // iface.bandwidth_kbit)
        return _IgpDirection(
            edge=edge,
            src=src,
            dst=dst,
            via=src[0],
            filters=tuple(acl for acl in filters if acl is not None),
            increment=increment,
        )

    def _compile_bgp(self, edge: int, session: BgpSession) -> _BgpTransfer:
        network = self.network
        src, dst = session.remote_key, session.local
        is_ebgp = session.is_ebgp
        dst_config = network.routers[dst[0]].config
        bgp = dst_config.bgp_process
        nbr = bgp.neighbor(str(session.neighbor_address)) if bgp else None
        # Find src's own neighbor statement whose address belongs to dst:
        # it carries src's per-neighbor sending options (route reflection,
        # send-community).
        src_entry_for_dst = None
        src_bgp = network.routers[src[0]].config.bgp_process
        if src_bgp is not None:
            for src_nbr in src_bgp.neighbors:
                owner = network.address_map.get(src_nbr.address.value)
                if owner is not None and owner[0] == dst[0]:
                    src_entry_for_dst = src_nbr
                    break
        return _BgpTransfer(
            edge=edge,
            src=src,
            dst=dst,
            ebgp=is_ebgp,
            src_asn=src[2],
            dst_asn=dst[2],
            sends_communities=bool(
                src_entry_for_dst is not None and src_entry_for_dst.send_community
            ),
            src_treats_dst_as_client=bool(
                src_entry_for_dst is not None
                and not is_ebgp
                and src_entry_for_dst.route_reflector_client
            ),
            # Does dst treat src as a client (so routes arriving here count
            # as client-learned when dst reflects them onward)?
            dst_treats_src_as_client=bool(nbr and nbr.route_reflector_client),
            in_acl=(
                dst_config.access_lists.get(nbr.distribute_list_in)
                if nbr and nbr.distribute_list_in
                else None
            ),
            in_plist=(
                dst_config.prefix_lists.get(nbr.prefix_list_in)
                if nbr and nbr.prefix_list_in
                else None
            ),
            in_map=(
                dst_config.route_maps.get(nbr.route_map_in)
                if nbr and nbr.route_map_in
                else None
            ),
            dst_config=dst_config,
        )


# -- the simulation --------------------------------------------------------------


class RoutingSimulation:
    """Simulate route propagation for one network, with failure injection.

    Parameters
    ----------
    network:
        The parsed network model.
    failed_routers:
        Router names removed from the simulation (their processes originate
        nothing and their adjacencies are down).
    failed_subnets:
        Link subnets taken down (adjacencies over them are down and their
        connected routes vanish).
    table:
        The network's compiled :class:`TransferTable` (keyword-only).  A
        simulation given none compiles its own; pass one to share it
        between simulations of the same network.

    Failure inputs are validated against the network: an unknown router
    name, or a subnet matching no link and no interface prefix, raises a
    ``ValueError`` naming near-misses — a what-if sweep must never
    silently simulate a no-op failure.  Pass ``validate=False`` to skip
    (e.g. when the caller enumerated the failures from the model itself).
    """

    def __init__(
        self,
        network: Network,
        failed_routers: Iterable[str] = (),
        failed_subnets: Iterable[Union[str, Prefix]] = (),
        validate: bool = True,
        *,
        table: Optional[TransferTable] = None,
    ):
        if table is not None and table.network is not network:
            raise ValueError("the transfer table was compiled for another network")
        self.network = network
        self.failed_routers: Set[str] = set(failed_routers)
        self.failed_subnets: Set[Prefix] = {
            Prefix(subnet) if isinstance(subnet, str) else subnet
            for subnet in failed_subnets
        }
        if validate:
            self._validate_failures()
        self._table = table if table is not None else TransferTable(network)
        self.process_ribs: Dict[ProcessKey, Rib] = {}
        self.local_ribs: Dict[str, Rib] = {}
        self.router_ribs: Dict[str, Rib] = {}
        self._process_stamps: Dict[ProcessKey, _Stamps] = {}
        self._local_stamps: Dict[str, _Stamps] = {}
        self._clock = 0
        self._marks: List[int] = []
        #: The table's live edges, bound to this run's RIBs by :meth:`_seed`.
        self._redistributions: List[tuple] = []
        self._igp: List[tuple] = []
        self._bgp: List[tuple] = []
        self._ran = False
        self._diverged = False
        self._iterations = 0

    def _validate_failures(self) -> None:
        """Reject failure inputs that name nothing in the network."""
        unknown_routers = sorted(self.failed_routers - set(self.network.routers))
        if unknown_routers:
            hints = []
            for name in unknown_routers:
                close = difflib.get_close_matches(
                    name, list(self.network.routers), n=3, cutoff=0.6
                )
                hint = f" (did you mean {', '.join(close)}?)" if close else ""
                hints.append(f"{name!r}{hint}")
            raise ValueError(f"unknown failed router(s): {'; '.join(hints)}")
        if not self.failed_subnets:
            return
        known: Set[Prefix] = {link.subnet for link in self.network.links}
        for iface in self.network.interface_index.values():
            if iface.prefix is not None:
                known.add(iface.prefix)
        unknown_subnets = sorted(self.failed_subnets - known)
        if unknown_subnets:
            hints = []
            for prefix in unknown_subnets:
                close = sorted(
                    candidate
                    for candidate in known
                    if candidate.contains(prefix) or prefix.contains(candidate)
                )[:3]
                hint = (
                    f" (overlapping subnets: {', '.join(str(c) for c in close)})"
                    if close
                    else ""
                )
                hints.append(f"{prefix}{hint}")
            raise ValueError(
                f"failed subnet(s) match no link or interface: {'; '.join(hints)}"
            )

    # -- seeding ---------------------------------------------------------------

    def _seed(self) -> None:
        """Fresh RIBs seeded from the table, and the live edges bound to them.

        A failed router keeps no RIB, so "both ends have a RIB" is the
        router half of every edge's liveness test.
        """
        table = self._table
        failed_routers, failed_subnets = self.failed_routers, self.failed_subnets
        self._clock = 0
        self._marks = [0] * table.edges
        process_ribs, process_stamps = self.process_ribs, self._process_stamps
        for key in self.network.processes:
            if key[0] not in failed_routers:
                process_ribs[key] = {}
                process_stamps[key] = _Stamps()
        for name, seeds in table.local_seeds:
            if name in failed_routers:
                continue
            rib: Rib = {}
            stamps = _Stamps()
            for subnet, route in seeds:
                if subnet is None or subnet not in failed_subnets:
                    self._install(rib, stamps, route)
            self.local_ribs[name] = rib
            self._local_stamps[name] = stamps
        for key, subnet, route in table.origins:
            if key in process_ribs and (subnet is None or subnet not in failed_subnets):
                self._install(process_ribs[key], process_stamps[key], route)

        self._redistributions = []
        for redistribution in table.redistributions:
            target = redistribution.target
            source = self._rib_of(redistribution.source)
            if target in process_ribs and source is not None:
                self._redistributions.append(
                    (redistribution, *source, process_ribs[target], process_stamps[target])
                )
        self._igp = [
            (
                direction.edge,
                process_ribs[direction.src],
                process_stamps[direction.src],
                process_ribs[direction.dst],
                process_stamps[direction.dst],
                direction.via,
                direction.filters,
                direction.increment,
            )
            for subnet, forward, backward in table.igp
            if subnet is not None
            and subnet not in failed_subnets
            and forward.src in process_ribs
            and forward.dst in process_ribs
            for direction in (forward, backward)
        ]
        self._bgp = [
            (
                session,
                process_ribs[session.src],
                process_stamps[session.src],
                process_ribs[session.dst],
                process_stamps[session.dst],
            )
            for session in table.bgp
            if session.src in process_ribs and session.dst in process_ribs
        ]

    def _rib_of(self, key: Optional[ProcessKey]) -> Optional[Tuple[Rib, _Stamps]]:
        """A live process or local RIB with its stamps; ``None`` for no key
        or a RIB that does not exist (an edge from it never sends)."""
        if key is None:
            return None
        if key[1] == LOCAL_RIB:
            if key[0] not in self.local_ribs:
                return None
            return self.local_ribs[key[0]], self._local_stamps[key[0]]
        if key not in self.process_ribs:
            return None
        return self.process_ribs[key], self._process_stamps[key]

    def _install(self, rib: Rib, stamps: _Stamps, route: Route) -> bool:
        """Install *route* if it beats the entry for its prefix; stamp it.

        Only a strictly better preference key replaces an entry (an equal
        route has an equal key), so re-offering a route this RIB already
        saw never changes it.
        """
        prefix = route.prefix
        current = rib.get(prefix)
        if current is not None and not route.rank < current.rank:
            return False
        rib[prefix] = route
        self._clock += 1
        stamps[prefix] = stamps.latest = self._clock
        return True

    def _fresh(self, edge: int, rib: Rib, stamps: _Stamps) -> List[Route]:
        """The routes of *rib* stamped after *edge*'s mark, in *rib*'s order.

        Moves the mark to now, before the edge installs anything, so
        whatever it installs into its own source is sent next round.
        """
        mark = self._marks[edge]
        if stamps.latest <= mark:
            return []
        self._marks[edge] = self._clock
        return [
            route
            for route, stamp in zip(rib.values(), stamps.values())
            if stamp > mark
        ]

    # -- propagation steps -----------------------------------------------------

    def _redistribution_step(self) -> bool:
        changed = False
        for redistribution, src_rib, src_stamps, rib, stamps in self._redistributions:
            routes = self._fresh(redistribution.edge, src_rib, src_stamps)
            if redistribution.only is not None:
                routes = [r for r in routes if r.protocol == redistribution.only]
            if routes:
                changed |= self._redistribute(redistribution, routes, rib, stamps)
        return changed

    def _redistribute(
        self, redist: _Redistribution, routes: List[Route], rib: Rib, stamps: _Stamps
    ) -> bool:
        changed = False
        config = redist.config
        for route in routes:
            moved = route
            if redist.route_map is not None:
                moved = apply_route_map(
                    redist.route_map,
                    config.access_lists,
                    moved,
                    prefix_lists=config.prefix_lists,
                    community_lists=config.community_lists,
                )
                if moved is None:
                    continue
            moved = replace(
                moved,
                protocol=redist.protocol,
                redistributed=True,
                via_ibgp=False,
                from_rr_client=False,
                metric=redist.metric if redist.metric is not None else moved.metric,
                tag=redist.tag if redist.tag is not None else moved.tag,
            )
            # OSPF summary-address: redistributed routes inside a configured
            # summary enter as the summary instead.
            for summary in redist.summaries:
                if summary.contains(moved.prefix) and (
                    moved.prefix.length > summary.length
                ):
                    moved = replace(moved, prefix=summary)
                    break
            changed |= self._install(rib, stamps, moved)
        return changed

    def _igp_exchange_step(self) -> bool:
        """Every live IGP direction sends its fresh routes, priced first.

        A route's advanced copy is built only when its preference key with
        the increment added strictly beats the installed entry's (see the
        module docstring); the distribute-list ACLs run only on such a
        route.  Both tests are pure, so their order changes nothing.
        """
        changed = False
        marks = self._marks
        for edge, src_rib, src_stamps, rib, stamps, via, filters, increment in self._igp:
            mark = marks[edge]
            if src_stamps.latest <= mark:
                continue
            marks[edge] = clock = self._clock
            lookup = rib.get
            for route, stamp in zip(src_rib.values(), src_stamps.values()):
                if stamp <= mark:
                    continue
                distance, local_pref, path_length, metric = route.rank
                current = lookup(route.prefix)
                if current is not None and not (
                    (distance, local_pref, path_length, metric + increment) < current.rank
                ):
                    continue
                if filters and not all(acl_permits_route(acl, route) for acl in filters):
                    continue
                prefix = route.prefix
                rib[prefix] = route.advanced(via, increment)
                clock += 1
                stamps[prefix] = clock
            if clock != self._clock:
                self._clock = stamps.latest = clock
                changed = True
        return changed

    def _bgp_exchange_step(self) -> bool:
        changed = False
        for session, src_rib, src_stamps, rib, stamps in self._bgp:
            routes = self._fresh(session.edge, src_rib, src_stamps)
            if routes:
                changed |= self._bgp_transfer(session, routes, rib, stamps)
        return changed

    def _bgp_transfer(
        self, session: _BgpTransfer, routes: List[Route], rib: Rib, stamps: _Stamps
    ) -> bool:
        """Transfer routes remote → local along one configured session.

        (Each configured ``neighbor`` statement is one direction of a
        peering; the reverse direction is the peer's own statement.)

        IBGP re-advertisement follows the full-mesh rule with route
        reflection (RFC 4456): a router re-advertises IBGP-learned routes
        only when it is a reflector — to its clients always, and to
        non-clients when the route was learned *from* a client.
        """
        changed = False
        via = session.src[0]
        sends_communities = session.sends_communities
        dst_config = session.dst_config
        for route in routes:
            if session.ebgp:
                if session.dst_asn in route.as_path:
                    continue  # AS-path loop prevention
                moved = replace(
                    route,
                    as_path=(session.src_asn,) + route.as_path,
                    via_ibgp=False,
                    from_rr_client=False,
                    local_pref=100,  # LOCAL_PREF is not carried across EBGP
                    communities=route.communities if sends_communities else (),
                    via_router=via,
                )
            else:
                if route.via_ibgp and not (
                    session.src_treats_dst_as_client or route.from_rr_client
                ):
                    continue  # full-mesh rule, no reflection applies
                moved = replace(
                    route,
                    via_ibgp=True,
                    via_router=via,
                    from_rr_client=session.dst_treats_src_as_client,
                    communities=route.communities if sends_communities else (),
                )
            if session.in_acl is not None and not acl_permits_route(session.in_acl, moved):
                continue
            if session.in_plist is not None and not prefix_list_permits_route(
                session.in_plist, moved
            ):
                continue
            if session.in_map is not None:
                moved = apply_route_map(
                    session.in_map,
                    dst_config.access_lists,
                    moved,
                    prefix_lists=dst_config.prefix_lists,
                    community_lists=dst_config.community_lists,
                )
                if moved is None:
                    continue
            changed |= self._install(rib, stamps, moved)
        return changed

    def _selection_step(self) -> None:
        """Each live router's RIB: the best route per prefix over its local
        RIB, then its processes' RIBs in ``network.processes`` order.

        A local RIB holds one route per prefix, so it copies as is; a
        process route replaces an entry only with a strictly better key.
        """
        router_processes = self._table.router_processes
        for name, local in self.local_ribs.items():
            best: Rib = dict(local)
            for key in router_processes[name]:
                for prefix, route in self.process_ribs[key].items():
                    current = best.get(prefix)
                    if current is None or route.rank < current.rank:
                        best[prefix] = route
            self.router_ribs[name] = best

    # -- driver ------------------------------------------------------------------

    def run(
        self, max_iterations: int = 1000, on_divergence: str = "raise"
    ) -> "RoutingSimulation":
        """Propagate to fixpoint.  Returns self for chaining.

        ``on_divergence`` picks what a failure to converge within
        *max_iterations* does: ``"raise"`` (the default) raises
        ``RuntimeError``; ``"degrade"`` selects best routes from the
        RIBs as they stand, marks the simulation :attr:`diverged`, and
        returns normally — queries work, :attr:`converged` is False,
        and callers (the failure sweep, survivability what-ifs) report
        a diagnostic row instead of aborting the whole analysis.
        """
        if on_divergence not in ("raise", "degrade"):
            raise ValueError(f"unknown on_divergence policy {on_divergence!r}")
        self._diverged = False
        self._seed()
        for iteration in range(max_iterations):
            changed = self._redistribution_step()
            changed |= self._igp_exchange_step()
            changed |= self._bgp_exchange_step()
            if not changed:
                self._iterations = iteration + 1
                break
        else:
            if on_divergence == "raise":
                raise RuntimeError(f"no convergence after {max_iterations} iterations")
            self._diverged = True
            self._iterations = max_iterations
        self._selection_step()
        self._ran = True
        return self

    @property
    def iterations(self) -> int:
        return self._iterations

    @property
    def converged(self) -> bool:
        """True when :meth:`run` reached a fixpoint."""
        return self._ran and not self._diverged

    @property
    def diverged(self) -> bool:
        """True when :meth:`run` gave up after *max_iterations* (degrade mode)."""
        return self._diverged

    def _require_converged(self) -> None:
        if not self._ran:
            raise RuntimeError("call run() before querying the simulation")

    # -- queries -------------------------------------------------------------------

    def process_route_count(self, key: ProcessKey) -> int:
        """How many routes a routing process has to handle (§3.1)."""
        self._require_converged()
        return len(self.process_ribs.get(key, {}))

    def router_rib(self, router: str) -> Rib:
        self._require_converged()
        return self.router_ribs.get(router, {})

    def lookup(self, router: str, destination: Union[str, IPv4Address]) -> Optional[Route]:
        """Longest-prefix-match lookup in a router's RIB."""
        self._require_converged()
        if isinstance(destination, str):
            destination = IPv4Address(destination)
        best: Optional[Route] = None
        for prefix, route in self.router_ribs.get(router, {}).items():
            if prefix.contains_address(destination):
                if best is None or prefix.length > best.prefix.length:
                    best = route
        return best

    def can_reach(self, router: str, destination: Union[str, IPv4Address]) -> bool:
        return self.lookup(router, destination) is not None

    def reachable_destinations(self, router: str) -> List[Prefix]:
        """All destination prefixes in a router's RIB, sorted."""
        self._require_converged()
        return sorted(self.router_ribs.get(router, {}))

    def trace(
        self, router: str, destination: Union[str, IPv4Address], max_hops: int = 64
    ) -> List[str]:
        """Follow ``via_router`` next hops toward a destination.

        Returns the list of routers visited (starting with *router*).  The
        walk stops when a router owns the destination (connected route), has
        no route, or a loop/max-hops is hit.
        """
        self._require_converged()
        if isinstance(destination, str):
            destination = IPv4Address(destination)
        path = [router]
        current = router
        for _hop in range(max_hops):
            route = self.lookup(current, destination)
            if route is None:
                break
            if route.via_router is None or route.via_router == current:
                break
            if route.via_router in path:
                path.append(route.via_router)
                break
            path.append(route.via_router)
            current = route.via_router
        return path
