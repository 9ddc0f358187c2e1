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
"""

from __future__ import annotations

import difflib
from dataclasses import replace
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.model.network import BgpSession, Network
from repro.model.processes import ProcessKey
from repro.net import IPv4Address, Prefix
from repro.routing.policy import (
    acl_permits_route,
    apply_route_map,
    prefix_list_permits_route,
)
from repro.routing.route import Route

#: A RIB: best route per prefix.
Rib = Dict[Prefix, Route]

LOCAL = "local"


class _Stamps(dict):
    """One RIB's install stamps, prefix -> stamp, in the RIB's own order.

    Both dicts gain a key only together and never lose one, so their
    value views stay aligned.  ``latest`` is the newest stamp.
    """

    __slots__ = ("latest",)

    def __init__(self) -> None:
        super().__init__()
        self.latest = 0


#: The stamps of a RIB that does not exist: nothing is ever new in it.
_NO_STAMPS = _Stamps()


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
    ):
        self.network = network
        self.failed_routers: Set[str] = set(failed_routers)
        self.failed_subnets: Set[Prefix] = {
            Prefix(subnet) if isinstance(subnet, str) else subnet
            for subnet in failed_subnets
        }
        if validate:
            self._validate_failures()
        self.process_ribs: Dict[ProcessKey, Rib] = {}
        self.local_ribs: Dict[str, Rib] = {}
        self.router_ribs: Dict[str, Rib] = {}
        self._process_stamps: Dict[ProcessKey, _Stamps] = {}
        self._local_stamps: Dict[str, _Stamps] = {}
        self._clock = 0
        self._marks: Dict[Hashable, int] = {}
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

    # -- failure predicates --------------------------------------------------

    def _router_up(self, router: str) -> bool:
        return router not in self.failed_routers

    def _subnet_up(self, prefix: Optional[Prefix]) -> bool:
        return prefix is not None and prefix not in self.failed_subnets

    # -- seeding ---------------------------------------------------------------

    def _seed(self) -> None:
        self._clock = 0
        self._marks = {}
        for key in self.network.processes:
            if self._router_up(key[0]):
                self.process_ribs[key] = {}
                self._process_stamps[key] = _Stamps()
        for name, router in self.network.routers.items():
            if not self._router_up(name):
                continue
            rib: Rib = {}
            stamps = _Stamps()
            for iface in router.config.interfaces.values():
                prefix = iface.prefix
                if iface.shutdown or not self._subnet_up(prefix):
                    continue
                self._install(
                    rib,
                    stamps,
                    Route(prefix=prefix, protocol="connected", origin_router=name),
                )
            for static in router.config.static_routes:
                self._install(
                    rib,
                    stamps,
                    Route(
                        prefix=static.prefix,
                        protocol="static",
                        tag=static.tag,
                        origin_router=name,
                    ),
                )
            self.local_ribs[name] = rib
            self._local_stamps[name] = stamps

        # Origination: IGP processes originate their covered subnets.
        for key, proc in self.network.processes.items():
            if not self._router_up(key[0]) or proc.is_bgp:
                continue
            router = self.network.routers[key[0]]
            for iface_name in proc.covered_interfaces:
                iface = router.config.interfaces.get(iface_name)
                if iface is None or iface.shutdown:
                    continue
                if not self._subnet_up(iface.prefix):
                    continue
                self._originate(
                    key,
                    Route(
                        prefix=iface.prefix,
                        protocol=proc.protocol,
                        origin_router=key[0],
                    ),
                )
        # OSPF "default-information originate": the process injects a
        # default route (as IOS does when the router has one; we always
        # inject — the "always" variant — which is the common design use).
        for key, proc in self.network.processes.items():
            if key not in self.process_ribs or key[1] != "ospf":
                continue
            if getattr(proc.config, "default_information_originate", False):
                self._originate(
                    key,
                    Route(
                        prefix=Prefix(0, 0),
                        protocol="ospf",
                        redistributed=True,
                        origin_router=key[0],
                    ),
                )
        # BGP network statements originate unconditionally (simplification:
        # IOS requires an IGP/connected route to exist first).
        for key, proc in self.network.processes.items():
            if not self._router_up(key[0]) or not proc.is_bgp:
                continue
            for statement in proc.config.networks:
                self._originate(
                    key,
                    Route(
                        prefix=statement.prefix(),
                        protocol="bgp",
                        origin_router=key[0],
                    ),
                )

    def _originate(self, key: ProcessKey, route: Route) -> bool:
        return self._install(self.process_ribs[key], self._process_stamps[key], route)

    def _install(self, rib: Rib, stamps: Optional[_Stamps], route: Route) -> bool:
        """Install *route* if it beats the entry for its prefix; stamp it.

        Only a strictly better preference key replaces an entry (an equal
        route has an equal key), so re-offering a route this RIB already
        saw never changes it.  *stamps* is ``None`` for the router RIBs
        that selection builds, which nothing reads from.
        """
        prefix = route.prefix
        if not route.better_than(rib.get(prefix)):
            return False
        rib[prefix] = route
        if stamps is not None:
            self._clock += 1
            stamps[prefix] = self._clock
            stamps.latest = self._clock
        return True

    def _fresh(self, edge: Hashable, rib: Rib, stamps: _Stamps) -> List[Route]:
        """The routes of *rib* stamped after *edge*'s mark, in *rib*'s order.

        Moves the mark to now, before the edge installs anything, so
        whatever it installs into its own source is sent next round.
        """
        mark = self._marks.get(edge, 0)
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
        for key, proc in self.network.processes.items():
            if key not in self.process_ribs:
                continue
            for index, redist in enumerate(proc.config.redistributes):
                changed |= self._redistribute(key, proc, index, redist)
        return changed

    def _redistribute(self, key: ProcessKey, proc, index: int, redist) -> bool:
        routes = self._fresh(
            ("redistribute", key, index), *self._redistribution_source(key, redist)
        )
        if redist.source_protocol in ("connected", "static"):
            routes = [r for r in routes if r.protocol == redist.source_protocol]
        if not routes:
            return False
        changed = False
        config = self.network.routers[key[0]].config
        route_map = (
            config.route_maps.get(redist.route_map) if redist.route_map is not None else None
        )
        # OSPF summary-address: redistributed routes inside a configured
        # summary enter as the summary instead.
        summaries = getattr(proc.config, "summary_addresses", None)
        rib, stamps = self.process_ribs[key], self._process_stamps[key]
        for route in routes:
            moved = route
            if route_map is not None:
                moved = apply_route_map(
                    route_map,
                    config.access_lists,
                    moved,
                    prefix_lists=config.prefix_lists,
                    community_lists=config.community_lists,
                )
                if moved is None:
                    continue
            moved = replace(
                moved,
                protocol="bgp" if proc.is_bgp else proc.protocol,
                redistributed=True,
                via_ibgp=False,
                from_rr_client=False,
                metric=redist.metric if redist.metric is not None else moved.metric,
                tag=redist.tag if redist.tag is not None else moved.tag,
            )
            if summaries:
                for summary in summaries:
                    if summary.contains(moved.prefix) and (
                        moved.prefix.length > summary.length
                    ):
                        moved = replace(moved, prefix=summary)
                        break
            changed |= self._install(rib, stamps, moved)
        return changed

    def _redistribution_source(self, key: ProcessKey, redist) -> Tuple[Rib, _Stamps]:
        """The RIB a ``redistribute`` statement reads, with its stamps."""
        router_name = key[0]
        source_protocol = redist.source_protocol
        if source_protocol in ("connected", "static"):
            return (
                self.local_ribs.get(router_name, {}),
                self._local_stamps.get(router_name, _NO_STAMPS),
            )
        if source_protocol == "rip":
            source_key = (router_name, "rip", None)
        else:
            source_key = (router_name, source_protocol, redist.source_id)
            if source_key not in self.process_ribs and redist.source_id is None:
                for candidate in self.process_ribs:
                    if candidate[0] == router_name and candidate[1] == source_protocol:
                        source_key = candidate
                        break
        return (
            self.process_ribs.get(source_key, {}),
            self._process_stamps.get(source_key, _NO_STAMPS),
        )

    def _igp_exchange_step(self) -> bool:
        changed = False
        for index, (key_a, key_b, link) in enumerate(self.network.igp_adjacencies):
            if not self._subnet_up(link.subnet):
                continue
            if key_a not in self.process_ribs or key_b not in self.process_ribs:
                continue
            changed |= self._igp_transfer(("igp", index, 0), key_a, key_b, link)
            changed |= self._igp_transfer(("igp", index, 1), key_b, key_a, link)
        return changed

    def _igp_transfer(self, edge: Hashable, src: ProcessKey, dst: ProcessKey, link) -> bool:
        routes = self._fresh(edge, self.process_ribs[src], self._process_stamps[src])
        if not routes:
            return False
        changed = False
        link_interfaces = {end.router: end.interface for end in link.ends}
        src_proc = self.network.processes[src]
        dst_proc = self.network.processes[dst]
        src_config = self.network.routers[src[0]].config
        dst_config = self.network.routers[dst[0]].config
        src_iface = link_interfaces.get(src[0])
        dst_iface = link_interfaces.get(dst[0])
        # Interface-qualified distribute-lists apply only to routes crossing
        # that interface (the paper's "distribute-list 44 in Serial1/0.5").
        out_acls = [
            src_config.access_lists.get(d.acl)
            for d in src_proc.config.distribute_lists
            if d.direction == "out" and d.interface in (None, src_iface)
        ]
        in_acls = [
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
        rib, stamps = self.process_ribs[dst], self._process_stamps[dst]
        for route in routes:
            if any(acl is not None and not acl_permits_route(acl, route) for acl in out_acls):
                continue
            if any(acl is not None and not acl_permits_route(acl, route) for acl in in_acls):
                continue
            advanced = route.advanced(via_router=src[0], metric_increment=increment)
            changed |= self._install(rib, stamps, advanced)
        return changed

    def _bgp_exchange_step(self) -> bool:
        changed = False
        for index, session in enumerate(self.network.bgp_sessions):
            if session.remote_key is None:
                continue
            if session.local not in self.process_ribs or session.remote_key not in self.process_ribs:
                continue
            changed |= self._bgp_transfer(("bgp", index), session)
        return changed

    def _bgp_transfer(self, edge: Hashable, session: BgpSession) -> bool:
        """Transfer routes remote → local along one configured session.

        (Each configured ``neighbor`` statement is one direction of a
        peering; the reverse direction is the peer's own statement.)

        IBGP re-advertisement follows the full-mesh rule with route
        reflection (RFC 4456): a router re-advertises IBGP-learned routes
        only when it is a reflector — to its clients always, and to
        non-clients when the route was learned *from* a client.
        """
        src, dst = session.remote_key, session.local
        routes = self._fresh(edge, self.process_ribs[src], self._process_stamps[src])
        if not routes:
            return False
        changed = False
        is_ebgp = session.is_ebgp
        src_asn, dst_asn = src[2], dst[2]
        dst_config = self.network.routers[dst[0]].config
        bgp = dst_config.bgp_process
        nbr = bgp.neighbor(str(session.neighbor_address)) if bgp else None
        # Find src's own neighbor statement whose address belongs to dst:
        # it carries src's per-neighbor sending options (route reflection,
        # send-community).
        src_entry_for_dst = None
        src_bgp = self.network.routers[src[0]].config.bgp_process
        if src_bgp is not None:
            for src_nbr in src_bgp.neighbors:
                owner = self.network.address_map.get(src_nbr.address.value)
                if owner is not None and owner[0] == dst[0]:
                    src_entry_for_dst = src_nbr
                    break
        src_treats_dst_as_client = bool(
            src_entry_for_dst is not None
            and not is_ebgp
            and src_entry_for_dst.route_reflector_client
        )
        sends_communities = bool(
            src_entry_for_dst is not None and src_entry_for_dst.send_community
        )
        # Does dst treat src as a client (so routes arriving here count as
        # client-learned when dst reflects them onward)?
        dst_treats_src_as_client = bool(nbr and nbr.route_reflector_client)
        in_acl = (
            dst_config.access_lists.get(nbr.distribute_list_in)
            if nbr and nbr.distribute_list_in
            else None
        )
        in_map = (
            dst_config.route_maps.get(nbr.route_map_in)
            if nbr and nbr.route_map_in
            else None
        )
        in_plist = (
            dst_config.prefix_lists.get(nbr.prefix_list_in)
            if nbr and nbr.prefix_list_in
            else None
        )
        rib, stamps = self.process_ribs[dst], self._process_stamps[dst]
        for route in routes:
            if is_ebgp:
                if dst_asn in route.as_path:
                    continue  # AS-path loop prevention
                moved = replace(
                    route,
                    as_path=(src_asn,) + route.as_path,
                    via_ibgp=False,
                    from_rr_client=False,
                    local_pref=100,  # LOCAL_PREF is not carried across EBGP
                    communities=route.communities if sends_communities else (),
                    via_router=src[0],
                )
            else:
                if route.via_ibgp and not (
                    src_treats_dst_as_client or route.from_rr_client
                ):
                    continue  # full-mesh rule, no reflection applies
                moved = replace(
                    route,
                    via_ibgp=True,
                    via_router=src[0],
                    from_rr_client=dst_treats_src_as_client,
                    communities=route.communities if sends_communities else (),
                )
            if in_acl is not None and not acl_permits_route(in_acl, moved):
                continue
            if in_plist is not None and not prefix_list_permits_route(in_plist, moved):
                continue
            if in_map is not None:
                moved = apply_route_map(
                    in_map,
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
        for name in self.local_ribs:
            best: Rib = {}
            for route in self.local_ribs[name].values():
                self._install(best, None, route)
            for key, rib in self.process_ribs.items():
                if key[0] != name:
                    continue
                for route in rib.values():
                    self._install(best, None, route)
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
