"""Reference routing fixpoint: every route over every edge, every round.

The naive loop the semi-naive :class:`~repro.routing.RoutingSimulation`
replaced, kept for the differential tests only, with ``Route.advanced``
spelled out as the ``dataclasses.replace`` call it was.  Each round it
re-sends every route of every source RIB over every ``redistribute``
statement, IGP adjacency direction and BGP session, so it needs no
stamps or marks; it re-derives every edge's constants from the
configuration each round, builds every advanced route before comparing
it, and decides installs by :func:`reference_key`, recomputed from the
route's fields — never by the key a ``Route`` stores — so a stale stored
key cannot fool the engine and the reference alike.  It reuses the
engine's constructor and queries, and nothing of its propagation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional, Tuple

from repro.model.network import BgpSession
from repro.model.processes import ProcessKey
from repro.net import Prefix
from repro.routing import ADMIN_DISTANCE, RoutingSimulation
from repro.routing.engine import Rib
from repro.routing.policy import (
    acl_permits_route,
    apply_route_map,
    prefix_list_permits_route,
)
from repro.routing.route import Route


def reference_key(route: Route) -> Tuple[int, int, int, int]:
    """A route's preference key, from its fields alone (lower is better):
    administrative distance, negated LOCAL_PREF for BGP, AS-path length,
    metric."""
    if route.protocol == "bgp":
        distance = ADMIN_DISTANCE["ibgp" if route.via_ibgp else "ebgp"]
    else:
        distance = ADMIN_DISTANCE.get(route.protocol, 255)
    return (
        distance,
        -route.local_pref if route.protocol == "bgp" else 0,
        len(route.as_path),
        route.metric,
    )


class FullResendSimulation(RoutingSimulation):
    """:class:`RoutingSimulation` with the full re-send loop."""

    def _router_up(self, router: str) -> bool:
        return router not in self.failed_routers

    def _subnet_up(self, prefix: Optional[Prefix]) -> bool:
        return prefix is not None and prefix not in self.failed_subnets

    def _seed(self) -> None:
        for key in self.network.processes:
            if self._router_up(key[0]):
                self.process_ribs[key] = {}
        for name, router in self.network.routers.items():
            if not self._router_up(name):
                continue
            rib: Rib = {}
            for iface in router.config.interfaces.values():
                prefix = iface.prefix
                if iface.shutdown or not self._subnet_up(prefix):
                    continue
                self._install(
                    rib, Route(prefix=prefix, protocol="connected", origin_router=name)
                )
            for static in router.config.static_routes:
                self._install(
                    rib,
                    Route(
                        prefix=static.prefix,
                        protocol="static",
                        tag=static.tag,
                        origin_router=name,
                    ),
                )
            self.local_ribs[name] = rib

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
                self._install(
                    self.process_ribs[key],
                    Route(
                        prefix=iface.prefix,
                        protocol=proc.protocol,
                        origin_router=key[0],
                    ),
                )
        for key, proc in self.network.processes.items():
            if key not in self.process_ribs or key[1] != "ospf":
                continue
            if getattr(proc.config, "default_information_originate", False):
                self._install(
                    self.process_ribs[key],
                    Route(
                        prefix=Prefix(0, 0),
                        protocol="ospf",
                        redistributed=True,
                        origin_router=key[0],
                    ),
                )
        for key, proc in self.network.processes.items():
            if not self._router_up(key[0]) or not proc.is_bgp:
                continue
            for statement in proc.config.networks:
                self._install(
                    self.process_ribs[key],
                    Route(
                        prefix=statement.prefix(),
                        protocol="bgp",
                        origin_router=key[0],
                    ),
                )

    @staticmethod
    def _install(rib: Rib, route: Route) -> bool:
        existing = rib.get(route.prefix)
        if existing is None or (
            reference_key(route) < reference_key(existing) and route != existing
        ):
            rib[route.prefix] = route
            return True
        return False

    def _redistribution_step(self) -> bool:
        changed = False
        for key, proc in self.network.processes.items():
            if key not in self.process_ribs:
                continue
            router_name = key[0]
            config = self.network.routers[router_name].config
            for redist in proc.config.redistributes:
                for route in list(self._redistribution_source_routes(key, redist)):
                    moved = route
                    if redist.route_map is not None:
                        route_map = config.route_maps.get(redist.route_map)
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
                    summaries = getattr(proc.config, "summary_addresses", None)
                    if summaries:
                        for summary in summaries:
                            if summary.contains(moved.prefix) and (
                                moved.prefix.length > summary.length
                            ):
                                moved = replace(moved, prefix=summary)
                                break
                    changed |= self._install(self.process_ribs[key], moved)
        return changed

    def _redistribution_source_routes(self, key: ProcessKey, redist) -> Iterable[Route]:
        router_name = key[0]
        source_protocol = redist.source_protocol
        if source_protocol in ("connected", "static"):
            rib = self.local_ribs.get(router_name, {})
            return [r for r in rib.values() if r.protocol == source_protocol]
        if source_protocol == "rip":
            source_key = (router_name, "rip", None)
        else:
            source_key = (router_name, source_protocol, redist.source_id)
            if source_key not in self.process_ribs and redist.source_id is None:
                for candidate in self.process_ribs:
                    if candidate[0] == router_name and candidate[1] == source_protocol:
                        source_key = candidate
                        break
        return list(self.process_ribs.get(source_key, {}).values())

    def _igp_exchange_step(self) -> bool:
        changed = False
        for key_a, key_b, link in self.network.igp_adjacencies:
            if not self._subnet_up(link.subnet):
                continue
            if key_a not in self.process_ribs or key_b not in self.process_ribs:
                continue
            interfaces = {end.router: end.interface for end in link.ends}
            changed |= self._igp_transfer(key_a, key_b, interfaces)
            changed |= self._igp_transfer(key_b, key_a, interfaces)
        return changed

    def _igp_transfer(
        self, src: ProcessKey, dst: ProcessKey, link_interfaces: Dict[str, str]
    ) -> bool:
        changed = False
        src_proc = self.network.processes[src]
        dst_proc = self.network.processes[dst]
        src_config = self.network.routers[src[0]].config
        dst_config = self.network.routers[dst[0]].config
        src_iface = link_interfaces.get(src[0])
        dst_iface = link_interfaces.get(dst[0])
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
        increment = 1
        if dst_proc.protocol == "ospf" and dst_iface is not None:
            iface = dst_config.interfaces.get(dst_iface)
            if iface is not None and iface.bandwidth_kbit:
                increment = max(1, 100_000 // iface.bandwidth_kbit)
        for route in list(self.process_ribs[src].values()):
            if any(acl is not None and not acl_permits_route(acl, route) for acl in out_acls):
                continue
            if any(acl is not None and not acl_permits_route(acl, route) for acl in in_acls):
                continue
            advanced = replace(route, metric=route.metric + increment, via_router=src[0])
            changed |= self._install(self.process_ribs[dst], advanced)
        return changed

    def _bgp_exchange_step(self) -> bool:
        changed = False
        for session in self.network.bgp_sessions:
            if session.remote_key is None:
                continue
            if session.local not in self.process_ribs or session.remote_key not in self.process_ribs:
                continue
            changed |= self._bgp_transfer(session)
        return changed

    def _bgp_transfer(self, session: BgpSession) -> bool:
        changed = False
        src, dst = session.remote_key, session.local
        is_ebgp = session.is_ebgp
        src_asn, dst_asn = src[2], dst[2]
        dst_config = self.network.routers[dst[0]].config
        bgp = dst_config.bgp_process
        nbr = bgp.neighbor(str(session.neighbor_address)) if bgp else None
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
        for route in list(self.process_ribs[src].values()):
            if is_ebgp:
                if dst_asn in route.as_path:
                    continue
                moved = replace(
                    route,
                    as_path=(src_asn,) + route.as_path,
                    via_ibgp=False,
                    from_rr_client=False,
                    local_pref=100,
                    communities=route.communities if sends_communities else (),
                    via_router=src[0],
                )
            else:
                if route.via_ibgp and not (
                    src_treats_dst_as_client or route.from_rr_client
                ):
                    continue
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
            changed |= self._install(self.process_ribs[dst], moved)
        return changed

    def _selection_step(self) -> None:
        for name in self.local_ribs:
            best: Rib = {}
            for route in self.local_ribs[name].values():
                self._install(best, route)
            for key, rib in self.process_ribs.items():
                if key[0] != name:
                    continue
                for route in rib.values():
                    self._install(best, route)
            self.router_ribs[name] = best

    def run(
        self, max_iterations: int = 1000, on_divergence: str = "raise"
    ) -> "FullResendSimulation":
        if on_divergence not in ("raise", "degrade"):
            raise ValueError(f"unknown on_divergence policy {on_divergence!r}")
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


def state(simulation: RoutingSimulation) -> dict:
    """Everything a run leaves behind, with every RIB's insertion order."""

    def ordered(ribs):
        return [(owner, list(rib.items())) for owner, rib in ribs.items()]

    return {
        "process": ordered(simulation.process_ribs),
        "local": ordered(simulation.local_ribs),
        "router": ordered(simulation.router_ribs),
        "iterations": simulation.iterations,
        "converged": simulation.converged,
        "diverged": simulation.diverged,
    }
