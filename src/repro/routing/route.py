"""Routes and route comparison.

§2.3: "We model a route as an IP subnet address plus some additional
attributes, such as weights or an AS path, that the router may use to
calculate a next-hop to reach that subnet."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.net import Prefix

#: Cisco administrative distances — the route-selection preference order
#: used when several processes offer routes to the same subnet.
ADMIN_DISTANCE = {
    "connected": 0,
    "static": 1,
    "ebgp": 20,
    "eigrp": 90,
    "igrp": 100,
    "ospf": 110,
    "rip": 120,
    "ibgp": 200,
}


@dataclass(frozen=True)
class Route:
    """One route in a RIB.

    ``protocol`` names the protocol whose RIB holds the route; ``source``
    distinguishes EBGP/IBGP-learned BGP routes and redistributed routes for
    selection purposes.  ``via_router`` is the router the route was learned
    from (``None`` for locally originated routes) — enough next-hop
    information for forwarding walks.

    ``rank`` is the route's preference key (see :meth:`preference_key`),
    computed once when the route is built — by the constructor, by
    :func:`dataclasses.replace` (which calls it) and by :meth:`advanced`
    — so comparing two routes compares two stored tuples.  It is not a
    field: equality, hashing, ``repr`` and ``replace`` see only the
    fields below.
    """

    prefix: Prefix
    protocol: str  # connected | static | ospf | eigrp | igrp | rip | bgp
    metric: int = 0
    tag: Optional[int] = None
    local_pref: int = 100  # BGP LOCAL_PREF; higher wins, IBGP-scoped
    as_path: Tuple[int, ...] = ()
    communities: Tuple[str, ...] = ()  # BGP communities (e.g. "65000:100")
    via_router: Optional[str] = None
    via_ibgp: bool = False
    from_rr_client: bool = False
    redistributed: bool = False
    origin_router: Optional[str] = None

    def __post_init__(self) -> None:
        if self.protocol == "bgp":
            distance = ADMIN_DISTANCE["ibgp"] if self.via_ibgp else ADMIN_DISTANCE["ebgp"]
            local_pref = -self.local_pref
        else:
            distance = ADMIN_DISTANCE.get(self.protocol, 255)
            local_pref = 0
        object.__setattr__(
            self, "rank", (distance, local_pref, len(self.as_path), self.metric)
        )

    @property
    def admin_distance(self) -> int:
        return self.rank[0]

    def preference_key(self) -> Tuple[int, int, int, int]:
        """Lower is better.

        Ordering follows the BGP decision process where applicable:
        administrative distance first (cross-protocol), then higher
        LOCAL_PREF (negated), then shorter AS path, then metric.
        LOCAL_PREF is only meaningful for BGP routes; other protocols carry
        the default so it never discriminates between them.
        """
        return self.rank

    def better_than(self, other: Optional["Route"]) -> bool:
        if other is None:
            return True
        return self.rank < other.rank

    def advanced(self, via_router: str, metric_increment: int = 1) -> "Route":
        """The route as seen one IGP hop away.

        Copies the field values instead of calling the constructor, whose
        generated ``__init__`` was most of the simulator's remaining cost:
        only ``metric`` and ``via_router`` change, and the rank only in
        its metric.
        """
        metric = self.metric + metric_increment
        distance, local_pref, path_length, _metric = self.rank
        clone = object.__new__(Route)
        state = clone.__dict__
        state.update(self.__dict__)
        state["metric"] = metric
        state["via_router"] = via_router
        state["rank"] = (distance, local_pref, path_length, metric)
        return clone
