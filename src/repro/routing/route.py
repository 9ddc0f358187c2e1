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

    @property
    def admin_distance(self) -> int:
        if self.protocol == "bgp":
            return ADMIN_DISTANCE["ibgp"] if self.via_ibgp else ADMIN_DISTANCE["ebgp"]
        return ADMIN_DISTANCE.get(self.protocol, 255)

    def preference_key(self) -> Tuple[int, int, int, int]:
        """Lower is better.

        Ordering follows the BGP decision process where applicable:
        administrative distance first (cross-protocol), then higher
        LOCAL_PREF (negated), then shorter AS path, then metric.
        LOCAL_PREF is only meaningful for BGP routes; other protocols carry
        the default so it never discriminates between them.
        """
        return (
            self.admin_distance,
            -self.local_pref if self.protocol == "bgp" else 0,
            len(self.as_path),
            self.metric,
        )

    def better_than(self, other: Optional["Route"]) -> bool:
        if other is None:
            return True
        return self.preference_key() < other.preference_key()

    def advanced(self, via_router: str, metric_increment: int = 1) -> "Route":
        """The route as seen one IGP hop away.

        Built with the constructor rather than :func:`dataclasses.replace`,
        which costs several times more on the simulator's hottest path.
        """
        return Route(
            prefix=self.prefix,
            protocol=self.protocol,
            metric=self.metric + metric_increment,
            tag=self.tag,
            local_pref=self.local_pref,
            as_path=self.as_path,
            communities=self.communities,
            via_router=via_router,
            via_ibgp=self.via_ibgp,
            from_rr_client=self.from_rr_client,
            redistributed=self.redistributed,
            origin_router=self.origin_router,
        )
