"""Routing simulation substrate.

The paper's analyses are static, but several of the questions it frames —
"how many routes will a routing process have to handle", "what destinations
will be reachable from a particular router under any given failure
scenario" (§3.1), and the survivability "what if" tools of §8.1 — require
actually propagating routes.  This package provides a deliberately small
control-plane simulator over the :class:`repro.model.Network` model:

* per-process RIBs seeded from connected subnets, static routes, and
  ``network`` statements,
* adjacency exchange (IGP flooding with hop metrics; IBGP full-mesh rules;
  EBGP with AS-path loop prevention),
* redistribution with route-map/distribute-list filters and tag setting,
* route selection into the router RIB by administrative distance,
* failure injection (links and routers) for what-if analysis, over one
  :class:`TransferTable` per network that simulations of it can share.
"""

from repro.routing.engine import RoutingSimulation, TransferTable
from repro.routing.route import ADMIN_DISTANCE, Route

__all__ = ["ADMIN_DISTANCE", "Route", "RoutingSimulation", "TransferTable"]
