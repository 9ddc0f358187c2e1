"""Network-level model assembled from per-router configurations.

:mod:`repro.ios` models a single configuration file; this package assembles
the files of one network into the router-level model of §2 of the paper:

* logical IP **links** inferred by matching interfaces with the same subnet
  (§2.1),
* classification of interfaces as internal- or external-facing (§2.1, §5.2),
* **routing processes** with their covered interfaces, and the
  **adjacencies** between processes on different routers (§2.2),
* the **routing instances** those adjacencies connect (§3.2,
  :mod:`repro.model.instances`), cached as ``Network.instances``.

The routing-design abstractions of §3 are built on top of this model by
:mod:`repro.core`.
"""

from repro.model.links import Link, LinkEnd, infer_links
from repro.model.network import Network, Router
from repro.model.processes import (
    LOCAL_RIB,
    ProcessKey,
    RoutingProcess,
    process_key,
)

__all__ = [
    "LOCAL_RIB",
    "Link",
    "LinkEnd",
    "Network",
    "ProcessKey",
    "Router",
    "RoutingProcess",
    "infer_links",
    "process_key",
]
