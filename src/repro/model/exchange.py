"""The route-exchange relation: which RIB feeds which, across processes.

Besides IGP adjacency and route selection, the process graph of §3.1
joins RIBs by three kinds of route exchange, and the instance graph
(§3.2), reachability (§6.2), the survivability couplings (§8.1) and the
design classification all reason over exactly those edges, seen through
instance membership.  :func:`build_route_exchange` computes them once
per network (``Network.route_exchange``) as one ordered table of
records:

* :class:`Redistribution` — a ``redistribute`` statement: source RIB →
  process, the source chosen by
  :func:`~repro.model.processes.redistribute_source`;
* :class:`Peering` — two in-network BGP processes joined by a resolved
  session, EBGP or IBGP, with the session configured at each end;
* :class:`ExternalExchange` — a process trading routes with the world
  outside the data set: over an unresolved BGP session, or as an IGP
  process that actively covers an external-facing interface.

The order is canonical, so no projection depends on the order configs
were ingested in: every redistribution, then every BGP session record,
then every external IGP; within each, routers by name, each router's
processes in ``processes_on`` order and its ``neighbor`` statements in
config order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.ios.config import RedistributeConfig
from repro.model.processes import ProcessKey, redistribute_source

if TYPE_CHECKING:
    from repro.model.network import BgpSession, Network


@dataclass(frozen=True)
class Redistribution:
    """Routes flow from ``source`` (a process or the local RIB) into ``target``."""

    source: ProcessKey
    target: ProcessKey
    statement: RedistributeConfig

    @property
    def router(self) -> str:
        return self.target[0]


@dataclass(frozen=True)
class Peering:
    """Two in-network BGP processes joined by a configured session.

    ``session`` is the pair's first session in table order (its ``local``
    end is the pair's local end); ``reverse`` is the first session
    configured back from the remote end, ``None`` when the peering is
    one-sided.
    """

    session: "BgpSession"
    reverse: Optional["BgpSession"]

    @property
    def local(self) -> ProcessKey:
        return self.session.local

    @property
    def remote(self) -> ProcessKey:
        return self.session.remote_key

    @property
    def is_ebgp(self) -> bool:
        return self.session.is_ebgp


@dataclass(frozen=True)
class ExternalExchange:
    """``process`` trades routes with the world outside the data set.

    Either over ``session``, a BGP session whose peer is not in the data
    set, or, for an IGP process, through ``interface``: the first
    external-facing interface it actively covers.
    """

    process: ProcessKey
    session: Optional["BgpSession"] = None
    interface: Optional[str] = None


ExchangeRecord = Union[Redistribution, Peering, ExternalExchange]


def build_route_exchange(network: "Network") -> Tuple[ExchangeRecord, ...]:
    """The route-exchange table of *network*, in canonical order."""
    sessions_of: Dict[str, List["BgpSession"]] = {}
    for session in network.bgp_sessions:
        sessions_of.setdefault(session.local[0], []).append(session)
    redistributions: List[ExchangeRecord] = []
    external_igps: List[ExchangeRecord] = []
    sessions: List["BgpSession"] = []
    for router in sorted(network.routers):
        processes = network.processes_on(router)
        keys = [proc.key for proc in processes]
        for proc in processes:
            for statement in proc.config.redistributes:
                source = redistribute_source(router, statement, keys)
                if source is not None:
                    redistributions.append(Redistribution(source, proc.key, statement))
            if proc.is_bgp:
                continue
            for name in proc.active_interfaces():
                if network.is_external_interface(router, name):
                    external_igps.append(ExternalExchange(proc.key, interface=name))
                    break
        sessions.extend(sessions_of.get(router, ()))

    first: Dict[Tuple[ProcessKey, ProcessKey], "BgpSession"] = {}
    for session in sessions:
        if session.remote_key is not None:
            first.setdefault((session.local, session.remote_key), session)
    records = redistributions
    paired = set()
    for session in sessions:
        if session.remote_key is None:
            records.append(ExternalExchange(session.local, session=session))
            continue
        pair = frozenset((session.local, session.remote_key))
        if pair not in paired:
            paired.add(pair)
            reverse = first.get((session.remote_key, session.local))
            records.append(Peering(session, reverse))
    records.extend(external_igps)
    return tuple(records)
