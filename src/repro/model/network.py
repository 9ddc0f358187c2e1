"""The `Network`: all routers of one administrative domain, assembled.

This is the central facade of the model layer.  It is constructed from a
mapping of router name → configuration (text or parsed), and lazily derives:

* the interface/address indexes,
* logical links and external-facing interfaces (§2.1, §5.2 heuristics),
* routing processes with covered interfaces,
* IGP adjacencies and BGP sessions (§2.2 adjacency rules),
* the route-exchange table (:mod:`repro.model.exchange`),
* the routing instances (§3.2, :mod:`repro.model.instances`).
"""

from __future__ import annotations

import hashlib
import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.diag import PHASE_BUILD, DiagnosticSink
from repro.ingest.archive import ArchiveFile, archive_digest, archive_name, read_archive
from repro.ingest.cache import ParseCache
from repro.ingest.parse import check_jobs, check_on_error, parse_stage
from repro.obs.logging import get_logger
from repro.obs.manifest import (
    DISPOSITION_CACHED,
    DISPOSITION_PARSED,
    DISPOSITION_QUARANTINED,
    FileRecord,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import Span, span
from repro.ios.config import InterfaceConfig, RouterConfig
from repro.model.exchange import ExchangeRecord, build_route_exchange
from repro.model.instances import RoutingInstance, compute_instances
from repro.model.links import Link, infer_links
from repro.model.processes import (
    ProcessKey,
    RoutingProcess,
    covered_interface_names,
    process_key,
)
from repro.net import IPv4Address, Prefix, summarize_prefixes

_log = get_logger("model")


@dataclass
class Router:
    """One router: a name plus its parsed configuration.

    ``source`` is the archive file the configuration came from, when known
    — diagnostics use it to point back at the offending file.
    """

    name: str
    config: RouterConfig
    source: Optional[str] = None

    @property
    def interfaces(self) -> Dict[str, InterfaceConfig]:
        return self.config.interfaces


@dataclass
class BgpSession:
    """One configured BGP peering, resolved against the network.

    ``remote_key`` is the peer's process key when the neighbor address
    belongs to a router in the data set; ``None`` means the peer is outside
    the network (or its configuration is missing from the data set).
    """

    local: ProcessKey
    neighbor_address: IPv4Address
    remote_as: Optional[int]
    remote_key: Optional[ProcessKey] = None
    remote_router: Optional[str] = None

    @property
    def local_as(self) -> int:
        return self.local[2]

    @property
    def is_ebgp(self) -> bool:
        """EBGP = the peer's AS differs from the local AS.

        A resolved session compares the two processes' ASNs, so an end
        whose ``neighbor`` statement omits ``remote-as`` still agrees
        with the other end; an unresolved one reads ``remote-as``.
        """
        if self.remote_key is not None:
            return self.remote_key[2] != self.local_as
        return self.remote_as is not None and self.remote_as != self.local_as

    @property
    def is_resolved(self) -> bool:
        return self.remote_key is not None

    @property
    def crosses_network_boundary(self) -> bool:
        """True when the peer is not part of this network's data set."""
        return self.remote_key is None


def _file_record(
    path: str, data: bytes, disposition: str, router: Optional[str] = None
) -> FileRecord:
    return FileRecord(
        path=path,
        size=len(data),
        sha256=hashlib.sha256(data).hexdigest(),
        disposition=disposition,
        router=router,
    )


def _record_ingest_observations(
    name: str, sink: DiagnosticSink, inventory: List[FileRecord]
) -> None:
    """Fold one ingestion run's accounting into the metrics registry."""
    metrics = get_registry()
    dispositions: Dict[str, int] = {}
    for record in inventory:
        dispositions[record.disposition] = dispositions.get(record.disposition, 0) + 1
    for disposition, count in sorted(dispositions.items()):
        metrics.counter(f"ingest.files.{disposition}").inc(count)
    for severity, count in sink.counts().items():
        if count:
            metrics.counter("diag.count", severity=severity).inc(count)
    _log.info(
        "archive ingested",
        archive=name,
        files=len(inventory),
        **{disposition: count for disposition, count in sorted(dispositions.items())},
    )


class Network:
    """A set of routers forming one network, with derived routing structure.

    All derived structure is computed once on first access and cached; the
    model is treated as immutable after construction (matching the paper's
    setting of analyzing a static snapshot).

    Networks built through :meth:`from_configs`/:meth:`from_directory`
    carry the ingestion run's :class:`repro.diag.DiagnosticSink` as
    ``diagnostics``, the list of files that could not be ingested at
    all as ``quarantined``, the ingestion's stage spans as
    ``ingest_stages`` and, when read from bytes, their ``digest``.
    """

    def __init__(
        self,
        routers: Iterable[Router],
        name: str = "network",
        *,
        diagnostics: Optional[DiagnosticSink] = None,
        quarantined: Optional[Iterable[str]] = None,
        on_duplicate: str = "error",
        inventory: Optional[Iterable[FileRecord]] = None,
        ingest_stages: Iterable[Span] = (),
        digest: Optional[str] = None,
    ):
        if on_duplicate not in ("error", "rename"):
            raise ValueError(f"unknown on_duplicate policy: {on_duplicate!r}")
        self.name = name
        self.diagnostics = diagnostics if diagnostics is not None else DiagnosticSink()
        self.quarantined: List[str] = list(quarantined or [])
        #: Per-input-file accounting (path, bytes, SHA-256, disposition) for
        #: networks built by ``from_configs``/``from_directory`` — the run
        #: manifest's inventory.  Empty for hand-assembled networks.
        self.inventory: List[FileRecord] = list(inventory or [])
        #: The ``stage:read``/``stage:parse`` spans of the ingestion that
        #: built this network: wall seconds plus item counts, and on the
        #: parse stage the parse attempts (``parsed``) and cache replays
        #: (``cached``).  Timed whether or not a tracer was active.
        self.ingest_stages: Tuple[Span, ...] = tuple(ingest_stages)
        #: The ``archive_digest`` of the inventory, which keys checkpoints;
        #: ``None`` (never checkpointed) when a router was not read from bytes.
        self.digest = digest
        self.routers: Dict[str, Router] = {}
        for router in routers:
            router_name = router.name
            if router_name in self.routers:
                if on_duplicate == "error":
                    raise ValueError(f"duplicate router name: {router_name}")
                suffix = 2
                while f"{router_name}~{suffix}" in self.routers:
                    suffix += 1
                renamed = f"{router_name}~{suffix}"
                self.diagnostics.warning(
                    PHASE_BUILD,
                    f"duplicate router name {router_name!r} renamed to {renamed!r}",
                    file=router.source,
                    router=renamed,
                )
                router = Router(name=renamed, config=router.config, source=router.source)
            self.routers[router.name] = router
        self._interface_index: Optional[Dict[Tuple[str, str], InterfaceConfig]] = None
        self._address_map: Optional[Dict[int, Tuple[str, str]]] = None
        self._links: Optional[List[Link]] = None
        self._unmatched: Optional[List[Tuple[str, str]]] = None
        self._external: Optional[Set[Tuple[str, str]]] = None
        self._processes: Optional[Dict[ProcessKey, RoutingProcess]] = None
        self._processes_by_router: Optional[Dict[str, List[RoutingProcess]]] = None
        self._igp_adjacencies: Optional[List[Tuple[ProcessKey, ProcessKey, Link]]] = None
        self._bgp_sessions: Optional[List[BgpSession]] = None
        self._route_exchange: Optional[Tuple[ExchangeRecord, ...]] = None
        self._instances: Optional[List[RoutingInstance]] = None
        self._internal_space: Optional[List[Prefix]] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_configs(
        cls,
        configs: Mapping[str, Union[str, RouterConfig]],
        name: str = "network",
        *,
        on_error: str = "strict",
        diagnostics: Optional[DiagnosticSink] = None,
        jobs: Optional[int] = None,
        cache: Union[ParseCache, str, None] = None,
    ) -> "Network":
        """Build a network from a mapping of router name → config text/model.

        Text configs may be Cisco IOS or JunOS dialect (auto-detected).
        ``on_error`` selects the fault policy: ``"strict"`` raises on the
        first malformed statement (historical behavior), ``"skip-block"``
        skips malformed blocks, and ``"skip-file"`` quarantines whole
        files on any parse error.  In the non-strict policies the returned
        network's ``diagnostics``/``quarantined`` describe what was lost.

        ``cache`` is a :class:`repro.ingest.ParseCache` (or directory
        path) that replays previously-parsed files.  Whatever the cache
        state, the resulting routers, diagnostics, and quarantine list
        are identical.  ``jobs`` is still accepted (negative values raise
        :class:`ValueError`) but no longer changes ingestion, which is
        one serial pass.

        Texts are ingested as their UTF-8 bytes, like the files of
        :meth:`from_directory`; a parsed :class:`RouterConfig` passes
        through, and then the network has no ``digest``.
        """
        check_on_error(on_error)
        check_jobs(jobs)
        files = [
            ArchiveFile(key, DiagnosticSink(), value, value.encode("utf-8"))
            if isinstance(value, str)
            else Router(name=key, config=value, source=key)
            for key, value in configs.items()
        ]
        sink = diagnostics if diagnostics is not None else DiagnosticSink()
        return cls._ingest(name, files, on_error, cache, sink)

    @classmethod
    def from_directory(
        cls,
        path: str,
        name: Optional[str] = None,
        *,
        on_error: str = "strict",
        jobs: Optional[int] = None,
        cache: Union[ParseCache, str, None] = None,
    ) -> "Network":
        """Build a network from a directory of config files (``config1`` ...).

        This mirrors the paper's data layout: one directory per network,
        anonymous file names, no meta-data.  The files and the network's
        default name follow the archive rules of
        :mod:`repro.ingest.archive`.  Dialects are auto-detected per file
        (IOS or JunOS) and each file is parsed exactly once.

        Binary or undecodable files are skipped with a diagnostic in every
        ``on_error`` policy; duplicated hostnames raise in ``"strict"``
        and are renamed with a ``~N`` suffix (plus a warning diagnostic)
        otherwise.

        ``jobs`` and ``cache`` behave as in :meth:`from_configs`;
        per-file parse diagnostics are folded back in directory order, so
        the diagnostic stream does not depend on cache hits.
        """
        check_on_error(on_error)
        check_jobs(jobs)
        with span("stage:read") as read:
            files = read_archive(path)
            read.set(items=len(files))
        network_name = name or archive_name(path)
        return cls._ingest(network_name, files, on_error, cache, DiagnosticSink(), read)

    @classmethod
    def _ingest(
        cls,
        name: str,
        files: Sequence[Union[ArchiveFile, Router]],
        on_error: str,
        cache: Union[ParseCache, str, None],
        sink: DiagnosticSink,
        read: Optional[Span] = None,
    ) -> "Network":
        """The ingestion pass behind both constructors, in file order.

        Each file's read rows, then its parse rows, go into ``sink``; a
        strict failure is raised at its file; a file without a config is
        quarantined; every file gets an inventory record.  A router read
        from disk (``read`` is its span) is named by its hostname, else
        its file name's stem; from texts, by its key.  A :class:`Router`
        passes through and leaves the network without a ``digest``.
        """
        texts = [
            (f.name, f.text, f.data)
            for f in files
            if isinstance(f, ArchiveFile) and f.text is not None
        ]
        results, parse = parse_stage(texts, on_error, cache=cache)
        outcomes = iter(results)
        routers: List[Router] = []
        quarantined: List[str] = []
        inventory: List[FileRecord] = []
        for item in files:
            if isinstance(item, Router):
                routers.append(item)
                continue
            entry, raw = item.name, item.data
            sink.merge(item.diagnostics)
            outcome = next(outcomes) if item.text is not None else None
            if outcome is not None:
                sink.merge(outcome.diagnostics)
                if outcome.error is not None:
                    raise outcome.error
            if outcome is None or outcome.config is None:
                inventory.append(_file_record(entry, raw, DISPOSITION_QUARANTINED))
                quarantined.append(entry)
                continue
            config = outcome.config
            router_name = entry
            if read is not None:  # an archive's file names are anonymous
                router_name = config.hostname or os.path.splitext(entry)[0]
                if not config.hostname:
                    message = f"no hostname; router named after file {entry!r}"
                    sink.info(PHASE_BUILD, message, file=entry, router=router_name)
            disposition = DISPOSITION_CACHED if outcome.cached else DISPOSITION_PARSED
            inventory.append(_file_record(entry, raw, disposition, router=router_name))
            routers.append(Router(name=router_name, config=config, source=entry))
        _record_ingest_observations(name, sink, inventory)
        from_bytes = all(isinstance(item, ArchiveFile) for item in files)
        return cls(
            routers,
            name=name,
            diagnostics=sink,
            quarantined=quarantined,
            on_duplicate="error" if on_error == "strict" else "rename",
            inventory=inventory,
            ingest_stages=(parse,) if read is None else (read, parse),
            digest=archive_digest((r.path, r.sha256) for r in inventory) if from_bytes else None,
        )

    # -- indexes -----------------------------------------------------------

    @property
    def interface_index(self) -> Dict[Tuple[str, str], InterfaceConfig]:
        """``(router, interface name)`` → parsed interface."""
        if self._interface_index is None:
            index = {}
            for router in self.routers.values():
                for iface in router.interfaces.values():
                    index[(router.name, iface.name)] = iface
            self._interface_index = index
        return self._interface_index

    @property
    def address_map(self) -> Dict[int, Tuple[str, str]]:
        """Interface address (as int) → ``(router, interface name)``."""
        if self._address_map is None:
            addresses: Dict[int, Tuple[str, str]] = {}
            # Sorted + first-wins: on (misconfigured) duplicate addresses
            # the owner must not depend on router ingestion order.
            for (router, name), iface in sorted(self.interface_index.items()):
                if iface.is_numbered and not iface.shutdown:
                    addresses.setdefault(iface.address.value, (router, name))
                for secondary, _mask in iface.secondary_addresses:
                    addresses.setdefault(secondary.value, (router, name))
            self._address_map = addresses
        return self._address_map

    def owns_address(self, address: Union[str, int, IPv4Address]) -> bool:
        if isinstance(address, str):
            address = IPv4Address(address)
        if isinstance(address, IPv4Address):
            address = address.value
        return address in self.address_map

    # -- links and external classification ----------------------------------

    def _ensure_links(self) -> None:
        if self._links is None:
            self._links, self._unmatched = infer_links(self.interface_index)

    @property
    def links(self) -> List[Link]:
        self._ensure_links()
        return self._links

    @property
    def unmatched_interfaces(self) -> List[Tuple[str, str]]:
        """Interfaces whose subnet matched no other in-network interface."""
        self._ensure_links()
        return self._unmatched

    @property
    def internal_address_space(self) -> List[Prefix]:
        """Summarized union of all connected subnets — "inside" addresses."""
        if self._internal_space is None:
            prefixes = [
                iface.prefix
                for iface in self.interface_index.values()
                if iface.is_numbered
            ]
            self._internal_space = summarize_prefixes(prefixes)
        return self._internal_space

    def is_internal_destination(self, prefix: Prefix) -> bool:
        return any(block.contains(prefix) for block in self.internal_address_space)

    @property
    def external_interfaces(self) -> Set[Tuple[str, str]]:
        """Interfaces classified as external-facing.

        Implements the two heuristics of §5.2:

        1. a point-to-point subnet (/30 or longer) whose other usable
           address is absent from the data set is external-facing;
        2. a multipoint subnet (e.g. a /24 Ethernet) may simply connect
           hosts, so it is internal *unless* it is used as the next hop
           toward external destinations (static routes to prefixes outside
           the internal address space, or BGP neighbors with no in-network
           owner) — then an external router must be attached and its
           interfaces are external-facing.
        """
        if self._external is not None:
            return self._external
        external: Set[Tuple[str, str]] = set()
        multipoint_unmatched: List[Tuple[str, str]] = []
        for router, name in self.unmatched_interfaces:
            iface = self.interface_index[(router, name)]
            prefix = iface.prefix
            if prefix is not None and (prefix.length >= 30 or iface.point_to_point):
                external.add((router, name))
            else:
                multipoint_unmatched.append((router, name))

        # Gather next-hop addresses that point at external destinations
        # and that no in-network interface owns, sorted, so each subnet
        # asks one bisect.
        external_next_hops: Set[int] = set()
        for router in self.routers.values():
            for route in router.config.static_routes:
                if route.next_hop is None:
                    continue
                if not self.is_internal_destination(route.prefix):
                    external_next_hops.add(route.next_hop.value)
            bgp = router.config.bgp_process
            if bgp is not None:
                for nbr in bgp.neighbors:
                    external_next_hops.add(nbr.address.value)
        hops = sorted(hop for hop in external_next_hops if hop not in self.address_map)

        def next_hop_rule_fires(subnet: Prefix) -> bool:
            low, high = subnet.span
            index = bisect_left(hops, low)
            return index < len(hops) and hops[index] < high

        for link in self.links:
            if link.may_have_external and next_hop_rule_fires(link.subnet):
                external.update((end.router, end.interface) for end in link.ends)
        for router, name in multipoint_unmatched:
            iface = self.interface_index[(router, name)]
            if iface.prefix is not None and next_hop_rule_fires(iface.prefix):
                external.add((router, name))
        self._external = external
        return external

    def is_external_interface(self, router: str, interface: str) -> bool:
        return (router, interface) in self.external_interfaces

    # -- routing processes ---------------------------------------------------

    @property
    def processes(self) -> Dict[ProcessKey, RoutingProcess]:
        """All routing processes, resolved against their interfaces."""
        if self._processes is None:
            processes: Dict[ProcessKey, RoutingProcess] = {}
            for router in self.routers.values():
                interfaces = list(router.interfaces.values())
                for config in router.config.routing_processes():
                    key = process_key(router.name, config)
                    covered = covered_interface_names(config, interfaces)
                    passive = list(getattr(config, "passive_interfaces", []))
                    processes[key] = RoutingProcess(
                        key=key,
                        config=config,
                        covered_interfaces=covered,
                        passive_interfaces=passive,
                    )
            self._processes = processes
        return self._processes

    def processes_on(self, router: str) -> List[RoutingProcess]:
        """Processes configured on *router*.

        Backed by a per-router index built on first use: analyses that
        consult every router's processes (route pathways, the process
        graph) would otherwise rescan the full process table per router —
        quadratic on large networks.
        """
        if self._processes_by_router is None:
            by_router: Dict[str, List[RoutingProcess]] = {}
            for proc in self.processes.values():
                by_router.setdefault(proc.router, []).append(proc)
            self._processes_by_router = by_router
        return list(self._processes_by_router.get(router, ()))

    # -- adjacencies ---------------------------------------------------------

    @property
    def igp_adjacencies(self) -> List[Tuple[ProcessKey, ProcessKey, Link]]:
        """Adjacent IGP process pairs (§2.2 rule).

        Two IGP processes are adjacent when they run the same protocol, a
        link connects their routers, and each covers (non-passively) its
        interface on that link.
        """
        if self._igp_adjacencies is not None:
            return self._igp_adjacencies
        # Index: (router, interface) -> IGP processes actively covering it.
        covering: Dict[Tuple[str, str], List[RoutingProcess]] = {}
        for proc in self.processes.values():
            if proc.is_bgp:
                continue
            for name in proc.active_interfaces():
                covering.setdefault((proc.router, name), []).append(proc)

        adjacencies: List[Tuple[ProcessKey, ProcessKey, Link]] = []
        seen: Set[Tuple[ProcessKey, ProcessKey]] = set()
        for link in self.links:
            for i, end_a in enumerate(link.ends):
                for end_b in link.ends[i + 1:]:
                    if end_a.router == end_b.router:
                        continue
                    procs_a = covering.get((end_a.router, end_a.interface), [])
                    procs_b = covering.get((end_b.router, end_b.interface), [])
                    for proc_a in procs_a:
                        for proc_b in procs_b:
                            if proc_a.protocol != proc_b.protocol:
                                continue
                            if proc_a.protocol in ("eigrp", "igrp") and (
                                proc_a.process_id != proc_b.process_id
                            ):
                                # EIGRP adjacency requires matching AS numbers
                                # (unlike OSPF, whose process ids are local).
                                continue
                            pair = tuple(sorted((proc_a.key, proc_b.key)))
                            if pair in seen:
                                continue
                            seen.add(pair)
                            adjacencies.append((proc_a.key, proc_b.key, link))
        self._igp_adjacencies = adjacencies
        return adjacencies

    @property
    def bgp_sessions(self) -> List[BgpSession]:
        """All configured BGP peerings, resolved where possible."""
        if self._bgp_sessions is not None:
            return self._bgp_sessions
        sessions: List[BgpSession] = []
        for router in self.routers.values():
            bgp = router.config.bgp_process
            if bgp is None:
                continue
            local_key = process_key(router.name, bgp)
            for nbr in bgp.neighbors:
                session = BgpSession(
                    local=local_key,
                    neighbor_address=nbr.address,
                    remote_as=nbr.remote_as,
                )
                owner = self.address_map.get(nbr.address.value)
                if owner is not None:
                    remote_router = owner[0]
                    remote_bgp = self.routers[remote_router].config.bgp_process
                    if remote_bgp is not None and (
                        nbr.remote_as is None or remote_bgp.asn == nbr.remote_as
                    ):
                        session.remote_key = process_key(remote_router, remote_bgp)
                        session.remote_router = remote_router
                sessions.append(session)
        self._bgp_sessions = sessions
        return sessions

    @property
    def route_exchange(self) -> Tuple[ExchangeRecord, ...]:
        """Which RIB feeds which across processes, in canonical order.

        Redistributions, BGP peerings and exchanges with the external
        world; see :mod:`repro.model.exchange`.
        """
        if self._route_exchange is None:
            self._route_exchange = build_route_exchange(self)
        return self._route_exchange

    @property
    def instances(self) -> List[RoutingInstance]:
        """The routing instances (§3.2), flood-filled once at full fidelity.

        See :mod:`repro.model.instances`.  The cache is hand-written, not
        ``functools.cached_property``: on Python 3.11 that holds one lock
        per descriptor, shared by every ``Network``, so a stage thread
        abandoned in the middle of a flood fill would block every later
        read.  A flood fill cancelled at a hard deadline leaves the cache
        empty, and the next reader computes it.
        """
        if self._instances is None:
            self._instances = compute_instances(self)
        return self._instances

    # -- statistics ----------------------------------------------------------

    def interface_type_census(self) -> Dict[str, int]:
        """Count interfaces by hardware type (Table 3)."""
        census: Dict[str, int] = {}
        for iface in self.interface_index.values():
            census[iface.kind] = census.get(iface.kind, 0) + 1
        return census

    def config_sizes(self) -> List[int]:
        """Per-router configuration line counts (Figure 4)."""
        return [router.config.line_count for router in self.routers.values()]

    def total_commands(self) -> int:
        return sum(router.config.command_count for router in self.routers.values())

    def __len__(self) -> int:
        return len(self.routers)

    def __repr__(self) -> str:
        return f"Network({self.name!r}, routers={len(self.routers)})"
