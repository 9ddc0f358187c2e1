"""Parser: Cisco IOS configuration text → :class:`RouterConfig`.

The parser handles the routing-relevant subset of IOS described in §2 of the
paper: interface stanzas, ``router ospf|eigrp|igrp|rip|bgp`` stanzas, numbered
and named access lists, route maps, and static routes.  Anything else is
retained verbatim in :attr:`RouterConfig.unmodeled_lines` so that nothing is
silently dropped and source-level statistics stay exact.

Hot-path structure (see ARCHITECTURE.md "Performance envelope"):

* the single-pass lexer (:mod:`repro.ios.lexer`) scans the text once into
  a stanza token stream; unmodeled stanzas — most lines of a real config —
  are retained straight from the stream without word-splitting or
  :class:`ConfigBlock` construction;
* dispatch is a dict lookup on the interned head keyword
  (:data:`_TOP_DISPATCH`), not a cascade of ``words[0] ==`` comparisons;
* with a diagnostic sink, an unmodeled stanza is recorded once, as
  ``(line_number, head_line)`` in :attr:`RouterConfig.unmodeled_stanzas`
  (``head_line`` is the string already in ``unmodeled_lines``), in a run
  the sink opened for this parse; its info row ("unmodeled command: X")
  is built only when a consumer reads the sink (:mod:`repro.diag`).
  A config without unmodeled stanzas keeps the shared empty tuple.

Two error-handling modes:

* ``mode="strict"`` (the default) raises :class:`ConfigParseError` on the
  first malformed statement inside the modeled subset — the historical
  behavior, right for trusted/synthetic input;
* ``mode="lenient"`` skips the offending top-level block, records a
  :class:`repro.diag.Diagnostic` in the supplied sink, keeps the block's
  text in ``unmodeled_lines``, and continues — right for real archives
  where one mangled stanza must not sink the file.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.diag import PHASE_PARSE, DiagnosticSink

from repro.ios.blocks import ConfigBlock, materialize_stanza
from repro.ios.config import (
    AccessList,
    AclRule,
    BgpNeighbor,
    BgpProcess,
    DistributeList,
    EigrpProcess,
    InterfaceConfig,
    NetworkStatement,
    OspfProcess,
    RedistributeConfig,
    RipProcess,
    RouteMap,
    RouteMapClause,
    RouterConfig,
    StaticRoute,
)
from repro.ios.lexer import Stanza, Token, lex_config
from repro.net import IPv4Address, Prefix
from repro.net.ipv4 import AddressError


class ConfigParseError(ValueError):
    """Raised when a statement inside the modeled subset is malformed."""

    def __init__(self, message: str, line_number: int = 0, line: str = ""):
        detail = message
        if line:
            detail = f"{message} (line {line_number}: {line!r})"
        super().__init__(detail)
        self.message = message
        self.line_number = line_number
        self.line = line

    def __reduce__(self):
        # Default exception pickling would re-invoke __init__ with the
        # already-formatted detail string, duplicating the location suffix
        # and dropping line_number/line; reconstruct from the raw fields.
        return (type(self), (self.message, self.line_number, self.line))


def parse_config(
    text: str,
    *,
    mode: str = "strict",
    sink: Optional[DiagnosticSink] = None,
    source: Optional[str] = None,
) -> RouterConfig:
    """Parse one router's configuration file.

    ``mode`` selects error handling (see module docstring).  With a
    ``sink``, lenient-mode skipped blocks and, in either mode, unmodeled
    commands are reported into it, with ``source`` as the diagnostics'
    file name; the unmodeled-command rows are deferred (see
    :meth:`repro.diag.DiagnosticSink.open_unmodeled`).
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown parse mode: {mode!r}")
    lenient = mode == "lenient"
    stanzas, line_count, command_count = lex_config(text)
    config = RouterConfig(line_count=line_count, command_count=command_count)
    unmodeled = config.unmodeled_lines
    dispatch = _TOP_DISPATCH
    for tokens in stanzas:
        head_token = tokens[0]
        head_line = head_token[2]
        head = head_line.split(None, 1)[0]
        handler = dispatch.get(head)
        if handler is None:
            # Unmodeled stanza: retained verbatim, never split or
            # materialized.
            if sink is not None:
                _record_unmodeled(config, head_token, sink, source)
            for token in tokens:
                unmodeled.append(token[2])
            continue
        try:
            handler(config, tokens, sink, source)
        except (ValueError, IndexError, KeyError) as exc:
            # ConfigParseError and AddressError both subclass ValueError;
            # IndexError/KeyError from short or garbled lines are equally
            # block-local — skip the stanza, keep the file.
            if not lenient:
                raise
            line_number = getattr(exc, "line_number", 0) or head_token[0]
            line = getattr(exc, "line", "") or head_line
            if sink is not None:
                sink.error(
                    PHASE_PARSE,
                    f"skipped block: {exc}",
                    file=source,
                    line_number=line_number,
                    line=line,
                )
            for token in tokens:
                unmodeled.append(token[2])
    return config


# ---------------------------------------------------------------------------
# dispatch


def _record_unmodeled(
    config: RouterConfig,
    head_token: Token,
    sink: DiagnosticSink,
    source: Optional[str],
) -> None:
    """Record an unmodeled stanza's head in the run its info row stands in."""
    stanzas = config.unmodeled_stanzas
    if not stanzas:
        stanzas = config.unmodeled_stanzas = sink.open_unmodeled(source)
    stanzas.append((head_token[0], head_token[2]))


def _retain_stanza(
    config: RouterConfig,
    tokens: Stanza,
    sink: Optional[DiagnosticSink],
    source: Optional[str],
) -> None:
    """Keep an unmodeled stanza's text so nothing is silently dropped."""
    if sink is not None:
        _record_unmodeled(config, tokens[0], sink, source)
    for token in tokens:
        config.unmodeled_lines.append(token[2])


def _top_hostname(config, tokens, sink, source) -> None:
    words = tokens[0][2].split()
    if len(words) >= 2:
        config.hostname = words[1]
    else:
        _retain_stanza(config, tokens, sink, source)


def _top_interface(config, tokens, sink, source) -> None:
    _parse_interface(config, materialize_stanza(tokens))


def _top_router(config, tokens, sink, source) -> None:
    _parse_router(config, materialize_stanza(tokens), sink=sink, source=source)


def _top_access_list(config, tokens, sink, source) -> None:
    _parse_access_list(config, materialize_stanza(tokens))


def _top_route_map(config, tokens, sink, source) -> None:
    _parse_route_map(config, materialize_stanza(tokens))


def _top_ip(config, tokens, sink, source) -> None:
    words = tokens[0][2].split()
    n = len(words)
    if n >= 2 and words[1] == "route":
        _parse_static_route(config, materialize_stanza(tokens))
    elif n >= 3 and words[1] == "access-list":
        _parse_named_access_list(config, materialize_stanza(tokens))
    elif n >= 3 and words[1] == "prefix-list":
        _parse_prefix_list(config, materialize_stanza(tokens))
    elif n >= 3 and words[1] == "community-list":
        _parse_community_list(config, materialize_stanza(tokens))
    else:
        _retain_stanza(config, tokens, sink, source)


#: Interned head keyword → stanza dispatcher.  Anything absent is an
#: unmodeled stanza.
_TOP_DISPATCH: Dict[str, object] = {
    "hostname": _top_hostname,
    "interface": _top_interface,
    "router": _top_router,
    "access-list": _top_access_list,
    "route-map": _top_route_map,
    "ip": _top_ip,
}


# ---------------------------------------------------------------------------
# interfaces


def _parse_interface(config: RouterConfig, block: ConfigBlock) -> None:
    words = block.words
    if len(words) < 2:
        raise ConfigParseError("interface without a name", block.line_number, block.line)
    iface = InterfaceConfig(name=words[1])
    if "point-to-point" in words[2:]:
        iface.point_to_point = True
    for child in block.children:
        _parse_interface_line(iface, child)
    config.interfaces[iface.name] = iface


def _parse_interface_line(iface: InterfaceConfig, child: ConfigBlock) -> None:
    words = child.words
    line = child.line
    if words[:2] == ["ip", "address"] and len(words) >= 4:
        address = _address(words[2], child)
        netmask = _address(words[3], child)
        if "secondary" in words[4:]:
            iface.secondary_addresses.append((address, netmask))
        else:
            iface.address, iface.netmask = address, netmask
    elif words[:2] == ["ip", "unnumbered"] and len(words) >= 3:
        iface.unnumbered_source = words[2]
    elif words[:2] == ["ip", "access-group"] and len(words) >= 4:
        if words[3] == "in":
            iface.access_group_in = words[2]
        else:
            iface.access_group_out = words[2]
    elif words[0] == "description":
        iface.description = line.split(None, 1)[1] if len(words) > 1 else ""
    elif words[0] == "shutdown":
        iface.shutdown = True
    elif words[0] == "bandwidth" and len(words) >= 2:
        iface.bandwidth_kbit = _int(words[1], child)
    elif words[0] == "encapsulation" and len(words) >= 2:
        iface.encapsulation = " ".join(words[1:])
    elif words[:2] == ["frame-relay", "interface-dlci"] and len(words) >= 3:
        iface.frame_relay_dlci = _int(words[2], child)
    else:
        iface.extra_lines.append(line)


# ---------------------------------------------------------------------------
# routing processes


def _parse_router(
    config: RouterConfig,
    block: ConfigBlock,
    sink: Optional[DiagnosticSink] = None,
    source: Optional[str] = None,
) -> None:
    words = block.words
    if len(words) < 2:
        raise ConfigParseError("router without a protocol", block.line_number, block.line)
    protocol = words[1]
    if protocol == "ospf":
        process = OspfProcess(process_id=_int(_arg(words, 2, block), block))
        for child in block.children:
            _parse_ospf_line(process, child)
        config.ospf_processes.append(process)
    elif protocol in ("eigrp", "igrp"):
        process = EigrpProcess(asn=_int(_arg(words, 2, block), block), protocol=protocol)
        for child in block.children:
            _parse_eigrp_line(process, child)
        config.eigrp_processes.append(process)
    elif protocol == "rip":
        process = config.rip_process or RipProcess()
        for child in block.children:
            _parse_rip_line(process, child)
        config.rip_process = process
    elif protocol == "bgp":
        process = BgpProcess(asn=_int(_arg(words, 2, block), block))
        for child in block.children:
            _parse_bgp_line(process, child)
        config.bgp_process = process
    else:
        if sink is not None:
            sink.info(
                PHASE_PARSE,
                f"unmodeled routing protocol: {protocol}",
                file=source,
                line_number=block.line_number,
                line=block.line,
            )
        config.unmodeled_lines.append(block.line)
        config.unmodeled_lines.extend(child.line for child in block.children)


def _parse_redistribute(words: List[str], child: ConfigBlock) -> RedistributeConfig:
    # redistribute <proto> [<id>] [metric N] [metric-type N] [subnets]
    #              [route-map NAME] [tag N] [match ...]
    redist = RedistributeConfig(source_protocol=words[1])
    index = 2
    if index < len(words) and words[index].isdigit():
        redist.source_id = int(words[index])
        index += 1
    while index < len(words):
        word = words[index]
        if word == "metric" and index + 1 < len(words):
            redist.metric = _int(words[index + 1], child)
            index += 2
        elif word == "metric-type" and index + 1 < len(words):
            redist.metric_type = _int(words[index + 1], child)
            index += 2
        elif word == "subnets":
            redist.subnets = True
            index += 1
        elif word == "route-map" and index + 1 < len(words):
            redist.route_map = words[index + 1]
            index += 2
        elif word == "tag" and index + 1 < len(words):
            redist.tag = _int(words[index + 1], child)
            index += 2
        elif word == "match" and index + 2 < len(words) and words[index + 1] == "route-map":
            # "match route-map NAME" appears in the paper's configlet
            # (line 25 of Figure 2) as a variant spelling.
            redist.route_map = words[index + 2]
            index += 3
        else:
            index += 1
    return redist


def _parse_distribute_list(words: List[str]) -> DistributeList:
    # distribute-list <acl> in|out [<interface>|<protocol>]
    dist = DistributeList(acl=words[1], direction=words[2] if len(words) > 2 else "in")
    if len(words) > 3:
        extra = words[3]
        if extra[0].isalpha() and any(ch.isdigit() for ch in extra):
            dist.interface = extra
        else:
            dist.source_protocol = extra
    return dist


def _parse_ospf_line(process: OspfProcess, child: ConfigBlock) -> None:
    words = child.words
    if words[0] == "network" and len(words) >= 3:
        statement = NetworkStatement(
            address=_address(words[1], child), wildcard=_address(words[2], child)
        )
        if len(words) >= 5 and words[3] == "area":
            statement.area = words[4]
        process.networks.append(statement)
    elif words[0] == "redistribute" and len(words) >= 2:
        process.redistributes.append(_parse_redistribute(words, child))
    elif words[0] == "distribute-list" and len(words) >= 3:
        process.distribute_lists.append(_parse_distribute_list(words))
    elif words[0] == "passive-interface" and len(words) >= 2:
        process.passive_interfaces.append(words[1])
    elif words[:2] == ["router-id"] or (words[0] == "router-id" and len(words) >= 2):
        process.router_id = _address(words[1], child)
    elif words[:2] == ["default-information", "originate"]:
        process.default_information_originate = True
    elif words[0] == "summary-address" and len(words) >= 3:
        process.summary_addresses.append(
            Prefix.from_netmask(words[1], words[2])
        )
    else:
        process.extra_lines.append(child.line)


def _parse_eigrp_line(process: EigrpProcess, child: ConfigBlock) -> None:
    words = child.words
    if words[0] == "network" and len(words) >= 2:
        statement = NetworkStatement(address=_address(words[1], child))
        if len(words) >= 3:
            statement.wildcard = _address(words[2], child)
        process.networks.append(statement)
    elif words[0] == "redistribute" and len(words) >= 2:
        process.redistributes.append(_parse_redistribute(words, child))
    elif words[0] == "distribute-list" and len(words) >= 3:
        process.distribute_lists.append(_parse_distribute_list(words))
    elif words[0] == "passive-interface" and len(words) >= 2:
        process.passive_interfaces.append(words[1])
    elif words[:3] == ["no", "auto-summary"]:
        process.no_auto_summary = True
    else:
        process.extra_lines.append(child.line)


def _parse_rip_line(process: RipProcess, child: ConfigBlock) -> None:
    words = child.words
    if words[0] == "network" and len(words) >= 2:
        process.networks.append(NetworkStatement(address=_address(words[1], child)))
    elif words[0] == "version" and len(words) >= 2:
        process.version = _int(words[1], child)
    elif words[0] == "redistribute" and len(words) >= 2:
        process.redistributes.append(_parse_redistribute(words, child))
    elif words[0] == "distribute-list" and len(words) >= 3:
        process.distribute_lists.append(_parse_distribute_list(words))
    elif words[0] == "passive-interface" and len(words) >= 2:
        process.passive_interfaces.append(words[1])
    else:
        process.extra_lines.append(child.line)


def _parse_bgp_line(process: BgpProcess, child: ConfigBlock) -> None:
    words = child.words
    if words[0] == "neighbor" and len(words) >= 3:
        _parse_bgp_neighbor_line(process, words, child)
    elif words[0] == "network" and len(words) >= 2:
        statement = NetworkStatement(address=_address(words[1], child))
        if len(words) >= 4 and words[2] == "mask":
            statement.mask = _address(words[3], child)
        process.networks.append(statement)
    elif words[0] == "redistribute" and len(words) >= 2:
        process.redistributes.append(_parse_redistribute(words, child))
    elif words[:2] == ["bgp", "router-id"] and len(words) >= 3:
        process.router_id = _address(words[2], child)
    else:
        process.extra_lines.append(child.line)


def _parse_bgp_neighbor_line(
    process: BgpProcess, words: List[str], child: ConfigBlock
) -> None:
    address = _address(words[1], child)
    neighbor = process.neighbor(str(address))
    if neighbor is None:
        neighbor = BgpNeighbor(address=address)
        process.neighbors.append(neighbor)
    keyword = words[2]
    if keyword == "remote-as" and len(words) >= 4:
        neighbor.remote_as = _int(words[3], child)
    elif keyword == "description":
        neighbor.description = " ".join(words[3:])
    elif keyword == "route-map" and len(words) >= 5:
        if words[4] == "in":
            neighbor.route_map_in = words[3]
        else:
            neighbor.route_map_out = words[3]
    elif keyword == "distribute-list" and len(words) >= 5:
        if words[4] == "in":
            neighbor.distribute_list_in = words[3]
        else:
            neighbor.distribute_list_out = words[3]
    elif keyword == "prefix-list" and len(words) >= 5:
        if words[4] == "in":
            neighbor.prefix_list_in = words[3]
        else:
            neighbor.prefix_list_out = words[3]
    elif keyword == "update-source" and len(words) >= 4:
        neighbor.update_source = words[3]
    elif keyword == "next-hop-self":
        neighbor.next_hop_self = True
    elif keyword == "send-community":
        neighbor.send_community = True
    elif keyword == "route-reflector-client":
        neighbor.route_reflector_client = True
    # Unknown neighbor options are ignored: the neighbor itself is recorded.


# ---------------------------------------------------------------------------
# access lists


def _parse_access_list(config: RouterConfig, block: ConfigBlock) -> None:
    # access-list <number> permit|deny ...
    words = block.words
    if len(words) < 3:
        raise ConfigParseError("short access-list", block.line_number, block.line)
    name = words[1]
    acl = config.access_lists.setdefault(name, AccessList(name=name))
    number = int(name) if name.isdigit() else None
    extended = number is not None and (100 <= number <= 199 or 2000 <= number <= 2699)
    rule = _parse_acl_rule(words[2:], extended, block)
    acl.rules.append(rule)


def _parse_named_access_list(config: RouterConfig, block: ConfigBlock) -> None:
    # ip access-list standard|extended NAME  (clauses as children)
    words = block.words
    if len(words) < 4:
        raise ConfigParseError("short ip access-list", block.line_number, block.line)
    extended = words[2] == "extended"
    name = words[3]
    acl = config.access_lists.setdefault(name, AccessList(name=name))
    for child in block.children:
        acl.rules.append(_parse_acl_rule(child.words, extended, child))


def _parse_acl_rule(words: List[str], extended: bool, block: ConfigBlock) -> AclRule:
    action = words[0]
    if action not in ("permit", "deny"):
        raise ConfigParseError(f"bad ACL action {action!r}", block.line_number, block.line)
    rule = AclRule(action=action)
    rest = words[1:]
    # An ACL number in the extended range does not guarantee extended syntax:
    # the paper's own configlet uses source-only clauses on access-list 143.
    # Treat the clause as extended only when it actually names a protocol.
    if extended and rest and rest[0] in _EXTENDED_ACL_PROTOCOLS:
        rule.protocol = rest[0]
        rest = rest[1:]
        rest = _parse_acl_endpoint(rule, rest, block, which="source")
        rest = _parse_acl_endpoint(rule, rest, block, which="dest")
        if len(rest) >= 2 and rest[0] in ("eq", "gt", "lt", "neq"):
            rule.port_op, rule.port = rest[0], rest[1]
        elif len(rest) >= 3 and rest[0] == "range":
            rule.port_op, rule.port = "range", f"{rest[1]}-{rest[2]}"
    else:
        _parse_acl_endpoint(rule, rest, block, which="source")
    return rule


_EXTENDED_ACL_PROTOCOLS = frozenset((
    "ip", "tcp", "udp", "icmp", "igmp", "gre", "esp", "ahp", "pim",
    "ospf", "eigrp", "nos", "ipinip",
))


def _parse_acl_endpoint(
    rule: AclRule, rest: List[str], block: ConfigBlock, which: str
) -> List[str]:
    """Consume one source/destination spec from an ACL clause."""
    if not rest:
        return rest
    if rest[0] == "any":
        setattr(rule, f"{which}_any", True)
        return rest[1:]
    if rest[0] == "host" and len(rest) >= 2:
        setattr(rule, which, _address(rest[1], block))
        return rest[2:]
    address = _address(rest[0], block)
    setattr(rule, which, address)
    if len(rest) >= 2 and _looks_like_address(rest[1]):
        setattr(rule, f"{which}_wildcard", _address(rest[1], block))
        return rest[2:]
    return rest[1:]


def _looks_like_address(word: str) -> bool:
    return word.count(".") == 3 and word.replace(".", "").isdigit()


def _parse_prefix_list(config: RouterConfig, block: ConfigBlock) -> None:
    # ip prefix-list NAME [seq N] permit|deny a.b.c.d/len [ge N] [le N]
    from repro.ios.config import PrefixList, PrefixListEntry  # noqa: PLC0415

    words = block.words
    name = words[2]
    rest = words[3:]
    sequence = 5
    plist = config.prefix_lists.get(name)
    if plist is None:
        plist = config.prefix_lists[name] = PrefixList(name=name)
    elif plist.entries:
        sequence = max(entry.sequence for entry in plist.entries) + 5
    if len(rest) >= 2 and rest[0] == "seq":
        sequence = _int(rest[1], block)
        rest = rest[2:]
    if len(rest) < 2 or rest[0] not in ("permit", "deny"):
        raise ConfigParseError("malformed prefix-list", block.line_number, block.line)
    action = rest[0]
    if "/" not in rest[1]:
        raise ConfigParseError(
            "prefix-list needs a/len prefix", block.line_number, block.line
        )
    prefix = Prefix(rest[1])
    entry = PrefixListEntry(sequence=sequence, action=action, prefix=prefix)
    rest = rest[2:]
    index = 0
    while index + 1 < len(rest):
        if rest[index] == "ge":
            entry.ge = _int(rest[index + 1], block)
        elif rest[index] == "le":
            entry.le = _int(rest[index + 1], block)
        index += 2
    plist.entries.append(entry)


def _parse_community_list(config: RouterConfig, block: ConfigBlock) -> None:
    # ip community-list <name|number> permit|deny <community> [<community>...]
    from repro.ios.config import CommunityList  # noqa: PLC0415

    words = block.words
    name = words[2]
    if len(words) < 5 or words[3] not in ("permit", "deny"):
        raise ConfigParseError("malformed community-list", block.line_number, block.line)
    clist = config.community_lists.setdefault(name, CommunityList(name=name))
    action = words[3]
    for community in words[4:]:
        clist.entries.append((action, community))


# ---------------------------------------------------------------------------
# route maps and static routes


def _parse_route_map(config: RouterConfig, block: ConfigBlock) -> None:
    # route-map NAME permit|deny SEQ  (match/set as children)
    words = block.words
    if len(words) < 2:
        raise ConfigParseError("route-map without a name", block.line_number, block.line)
    name = words[1]
    action = words[2] if len(words) >= 3 else "permit"
    sequence = _int(words[3], block) if len(words) >= 4 else 10
    route_map = config.route_maps.setdefault(name, RouteMap(name=name))
    clause = RouteMapClause(action=action, sequence=sequence)
    for child in block.children:
        _parse_route_map_line(clause, child)
    route_map.clauses.append(clause)


def _parse_route_map_line(clause: RouteMapClause, child: ConfigBlock) -> None:
    words = child.words
    if words[:4] == ["match", "ip", "address", "prefix-list"]:
        clause.match_prefix_lists.extend(words[4:])
    elif words[:2] == ["match", "community"]:
        clause.match_communities.extend(words[2:])
    elif words[:3] == ["match", "ip", "address"]:
        clause.match_ip_address.extend(words[3:])
    elif words[:2] == ["match", "tag"]:
        clause.match_tags.extend(int(tag) for tag in words[2:] if tag.isdigit())
    elif words[:2] == ["set", "metric"] and len(words) >= 3:
        clause.set_metric = _int(words[2], child)
    elif words[:2] == ["set", "tag"] and len(words) >= 3:
        clause.set_tag = _int(words[2], child)
    elif words[:2] == ["set", "local-preference"] and len(words) >= 3:
        clause.set_local_preference = _int(words[2], child)
    elif words[:2] == ["set", "community"] and len(words) >= 3:
        clause.set_community = " ".join(words[2:])
    else:
        clause.extra_lines.append(child.line)


def _parse_static_route(config: RouterConfig, block: ConfigBlock) -> None:
    # ip route <prefix> <mask> (<next-hop>|<interface>) [<distance>] [tag N]
    words = block.words
    if len(words) < 5:
        raise ConfigParseError("short ip route", block.line_number, block.line)
    prefix = Prefix.from_netmask(words[2], words[3])
    route = StaticRoute(prefix=prefix)
    rest = words[4:]
    if _looks_like_address(rest[0]):
        route.next_hop = _address(rest[0], block)
    else:
        route.interface = rest[0]
    rest = rest[1:]
    index = 0
    while index < len(rest):
        if rest[index] == "tag" and index + 1 < len(rest):
            route.tag = _int(rest[index + 1], block)
            index += 2
        elif rest[index].isdigit():
            route.distance = int(rest[index])
            index += 1
        else:
            index += 1
    config.static_routes.append(route)


# ---------------------------------------------------------------------------
# small helpers


def _arg(words: List[str], index: int, block: ConfigBlock) -> str:
    if index >= len(words):
        raise ConfigParseError("missing argument", block.line_number, block.line)
    return words[index]


def _int(word: str, block: ConfigBlock) -> int:
    try:
        return int(word)
    except ValueError as exc:
        raise ConfigParseError(f"expected integer, got {word!r}", block.line_number, block.line) from exc


#: Dotted-quad → shared immutable IPv4Address.  Real configs repeat the
#: same netmasks/wildcards/addresses thousands of times per archive;
#: IPv4Address is immutable and hashable, so instances are safe to share.
_ADDRESS_MEMO: Dict[str, IPv4Address] = {}
_ADDRESS_MEMO_CAP = 65536


def _address(word: str, block: ConfigBlock) -> IPv4Address:
    addr = _ADDRESS_MEMO.get(word)
    if addr is None:
        try:
            addr = IPv4Address(word)
        except AddressError as exc:
            raise ConfigParseError(str(exc), block.line_number, block.line) from exc
        if len(_ADDRESS_MEMO) >= _ADDRESS_MEMO_CAP:
            _ADDRESS_MEMO.clear()
        _ADDRESS_MEMO[word] = addr
    return addr
