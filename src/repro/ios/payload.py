"""Canonical primitive encodings of routing-policy objects.

:mod:`repro.compress.signature` digests each router's policies (ACLs,
prefix lists, community lists, route maps) to decide which routers are
interchangeable.  The digest must not depend on object identity or on
the order stanzas appeared in, so every policy object is encoded here
into nested tuples of primitives (str/int/bool/None) that serialize the
same way in every process.

The encoders are positional and track the dataclass field order in
:mod:`repro.ios.config`.  Their output is part of the compression
contract: changing it moves routers between equivalence classes.
"""

from __future__ import annotations

from typing import Optional

from repro.ios.config import (
    AccessList,
    AclRule,
    CommunityList,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)
from repro.net import IPv4Address, Prefix


def _enc_addr(addr: Optional[IPv4Address]):
    return None if addr is None else addr.value


def _enc_prefix(prefix: Optional[Prefix]):
    return None if prefix is None else (prefix.network_int, prefix.length)


def _enc_rule(rule: AclRule) -> tuple:
    return (
        rule.action,
        _enc_addr(rule.source),
        _enc_addr(rule.source_wildcard),
        rule.source_any,
        rule.protocol,
        _enc_addr(rule.dest),
        _enc_addr(rule.dest_wildcard),
        rule.dest_any,
        rule.port_op,
        rule.port,
    )


def encode_acl(acl: AccessList) -> tuple:
    return (acl.name, tuple(_enc_rule(r) for r in acl.rules))


def _enc_plist_entry(entry: PrefixListEntry) -> tuple:
    return (entry.sequence, entry.action, _enc_prefix(entry.prefix), entry.ge, entry.le)


def encode_prefix_list(plist: PrefixList) -> tuple:
    return (plist.name, tuple(_enc_plist_entry(e) for e in plist.entries))


def encode_community_list(clist: CommunityList) -> tuple:
    return (clist.name, tuple(clist.entries))


def _enc_clause(clause: RouteMapClause) -> tuple:
    return (
        clause.action,
        clause.sequence,
        tuple(clause.match_ip_address),
        tuple(clause.match_prefix_lists),
        tuple(clause.match_communities),
        tuple(clause.match_tags),
        clause.set_metric,
        clause.set_tag,
        clause.set_local_preference,
        clause.set_community,
        tuple(clause.extra_lines),
    )


def encode_route_map(rmap: RouteMap) -> tuple:
    return (rmap.name, tuple(_enc_clause(c) for c in rmap.clauses))


__all__ = [
    "encode_acl",
    "encode_community_list",
    "encode_prefix_list",
    "encode_route_map",
]
