"""Equivalence signatures for topology compression.

A router's *local signature* captures everything the analyses can see of
the router in isolation:

* its :class:`~repro.core.roles.RouterRole` (border/glue/interior/host),
* its process set — ``(protocol, id)`` pairs, the §2.2 adjacency inputs,
* a structural digest of its policies (ACLs, prefix lists, community
  lists, route maps, per-interface packet filters) computed over the
  canonical :mod:`repro.ios.payload` encoding,
* its interface-degree profile on the inferred link topology.

Local signatures alone cannot see topology: two access routers wired to
different aggregation pairs look identical.  :func:`signature_colors`
therefore runs Weisfeiler-Lehman color refinement over the link graph,
seeded with the local signatures, until the coloring stabilizes.  All
color ids are assigned by sorting signature tuples, never by ``hash()``,
so the refinement is deterministic across processes and input orders.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from repro.core.roles import RouterRole, classify_router_roles
from repro.ios.payload import (
    encode_acl,
    encode_community_list,
    encode_prefix_list,
    encode_route_map,
)
from repro.model.network import Network

#: Refinement-round ceiling.  WL stabilizes in at most |V| rounds; real
#: topologies stabilize in a handful, and every extra round is O(E).
MAX_ROUNDS = 32


def _policy_digest(network: Network, router: str) -> str:
    """A content digest of every policy object configured on *router*.

    Uses the canonical policy encoders of :mod:`repro.ios.payload`,
    serialized with sorted container keys, so two routers carrying
    byte-identical policy stanzas digest equally no matter what order
    their stanzas appeared in.
    """
    config = network.routers[router].config
    body = {
        "acl": sorted(
            (name, encode_acl(acl)) for name, acl in config.access_lists.items()
        ),
        "plist": sorted(
            (name, encode_prefix_list(plist))
            for name, plist in config.prefix_lists.items()
        ),
        "clist": sorted(
            (name, encode_community_list(clist))
            for name, clist in config.community_lists.items()
        ),
        "rmap": sorted(
            (name, encode_route_map(rmap)) for name, rmap in config.route_maps.items()
        ),
        "groups": sorted(
            (iface.access_group_in or "", iface.access_group_out or "")
            for iface in config.interfaces.values()
        ),
    }
    text = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _degree_profiles(network: Network) -> Dict[str, Tuple[int, int, int]]:
    """``router -> (p2p ends, multipoint ends, external interfaces)``."""
    p2p: Dict[str, int] = {name: 0 for name in network.routers}
    multipoint: Dict[str, int] = dict(p2p)
    external: Dict[str, int] = dict(p2p)
    for link in network.links:
        bucket = p2p if link.is_point_to_point else multipoint
        for end in link.ends:
            bucket[end.router] += 1
    for router, _interface in network.external_interfaces:
        external[router] += 1
    return {
        name: (p2p[name], multipoint[name], external[name]) for name in network.routers
    }


def _process_sets(network: Network) -> Dict[str, Tuple[Tuple[str, int], ...]]:
    """``router -> sorted ((protocol, id)...)`` in one pass over processes."""
    per_router: Dict[str, List[Tuple[str, int]]] = {name: [] for name in network.routers}
    for key in network.processes:
        per_router[key[0]].append((key[1], key[2] if key[2] is not None else -1))
    return {name: tuple(sorted(pairs)) for name, pairs in per_router.items()}


def local_signature(
    network: Network,
    router: str,
    roles: Dict[str, RouterRole] = None,
    profiles: Dict[str, Tuple[int, int, int]] = None,
    processes: Dict[str, Tuple[Tuple[str, int], ...]] = None,
) -> Tuple:
    """The topology-free equivalence signature of one router.

    *roles*/*profiles*/*processes* are optional precomputed maps (pass
    them when signing every router — each is one network-wide pass, and
    per-router recomputation would be quadratic).
    """
    if roles is None:
        roles = classify_router_roles(network)
    if profiles is None:
        profiles = _degree_profiles(network)
    if processes is None:
        processes = _process_sets(network)
    role = roles[router]
    return (
        role.role,
        role.protocols,
        role.ebgp,
        processes[router],
        _policy_digest(network, router),
        profiles[router],
    )


def _intern_colors(signatures: Dict[str, Tuple]) -> Dict[str, int]:
    """Assign dense integer colors by sorted signature order (no hash())."""
    ordered = sorted(set(signatures.values()), key=repr)
    index = {signature: i for i, signature in enumerate(ordered)}
    return {router: index[signature] for router, signature in signatures.items()}


def signature_colors(network: Network) -> Dict[str, int]:
    """WL color refinement over the link graph, seeded with local signatures.

    Returns a stable coloring: two routers share a color exactly when
    their local signatures agree and, recursively, the multisets of
    their neighbors' colors agree.  Deterministic in input order — colors
    are dense integers assigned by sorting, rounds run to a fixed point
    (bounded by :data:`MAX_ROUNDS`).
    """
    roles = classify_router_roles(network)
    profiles = _degree_profiles(network)
    processes = _process_sets(network)
    colors = _intern_colors(
        {
            router: local_signature(network, router, roles, profiles, processes)
            for router in network.routers
        }
    )

    neighbors: Dict[str, List[str]] = {name: [] for name in network.routers}
    for link in network.links:
        members = sorted({end.router for end in link.ends})
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                neighbors[a].append(b)
                neighbors[b].append(a)

    for _round in range(MAX_ROUNDS):
        refined = _intern_colors(
            {
                router: (color, tuple(sorted(colors[n] for n in neighbors[router])))
                for router, color in colors.items()
            }
        )
        if len(set(refined.values())) == len(set(colors.values())):
            colors = refined
            break
        colors = refined
    return colors


__all__ = ["MAX_ROUNDS", "local_signature", "signature_colors"]
