"""The one analysis payload, its canonical form, and the certifier.

Both certification gates compare this payload: ``certify_compression``
(plan-then-expand against direct analysis) and ``repro share
--certify`` (original against shared under the trusted-party mapping).
:func:`analysis_payload` builds it from the four §3 result families:

* ``instances`` — ``id`` (``i:<n>``), ``protocol``, ``processes``
  (``[router, protocol, process id]``; the id is the ASN for BGP) and
  ``external`` (adjacent to another network);
* ``pathways`` — per router: ``layers`` (node → BFS depth), ``edges``
  (``[source, target, kind]``), ``policies`` (``[source, target, route
  map]``) and ``truncated``, with nodes keyed ``i:<n>``, ``rib`` and
  ``external``;
* ``address_tree`` — ``prefix`` and its ``subnets``;
* ``survivability`` — articulation routers, bridge links, instance
  couplings (``a``, ``b``, ``routers``, ``mechanisms``), static-route
  conflicts and ``truncated``.

The payload carries no field computable from another of its fields
(instance size and ASN, pathway depth and nodes, block utilization and
coupling redundancy all are), so no gate can compare a field another
gate ignores.  :func:`canonicalize` renames, re-indexes and re-sorts
and drops only the compression provenance; :func:`certify` compares two
canonical payloads section by section.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.address_space import extract_address_space
from repro.core.instances import find_external_adjacent_instances
from repro.core.pathways import ROUTER_RIB, RoutePathway, route_pathways
from repro.core.process_graph import EXTERNAL_NODE
from repro.core.survivability import analyze_survivability
from repro.model.network import Network


def _ref(node: Any) -> str:
    """The payload key of a pathway node or instance id."""
    if node == ROUTER_RIB:
        return "rib"
    if node == EXTERNAL_NODE:
        return "external"
    return f"i:{node}"


def pathway_payload(pathway: RoutePathway) -> Dict[str, Any]:
    """One router's pathway; no field names the router, so one search's
    payload serves every router of its attachment signature."""
    return {
        "layers": {_ref(node): depth for node, depth in pathway.layers.items()},
        "edges": sorted(
            [_ref(source), _ref(target), kind] for source, target, kind in pathway.edges
        ),
        "policies": sorted(
            [_ref(source), _ref(target), route_map]
            for source, target, route_map in pathway.policies
        ),
        "truncated": pathway.truncated,
    }


def analysis_payload(
    network: Network,
    pathways: Optional[Dict[str, RoutePathway]] = None,
    max_depth: Optional[int] = None,
) -> Dict[str, Any]:
    """The analysis payload of *network* (see the module docstring).

    *pathways* defaults to :func:`~repro.core.pathways.route_pathways`
    at *max_depth*; the compressed pipeline passes its class-expanded
    pathways instead.
    """
    if pathways is None:
        pathways = route_pathways(network, max_depth=max_depth)
    external = find_external_adjacent_instances(network)
    report = analyze_survivability(network)
    return {
        "instances": [
            {
                "id": _ref(instance.instance_id),
                "protocol": instance.protocol,
                "processes": sorted((list(key) for key in instance.processes), key=repr),
                "external": instance.instance_id in external,
            }
            for instance in network.instances
        ],
        "pathways": {router: pathway_payload(pathways[router]) for router in sorted(pathways)},
        "address_tree": [
            {
                "prefix": str(block.prefix),
                "subnets": sorted(str(subnet) for subnet in block.subnets),
            }
            for block in extract_address_space(network)
        ],
        "survivability": {
            "articulation_routers": sorted(report.articulation_routers),
            "bridge_links": sorted(str(link) for link in report.bridge_links),
            "couplings": [
                {
                    "a": _ref(coupling.instance_a),
                    "b": _ref(coupling.instance_b),
                    "routers": sorted(coupling.routers),
                    "mechanisms": sorted(coupling.mechanisms),
                }
                for coupling in report.couplings
            ],
            "static_route_conflicts": {
                str(prefix): sorted(routers)
                for prefix, routers in report.static_route_conflicts.items()
            },
            "truncated": report.truncated,
        },
    }


def _same(value: Any) -> Any:
    return value


def _json(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def canonicalize(payload: Dict[str, Any], rename: Optional[Any] = None) -> Dict[str, Any]:
    """The form two payloads must share to be equivalent.

    *rename* (``router``, ``name``, ``asn`` and ``prefix`` methods; see
    :class:`repro.share.mapping.Renamer`) rewrites router names,
    route-map names, BGP process ASNs and prefixes.  Instances are then
    re-indexed ``i#<n>`` in the order of their id-free descriptors — instance
    numbering follows sorted process keys, which renaming permutes — and
    every reference follows; a reference that matches no instance stays
    as it is, so a dangling one keeps diverging.  Everything renaming or
    re-indexing reorders is re-sorted.  The compression provenance
    (``compression``, per-pathway ``expanded_from``) is dropped; every
    other key, known or not, is kept for the comparison.
    """
    router_name = rename.router if rename is not None else _same
    name = rename.name if rename is not None else _same
    asn = rename.asn if rename is not None else _same
    prefix = rename.prefix if rename is not None else _same
    result = json.loads(json.dumps(payload))
    result.pop("compression", None)

    instances = result["instances"]
    for entry in instances:
        entry["processes"] = sorted(
            (
                [router_name(router), protocol, asn(pid) if protocol == "bgp" else pid]
                for router, protocol, pid in entry["processes"]
            ),
            key=repr,
        )
    instances.sort(key=lambda entry: _json({k: v for k, v in entry.items() if k != "id"}))
    index = {entry["id"]: f"i#{n}" for n, entry in enumerate(instances)}

    def ref(node: str) -> str:
        return index.get(node, node)

    for entry in instances:
        entry["id"] = ref(entry["id"])

    pathways = {}
    for router, entry in result["pathways"].items():
        entry.pop("expanded_from", None)
        entry["layers"] = dict(sorted((ref(n), depth) for n, depth in entry["layers"].items()))
        entry["edges"] = sorted([ref(a), ref(b), kind] for a, b, kind in entry["edges"])
        entry["policies"] = sorted(
            [ref(a), ref(b), name(route_map)] for a, b, route_map in entry["policies"]
        )
        pathways[router_name(router)] = entry
    result["pathways"] = dict(sorted(pathways.items()))

    for block in result["address_tree"]:
        block["prefix"] = prefix(block["prefix"])
        block["subnets"] = sorted(prefix(subnet) for subnet in block["subnets"])
    result["address_tree"].sort(key=_json)

    surv = result["survivability"]
    surv["articulation_routers"] = sorted(
        router_name(r) for r in surv["articulation_routers"]
    )
    surv["bridge_links"] = sorted(prefix(link) for link in surv["bridge_links"])
    for coupling in surv["couplings"]:
        # An unordered pair: which end is ``a`` followed the numbering
        # the re-index replaced.
        coupling["a"], coupling["b"] = sorted([ref(coupling["a"]), ref(coupling["b"])])
        coupling["routers"] = sorted(router_name(r) for r in coupling["routers"])
        coupling["mechanisms"] = sorted(coupling["mechanisms"])
    surv["couplings"].sort(key=_json)
    surv["static_route_conflicts"] = dict(
        sorted(
            (prefix(key), sorted(router_name(r) for r in routers))
            for key, routers in surv["static_route_conflicts"].items()
        )
    )
    return result


@dataclass
class Certificate:
    """Two canonical payloads compared: a verdict per top-level section,
    the first divergence, and each divergent section on both sides."""

    sections: Dict[str, bool]
    #: Dotted path of the first difference, in section order; None when ok.
    divergence: Optional[str] = None
    #: Divergent section -> its canonical value on each side.
    diff: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.sections.values())


def _first_divergence(a: Any, b: Any, path: str) -> Optional[str]:
    """Dotted path of the first structural difference, depth-first."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            here = f"{path}.{key}"
            if key not in a or key not in b:
                return here
            found = _first_divergence(a[key], b[key], here)
            if found is not None:
                return found
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}[len {len(a)}!={len(b)}]"
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_divergence(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    return None if a == b else path


def certify(
    a: Dict[str, Any], b: Dict[str, Any], rename: Optional[Any] = None
) -> Certificate:
    """Canonicalize *a* (renamed through *rename*) and *b*, then compare
    every top-level section either side has, in payload order."""
    left, right = canonicalize(a, rename), canonicalize(b)
    certificate = Certificate(sections={})
    for section in dict.fromkeys([*left, *right]):
        values = (left.get(section), right.get(section))
        matched = section in left and section in right and values[0] == values[1]
        certificate.sections[section] = matched
        if not matched:
            certificate.diff[section] = values
            if certificate.divergence is None:
                certificate.divergence = _first_divergence(*values, section) or section
    return certificate


def payload_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON bytes of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = [
    "Certificate",
    "analysis_payload",
    "canonicalize",
    "certify",
    "pathway_payload",
    "payload_digest",
]
