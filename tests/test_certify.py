"""The one certifier sees every field and nothing but the equivalence.

Both gates — compressed vs. direct and original vs. shared — reduce to
:func:`repro.compress.payload.certify` over canonical payloads.  A field
that ``canonicalize`` dropped would pass either gate unchecked, so every
leaf (and data key) of a real payload is changed in turn and must make
the certificate fail on its own section; relabeling instances and
reordering every collection must not.
"""

import json
import random

import pytest

from repro.compress import canonicalize, certify
from repro.model import Network
from repro.share import analysis_summary
from repro.synth.templates.example_fig1 import build_example_networks
from repro.synth.templates.hybrid import build_hybrid

# fig1 has BGP instances, redistribution policies and couplings; the
# hybrid build adds static-route conflicts.
TEMPLATES = {
    "fig1": lambda: build_example_networks()[0],
    "hybrid": lambda: build_hybrid("hy", 6, 10)[0],
}


@pytest.fixture(scope="module", params=sorted(TEMPLATES))
def payload(request):
    network = Network.from_configs(TEMPLATES[request.param](), name=request.param)
    # The share gate's payload: the analysis payload plus stage statuses.
    return analysis_summary(network)


def _keyed_by_data(path):
    """Dicts whose keys are data (stage and router names, pathway nodes,
    prefixes) rather than field names."""
    return path in {("stages",), ("pathways",), ("survivability", "static_route_conflicts")} or (
        len(path) == 3 and path[0] == "pathways" and path[2] == "layers"
    )


def _positions(value, path=()):
    """Every scalar leaf and every data key of *value*, as (kind, path)."""
    if isinstance(value, dict):
        for key, item in value.items():
            if _keyed_by_data(path):
                yield "key", path + (key,)
            yield from _positions(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _positions(item, path + (index,))
    else:
        yield "value", path


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    return "changed"


def _mutated(payload, kind, path):
    copy = json.loads(json.dumps(payload))
    holder = copy
    for step in path[:-1]:
        holder = holder[step]
    last = path[-1]
    if kind == "key":
        holder[_changed(last)] = holder.pop(last)
    else:
        holder[last] = _changed(holder[last])
    return copy


def test_every_section_has_leaves(payload):
    sections = {path[0] for _kind, path in _positions(payload)}
    assert sections == set(payload)
    assert payload["survivability"]["couplings"]


def test_any_changed_leaf_fails_its_section(payload):
    assert certify(payload, payload).ok
    positions = list(_positions(payload))
    assert len(positions) > 100
    for kind, path in positions:
        result = certify(payload, _mutated(payload, kind, path))
        section = path[0]
        where = f"{kind} {path}"
        if path[0] == "instances" and path[-1] == "id" and kind == "value":
            # An instance's id only names it: changing it alone leaves
            # every reference to the old id dangling.
            assert not result.ok, where
            assert result.sections["instances"], where
        elif section == "instances":
            # Instance descriptors order the canonical re-index, so an
            # edit can also renumber the references in later sections.
            assert not result.sections["instances"], where
            assert result.divergence.startswith("instances"), where
        else:
            assert result.sections == {s: s != section for s in payload}, where
            assert result.divergence.startswith(section), where
        assert set(result.diff) == {s for s, ok in result.sections.items() if not ok}


def _permuted(payload, seed):
    """*payload* with instance ids permuted and every collection reordered."""
    rng = random.Random(seed)
    copy = json.loads(json.dumps(payload))

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    ids = [entry["id"] for entry in copy["instances"]]
    relabel = dict(zip(ids, shuffled(ids)))

    def ref(node):
        return relabel.get(node, node)

    for entry in copy["instances"]:
        entry["id"] = ref(entry["id"])
        entry["processes"] = shuffled(entry["processes"])
    copy["instances"] = shuffled(copy["instances"])
    for entry in copy["pathways"].values():
        entry["layers"] = dict(shuffled((ref(n), d) for n, d in entry["layers"].items()))
        entry["edges"] = shuffled([ref(a), ref(b), kind] for a, b, kind in entry["edges"])
        entry["policies"] = shuffled([ref(a), ref(b), rm] for a, b, rm in entry["policies"])
    copy["pathways"] = dict(shuffled(copy["pathways"].items()))
    for block in copy["address_tree"]:
        block["subnets"] = shuffled(block["subnets"])
    copy["address_tree"] = shuffled(copy["address_tree"])
    surv = copy["survivability"]
    surv["articulation_routers"] = shuffled(surv["articulation_routers"])
    surv["bridge_links"] = shuffled(surv["bridge_links"])
    for coupling in surv["couplings"]:
        coupling["a"], coupling["b"] = ref(coupling["b"]), ref(coupling["a"])
        coupling["routers"] = shuffled(coupling["routers"])
        coupling["mechanisms"] = shuffled(coupling["mechanisms"])
    surv["couplings"] = shuffled(surv["couplings"])
    conflicts = surv["static_route_conflicts"]
    surv["static_route_conflicts"] = dict(
        shuffled((prefix, shuffled(routers)) for prefix, routers in conflicts.items())
    )
    return copy


@pytest.mark.parametrize("seed", range(5))
def test_relabeled_and_reordered_payload_certifies(payload, seed):
    permuted = _permuted(payload, seed)
    assert json.dumps(permuted) != json.dumps(payload)
    result = certify(payload, permuted)
    assert result.ok, result.divergence
    assert canonicalize(permuted) == canonicalize(payload)


def test_canonicalize_drops_only_compression_provenance(payload):
    extended = json.loads(json.dumps(payload))
    extended["compression"] = {"classes": 1}
    for entry in extended["pathways"].values():
        entry["expanded_from"] = "class-0000"
    assert canonicalize(extended) == canonicalize(payload)
    extended["unknown"] = [1]
    result = certify(payload, extended)
    assert result.sections["unknown"] is False
    assert result.divergence == "unknown"
    assert result.diff["unknown"] == (None, [1])
