"""Compression-plan construction: determinism, exactness, class shape."""

import random

from repro.compress import build_compression_plan
from repro.compress.signature import local_signature, signature_colors
from repro.model import Network
from repro.synth.templates.pods import build_pods


def _pod_network(n_routers=40, access_per_pod=4, name="pod"):
    configs, _spec = build_pods("pod", 1, n_routers, access_per_pod=access_per_pod)
    return Network.from_configs(configs, name=name), configs


def test_pod_fabric_collapses_to_position_classes():
    network, _ = _pod_network(64, access_per_pod=6)
    plan = build_compression_plan(network)
    # Core, border, aggregation, access — one class per pod position.
    assert plan.n_classes == 4
    assert plan.n_routers == len(network)
    roles = {cls.role for cls in plan.classes}
    assert "border" in roles or "glue" in roles
    by_size = sorted(cls.size for cls in plan.classes)
    assert by_size[:2] == [2, 2]  # cores and borders


def test_every_router_lands_in_exactly_one_class():
    network, _ = _pod_network()
    plan = build_compression_plan(network)
    covered = [m for cls in plan.classes for m in cls.members]
    assert sorted(covered) == sorted(network.routers)
    assert set(covered) == set(plan.router_class)
    for cls in plan.classes:
        assert cls.representative == cls.members[0]
        assert all(plan.router_class[m] == cls.class_id for m in cls.members)


def test_plan_is_ingestion_order_independent():
    network, configs = _pod_network()
    items = list(configs.items())
    random.Random(7).shuffle(items)
    shuffled = Network.from_configs(dict(items), name="pod")
    plan_a = build_compression_plan(network)
    plan_b = build_compression_plan(shuffled)
    assert [cls.members for cls in plan_a.classes] == [
        cls.members for cls in plan_b.classes
    ]
    assert plan_a.router_class == plan_b.router_class


def test_class_members_share_local_signature():
    network, _ = _pod_network()
    plan = build_compression_plan(network)
    for cls in plan.classes:
        signatures = {local_signature(network, m) for m in cls.members}
        assert len(signatures) == 1


def test_wl_colors_split_topologically_distinct_routers():
    network, _ = _pod_network(40, access_per_pod=4)
    colors = signature_colors(network)
    core = "pod-core0"
    access = "pod-p0-acc0"
    assert colors[core] != colors[access]

