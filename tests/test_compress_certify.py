"""Certification: plan-then-expand equals direct, byte for byte.

The contract: on every design template the compressed pipeline's
canonical payload must serialize to exactly the same JSON as the direct
pipeline's, and a plan that is not exact must fail the gate.
"""

import json

import pytest

from repro.compress import (
    CompressionPlan,
    EquivalenceClass,
    analysis_payload,
    analyze_compressed,
    build_compression_plan,
    canonicalize,
    certify_compression,
    compressed_stage_runners,
)
from repro.core.instances import compute_instances, instance_of
from repro.exec import AnalysisExecutor, ExecutorConfig
from repro.model import Network
from repro.obs.metrics import use_registry
from repro.synth.templates.backbone import build_backbone
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.example_fig1 import build_example_networks
from repro.synth.templates.hybrid import build_hybrid
from repro.synth.templates.mixed import build_mixed
from repro.synth.templates.net5 import build_net5
from repro.synth.templates.net15 import build_net15
from repro.synth.templates.pods import build_pods
from repro.synth.templates.tier2 import build_tier2


def _template_cases():
    yield "backbone", build_backbone("bb", 1, 36, seed=3)[0]
    yield "enterprise", build_enterprise("ent", 2, 28, seed=5, n_borders=2)[0]
    yield "hybrid", build_hybrid("hyb", 3, 30, seed=7)[0]
    yield "mixed", build_mixed("mix", 4, 12, seed=9)[0]
    yield "tier2", build_tier2("t2", 5, 24, seed=11)[0]
    yield "net5", build_net5(scale=0.05, name="net5")[0]
    yield "net15", build_net15(scale=0.4)[0]
    yield "fig1", build_example_networks()[0]
    yield "pods", build_pods("pod", 6, 64, access_per_pod=6)[0]


CASES = list(_template_cases())


@pytest.mark.parametrize("name,configs", CASES, ids=[c[0] for c in CASES])
def test_certifies_on_template(name, configs):
    network = Network.from_configs(configs, name=name)
    result = certify_compression(network)
    assert result.ok, (
        f"{name}: plan-then-expand diverged from direct analysis "
        f"at {result.divergence}"
    )
    assert list(result.sections) == [
        "instances",
        "pathways",
        "address_tree",
        "survivability",
    ]
    assert result.divergence is None and result.diff == {}


def test_certification_also_holds_under_max_depth():
    configs = build_pods("pod", 7, 40, access_per_pod=4)[0]
    network = Network.from_configs(configs, name="pod-depth")
    result = certify_compression(network, max_depth=2)
    assert result.ok, result.divergence


def _attachment_signature(network, router):
    membership = instance_of(compute_instances(network))
    return tuple(membership[proc.key].instance_id for proc in network.processes_on(router))


def test_plan_mixing_attachment_signatures_fails():
    # Fold a class of plain fabric routers into the class of a border
    # (which also runs EBGP): every folded router now gets the border's
    # pathway, and the gate must say where.
    configs = build_pods("pod", 8, 40, access_per_pod=4)[0]
    network = Network.from_configs(configs, name="pod-bad-plan")
    plan = build_compression_plan(network)
    by_ids = {}
    for cls in plan.classes:
        by_ids.setdefault(cls.instance_ids, cls)
    keep, fold = (by_ids[ids] for ids in sorted(by_ids, key=len, reverse=True)[:2])
    assert _attachment_signature(network, keep.representative) != (
        _attachment_signature(network, fold.representative)
    )
    merged = EquivalenceClass(
        class_id=keep.class_id,
        members=keep.members + fold.members,
        representative=keep.representative,
        role=keep.role,
        instance_ids=keep.instance_ids,
    )
    bad = CompressionPlan(
        network=plan.network,
        classes=[merged] + [c for c in plan.classes if c not in (keep, fold)],
        router_class={**plan.router_class, **dict.fromkeys(fold.members, keep.class_id)},
    )
    result = certify_compression(network, plan=bad)
    assert not result.ok
    assert result.sections == {
        "instances": True,
        "pathways": False,
        "address_tree": True,
        "survivability": True,
    }
    assert result.divergence.startswith(f"pathways.{min(fold.members)}.")
    direct, compressed = result.diff["pathways"]
    assert direct[min(fold.members)] != compressed[min(fold.members)]


def test_expanded_payloads_carry_provenance():
    configs = build_pods("pod", 8, 40, access_per_pod=4)[0]
    network = Network.from_configs(configs, name="pod-prov")
    plan = build_compression_plan(network)
    payload = analyze_compressed(network, plan=plan)
    assert payload["compression"]["classes"] == plan.n_classes
    for router, pathway in payload["pathways"].items():
        assert pathway["expanded_from"] == plan.router_class[router]
    # Canonicalization strips exactly the provenance, nothing else.
    canonical = canonicalize(payload)
    assert "compression" not in canonical
    assert all("expanded_from" not in p for p in canonical["pathways"].values())
    assert canonical == canonicalize(analysis_payload(network))


def test_normalized_payloads_compare_equal_as_json():
    configs = build_net5(scale=0.04, name="net5-json")[0]
    network = Network.from_configs(configs, name="net5-json")
    direct = canonicalize(analysis_payload(network))
    compressed = canonicalize(analyze_compressed(network))
    assert json.dumps(direct, sort_keys=True) == json.dumps(
        compressed, sort_keys=True
    )


def test_compress_runner_adds_only_the_plan():
    # --compress changes neither the stage results nor the pathway work:
    # both runs make one search per attachment signature, and the only
    # extra counter is the plan's analysis.pathways.expanded.
    configs = build_pods("pod", 9, 40, access_per_pod=4)[0]
    plan = build_compression_plan(Network.from_configs(configs, name="pod-run"))
    results, counters = {}, {}
    for tag, config in (
        ("direct", ExecutorConfig()),
        ("compress", ExecutorConfig(runners=compressed_stage_runners())),
    ):
        network = Network.from_configs(configs, name="pod-run")
        with use_registry() as registry:
            execution = AnalysisExecutor(config).run_archive("pod-run", network)
        results[tag] = [
            (r.stage, r.status, r.items, r.detail) for r in execution.results
        ]
        counters[tag] = registry.snapshot()["counters"]
    expanded = counters["compress"].pop("analysis.pathways.expanded")
    assert expanded == plan.n_routers - plan.n_classes
    assert results["compress"] == results["direct"]
    assert counters["compress"] == counters["direct"]
    assert counters["direct"]["analysis.pathways.calls"] == 2


def test_compression_block_is_the_plan_and_its_members():
    configs = build_pods("pod", 8, 40, access_per_pod=4)[0]
    network = Network.from_configs(configs, name="pod-block")
    plan = build_compression_plan(network)
    compression = analyze_compressed(network, plan=plan)["compression"]
    class_members = compression.pop("class_members")
    assert compression == plan.as_dict()
    assert sorted(class_members) == [cls.class_id for cls in plan.classes]
