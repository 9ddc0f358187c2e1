"""Direct-vs-compressed analysis benchmark on the replicated pod fabric.

On a pod fabric of ``10,000 × scale`` routers, the direct analysis must
run exactly one pathway search per attachment signature (the instance
ids of a router's processes, in order) — two on this template at every
size — and its normalized payload must equal the compressed analysis's
byte for byte.  Both wall times are recorded, not gated, under
``benchmarks/results/compression_quotient.json`` so the README's quoted
numbers are regenerable.
"""

import time

from repro.compress import analyze_compressed, analyze_direct
from repro.compress.payload import normalize_analysis_payload, payload_digest
from repro.compress.plan import build_compression_plan
from repro.core.instances import compute_instances, instance_of
from repro.model import Network
from repro.obs.metrics import use_registry
from repro.synth.templates.pods import build_pods

from benchmarks.conftest import BENCH_SCALE, record, record_json

#: Full-scale fabric size (routers) at BENCH_SCALE=1.0.
FULL_ROUTERS = 10_000

#: Every router runs the fabric-wide OSPF process; the two borders also
#: run the shared EBGP instance.
SIGNATURES = 2


def _attachment_signatures(network):
    membership = instance_of(compute_instances(network))
    return {
        tuple(membership[proc.key].instance_id for proc in network.processes_on(router))
        for router in network.routers
    }


def test_direct_analysis_searches_once_per_signature():
    n_routers = max(40, int(FULL_ROUTERS * BENCH_SCALE))
    configs, _spec = build_pods("pod", 1, n_routers)

    def fresh():
        network = Network.from_configs(configs, name="pod-bench", jobs=0)
        # Warm the shared lazy indexes so both timings cover analysis
        # only, not parsing or link inference.
        network.links
        network.processes
        return network

    network = fresh()
    start = time.perf_counter()
    compressed = analyze_compressed(network)
    compressed_seconds = time.perf_counter() - start

    network = fresh()
    with use_registry() as registry:
        start = time.perf_counter()
        direct = analyze_direct(network)
        direct_seconds = time.perf_counter() - start
    searches = registry.snapshot()["counters"]["analysis.pathways.calls"]
    signatures = len(_attachment_signatures(network))

    digest_direct = payload_digest(normalize_analysis_payload(direct))
    digest_compressed = payload_digest(normalize_analysis_payload(compressed))

    plan = build_compression_plan(Network.from_configs(configs, name="pod-bench"))
    payload = {
        "routers": plan.n_routers,
        "classes": plan.n_classes,
        "compression_ratio": round(plan.ratio, 2),
        "attachment_signatures": signatures,
        "direct_pathway_searches": searches,
        "direct_seconds": round(direct_seconds, 3),
        "compressed_seconds": round(compressed_seconds, 3),
        "payloads_identical": digest_direct == digest_compressed,
        "payload_digest": digest_direct,
    }
    record_json("compression_quotient", payload)
    record(
        "compression_quotient",
        "direct vs compressed analysis — pod fabric\n"
        f"routers {plan.n_routers}, classes {plan.n_classes} "
        f"(ratio {plan.ratio:.0f}x), attachment signatures {signatures}\n"
        f"direct {direct_seconds:.2f}s ({searches} pathway searches), "
        f"compressed {compressed_seconds:.2f}s\n"
        f"normalized payloads byte-identical: {digest_direct == digest_compressed} "
        f"({digest_direct[:16]}…)",
    )
    assert digest_direct == digest_compressed
    assert signatures == SIGNATURES
    assert searches == signatures, (
        f"direct analysis ran {searches} pathway searches for "
        f"{signatures} attachment signatures"
    )
