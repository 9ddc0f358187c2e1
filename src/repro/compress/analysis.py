"""Direct vs. compressed analysis pipelines.

``analyze_direct`` runs the five per-network analyses the way the
executor does: :func:`~repro.core.pathways.route_pathways` gives every
router its pathway at one search per attachment signature.

``analyze_compressed`` computes one pathway per equivalence class
representative and expands it to every member with ``expanded_from``
provenance.  Both pipelines share the other analyses (instances, process
graph, address space, survivability) verbatim, so the certification
diff in :mod:`repro.compress.certify` compares two independent ways of
fanning pathways out to routers: by attachment signature and by
compression plan.

``compressed_stage_runners`` is the executor table ``--compress``
selects: its ``pathways`` runner builds the plan, counts the routers
the plan folds away under ``analysis.pathways.expanded`` and then runs
the direct runner, so ``--compress`` output and pathway work equal
``--no-compress``; the plan is the only addition.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.compress.payload import build_analysis_payload, pathway_payload
from repro.compress.plan import CompressionPlan, build_compression_plan
from repro.core.address_space import extract_address_space
from repro.core.instances import (
    RoutingInstance,
    build_instance_graph,
    compute_instances,
)
from repro.core.pathways import route_pathway, route_pathways
from repro.core.process_graph import build_process_graph
from repro.core.survivability import analyze_survivability
from repro.model.network import Network
from repro.obs.metrics import get_registry


def _shared_analyses(network: Network, instances: List[RoutingInstance]):
    process_graph = build_process_graph(network)
    address_blocks = extract_address_space(network)
    survivability = analyze_survivability(network, instances=instances)
    return process_graph, address_blocks, survivability


def analyze_direct(
    network: Network,
    max_depth: Optional[int] = None,
    instances: Optional[List[RoutingInstance]] = None,
) -> Dict[str, Any]:
    """The reference pipeline: every router's pathway, as the executor runs it."""
    if instances is None:
        instances = compute_instances(network)
    pathways = {
        router: pathway_payload(pathway)
        for router, pathway in route_pathways(
            network, instances=instances, max_depth=max_depth
        ).items()
    }
    process_graph, address_blocks, survivability = _shared_analyses(network, instances)
    return build_analysis_payload(
        network,
        instances=instances,
        process_graph=process_graph,
        pathways=pathways,
        address_blocks=address_blocks,
        survivability=survivability,
    )


def analyze_compressed(
    network: Network,
    max_depth: Optional[int] = None,
    instances: Optional[List[RoutingInstance]] = None,
    plan: Optional[CompressionPlan] = None,
) -> Dict[str, Any]:
    """The compressed pipeline: one pathway per equivalence class.

    Every expanded pathway carries ``expanded_from: <class id>``; the
    top-level ``compression`` block records the plan and the per-class
    membership — everything the normalizer strips before the
    certification diff.
    """
    if instances is None:
        instances = compute_instances(network)
    if plan is None:
        plan = build_compression_plan(network, instances=instances)
    instance_graph = build_instance_graph(network, instances)
    pathways: Dict[str, Dict[str, Any]] = {}
    for cls in plan.classes:
        pathway = route_pathway(
            network,
            cls.representative,
            instances=instances,
            instance_graph=instance_graph,
            max_depth=max_depth,
        )
        class_payload = pathway_payload(pathway)
        for member in cls.members:
            pathways[member] = dict(class_payload, expanded_from=cls.class_id)
    pathways = {router: pathways[router] for router in sorted(pathways)}
    process_graph, address_blocks, survivability = _shared_analyses(network, instances)
    compression = plan.as_dict()
    compression["class_members"] = {
        cls.class_id: {
            "members": list(cls.members),
            "representative": cls.representative,
            "role": cls.role,
            "instance_ids": list(cls.instance_ids),
        }
        for cls in plan.classes
    }
    return build_analysis_payload(
        network,
        instances=instances,
        process_graph=process_graph,
        pathways=pathways,
        address_blocks=address_blocks,
        survivability=survivability,
        compression=compression,
    )


def compressed_stage_runners() -> Dict[str, Callable]:
    """The executor stage-runner table with compression enabled."""
    from repro.exec.executor import STAGE_RUNNERS  # noqa: PLC0415 — keep exec optional

    run_pathways = STAGE_RUNNERS["pathways"]

    def run_pathways_compressed(ctx, params: Dict[str, Any]):
        plan = build_compression_plan(ctx.network, instances=ctx.instances())
        expanded = plan.n_routers - plan.n_classes
        if expanded > 0:
            get_registry().counter("analysis.pathways.expanded").inc(expanded)
        return run_pathways(ctx, params)

    runners = dict(STAGE_RUNNERS)
    runners["pathways"] = run_pathways_compressed
    return runners


__all__ = ["analyze_compressed", "analyze_direct", "compressed_stage_runners"]
