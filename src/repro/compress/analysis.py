"""The compressed pipeline and its certification against direct analysis.

``analyze_compressed`` computes one pathway per equivalence class
representative, hands it to every member and builds the
:func:`~repro.compress.payload.analysis_payload` from those pathways,
with ``expanded_from`` provenance on every pathway and the plan in a
top-level ``compression`` block.  ``certify_compression`` compares it
with the direct payload, whose pathways
:func:`~repro.core.pathways.route_pathways` fans out by attachment
signature: two independent ways of giving routers their pathways.

``compressed_stage_runners`` is the executor table ``--compress``
selects: its ``pathways`` runner builds the plan, counts the routers
the plan folds away under ``analysis.pathways.expanded`` and then runs
the direct runner, so ``--compress`` output and pathway work equal
``--no-compress``; the plan is the only addition.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Optional

from repro.compress.payload import Certificate, analysis_payload, certify
from repro.compress.plan import CompressionPlan, build_compression_plan
from repro.core.pathways import RoutePathway, feeder_table, route_pathway
from repro.model.network import Network
from repro.obs.metrics import get_registry


def analyze_compressed(
    network: Network,
    max_depth: Optional[int] = None,
    plan: Optional[CompressionPlan] = None,
) -> Dict[str, Any]:
    """The compressed pipeline: one pathway per equivalence class.

    Every expanded pathway carries ``expanded_from: <class id>``; the
    top-level ``compression`` block records the plan and the per-class
    membership — the provenance
    :func:`~repro.compress.payload.canonicalize` drops.
    """
    if plan is None:
        plan = build_compression_plan(network)
    feeders = feeder_table(network)
    pathways: Dict[str, RoutePathway] = {}
    for cls in plan.classes:
        pathway = route_pathway(
            network, cls.representative, max_depth=max_depth, feeders=feeders
        )
        for member in cls.members:
            pathways[member] = replace(pathway, router=member)
    payload = analysis_payload(network, pathways=pathways)
    for router, entry in payload["pathways"].items():
        entry["expanded_from"] = plan.router_class[router]
    payload["compression"] = plan.as_dict()
    payload["compression"]["class_members"] = {
        cls.class_id: {
            "members": list(cls.members),
            "representative": cls.representative,
            "role": cls.role,
            "instance_ids": list(cls.instance_ids),
        }
        for cls in plan.classes
    }
    return payload


def certify_compression(
    network: Network,
    max_depth: Optional[int] = None,
    plan: Optional[CompressionPlan] = None,
) -> Certificate:
    """Prove (or refute) that plan-then-expand equals direct analysis."""
    return certify(
        analysis_payload(network, max_depth=max_depth),
        analyze_compressed(network, max_depth=max_depth, plan=plan),
    )


def compressed_stage_runners() -> Dict[str, Callable]:
    """The executor stage-runner table with compression enabled."""
    from repro.exec.executor import STAGE_RUNNERS  # noqa: PLC0415 — keep exec optional

    run_pathways = STAGE_RUNNERS["pathways"]

    def run_pathways_compressed(network: Network, params: Dict[str, Any]):
        plan = build_compression_plan(network)
        expanded = plan.n_routers - plan.n_classes
        if expanded > 0:
            get_registry().counter("analysis.pathways.expanded").inc(expanded)
        return run_pathways(network, params)

    runners = dict(STAGE_RUNNERS)
    runners["pathways"] = run_pathways_compressed
    return runners


__all__ = ["analyze_compressed", "certify_compression", "compressed_stage_runners"]
