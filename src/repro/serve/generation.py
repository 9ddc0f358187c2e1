"""One analysis generation: ingest + execute + payload, or nothing.

A **generation** is one complete pass over one stable corpus snapshot:
lenient ingestion (through the shared :class:`~repro.ingest.cache
.ParseCache`, so unchanged files replay instead of re-parsing) followed
by every analysis stage under the :class:`~repro.exec.executor
.AnalysisExecutor` barrier (deadlines, retry-with-degradation,
checkpoints), followed by the query payload the HTTP surface serves.

The publish rule is all-or-nothing: a generation is *complete* iff every
stage finished (``ok`` or ``degraded`` — degraded results are clearly
labeled, not hidden).  A crashed, hung, or skipped stage makes the whole
generation incomplete and nothing of it is published — the daemon keeps
serving the previous generation.  Whatever checkpoints the incomplete
attempt wrote are not wasted: the next attempt resumes from them.

:func:`normalize_generation` is the equivalence gate used in tests and
perfbench: an incremental generation (warm caches, checkpoint replays)
must normalize **byte-identical** to a cold one-shot run over the same
corpus bytes.  It folds the ``parsed``-vs-``cached`` disposition split
into ``ingested`` (which side a file lands on is cache temperature, not
analysis output) and then applies the one run-equivalence rule,
:func:`repro.obs.manifest.normalize_run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exec.executor import AnalysisExecutor, ArchiveExecution
from repro.exec.watchdog import run_with_deadline
from repro.ingest.parse import check_jobs
from repro.obs.manifest import (
    DISPOSITION_CACHED,
    DISPOSITION_PARSED,
    archive_entry,
    normalize_run,
)

GENERATION_SCHEMA = "repro-serve-generation/1"


@dataclass
class GenerationOutcome:
    """What one generation attempt produced.

    ``payload`` is ``None`` unless the generation completed — the
    caller publishes it or nothing.
    """

    digest: str
    execution: Optional[ArchiveExecution] = None
    payload: Optional[Dict[str, Any]] = None
    error: str = ""

    @property
    def complete(self) -> bool:
        return self.payload is not None


def run_generation(
    corpus: str,
    digest: str,
    *,
    executor: AnalysisExecutor,
    name: Optional[str] = None,
    on_error: str = "skip-block",
    jobs: Optional[int] = None,
    cache: Any = None,
    diff: Optional[Dict[str, Any]] = None,
) -> GenerationOutcome:
    """Run one full generation over ``corpus``; see the module docstring.

    ``jobs`` is accepted (a negative value raises :class:`ValueError`)
    but no longer changes ingestion.  Exceptions from ingestion
    propagate to the caller (the daemon folds them into its failure
    accounting); stage exceptions are absorbed by the executor barrier
    and surface as unfinished stage statuses.
    """
    from repro.model.network import Network  # noqa: PLC0415 — heavy import

    check_jobs(jobs)
    network = Network.from_directory(corpus, name=name, on_error=on_error, cache=cache)
    execution = executor.run_archive(network.name, network)
    unfinished = [r.stage for r in execution.results if not r.finished]
    if unfinished or not execution.results or executor.aborted:
        reason = (
            "generation aborted"
            if executor.aborted and not unfinished
            else f"unfinished stages: {', '.join(unfinished)}"
        )
        return GenerationOutcome(digest=digest, execution=execution, error=reason)
    # Checkpoint-replayed stages carry no in-memory value, so the payload
    # recomputes its summaries directly — under the same hard deadline as
    # a stage attempt, because a payload build that can hang would be a
    # hole in the barrier.
    outcome = run_with_deadline(
        lambda: build_generation_payload(
            network, execution, corpus=corpus, digest=digest, diff=diff
        ),
        name=f"{network.name}:payload",
        hard_deadline=executor.config.stage_deadline,
        soft_deadline=None,
        on_soft=None,
    )
    if outcome.error is not None:
        if not isinstance(outcome.error, Exception):
            raise outcome.error
        return GenerationOutcome(
            digest=digest,
            execution=execution,
            error=f"payload build failed: {outcome.error}",
        )
    if outcome.timed_out:
        return GenerationOutcome(
            digest=digest, execution=execution, error="payload build timed out"
        )
    return GenerationOutcome(
        digest=digest, execution=execution, payload=outcome.value
    )


def build_generation_payload(
    network: Any,
    execution: ArchiveExecution,
    *,
    corpus: str,
    digest: str,
    diff: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The JSON document a complete generation serves."""
    from repro.core.instances import compute_instances
    from repro.core.pathways import route_pathways

    instances = compute_instances(network)
    instance_rows = [
        {
            "id": instance.instance_id,
            "protocol": instance.protocol,
            "asn": instance.asn,
            "routers": instance.size,
        }
        for instance in sorted(
            instances, key=lambda i: (-i.size, i.instance_id)
        )
    ]
    pathways = {
        router: {
            "external_depth": pathway.external_depth(),
            "layers": len(pathway.layers),
            "truncated": pathway.truncated,
        }
        for router, pathway in route_pathways(network, instances=instances).items()
    }
    # From the rows' fields: no Diagnostic is built per unmodeled stanza.
    diagnostics = [
        {
            "severity": severity,
            "phase": phase,
            "message": message,
            "file": file,
            "router": router,
            "line_number": line_number,
        }
        for severity, phase, message, file, router, line_number, _line in (
            network.diagnostics.rows()
        )
    ]
    return {
        "schema": GENERATION_SCHEMA,
        "corpus": corpus,
        "corpus_digest": digest,
        "name": network.name,
        "status": execution.status,
        "manifest": archive_entry(network, path=corpus, execution=execution),
        "instances": instance_rows,
        "pathways": pathways,
        "diagnostics": diagnostics,
        "diff": diff,
    }


def normalize_generation(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A generation payload under the run-equivalence rule.

    Two generations over identical corpus bytes MUST normalize
    identically regardless of cache temperature, checkpoint replays,
    daemon restarts, or how many failed attempts preceded them.  Serve
    is the one gate that compares runs at different cache temperatures,
    so the ``parsed``/``cached`` disposition split is first folded into
    ``ingested`` (``quarantined`` is kept: quarantine is an analysis
    outcome, not cache temperature); then :func:`normalize_run` drops
    the volatile keys.  ``pathways`` is keyed by router name, so it is
    copied around the key filter.
    """
    fold = (DISPOSITION_PARSED, DISPOSITION_CACHED)
    manifest = payload["manifest"]
    dispositions = dict(manifest["dispositions"])
    dispositions["ingested"] = sum(dispositions.pop(key) for key in fold)
    inventory = [
        {**record, "disposition": "ingested"} if record["disposition"] in fold else record
        for record in manifest["inventory"]
    ]
    folded = {**manifest, "dispositions": dispositions, "inventory": inventory}
    normalized = normalize_run({**payload, "manifest": folded, "pathways": None})
    normalized["pathways"] = payload["pathways"]
    return normalized


__all__ = [
    "GENERATION_SCHEMA",
    "GenerationOutcome",
    "build_generation_payload",
    "normalize_generation",
    "run_generation",
]
