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
CI: an incremental generation (warm caches, checkpoint replays) must
normalize **byte-identical** to a cold one-shot run over the same corpus
bytes.  It strips exactly what legitimately differs — wall seconds,
checkpoint provenance, and the ``parsed``-vs-``cached`` disposition
split (both collapse to ``ingested``; which side a file lands on is
cache temperature, not analysis output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exec.executor import AnalysisExecutor, ArchiveExecution
from repro.exec.watchdog import run_with_deadline
from repro.obs.manifest import archive_entry, normalize_execution

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

    ``jobs`` is passed to :meth:`Network.from_directory`, which accepts
    it but no longer changes ingestion.  Exceptions from ingestion
    propagate to the caller (the daemon folds them into its failure
    accounting); stage exceptions are absorbed by the executor barrier
    and surface as unfinished stage statuses.
    """
    from repro.model.network import Network  # noqa: PLC0415 — heavy import

    network = Network.from_directory(
        corpus, name=name, on_error=on_error, jobs=jobs, cache=cache
    )
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
    diagnostics = [
        {
            "severity": diagnostic.severity,
            "phase": diagnostic.phase,
            "message": diagnostic.message,
            "file": diagnostic.file,
            "router": diagnostic.router,
            "line_number": diagnostic.line_number,
        }
        for diagnostic in network.diagnostics
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
    """The deterministic core of a generation payload.

    Two generations over identical corpus bytes MUST normalize
    identically regardless of cache temperature, checkpoint replays,
    daemon restarts, or how many failed attempts preceded them.
    Stripped: wall seconds, ``from_checkpoint`` markers, the edit diff,
    and the ``parsed``/``cached`` disposition split (collapsed to
    ``ingested``); ``quarantined`` is preserved — quarantine is an
    analysis outcome, not cache temperature.
    """
    manifest = payload.get("manifest") or {}
    dispositions = dict(manifest.get("dispositions") or {})
    ingested = dispositions.pop("parsed", 0) + dispositions.pop("cached", 0)
    dispositions["ingested"] = ingested
    inventory = [
        {
            **record,
            "disposition": (
                "ingested"
                if record.get("disposition") in ("parsed", "cached")
                else record.get("disposition")
            ),
        }
        for record in manifest.get("inventory", [])
    ]
    return {
        "schema": payload.get("schema"),
        "corpus_digest": payload.get("corpus_digest"),
        "name": payload.get("name"),
        "status": payload.get("status"),
        "manifest": {
            "name": manifest.get("name"),
            "routers": manifest.get("routers"),
            "files": manifest.get("files"),
            "dispositions": {
                key: dispositions[key] for key in sorted(dispositions)
            },
            "diagnostics": manifest.get("diagnostics"),
            "exit_code": manifest.get("exit_code"),
            "inventory": inventory,
            "execution": normalize_execution(manifest.get("execution")),
        },
        "instances": payload.get("instances"),
        "pathways": payload.get("pathways"),
        "diagnostics": payload.get("diagnostics"),
    }


__all__ = [
    "GENERATION_SCHEMA",
    "GenerationOutcome",
    "build_generation_payload",
    "normalize_generation",
    "run_generation",
]
