"""Generation runs, the all-stages-finished publish gate, and the
cold-vs-incremental equivalence normalizer."""

import json
import os

import pytest

from repro.exec.chaos import ChaosPlan
from repro.exec.checkpoint import CheckpointStore
from repro.exec.executor import AnalysisExecutor, ExecutorConfig
from repro.ingest.cache import ParseCache
from repro.ingest.snapshot import snapshot_corpus
from repro.model import Network
from repro.serve.generation import (
    GENERATION_SCHEMA,
    build_generation_payload,
    normalize_generation,
    run_generation,
)
from repro.synth.templates.example_fig1 import build_example_networks


@pytest.fixture()
def corpus(tmp_path):
    configs, _meta = build_example_networks()
    root = tmp_path / "corpus"
    root.mkdir()
    for name, text in sorted(configs.items()):
        (root / name).write_text(text)
    return str(root)


def run_once(corpus, *, cache=None, checkpoints=None, chaos=None, resume=False):
    executor = AnalysisExecutor(
        ExecutorConfig(
            resume=resume,
            checkpoints=checkpoints,
            chaos=chaos or ChaosPlan(),
        )
    )
    digest = snapshot_corpus(corpus).digest
    return run_generation(corpus, digest, executor=executor, cache=cache)


class TestRunGeneration:
    def test_complete_generation_payload(self, corpus):
        outcome = run_once(corpus)
        assert outcome.complete
        payload = outcome.payload
        assert payload["schema"] == GENERATION_SCHEMA
        assert payload["corpus_digest"] == outcome.digest
        assert payload["status"] == "ok"
        assert payload["manifest"]["files"] == 6
        assert payload["manifest"]["dispositions"]["parsed"] == 6
        assert len(payload["pathways"]) == payload["manifest"]["routers"]
        assert payload["instances"], "fig1 has routing instances"
        for row in payload["instances"]:
            assert set(row) == {"id", "protocol", "asn", "routers"}
        json.dumps(payload)  # the payload must be JSON-serializable

    def test_crashed_stage_blocks_publish(self, corpus):
        outcome = run_once(corpus, chaos=ChaosPlan.from_spec("*:pathways=raise"))
        assert not outcome.complete
        assert outcome.payload is None
        assert "pathways" in outcome.error
        # Finished stages before the crash are still visible to the caller.
        statuses = {r.stage: r.status for r in outcome.execution.results}
        assert statuses["links"] == "ok"
        assert statuses["pathways"] == "failed"

    def test_degraded_generation_still_publishes(self, corpus):
        # degraded is a *finished* status: clearly-labeled approximations
        # serve; only crashes/hangs/skips block publication.  Attempt 0
        # hangs into the hard deadline; rung 1 (max-depth-8) succeeds.
        executor = AnalysisExecutor(
            ExecutorConfig(
                chaos=ChaosPlan.from_spec("*:pathways=hang@0"),
                stage_deadline=1.0,
            )
        )
        digest = snapshot_corpus(corpus).digest
        outcome = run_generation(corpus, digest, executor=executor)
        assert outcome.complete
        assert outcome.payload["status"] == "degraded"
        statuses = {r.stage: r.status for r in outcome.execution.results}
        assert statuses["pathways"] == "degraded"

    def test_aborted_generation_blocks_publish(self, corpus):
        executor = AnalysisExecutor(ExecutorConfig())
        executor.aborted = True
        digest = snapshot_corpus(corpus).digest
        outcome = run_generation(corpus, digest, executor=executor)
        assert not outcome.complete


class TestEquivalence:
    def canonical(self, payload):
        return json.dumps(normalize_generation(payload), sort_keys=True)

    def test_warm_cache_equals_cold(self, corpus, tmp_path):
        cache = ParseCache(root=str(tmp_path / "cache"))
        cold = run_once(corpus, cache=cache)
        warm = run_once(corpus, cache=cache)
        assert cold.complete and warm.complete
        # Before normalization the runs visibly differ (parse vs replay) ...
        assert cold.payload["manifest"]["dispositions"]["parsed"] == 6
        assert warm.payload["manifest"]["dispositions"]["cached"] == 6
        # ... after normalization they are byte-identical.
        assert self.canonical(cold.payload) == self.canonical(warm.payload)

    def test_checkpoint_resume_equals_cold(self, corpus, tmp_path):
        store = CheckpointStore(root=str(tmp_path / "ckpt"))
        first = run_once(corpus, checkpoints=store, resume=True)
        replayed = run_once(corpus, checkpoints=store, resume=True)
        assert replayed.complete
        assert all(r.from_checkpoint for r in replayed.execution.results)
        assert self.canonical(first.payload) == self.canonical(replayed.payload)

    def test_normalize_collapses_dispositions(self, corpus):
        outcome = run_once(corpus)
        normalized = normalize_generation(outcome.payload)
        dispositions = normalized["manifest"]["dispositions"]
        assert "parsed" not in dispositions
        assert "cached" not in dispositions
        assert dispositions["ingested"] == 6
        assert dispositions["quarantined"] == 0
        for record in normalized["manifest"]["inventory"]:
            assert record["disposition"] in ("ingested", "quarantined")

    def test_normalize_preserves_quarantine(self, corpus):
        with open(os.path.join(corpus, "binaryfile"), "wb") as handle:
            handle.write(b"\x00\x01\x02\xff binary junk")
        outcome = run_once(corpus)
        normalized = normalize_generation(outcome.payload)
        assert normalized["manifest"]["dispositions"]["quarantined"] == 1

    def test_normalize_strips_volatile_fields(self, corpus):
        outcome = run_once(corpus)
        normalized = normalize_generation(outcome.payload)
        assert "diff" not in normalized
        # The corpus path is compared: both generations read one corpus.
        assert normalized["corpus"] == normalized["manifest"]["path"] == corpus
        for stage in normalized["manifest"]["execution"]["stages"]:
            assert "seconds" not in stage
            assert "from_checkpoint" not in stage
        assert normalized["pathways"] == outcome.payload["pathways"]


def test_build_payload_sorts_instances_deterministically(corpus):
    from repro.model import Network

    network = Network.from_directory(corpus, on_error="skip-block")
    executor = AnalysisExecutor(ExecutorConfig())
    execution = executor.run_archive(network.name, network)
    payload = build_generation_payload(
        network, execution, corpus=corpus, digest="d"
    )
    sizes = [row["routers"] for row in payload["instances"]]
    assert sizes == sorted(sizes, reverse=True)


def test_diagnostic_rows_are_the_sink_rows(corpus):
    # Unmodeled stanzas on both sides of a skipped block: the rows built
    # from the records must be the sink's own rows, in its order.
    with open(os.path.join(corpus, "RX"), "w") as handle:
        handle.write(
            "hostname rx\nntp server 10.9.9.9\n!\ninterface Ethernet0\n"
            " ip address 999.0.0.1 255.255.255.0\n!\nline vty 0 4\n login\n"
        )
    network = Network.from_directory(corpus, on_error="skip-block")
    expected = [
        {
            "severity": d.severity,
            "phase": d.phase,
            "message": d.message,
            "file": d.file,
            "router": d.router,
            "line_number": d.line_number,
        }
        for d in network.diagnostics
    ]
    assert any(row["severity"] == "error" for row in expected)
    assert run_once(corpus).payload["diagnostics"] == expected
