"""The resilient executor: barrier, ladders, checkpoints, chaos."""

import io
import json
import os
from dataclasses import replace

import pytest

from repro.exec import (
    ANALYSIS_STAGES,
    AnalysisExecutor,
    ChaosPlan,
    CheckpointStore,
    ExecutorConfig,
    SimulatedKill,
)
from repro.model import Network
from repro.obs.logging import configure_logging
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.synth.templates.example_fig1 import build_example_networks


@pytest.fixture()
def network():
    configs, _meta = build_example_networks()
    return Network.from_configs(configs, name="fig1")


def _run(network, archive="fig1", **config):
    with use_registry(MetricsRegistry()) as registry:
        executor = AnalysisExecutor(ExecutorConfig(**config))
        execution = executor.run_archive(archive, network)
    return executor, execution, registry


class TestCleanRun:
    def test_every_stage_ok(self, network):
        _executor, execution, registry = _run(network)
        assert [r.stage for r in execution.results] == list(ANALYSIS_STAGES)
        assert execution.status == "ok"
        assert all(r.status == "ok" for r in execution.results)
        assert all(r.attempts == 1 for r in execution.results)
        counters = registry.snapshot()["counters"]
        assert counters["exec.stage.ok"] == len(ANALYSIS_STAGES)

    def test_no_diagnostics_on_a_clean_run(self, network):
        before = network.diagnostics.counts()
        _run(network)
        assert network.diagnostics.counts() == before

    def test_instances_result_counts_instances(self, network):
        _executor, execution, _registry = _run(network)
        assert execution.result("instances").items > 0

    def test_as_dict_shape(self, network):
        _executor, execution, _registry = _run(network)
        data = execution.as_dict()
        assert data["status"] == "ok"
        assert len(data["stages"]) == len(ANALYSIS_STAGES)
        assert all("seconds" in stage for stage in data["stages"])


class TestChaosPaths:
    def test_injected_raise_fails_only_that_stage(self, network):
        _executor, execution, _registry = _run(
            network, chaos=ChaosPlan.from_spec("*:consistency=raise")
        )
        failed = execution.result("consistency")
        assert failed.status == "failed"
        assert "ChaosError" in failed.error
        assert failed.attempts == 1  # deterministic: no ladder retry
        others = [r for r in execution.results if r.stage != "consistency"]
        assert all(r.status == "ok" for r in others)
        assert execution.status == "failed"

    def test_failure_emits_an_error_diagnostic(self, network):
        _run(network, chaos=ChaosPlan.from_spec("*:consistency=raise"))
        assert network.diagnostics.counts()["error"] == 1

    def test_hang_on_every_rung_times_out(self, network):
        _executor, execution, _registry = _run(
            network,
            stage_deadline=0.15,
            chaos=ChaosPlan.from_spec("*:pathways=hang"),
        )
        result = execution.result("pathways")
        assert result.status == "timeout"
        assert result.attempts == 3  # the whole pathways ladder was tried
        assert result.detail == "hard deadline on every rung"
        assert execution.status == "timeout"

    def test_hang_only_on_full_fidelity_degrades(self, network):
        _executor, execution, _registry = _run(
            network,
            stage_deadline=0.15,
            chaos=ChaosPlan.from_spec("*:pathways=hang@0"),
        )
        result = execution.result("pathways")
        assert result.status == "degraded"
        assert result.attempts == 2
        assert result.degradation == "max-depth-8"
        assert result.finished  # degraded results are checkpointable

    def test_simulated_kill_escapes_the_barrier(self, network):
        with pytest.raises(SimulatedKill):
            _run(network, chaos=ChaosPlan.from_spec("*:pathways=kill"))

    def test_archives_not_matching_the_rule_are_untouched(self, network):
        _executor, execution, _registry = _run(
            network, archive="clean", chaos=ChaosPlan.from_spec("other:*=raise")
        )
        assert execution.status == "ok"


class TestSoftDeadline:
    def test_one_warning_per_soft_deadline_event(self, network):
        stream = io.StringIO()
        configure_logging(level="warning", json_mode=True, stream=stream)
        try:
            _executor, execution, registry = _run(
                network,
                soft_deadline=0.05,
                chaos=ChaosPlan.from_spec("fig1:links=hang:0.2"),
            )
        finally:
            configure_logging(level="warning")
        assert execution.result("links").status == "ok"  # soft never cancels
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        warned = [e for e in events if e["event"] == "stage over soft deadline"]
        counted = registry.snapshot()["counters"]["exec.stage.soft_deadline"]
        assert counted >= 1
        assert len(warned) == counted
        assert {e["logger"] for e in warned} == {"repro.exec.watchdog"}


class TestFailFast:
    def test_abort_skips_the_rest(self, network):
        executor, execution, _registry = _run(
            network, fail_fast=True, chaos=ChaosPlan.from_spec("*:links=raise")
        )
        assert executor.aborted
        assert execution.result("links").status == "failed"
        rest = [r for r in execution.results if r.stage != "links"]
        assert all(r.status == "skipped" for r in rest)
        assert all(r.detail == "fail-fast abort" for r in rest)
        assert all(r.attempts == 0 for r in rest)

    def test_degraded_does_not_trip_fail_fast(self, network):
        executor, execution, _registry = _run(
            network,
            fail_fast=True,
            stage_deadline=0.15,
            chaos=ChaosPlan.from_spec("*:pathways=hang@0"),
        )
        assert not executor.aborted
        assert execution.result("pathways").status == "degraded"
        assert execution.result("survivability").status == "ok"


class TestRunDeadline:
    def test_exhausted_budget_skips_everything(self, network):
        _executor, execution, _registry = _run(network, run_deadline=1e-9)
        assert all(r.status == "skipped" for r in execution.results)
        assert all(
            r.detail == "run deadline exhausted" for r in execution.results
        )

    def test_skips_emit_warnings_not_errors(self, network):
        _run(network, run_deadline=1e-9)
        counts = network.diagnostics.counts()
        assert counts["warning"] == len(ANALYSIS_STAGES)
        assert counts["error"] == 0


class TestCheckpointsAndResume:
    def test_clean_run_checkpoints_every_stage(self, network, tmp_path):
        store = CheckpointStore(root=os.fspath(tmp_path))
        _run(network, checkpoints=store)
        assert store.stats.stores == len(ANALYSIS_STAGES)

    def test_resume_replays_finished_stages(self, network, tmp_path):
        store = CheckpointStore(root=os.fspath(tmp_path))
        _run(network, checkpoints=store)
        store2 = CheckpointStore(root=os.fspath(tmp_path))
        _executor, execution, registry = _run(
            network, checkpoints=store2, resume=True
        )
        assert store2.stats.hits == len(ANALYSIS_STAGES)
        assert store2.stats.stores == 0
        assert all(r.from_checkpoint for r in execution.results)
        counters = registry.snapshot()["counters"]
        assert counters["checkpoint.hits"] == len(ANALYSIS_STAGES)

    def test_replayed_result_is_the_fresh_summary(self, network, tmp_path):
        store = CheckpointStore(root=os.fspath(tmp_path))
        _executor, fresh, _registry = _run(network, checkpoints=store)
        store2 = CheckpointStore(root=os.fspath(tmp_path))
        _executor, replayed, _registry = _run(network, checkpoints=store2, resume=True)
        for before, after in zip(fresh.results, replayed.results):
            assert after.from_checkpoint and not before.from_checkpoint
            assert replace(after, from_checkpoint=False).as_dict() == before.as_dict()

    def test_unfinished_stages_are_not_checkpointed(self, network, tmp_path):
        store = CheckpointStore(root=os.fspath(tmp_path))
        _run(
            network,
            checkpoints=store,
            chaos=ChaosPlan.from_spec("*:consistency=raise"),
        )
        assert store.stats.stores == len(ANALYSIS_STAGES) - 1

    def test_kill_mid_run_preserves_earlier_checkpoints(self, network, tmp_path):
        store = CheckpointStore(root=os.fspath(tmp_path))
        with pytest.raises(SimulatedKill):
            _run(
                network,
                checkpoints=store,
                chaos=ChaosPlan.from_spec("*:pathways=kill"),
            )
        # links, process_graph, instances finished before the kill.
        assert store.stats.stores == 3
        store2 = CheckpointStore(root=os.fspath(tmp_path))
        _executor, execution, _registry = _run(
            network, checkpoints=store2, resume=True
        )
        assert execution.status == "ok"
        assert store2.stats.hits == 3
        fresh = [r.stage for r in execution.results if not r.from_checkpoint]
        assert fresh == list(ANALYSIS_STAGES)[3:]

    def test_resume_reexecutes_failed_pairs(self, network, tmp_path):
        store = CheckpointStore(root=os.fspath(tmp_path))
        _run(
            network,
            checkpoints=store,
            chaos=ChaosPlan.from_spec("*:consistency=raise"),
        )
        store2 = CheckpointStore(root=os.fspath(tmp_path))
        _executor, execution, _registry = _run(
            network, checkpoints=store2, resume=True
        )
        assert execution.status == "ok"
        fresh = [r.stage for r in execution.results if not r.from_checkpoint]
        assert fresh == ["consistency"]
        assert store2.stats.stores == 1  # the repaired pair is now saved
