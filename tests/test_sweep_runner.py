"""Sweep runner semantics: determinism, barriers, deadlines, resume."""

import hashlib
import json
import random

import pytest

from repro.exec.chaos import ChaosPlan, SimulatedKill
from repro.exec.checkpoint import CheckpointStore
from repro.obs.manifest import FileRecord, normalize_run
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sweep import (
    SCENARIO_STAGE_PREFIX,
    SweepConfig,
    enumerate_scenarios,
    run_network_sweep,
)
from repro.sweep.runner import MAX_AUTO_JOBS, PARALLEL_THRESHOLD, resolve_jobs


@pytest.fixture(autouse=True)
def _registry():
    with use_registry(MetricsRegistry()):
        yield


def _inventory(network):
    inventory = getattr(network, "inventory", None)
    if inventory:
        return list(inventory)
    return [
        FileRecord(
            path=name,
            size=1,
            sha256=hashlib.sha256(name.encode()).hexdigest(),
            disposition="parsed",
        )
        for name in sorted(network.routers)
    ]


def normalized(result):
    """The jobs-/order-/resume-invariant view of a sweep result."""
    return json.dumps(normalize_run(result.as_dict()), sort_keys=True)


class TestBasicSweep:
    def test_all_scenarios_produce_rows(self, fig1):
        network, _meta = fig1
        result = run_network_sweep(network, "fig1")
        plan = enumerate_scenarios(network)
        assert len(result.rows) == len(plan.scenarios)
        assert {row["scenario"] for row in result.rows} == {
            s.scenario_id for s in plan.scenarios
        }
        assert result.worst_status == "ok"

    def test_rows_ranked_most_damaging_first(self, fig1):
        network, _meta = fig1
        result = run_network_sweep(network, "fig1")
        losses = [row["delta"]["lost_pairs"] for row in result.rows]
        assert losses == sorted(losses, reverse=True)

    def test_failing_a_router_loses_reachability(self, fig1):
        network, _meta = fig1
        result = run_network_sweep(network, "fig1")
        router_rows = [row for row in result.rows if row["kind"] == "router"]
        assert any(row["delta"]["lost_pairs"] > 0 for row in router_rows)


class TestResolveJobs:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1, 10)

    def test_zero_items_is_serial(self):
        assert resolve_jobs(8, 0) == 1
        assert resolve_jobs(None, 0) == 1

    def test_auto_stays_serial_below_threshold(self):
        assert resolve_jobs(None, PARALLEL_THRESHOLD - 1) == 1
        assert resolve_jobs(0, PARALLEL_THRESHOLD - 1) == 1

    def test_auto_parallelizes_large_batches(self):
        jobs = resolve_jobs(None, 10_000)
        assert 1 <= jobs <= MAX_AUTO_JOBS

    @pytest.mark.usefixtures("four_cpus")
    def test_explicit_request_capped_by_items(self):
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(2, 100) == 2
        assert resolve_jobs(1, 100) == 1

    def test_explicit_jobs_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr("repro.sweep.runner.available_cpus", lambda: 2)
        assert resolve_jobs(8, 100) == 2
        assert resolve_jobs(None, 100) == 2


class TestWorkers:
    def test_one_cpu_runs_jobs_4_serially(self, fig1, monkeypatch):
        monkeypatch.setattr("repro.sweep.runner.available_cpus", lambda: 1)
        network, _meta = fig1
        result = run_network_sweep(network, "fig1", config=SweepConfig(jobs=4))
        assert result.workers == 1


@pytest.mark.usefixtures("four_cpus")
class TestDeterminism:
    def test_jobs_value_never_changes_results(self, fig1):
        network, _meta = fig1
        serial = run_network_sweep(network, "fig1", config=SweepConfig(jobs=1))
        parallel = run_network_sweep(network, "fig1", config=SweepConfig(jobs=4))
        assert normalized(serial) == normalized(parallel)

    def test_scenario_order_never_changes_results(self, fig1):
        network, _meta = fig1
        reference = run_network_sweep(network, "fig1", config=SweepConfig(jobs=2))
        plan = enumerate_scenarios(network)
        random.Random(11).shuffle(plan.scenarios)
        permuted = run_network_sweep(
            network, "fig1", config=SweepConfig(jobs=2), plan=plan
        )
        assert normalized(reference) == normalized(permuted)


class TestScenarioBarriers:
    def test_chaos_raise_becomes_failed_row(self, fig1):
        network, _meta = fig1
        victim = enumerate_scenarios(network).scenarios[0].scenario_id
        chaos = ChaosPlan.from_spec(f"fig1:{victim}=raise")
        result = run_network_sweep(network, "fig1", config=SweepConfig(chaos=chaos))
        by_id = {row["scenario"]: row for row in result.rows}
        assert by_id[victim]["status"] == "failed"
        assert "ChaosError" in by_id[victim]["error"]
        # The rest of the sweep survived the crash.
        assert sum(1 for row in result.rows if row["status"] == "ok") == (
            len(result.rows) - 1
        )
        assert result.worst_status == "failed"

    def test_hang_becomes_timeout_row_under_deadline(self, fig1):
        network, _meta = fig1
        victim = enumerate_scenarios(network).scenarios[0].scenario_id
        chaos = ChaosPlan.from_spec(f"fig1:{victim}=hang")
        result = run_network_sweep(
            network,
            "fig1",
            config=SweepConfig(chaos=chaos, scenario_deadline=0.3),
        )
        by_id = {row["scenario"]: row for row in result.rows}
        assert by_id[victim]["status"] == "timeout"
        assert result.worst_status == "timeout"

    @pytest.mark.usefixtures("four_cpus")
    def test_parallel_chaos_still_isolated_per_scenario(self, fig1):
        network, _meta = fig1
        victim = enumerate_scenarios(network).scenarios[0].scenario_id
        chaos = ChaosPlan.from_spec(f"fig1:{victim}=raise")
        result = run_network_sweep(
            network, "fig1", config=SweepConfig(jobs=3, chaos=chaos)
        )
        by_id = {row["scenario"]: row for row in result.rows}
        assert by_id[victim]["status"] == "failed"
        assert sum(1 for row in result.rows if row["status"] == "ok") == (
            len(result.rows) - 1
        )

    def test_kill_propagates_out_of_the_sweep(self, fig1):
        network, _meta = fig1
        victim = enumerate_scenarios(network).scenarios[-1].scenario_id
        chaos = ChaosPlan.from_spec(f"fig1:{victim}=kill")
        with pytest.raises(SimulatedKill):
            run_network_sweep(network, "fig1", config=SweepConfig(chaos=chaos))


class TestFailFast:
    def test_scenarios_after_the_trigger_are_skipped(self, fig1):
        network, _meta = fig1
        plan = enumerate_scenarios(network)
        victim_index = 2
        victim = plan.scenarios[victim_index].scenario_id
        chaos = ChaosPlan.from_spec(f"fig1:{victim}=raise")
        result = run_network_sweep(
            network, "fig1", config=SweepConfig(chaos=chaos, fail_fast=True)
        )
        assert result.stopped_after == victim
        counts = result.status_counts
        assert counts["failed"] == 1
        assert counts["skipped"] == len(plan.scenarios) - victim_index - 1
        assert counts.get("ok", 0) == victim_index

    @pytest.mark.usefixtures("four_cpus")
    def test_fail_fast_is_jobs_invariant(self, fig1):
        network, _meta = fig1
        victim = enumerate_scenarios(network).scenarios[3].scenario_id
        chaos = ChaosPlan.from_spec(f"fig1:{victim}=raise")
        serial = run_network_sweep(
            network, "fig1", config=SweepConfig(jobs=1, chaos=chaos, fail_fast=True)
        )
        parallel = run_network_sweep(
            network, "fig1", config=SweepConfig(jobs=4, chaos=chaos, fail_fast=True)
        )
        assert normalized(serial) == normalized(parallel)


class TestCheckpointResume:
    def test_kill_then_resume_matches_uninterrupted(self, fig1, tmp_path):
        network, _meta = fig1
        inventory = _inventory(network)
        uninterrupted = run_network_sweep(network, "fig1", inventory=inventory)

        store = CheckpointStore(root=str(tmp_path / "ckpt"))
        victim = enumerate_scenarios(network).scenarios[-2].scenario_id
        chaos = ChaosPlan.from_spec(f"fig1:{victim}=kill")
        with pytest.raises(SimulatedKill):
            run_network_sweep(
                network,
                "fig1",
                inventory=inventory,
                config=SweepConfig(chaos=chaos, checkpoints=store),
            )
        stored_before_kill = store.stats.stores
        assert stored_before_kill > 0  # progress survived the kill

        resumed = run_network_sweep(
            network,
            "fig1",
            inventory=inventory,
            config=SweepConfig(checkpoints=store, resume=True),
        )
        assert resumed.replayed == stored_before_kill
        assert any(row.get("from_checkpoint") for row in resumed.rows)
        assert normalized(resumed) == normalized(uninterrupted)

    def test_resume_replays_nothing_without_checkpoints(self, fig1, tmp_path):
        network, _meta = fig1
        store = CheckpointStore(root=str(tmp_path / "empty"))
        result = run_network_sweep(
            network,
            "fig1",
            inventory=_inventory(network),
            config=SweepConfig(checkpoints=store, resume=True),
        )
        assert result.replayed == 0
        assert result.worst_status == "ok"

    def test_unfinished_rows_are_not_checkpointed(self, fig1, tmp_path):
        network, _meta = fig1
        store = CheckpointStore(root=str(tmp_path / "ckpt"))
        victim = enumerate_scenarios(network).scenarios[0].scenario_id
        chaos = ChaosPlan.from_spec(f"fig1:{victim}=raise")
        run_network_sweep(
            network,
            "fig1",
            inventory=_inventory(network),
            config=SweepConfig(chaos=chaos, checkpoints=store),
        )
        assert not any(
            f"{SCENARIO_STAGE_PREFIX}{victim}.json" in path
            for path in store.disk.entries()
        )
        # A resumed run re-executes the failed scenario, clean this time.
        resumed = run_network_sweep(
            network,
            "fig1",
            inventory=_inventory(network),
            config=SweepConfig(checkpoints=store, resume=True),
        )
        by_id = {row["scenario"]: row for row in resumed.rows}
        assert by_id[victim]["status"] == "ok"
        assert not by_id[victim].get("from_checkpoint")


class TestDivergenceRow:
    def test_diverging_scenario_degrades_instead_of_raising(self, fig1):
        network, _meta = fig1
        # max_iterations=1 guarantees the fixpoint is not reached; every
        # scenario must degrade to a diagnostic row, never raise.
        result = run_network_sweep(
            network, "fig1", config=SweepConfig(max_iterations=1)
        )
        assert result.rows
        for row in result.rows:
            assert row["status"] == "degraded"
            assert row["degradation"] == "diverged"
            assert row["delta"]["converged"] is False
        assert result.worst_status == "degraded"
