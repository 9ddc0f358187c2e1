"""Routing instances as network structure: ``Network.instances``.

The flood fill runs once per network and every analysis reads its
cached result; a degraded instances stage never replaces it; and the
model layer derives it without importing ``repro.core``.
"""

import ast
import json
import os
from pathlib import Path

import repro
from repro.cli import main
from repro.compress.payload import analysis_payload
from repro.core import (
    ReachabilityAnalysis,
    analyze_survivability,
    classify_design,
    classify_roles,
    route_pathways,
)
from repro.exec import AnalysisExecutor, ChaosPlan, ExecutorConfig
from repro.exec.executor import DEFAULT_LADDERS, Rung
from repro.ingest.snapshot import snapshot_corpus
from repro.model import Network
from repro.model.instances import compute_instances
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve.generation import run_generation
from repro.share.certify import analysis_summary
from repro.sweep import SweepConfig, run_network_sweep
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.example_fig1 import build_example_networks


def _fig1() -> Network:
    configs, _meta = build_example_networks()
    return Network.from_configs(configs, name="fig1")


def _write(root, configs) -> str:
    os.makedirs(root, exist_ok=True)
    for name, text in sorted(configs.items()):
        with open(os.path.join(root, name), "w") as handle:
            handle.write(text)
    return os.fspath(root)


def _flood_fills(run) -> int:
    """How many flood fills ``run()`` performs."""
    with use_registry(MetricsRegistry()) as registry:
        run()
    return registry.snapshot()["counters"].get("analysis.instances.calls", 0)


class TestCachedOnTheNetwork:
    def test_every_analysis_reads_one_flood_fill(self):
        network = _fig1()

        def analyses():
            classify_design(network)
            classify_roles(network)
            route_pathways(network)
            analyze_survivability(network)
            ReachabilityAnalysis(network).routes
            analysis_payload(network)

        assert _flood_fills(analyses) == 1
        assert network.instances is network.instances

    def test_equals_a_direct_flood_fill(self):
        assert _fig1().instances == compute_instances(_fig1())


class TestOneFloodFillPerNetwork:
    def test_serve_generation(self, tmp_path):
        corpus = _write(tmp_path / "fig1", build_example_networks()[0])
        digest = snapshot_corpus(corpus).digest

        def generation():
            outcome = run_generation(corpus, digest, executor=AnalysisExecutor())
            assert outcome.complete, outcome.error

        assert _flood_fills(generation) == 1

    def test_sweep(self):
        network = _fig1()
        config = SweepConfig(max_scenarios=4, jobs=1)
        assert _flood_fills(lambda: run_network_sweep(network, "fig1", config=config)) == 1

    def test_share_analysis_summary(self):
        assert _flood_fills(lambda: analysis_summary(_fig1(), archive="fig1")) == 1

    def test_corpus_run_report_counts_one_per_archive(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        _write(root / "net1", build_example_networks()[0])
        _write(root / "net2", build_enterprise("net2", 1, 8, seed=3)[0])
        report = tmp_path / "run.json"
        code = main(
            [
                "corpus",
                os.fspath(root),
                "--no-cache",
                "--no-checkpoint",
                "--run-report",
                os.fspath(report),
            ]
        )
        capsys.readouterr()
        assert code == 0
        with open(report) as handle:
            counters = json.load(handle)["metrics"]["counters"]
        assert counters["analysis.instances.calls"] == 2


class TestDegradedStageNeverReplacesTheCache:
    def test_downstream_stages_read_full_fidelity_instances(self, monkeypatch):
        # A rung that really truncates fig1, so a degraded list that
        # leaked into the cache would show in every later stage.
        monkeypatch.setitem(
            DEFAULT_LADDERS,
            "instances",
            (Rung("full"), Rung("max-processes-2", {"max_processes": 2})),
        )
        network = _fig1()
        config = ExecutorConfig(
            stage_deadline=1.0, chaos=ChaosPlan.from_spec("*:instances=hang@0")
        )
        with use_registry(MetricsRegistry()):
            degraded = AnalysisExecutor(config).run_archive("fig1", network)
            clean = AnalysisExecutor().run_archive("fig1", _fig1())

        instances = degraded.result("instances")
        assert instances.status == "degraded"
        assert instances.items < clean.result("instances").items
        assert network.instances == _fig1().instances
        for stage in ("pathways", "reachability", "survivability"):
            assert degraded.result(stage).status == "ok", stage
            assert degraded.result(stage).items == clean.result(stage).items, stage


def test_model_never_imports_core():
    """Layering: ``repro.model`` derives instances without ``repro.core``."""
    offenders = []
    for path in sorted((Path(repro.__file__).parent / "model").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            offenders.extend(
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module == "repro.core" or module.startswith("repro.core.")
            )
    assert offenders == []
