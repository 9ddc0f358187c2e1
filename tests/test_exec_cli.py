"""CLI-level resilience: exit-code contract, chaos runs, checkpoint resume."""

import gc
import json
import os
import weakref

import pytest

from repro.cli import main
from repro.exec import ANALYSIS_STAGES, CHAOS_ENV
from repro.exec.budget import BENCH_RESULTS_ENV, SAFETY_FACTOR
from repro.model import Network
from repro.synth.templates.example_fig1 import build_example_networks


def _write_corpus(root, archives):
    configs, _meta = build_example_networks()
    for archive in archives:
        d = root / archive
        d.mkdir(parents=True)
        for name, text in configs.items():
            # Distinct bytes per archive: identical archives would share
            # one content-addressed digest (and thus one checkpoint set).
            (d / name).write_text(f"! {archive}\n{text}")
    return os.fspath(root)


@pytest.fixture()
def corpus_dir(tmp_path):
    return _write_corpus(tmp_path / "corpus", ("alpha", "beta"))


@pytest.fixture()
def checkpoints(tmp_path):
    return os.fspath(tmp_path / "checkpoints")


def _corpus(corpus_dir, checkpoints, *flags):
    return [
        "corpus",
        "--no-cache",
        "--json",
        "--checkpoint-dir",
        checkpoints,
        *flags,
        corpus_dir,
    ]


class TestChaosAcceptance:
    """ISSUE acceptance: a corpus with a hanging stage and a raising stage
    completes with exit code 3, the payload names both, and ``--resume``
    re-executes exactly the unfinished pairs."""

    def test_hang_and_raise_then_resume(
        self, corpus_dir, checkpoints, capsys, monkeypatch
    ):
        monkeypatch.setenv(
            CHAOS_ENV, "alpha:pathways=hang;beta:consistency=raise"
        )
        code = main(
            _corpus(corpus_dir, checkpoints, "--stage-deadline", "0.3")
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["totals"]["stages"]["timeout"] == 1
        assert payload["totals"]["stages"]["failed"] == 1
        assert payload["totals"]["stages"]["ok"] == 2 * len(ANALYSIS_STAGES) - 2
        alpha, beta = payload["archives"]
        assert alpha["status"] == "timeout"
        assert beta["status"] == "failed"
        by_stage = {s["stage"]: s for s in alpha["execution"]["stages"]}
        assert by_stage["pathways"]["status"] == "timeout"
        by_stage = {s["stage"]: s for s in beta["execution"]["stages"]}
        assert by_stage["consistency"]["status"] == "failed"
        assert "ChaosError" in by_stage["consistency"]["error"]
        # Other stages carried on and left partial results behind.
        assert by_stage["reachability"]["status"] == "ok"

        monkeypatch.delenv(CHAOS_ENV)
        code = main(_corpus(corpus_dir, checkpoints, "--resume"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["totals"]["stages"] == {"ok": 2 * len(ANALYSIS_STAGES)}
        # The checkpoint counters prove only the unfinished pairs re-ran.
        stats = payload["execution"]["checkpoints"]
        assert stats["hits"] == 2 * len(ANALYSIS_STAGES) - 2
        assert stats["misses"] == 2
        assert stats["stores"] == 2
        fresh = [
            (entry["archive"], stage["stage"])
            for entry in payload["archives"]
            for stage in entry["execution"]["stages"]
            if not stage.get("from_checkpoint")
        ]
        assert fresh == [("alpha", "pathways"), ("beta", "consistency")]

    def test_exit_code_table_in_docstring_order(self, corpus_dir, checkpoints, capsys):
        # 0: clean.
        assert main(_corpus(corpus_dir, checkpoints)) == 0
        capsys.readouterr()

    def test_table_mode_prints_incidents(
        self, corpus_dir, checkpoints, capsys, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "beta:consistency=raise")
        code = main(
            [
                "corpus",
                "--no-cache",
                "--checkpoint-dir",
                checkpoints,
                corpus_dir,
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "stage incidents:" in out
        assert "beta: stage consistency failed" in out
        assert "status" in out


class TestFailFast:
    def test_aborts_after_the_first_broken_archive(
        self, corpus_dir, checkpoints, capsys, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "alpha:links=raise")
        code = main(_corpus(corpus_dir, checkpoints, "--fail-fast"))
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 3
        assert "aborted by --fail-fast" in captured.err
        # Every archive is accounted for: the broken one as failed, the
        # never-started one as skipped (it must not vanish from the
        # report just because the run aborted before reaching it).
        assert [e["archive"] for e in payload["archives"]] == ["alpha", "beta"]
        statuses = [
            s["status"] for s in payload["archives"][0]["execution"]["stages"]
        ]
        assert statuses[0] == "failed"
        assert set(statuses[1:]) == {"skipped"}
        beta = payload["archives"][1]
        assert beta["status"] == "skipped"
        assert beta["routers"] == beta["files"] == 0
        assert {
            s["status"] for s in beta["execution"]["stages"]
        } == {"skipped"}
        totals = payload["totals"]
        assert totals["archives"] == 2
        assert totals["archives_skipped"] == 1
        assert totals["stages"]["skipped"] >= len(beta["execution"]["stages"])


class TestFlagValidation:
    def test_resume_requires_checkpoints(self, corpus_dir, checkpoints):
        with pytest.raises(SystemExit):
            main(_corpus(corpus_dir, checkpoints, "--resume", "--no-checkpoint"))

    @pytest.mark.parametrize("value", ["junk", "0", "-5"])
    def test_bad_stage_deadline_rejected(self, corpus_dir, checkpoints, value):
        with pytest.raises(SystemExit):
            main(_corpus(corpus_dir, checkpoints, "--stage-deadline", value))


class TestAutoDeadline:
    def test_auto_derives_from_benchmark_results(
        self, corpus_dir, checkpoints, tmp_path, capsys, monkeypatch
    ):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"stages": [{"seconds": 2.0}]}))
        monkeypatch.setenv(BENCH_RESULTS_ENV, os.fspath(bench))
        code = main(_corpus(corpus_dir, checkpoints, "--stage-deadline", "auto"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        execution = payload["execution"]
        assert execution["stage_deadline"] == 2.0 * SAFETY_FACTOR
        assert execution["stage_deadline_source"]["source"] == "benchmarks"

    def test_auto_fallback_when_no_benchmarks(
        self, corpus_dir, checkpoints, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(
            BENCH_RESULTS_ENV, os.fspath(tmp_path / "absent.json")
        )
        code = main(_corpus(corpus_dir, checkpoints, "--stage-deadline", "auto"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["execution"]["stage_deadline_source"]["source"] == "fallback"


class TestRunManifest:
    def test_manifest_records_execution_and_budget(
        self, corpus_dir, checkpoints, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "beta:consistency=raise")
        report = tmp_path / "report.json"
        code = main(
            _corpus(
                corpus_dir,
                checkpoints,
                "--stage-deadline",
                "30",
                "--run-report",
                os.fspath(report),
            )
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        manifest = json.loads(report.read_text())
        assert manifest["exit_code"] == 3
        # Each archive's manifest entry is taken against that archive:
        # alpha is clean and beta carries the failed stage's error.
        names = [entry["archive"] for entry in payload["archives"]]
        assert [entry["name"] for entry in manifest["archives"]] == names
        keys = ("routers", "files", "exit_code", "execution")
        for entry, printed in zip(manifest["archives"], payload["archives"]):
            assert {key: entry[key] for key in keys} == {key: printed[key] for key in keys}
        assert [entry["exit_code"] for entry in manifest["archives"]] == [0, 2]
        assert manifest["totals"]["stages"]["failed"] == 1
        assert (
            manifest["totals"]["stages"]["ok"] == 2 * len(ANALYSIS_STAGES) - 1
        )
        # Satellite: the chosen budget is recorded in the manifest.
        execution_env = manifest["environment"]["execution"]
        assert execution_env["stage_deadline"] == 30.0
        assert execution_env["stage_deadline_source"] == {"source": "cli"}
        assert execution_env["checkpoints"]["stores"] == 2 * len(ANALYSIS_STAGES) - 1
        beta = manifest["archives"][1]
        by_stage = {s["stage"]: s for s in beta["execution"]["stages"]}
        assert by_stage["consistency"]["status"] == "failed"
        counters = manifest["metrics"]["counters"]
        assert counters["exec.stage.failed"] == 1

    def test_json_and_manifest_share_one_execution_block(
        self, corpus_dir, checkpoints, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        flags = ("--stage-deadline", "30", "--run-report", os.fspath(report))
        assert main(_corpus(corpus_dir, checkpoints, *flags)) == 0
        payload = json.loads(capsys.readouterr().out)
        manifest = json.loads(report.read_text())
        assert payload["execution"] == manifest["environment"]["execution"]
        assert payload["execution"]["stage_deadline_source"] == {"source": "cli"}


class TestOneArchiveAtATime:
    """``repro corpus`` and ``repro sweep`` account for each archive when
    its work ends: when the next archive loads, no earlier one is alive."""

    @pytest.fixture()
    def three_archives(self, tmp_path):
        return _write_corpus(tmp_path / "three", ("alpha", "beta", "gamma"))

    @staticmethod
    def _alive_at_each_load(monkeypatch, argv):
        loaded = []
        alive = []
        from_directory = Network.from_directory.__func__

        def tracked(cls, *args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in loaded))
            network = from_directory(cls, *args, **kwargs)
            loaded.append(weakref.ref(network))
            return network

        monkeypatch.setattr(Network, "from_directory", classmethod(tracked))
        main(argv)
        return alive

    @pytest.mark.parametrize("command", ["corpus", "sweep"])
    def test_holds_one_archive_at_a_time(
        self, command, three_archives, tmp_path, capsys, monkeypatch
    ):
        report = tmp_path / "report.json"
        argv = [command, "--no-cache", "--no-checkpoint", "--json"]
        argv += ["--run-report", os.fspath(report), three_archives]
        assert self._alive_at_each_load(monkeypatch, argv) == [0, 0, 0]
        capsys.readouterr()
        manifest = json.loads(report.read_text())
        assert [entry["name"] for entry in manifest["archives"]] == ["alpha", "beta", "gamma"]
