"""Run manifests end to end: inventory coverage, cache reconciliation,
jobs-independence (the PR's acceptance criteria)."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    VOLATILE,
    archive_entry,
    build_manifest,
    normalize_run,
)
from repro.synth.templates.enterprise import build_enterprise


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory):
    """A lenient-mode workout: parseable configs plus one binary file."""
    path = tmp_path_factory.mktemp("archive")
    configs, _spec = build_enterprise("ent", 1, 12, seed=7)
    for name, text in configs.items():
        (path / name).write_text(text)
    (path / "stale.bin").write_bytes(b"\x00\x7f\x00binary junk")
    return os.fspath(path)


def _run_with_report(archive_dir, tmp_path, name, *extra):
    report = tmp_path / f"{name}.json"
    code = main(
        ["analyze", archive_dir, "--lenient", "--run-report", os.fspath(report), *extra]
    )
    with open(report) as handle:
        return code, json.load(handle)


class TestManifestCoverage:
    def test_inventory_covers_every_input_file(self, archive_dir, tmp_path, capsys):
        _code, manifest = _run_with_report(archive_dir, tmp_path, "cover", "--no-cache")
        capsys.readouterr()
        on_disk = sorted(
            entry
            for entry in os.listdir(archive_dir)
            if os.path.isfile(os.path.join(archive_dir, entry))
        )
        (entry,) = manifest["archives"]
        assert sorted(r["path"] for r in entry["inventory"]) == on_disk
        assert entry["files"] == len(on_disk)
        assert manifest["schema"] == MANIFEST_SCHEMA

    def test_inventory_records_are_complete(self, archive_dir, tmp_path, capsys):
        _code, manifest = _run_with_report(archive_dir, tmp_path, "records", "--no-cache")
        capsys.readouterr()
        (entry,) = manifest["archives"]
        for record in entry["inventory"]:
            assert record["size"] > 0
            assert len(record["sha256"]) == 64
            assert record["disposition"] in ("parsed", "cached", "quarantined")
        quarantined = [
            r for r in entry["inventory"] if r["disposition"] == "quarantined"
        ]
        assert [r["path"] for r in quarantined] == ["stale.bin"]

    def test_dispositions_sum_to_files(self, archive_dir, tmp_path, capsys):
        _code, manifest = _run_with_report(archive_dir, tmp_path, "sums", "--no-cache")
        capsys.readouterr()
        (entry,) = manifest["archives"]
        assert sum(entry["dispositions"].values()) == entry["files"]
        totals = manifest["totals"]
        assert totals["files"] == entry["files"]
        assert totals["parsed"] == entry["dispositions"]["parsed"]


class TestCacheReconciliation:
    def test_counters_match_cache_state(self, archive_dir, tmp_path, capsys):
        cache_dir = os.fspath(tmp_path / "cache")
        cold_code, cold = _run_with_report(
            archive_dir, tmp_path, "cold", "--cache-dir", cache_dir
        )
        warm_code, warm = _run_with_report(
            archive_dir, tmp_path, "warm", "--cache-dir", cache_dir
        )
        capsys.readouterr()
        parsed = cold["archives"][0]["dispositions"]["parsed"]
        assert parsed > 0
        # Cold: every parseable file missed then was stored.
        assert cold["metrics"]["counters"]["cache.misses"] == parsed
        assert cold["metrics"]["counters"]["cache.stores"] == parsed
        assert cold["environment"]["cache"]["misses"] == parsed
        # Warm: every parseable file replayed; the binary never hits the cache.
        assert warm["archives"][0]["dispositions"]["cached"] == parsed
        assert warm["archives"][0]["dispositions"]["parsed"] == 0
        assert warm["metrics"]["counters"]["cache.hits"] == parsed
        assert warm["environment"]["cache"]["hits"] == parsed

    def test_exit_code_recorded(self, archive_dir, tmp_path, capsys):
        code, manifest = _run_with_report(archive_dir, tmp_path, "exit", "--no-cache")
        capsys.readouterr()
        assert manifest["exit_code"] == code
        assert manifest["archives"][0]["exit_code"] <= code


class TestJobsIndependence:
    def test_jobs_1_and_8_normalize_identically(self, archive_dir, tmp_path, capsys):
        code1, serial = _run_with_report(
            archive_dir,
            tmp_path,
            "serial",
            "--jobs",
            "1",
            "--cache-dir",
            os.fspath(tmp_path / "cacheA"),
        )
        out1 = capsys.readouterr().out
        code8, parallel = _run_with_report(
            archive_dir,
            tmp_path,
            "parallel",
            "--jobs",
            "8",
            "--cache-dir",
            os.fspath(tmp_path / "cacheB"),
        )
        out8 = capsys.readouterr().out
        assert code1 == code8
        assert out1 == out8  # analysis output is byte-identical
        # Timings live in histograms and spans — both dropped by
        # normalize_run; what remains must be identical.
        assert normalize_run(serial) == normalize_run(parallel)

    def test_normalize_strips_nondeterministic_sections(self, archive_dir, tmp_path, capsys):
        _code, manifest = _run_with_report(archive_dir, tmp_path, "norm", "--no-cache")
        capsys.readouterr()
        normalized = normalize_run(manifest)
        for key in ("argv", "timing", "spans"):
            assert key in manifest and key not in normalized
        assert set(normalized["metrics"]) == {"counters"}
        # The environment is compared, minus the store statistics and
        # the flags that only tune how the run ran.
        environment = normalized["environment"]
        assert environment == {
            key: value
            for key, value in manifest["environment"].items()
            if key not in VOLATILE
        }
        assert {"python", "parser_version", "mode"} <= set(environment)
        assert not {"cache", "jobs", "compress"} & set(environment)


class TestTraceOutput:
    def test_trace_file_is_chrome_format(self, archive_dir, tmp_path, capsys):
        trace = tmp_path / "t.json"
        main(["analyze", archive_dir, "--lenient", "--no-cache", "--trace", os.fspath(trace)])
        capsys.readouterr()
        with open(trace) as handle:
            payload = json.load(handle)
        names = [event["name"] for event in payload["traceEvents"]]
        assert "run" in names
        assert "stage:parse" in names
        assert "instances" in names
        for event in payload["traceEvents"]:
            assert event["ph"] == "X"


class TestCorpusManifest:
    def test_corpus_aggregates_archives(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        for index in (1, 2):
            sub = corpus / f"net{index}"
            sub.mkdir(parents=True)
            configs, _spec = build_enterprise(f"n{index}", index, 6, seed=index)
            for name, text in configs.items():
                (sub / name).write_text(text)
        report = tmp_path / "corpus.json"
        code = main(
            [
                "corpus",
                os.fspath(corpus),
                "--no-cache",
                "--run-report",
                os.fspath(report),
            ]
        )
        capsys.readouterr()
        assert code == 0
        with open(report) as handle:
            manifest = json.load(handle)
        assert [entry["name"] for entry in manifest["archives"]] == ["net1", "net2"]
        assert manifest["totals"]["archives"] == 2
        assert manifest["totals"]["files"] == sum(
            entry["files"] for entry in manifest["archives"]
        )


class TestFailedRuns:
    """A command that exits through an error still writes its trace and
    run report, with the status the process ends with, and the error
    goes on unchanged."""

    @staticmethod
    def _artifacts(tmp_path):
        report, trace = tmp_path / "r.json", tmp_path / "t.json"
        return report, trace, ["--run-report", os.fspath(report), "--trace", os.fspath(trace)]

    @staticmethod
    def _load(report, trace):
        with open(trace) as handle:
            events = json.load(handle)["traceEvents"]
        assert "run" in [event["name"] for event in events]
        with open(report) as handle:
            return json.load(handle)

    def test_message_exit_records_status_1(self, tmp_path, capsys):
        archive = tmp_path / "fig1"
        assert main(["generate", "fig1", os.fspath(archive)]) == 0
        report, trace, flags = self._artifacts(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main(["pathway", os.fspath(archive), "NOPE", *flags])
        capsys.readouterr()
        assert raised.value.code == "error: unknown router 'NOPE'"
        manifest = self._load(report, trace)
        assert manifest["exit_code"] == 1
        assert [entry["name"] for entry in manifest["archives"]] == ["fig1"]
        assert manifest["archives"][0]["routers"] == 6

    def test_uncaught_exception_records_status_1(self, tmp_path, capsys):
        from repro.ios.parser import ConfigParseError

        archive = tmp_path / "fig1"
        assert main(["generate", "fig1", os.fspath(archive)]) == 0
        config = archive / "R1"
        text = config.read_text()
        first = next(line for line in text.splitlines() if line.startswith(" ip address "))
        config.write_text(text.replace(first, " ip address 10.0.0.999 255.255.255.252", 1))
        report, trace, flags = self._artifacts(tmp_path)
        with pytest.raises(ConfigParseError):
            main(["analyze", os.fspath(archive), "--no-cache", *flags])
        capsys.readouterr()
        manifest = self._load(report, trace)
        assert manifest["exit_code"] == 1
        assert manifest["archives"] == []

    @pytest.mark.parametrize("status", [0, 3])
    def test_integer_exit_records_its_status(self, tmp_path, capsys, monkeypatch, status):
        import repro.cli as cli

        archive = tmp_path / "fig1"
        assert main(["generate", "fig1", os.fspath(archive)]) == 0

        def exits(args):
            cli._load(args)
            raise SystemExit(status)

        monkeypatch.setattr(cli, "cmd_pathway", exits)
        report, trace, flags = self._artifacts(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main(["pathway", os.fspath(archive), "R1", *flags])
        capsys.readouterr()
        assert raised.value.code == status
        manifest = self._load(report, trace)
        assert manifest["exit_code"] == status
        assert [entry["name"] for entry in manifest["archives"]] == ["fig1"]


class TestManifestBuilders:
    def test_archive_entry_without_inventory(self):
        from repro.model import Network

        network = Network.from_configs(
            {"r1": "hostname r1\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"}
        )
        entry = archive_entry(network, path="/x")
        assert entry["path"] == "/x"
        assert entry["files"] == 1
        assert entry["dispositions"]["parsed"] == 1

    def test_build_manifest_totals(self):
        manifest = build_manifest(
            command="analyze",
            argv=["analyze", "x"],
            archives=[
                {
                    "name": "a",
                    "path": "x",
                    "routers": 2,
                    "files": 3,
                    "dispositions": {"parsed": 2, "cached": 0, "quarantined": 1},
                    "diagnostics": {},
                    "exit_code": 0,
                    "inventory": [],
                }
            ],
            exit_code=0,
        )
        assert manifest["totals"]["files"] == 3
        assert manifest["totals"]["quarantined"] == 1
        assert manifest["metrics"] is None


class TestExecutionBlocks:
    """Executor results threaded into the manifest and its normal form."""

    def _execution(self):
        from repro.exec import ArchiveExecution, StageResult

        return ArchiveExecution(
            archive="net1",
            digest="0" * 64,
            results=[
                StageResult(stage="links", seconds=0.5, items=3),
                StageResult(
                    stage="pathways",
                    status="degraded",
                    seconds=1.5,
                    degradation="max-depth-8",
                    from_checkpoint=True,
                ),
            ],
        )

    def _network(self):
        class Sink:
            def counts(self):
                return {"error": 0, "warning": 0, "info": 0}

            def exit_code(self):
                return 0

        class Net:
            name = "net1"
            inventory = []
            quarantined = []
            diagnostics = Sink()

            def __len__(self):
                return 0

        return Net()

    def test_archive_entry_carries_execution(self):
        from repro.obs.manifest import archive_entry

        entry = archive_entry(self._network(), execution=self._execution())
        assert entry["execution"]["status"] == "degraded"
        assert len(entry["execution"]["stages"]) == 2

    def test_totals_count_stage_statuses(self):
        from repro.obs.manifest import archive_entry, build_manifest

        entry = archive_entry(self._network(), execution=self._execution())
        manifest = build_manifest(
            command="corpus", argv=[], archives=[entry], exit_code=3
        )
        assert manifest["totals"]["stages"] == {"degraded": 1, "ok": 1}

    def test_totals_omit_stages_without_executions(self):
        from repro.obs.manifest import archive_entry, build_manifest

        entry = archive_entry(self._network())
        manifest = build_manifest(
            command="analyze", argv=[], archives=[entry], exit_code=0
        )
        assert "stages" not in manifest["totals"]

    def test_normalize_strips_timing_and_provenance(self):
        entry = archive_entry(self._network(), execution=self._execution())
        manifest = build_manifest(
            command="corpus", argv=[], archives=[entry], exit_code=3
        )
        normalized = normalize_run(manifest)
        stages = normalized["archives"][0]["execution"]["stages"]
        for stage in stages:
            assert "seconds" not in stage
            assert "from_checkpoint" not in stage
        # Statuses and degradation labels survive normalization.
        assert stages[1]["status"] == "degraded"
        assert stages[1]["degradation"] == "max-depth-8"

    def test_normalize_handles_missing_execution(self):
        entry = archive_entry(self._network())
        manifest = build_manifest(
            command="analyze", argv=[], archives=[entry], exit_code=0
        )
        # No execution block, nothing invented: the entry is compared whole.
        assert "execution" not in entry
        assert normalize_run(manifest)["archives"][0] == entry
