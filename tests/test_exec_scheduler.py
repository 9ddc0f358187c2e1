"""How ``repro corpus`` walks a corpus: archive order, abort accounting,
concurrent stores.

One contract under test: ``repro corpus --archive-jobs N`` is accepted
and changes nothing.  Whatever N is, the normalized ``--json`` payload,
the normalized run manifest, and the exit code are identical to the
serial run — including over a corpus that mixes clean archives, a
faulted archive, and a chaos-injected stage failure.
"""

import json
import os
import threading

import pytest

from repro.cli import main
from repro.exec import CHAOS_ENV, AnalysisExecutor, CheckpointStore, StageResult
from repro.model.network import Network
from repro.obs import normalize_manifest
from repro.report import normalize_corpus_payload
from repro.synth import inject_fault
from repro.synth.templates.example_fig1 import build_example_networks

#: In sorted order — the order the corpus walks (and reports) archives.
ARCHIVES = ("alpha", "beta", "delta", "gamma")


@pytest.fixture()
def corpus_dir(tmp_path):
    """Four archives with distinct bytes; ``delta`` carries a parse fault.

    Distinct bytes matter twice over: identical archives would share one
    checkpoint digest, and under a shared cache later archives would
    replay the first one's parses.
    """
    configs, _meta = build_example_networks()
    faulted, _fault = inject_fault(configs, "corrupt-ip", seed=2)
    for archive in ARCHIVES:
        d = tmp_path / "corpus" / archive
        d.mkdir(parents=True)
        source = faulted if archive == "delta" else configs
        for name, text in source.items():
            (d / name).write_text(f"! {archive}\n{text}")
    return os.fspath(tmp_path / "corpus")


def _corpus(corpus_dir, *flags):
    return ["corpus", "--no-cache", "--json", *flags, corpus_dir]


def _watch_ingestion(monkeypatch, failures=None):
    """The names of the archives ``repro corpus`` starts, in start order;
    ingesting an archive named in *failures* raises its exception."""
    started = []
    from_directory = Network.from_directory.__func__

    def watched(cls, path, *args, **kwargs):
        name = os.path.basename(path)
        started.append(name)
        if failures and name in failures:
            raise failures[name]
        return from_directory(cls, path, *args, **kwargs)

    monkeypatch.setattr(Network, "from_directory", classmethod(watched))
    return started


class TestCorpusScheduler:
    """The archive walk of ``repro corpus``: in corpus order, one
    ``archive:<name>`` span each; an exception stops later archives from
    starting; once the executor aborts, the rest are listed as skipped."""

    def test_results_come_back_in_archive_order(self, corpus_dir, capsys, monkeypatch):
        started = _watch_ingestion(monkeypatch)
        assert main(_corpus(corpus_dir, "--no-checkpoint")) == 2  # delta's fault
        payload = json.loads(capsys.readouterr().out)
        assert started == list(ARCHIVES)
        assert [e["archive"] for e in payload["archives"]] == list(ARCHIVES)
        assert all(e["status"] == "ok" for e in payload["archives"])
        assert payload["totals"]["archives_skipped"] == 0

    def test_first_error_in_archive_order_is_reraised(self, corpus_dir, capsys, monkeypatch):
        failures = {"beta": ValueError("beta"), "gamma": ValueError("gamma")}
        _watch_ingestion(monkeypatch, failures)
        with pytest.raises(ValueError, match="beta"):
            main(_corpus(corpus_dir, "--no-checkpoint"))
        capsys.readouterr()

    def test_error_stops_new_archives_from_starting(self, corpus_dir, capsys, monkeypatch):
        started = _watch_ingestion(monkeypatch, {"alpha": RuntimeError("boom")})
        with pytest.raises(RuntimeError, match="boom"):
            main(_corpus(corpus_dir, "--no-checkpoint"))
        capsys.readouterr()
        assert started == ["alpha"]

    def test_pre_set_abort_skips_everything(self, corpus_dir, capsys, monkeypatch):
        started = _watch_ingestion(monkeypatch)
        init = AnalysisExecutor.__init__

        def aborted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.aborted = True

        monkeypatch.setattr(AnalysisExecutor, "__init__", aborted_init)
        assert main(_corpus(corpus_dir, "--no-checkpoint")) == 3
        payload = json.loads(capsys.readouterr().out)
        assert started == []
        assert [e["archive"] for e in payload["archives"]] == list(ARCHIVES)
        assert all(e["status"] == "skipped" for e in payload["archives"])
        assert payload["totals"]["archives_skipped"] == len(ARCHIVES)

    def test_abort_mid_run_yields_skipped_not_dropped(
        self, corpus_dir, capsys, monkeypatch
    ):
        started = _watch_ingestion(monkeypatch)
        monkeypatch.setenv(CHAOS_ENV, "alpha:links=raise")
        code = main(_corpus(corpus_dir, "--no-checkpoint", "--fail-fast"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert started == ["alpha"]
        statuses = [e["status"] for e in payload["archives"]]
        assert statuses == ["failed", "skipped", "skipped", "skipped"]
        assert [e["archive"] for e in payload["archives"]] == list(ARCHIVES)
        for entry in payload["archives"][1:]:
            assert entry["files"] == 0
            assert {s["status"] for s in entry["execution"]["stages"]} == {"skipped"}

    def test_archive_spans_in_archive_order(self, corpus_dir, tmp_path, capsys):
        report = os.fspath(tmp_path / "run.json")
        main(_corpus(corpus_dir, "--no-checkpoint", "--run-report", report))
        capsys.readouterr()
        with open(report) as handle:
            (run,) = json.load(handle)["spans"]
        names = [child["name"] for child in run["children"]]
        assert names == [f"archive:{archive}" for archive in ARCHIVES]
        for child in run["children"]:
            stages = [grandchild["name"] for grandchild in child["children"]]
            assert stages[:2] == ["stage:read", "stage:parse"]


class TestArchiveJobsEquivalence:
    """``--archive-jobs 4`` output is identical to the run without it,
    over a faulted and chaos-injected corpus."""

    def _run(self, corpus_dir, tmp_path, capsys, tag, *flags):
        manifest = os.fspath(tmp_path / f"manifest-{tag}.json")
        checkpoints = os.fspath(tmp_path / f"checkpoints-{tag}")
        code = main(
            _corpus(
                corpus_dir,
                "--checkpoint-dir",
                checkpoints,
                "--run-report",
                manifest,
                *flags,
            )
        )
        payload = json.loads(capsys.readouterr().out)
        with open(manifest) as handle:
            return code, payload, json.load(handle)

    def test_parallel_matches_serial(
        self, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "gamma:consistency=raise")
        serial_code, serial_payload, serial_manifest = self._run(
            corpus_dir, tmp_path, capsys, "serial"
        )
        parallel_code, parallel_payload, parallel_manifest = self._run(
            corpus_dir, tmp_path, capsys, "parallel", "--archive-jobs", "4"
        )
        assert serial_code == parallel_code == 3  # delta faulted, gamma failed
        assert normalize_corpus_payload(parallel_payload) == (
            normalize_corpus_payload(serial_payload)
        )
        assert normalize_manifest(parallel_manifest) == (
            normalize_manifest(serial_manifest)
        )
        # The normalized view still carries the interesting structure.
        normalized = normalize_corpus_payload(serial_payload)
        assert [e["archive"] for e in normalized["archives"]] == list(ARCHIVES)
        by_archive = {e["archive"]: e for e in normalized["archives"]}
        assert by_archive["gamma"]["status"] == "failed"
        assert by_archive["delta"]["exit_code"] == 2

    def test_chaos_targets_archives_deterministically(
        self, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        # The chaos key is archive:stage, so --archive-jobs injects into
        # exactly the same (archive, stage) pair as the serial run.
        monkeypatch.setenv(CHAOS_ENV, "beta:pathways=raise")
        code, payload, _manifest = self._run(
            corpus_dir, tmp_path, capsys, "chaos", "--archive-jobs", "4"
        )
        assert code == 3
        by_archive = {e["archive"]: e for e in payload["archives"]}
        stages = {
            s["stage"]: s["status"]
            for s in by_archive["beta"]["execution"]["stages"]
        }
        assert stages["pathways"] == "failed"
        assert by_archive["alpha"]["status"] == "ok"

    def test_auto_archive_jobs_smoke(self, corpus_dir, capsys):
        code = main(_corpus(corpus_dir, "--no-checkpoint", "--archive-jobs", "0"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 2  # delta's parse fault
        assert [e["archive"] for e in payload["archives"]] == list(ARCHIVES)

    def test_negative_archive_jobs_rejected(self, corpus_dir, capsys):
        with pytest.raises(SystemExit):
            main(_corpus(corpus_dir, "--archive-jobs", "-2"))
        capsys.readouterr()


class TestFailFastParallel:
    def test_every_archive_is_accounted_for(
        self, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "alpha:links=raise")
        code = main(
            _corpus(
                corpus_dir,
                "--no-checkpoint",
                "--fail-fast",
                "--archive-jobs",
                "4",
            )
        )
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 3
        # Archives after the abort are skipped, but all four are listed
        # and the totals fold every one of them in.
        assert [e["archive"] for e in payload["archives"]] == list(ARCHIVES)
        assert payload["totals"]["archives"] == 4
        statuses = {e["archive"]: e["status"] for e in payload["archives"]}
        assert statuses["alpha"] == "failed"
        assert payload["totals"]["archives_skipped"] == sum(
            1 for e in payload["archives"] if e["status"] == "skipped" and not e["files"]
        )


class TestCorpusRootDiagnostics:
    def test_loose_files_beside_archives_are_named(self, tmp_path, capsys):
        configs, _meta = build_example_networks()
        root = tmp_path / "corpus"
        archive = root / "alpha"
        archive.mkdir(parents=True)
        for name, text in configs.items():
            (archive / name).write_text(text)
        (root / "stray-config").write_text("hostname stray\n")
        code = main(_corpus(os.fspath(root), "--no-checkpoint"))
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 0
        assert "stray-config" in captured.err
        assert payload["ignored_files"] == ["stray-config"]
        assert [e["archive"] for e in payload["archives"]] == ["alpha"]

    def test_flat_directory_still_one_archive_no_diagnostic(
        self, tmp_path, capsys
    ):
        configs, _meta = build_example_networks()
        root = tmp_path / "flat"
        root.mkdir()
        for name, text in configs.items():
            (root / name).write_text(text)
        code = main(_corpus(os.fspath(root), "--no-checkpoint"))
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 0
        assert payload["ignored_files"] == []
        assert "ignoring loose file" not in captured.err


class TestParsedThroughput:
    def test_warm_cache_reports_no_parse_throughput(
        self, corpus_dir, tmp_path, capsys
    ):
        cache = os.fspath(tmp_path / "cache")
        args = [
            "corpus",
            "--json",
            "--no-checkpoint",
            "--cache-dir",
            cache,
            corpus_dir,
        ]
        assert main(args) == 2
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 2
        warm = json.loads(capsys.readouterr().out)
        # Cold: real parses happened, so a rate is reported.
        assert any(e["parsed_per_second"] for e in cold["archives"])
        # Warm: everything replays from cache — zero parses, no rate,
        # and the replays are visible as the cached count instead of
        # inflating a files-per-second figure.
        for entry in warm["archives"]:
            assert entry["parsed"] == 0
            assert entry["parsed_per_second"] is None
            assert entry["cached"] == entry["files"]


class TestConcurrentCheckpointWriters:
    def test_parallel_stores_and_loads_stay_consistent(self, tmp_path):
        store = CheckpointStore(root=os.fspath(tmp_path / "ckpt"))
        digests = [f"{i:02x}" * 32 for i in range(8)]
        errors = []
        barrier = threading.Barrier(8)

        def hammer(digest):
            try:
                barrier.wait(timeout=10)
                for round_index in range(10):
                    result = StageResult(
                        stage="links", status="ok", items=round_index
                    )
                    assert store.store(digest, "net", result)
                    loaded = store.load(digest, "links")
                    # A concurrent writer may have replaced the entry,
                    # but a reader must never see a torn or invalid one.
                    assert loaded is not None
                    assert loaded.stage == "links"
                    assert loaded.status == "ok"
                    assert loaded.from_checkpoint
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            # Four writers per digest pair: heavy same-key contention.
            threading.Thread(target=hammer, args=(digests[i % 2],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = store.stats.as_dict()
        assert stats["stores"] == 80
        assert stats["hits"] == 80
        assert stats["evictions"] == 0
        # No temp droppings left behind by the atomic-replace protocol.
        assert all(".tmp-" not in path for path in store.disk.entries())
