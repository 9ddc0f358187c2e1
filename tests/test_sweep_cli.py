"""``repro sweep``: table/JSON output, exit codes, kill/resume equivalence."""

import json
import os

import pytest

from repro.cli import main
from repro.exec.chaos import SimulatedKill
from repro.obs import normalize_run


@pytest.fixture(scope="module")
def corpus8(tmp_path_factory):
    """Eight small archives: the acceptance-test corpus."""
    root = tmp_path_factory.mktemp("sweep-corpus")
    for index in range(8):
        template = "fig1" if index % 2 else "enterprise"
        assert (
            main(
                [
                    "generate",
                    template,
                    str(root / f"net{index}"),
                    "--routers",
                    "8",
                    "--seed",
                    str(index),
                ]
            )
            == 0
        )
    return str(root)


@pytest.fixture(scope="module")
def one_archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep-single")
    assert main(["generate", "fig1", str(root / "net"), "--seed", "0"]) == 0
    return str(root / "net")


def run_sweep(capsys, *extra, chaos=None, monkeypatch=None):
    if chaos is not None:
        monkeypatch.setenv("REPRO_CHAOS", chaos)
    try:
        code = main(["sweep", *extra, "--no-cache"])
    finally:
        if chaos is not None:
            monkeypatch.delenv("REPRO_CHAOS", raising=False)
    return code, capsys.readouterr().out


class TestTableOutput:
    def test_single_archive_table(self, one_archive, capsys):
        code, out = run_sweep(capsys, one_archive, "--no-checkpoint")
        assert code == 0
        assert "fragility ranking" in out
        assert "baseline:" in out

    def test_top_limits_rows(self, one_archive, capsys):
        code, out = run_sweep(capsys, one_archive, "--no-checkpoint", "--top", "2")
        assert code == 0
        assert "lower-impact scenario(s) not shown" in out


class TestJsonPayload:
    def test_payload_shape(self, one_archive, capsys):
        code, out = run_sweep(capsys, one_archive, "--no-checkpoint", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"]["archives"] == 1
        (entry,) = payload["archives"]
        assert entry["rows"]
        for row in entry["rows"]:
            assert row["status"] == "ok"
            assert row["delta"]["lost_pairs"] >= 0

    def test_chaos_failure_exits_degraded(
        self, one_archive, capsys, monkeypatch
    ):
        code, out = run_sweep(
            capsys,
            one_archive,
            "--no-checkpoint",
            "--json",
            chaos="*:router-*=raise",
            monkeypatch=monkeypatch,
        )
        assert code == 3
        payload = json.loads(out)
        counts = payload["archives"][0]["status_counts"]
        assert counts["failed"] > 0
        assert counts.get("ok", 0) > 0  # link scenarios survived

    def test_depth_2_samples_doubles(self, one_archive, capsys):
        code, out = run_sweep(
            capsys,
            one_archive,
            "--no-checkpoint",
            "--json",
            "--depth",
            "2",
            "--double-budget",
            "6",
        )
        assert code == 0
        entry = json.loads(out)["archives"][0]
        assert entry["plan"]["doubles_sampled"] == 6
        assert sum(1 for row in entry["rows"] if row["kind"] == "double") == 6


class TestResumeNeedsCheckpoints:
    def test_resume_without_store_is_an_error(self, one_archive):
        with pytest.raises(SystemExit, match="--resume needs checkpointing"):
            main(["sweep", one_archive, "--no-cache", "--no-checkpoint", "--resume"])


class TestKillResumeEquivalence:
    """The acceptance criterion: a sweep over an 8-archive corpus killed
    mid-run resumes with ``--resume`` to a payload byte-identical (after
    normalization) to an uninterrupted run, at any ``--jobs`` value."""

    def _sweep(self, capsys, corpus, ckpt, *extra):
        code = main(
            [
                "sweep",
                corpus,
                "--json",
                "--no-cache",
                "--checkpoint-dir",
                ckpt,
                *extra,
            ]
        )
        return code, capsys.readouterr().out

    @pytest.mark.usefixtures("four_cpus")
    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_killed_sweep_resumes_byte_identical(
        self, corpus8, tmp_path, capsys, monkeypatch, jobs
    ):
        reference_ckpt = str(tmp_path / "ref-ckpt")
        code, out = self._sweep(capsys, corpus8, reference_ckpt, "--jobs", "1")
        assert code == 0
        reference = normalize_run(json.loads(out))
        assert reference["totals"]["archives"] == 8

        # Kill mid-run: the chaos rule fires inside a scenario of the
        # fifth archive, after earlier archives checkpointed progress.
        ckpt = str(tmp_path / f"ckpt-{jobs}")
        monkeypatch.setenv("REPRO_CHAOS", "net4:router-*=kill")
        with pytest.raises(SimulatedKill):
            self._sweep(capsys, corpus8, ckpt, "--jobs", jobs)
        monkeypatch.delenv("REPRO_CHAOS")
        capsys.readouterr()  # drop the killed run's partial output
        assert os.path.isdir(ckpt)  # progress survived on disk

        code, out = self._sweep(
            capsys, corpus8, ckpt, "--jobs", jobs, "--resume"
        )
        assert code == 0
        resumed = normalize_run(json.loads(out))
        assert any(
            row.get("from_checkpoint")
            for entry in json.loads(out)["archives"]
            for row in entry["rows"]
        )
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    @pytest.mark.usefixtures("four_cpus")
    def test_jobs_equivalence_without_interruption(
        self, corpus8, tmp_path, capsys
    ):
        a_code, a_out = self._sweep(
            capsys, corpus8, str(tmp_path / "a"), "--jobs", "1"
        )
        b_code, b_out = self._sweep(
            capsys, corpus8, str(tmp_path / "b"), "--jobs", "4"
        )
        assert a_code == b_code == 0
        assert json.dumps(normalize_run(json.loads(a_out)), sort_keys=True) == (
            json.dumps(normalize_run(json.loads(b_out)), sort_keys=True)
        )


class TestFailFastAcrossArchives:
    def test_later_archives_are_listed_not_swept(
        self, corpus8, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "net2:router-*=raise")
        code = main(
            [
                "sweep",
                corpus8,
                "--json",
                "--no-cache",
                "--no-checkpoint",
                "--fail-fast",
            ]
        )
        monkeypatch.delenv("REPRO_CHAOS")
        out = capsys.readouterr().out
        assert code == 3
        payload = json.loads(out)
        entries = {e["archive"]: e for e in payload["archives"]}
        assert len(entries) == 8
        assert entries["net2"].get("stopped_after", "").startswith("router-")
        for name in ("net0", "net1"):
            assert not entries[name].get("skipped")
        for name in ("net3", "net4", "net5", "net6", "net7"):
            assert entries[name]["skipped"]


class TestManifestBlock:
    def test_run_report_carries_sweep_summary(self, one_archive, tmp_path, capsys):
        report = tmp_path / "run.json"
        code = main(
            [
                "sweep",
                one_archive,
                "--no-cache",
                "--no-checkpoint",
                "--json",
                "--run-report",
                str(report),
            ]
        )
        capsys.readouterr()
        assert code == 0
        manifest = json.loads(report.read_text())
        sweep = manifest["environment"]["sweep"]
        assert sweep["archives"] == 1
        assert sweep["scenarios"] > 0
        assert sweep["statuses"] == {"ok": sweep["scenarios"]}
