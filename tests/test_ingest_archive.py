"""One archive reader (repro.ingest.archive): every command finds, names,
reads and digests an archive by the same rules.

The regression tests each pin a case where two commands used to
disagree: share dropped a config ingestion reads (a NUL past the first
8 KiB) and shared a junk file ingestion quarantines; anonymize died on
a binary dropping lint quarantines; and a trailing slash named the
archive ``""``.
"""

import json
import os

import pytest

from repro.cli import main
from repro.diag import PHASE_READ, WARNING
from repro.exec import AnalysisExecutor, ExecutorConfig
from repro.ingest.archive import archive_digest, archive_files, archive_name, read_archive
from repro.ingest.snapshot import snapshot_corpus
from repro.model.network import Network
from repro.serve import ServeConfig, ServeDaemon
from repro.serve.generation import run_generation
from repro.share import ShareOptions, share_corpus
from repro.synth import inject_fault
from repro.synth.faults import fault_kinds
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.example_fig1 import build_example_networks

#: An ELF header: NUL bytes up front, then bytes that are not UTF-8.
BINARY_DROPPING = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100)) * 4
#: Undecodable junk with no NUL byte at all.
UNDECODABLE_JUNK = bytes(range(0x80, 0x100)) * 8


def _write(directory, configs):
    os.makedirs(directory, exist_ok=True)
    for name, text in configs.items():
        with open(os.path.join(directory, name), "w") as handle:
            handle.write(text)
    return os.fspath(directory)


def _late_nul(text):
    """``text`` padded past 8 KiB with comments, then a NUL in a comment."""
    padded = text + "".join(f"! padding line {i:04d}\n" for i in range(600))
    padded += "! \x00 trailing junk\n"
    assert padded.encode("utf-8").index(b"\0") > 8192
    return padded


def _fig1_archive(directory):
    configs, _meta = build_example_networks()
    return _write(directory, configs)


def _read_quarantined(network):
    """The files ingestion quarantined on read (the text sniff)."""
    return sorted(
        d.file for d in network.diagnostics if d.phase == PHASE_READ and d.severity == WARNING
    )


class TestRules:
    @pytest.mark.parametrize("suffix", ["", "/", "//"])
    def test_name_strips_trailing_separators(self, suffix):
        assert archive_name("corpus/net1" + suffix) == "net1"

    def test_files_are_sorted_regular_files_without_recursion(self, tmp_path):
        (tmp_path / "r2").write_text("hostname r2\n")
        (tmp_path / "r1").write_text("hostname r1\n")
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "r3").write_text("hostname r3\n")
        assert archive_files(os.fspath(tmp_path)) == ["r1", "r2"]

    def test_sniff_quarantines_binary_and_undecodable_files_only(self, tmp_path):
        (tmp_path / "core.bin").write_bytes(BINARY_DROPPING)
        (tmp_path / "dump.dat").write_bytes(UNDECODABLE_JUNK)
        (tmp_path / "late").write_text(_late_nul("hostname late\n"))
        (tmp_path / "r1").write_text("hostname r1\n")
        texts = {f.name: f.text for f in read_archive(os.fspath(tmp_path))}
        assert texts["core.bin"] is None and texts["dump.dat"] is None
        assert texts["late"].startswith("hostname late") and texts["r1"] == "hostname r1\n"


class TestShareReadsWhatIngestionReads:
    def _share_certify(self, archive, tmp_path, capsys):
        out = os.fspath(tmp_path / "shared")
        code = main(["share", archive, out, "--key", "k", "--certify", "--json"])
        captured = capsys.readouterr()
        with open(out + ".mapping.json") as handle:
            mapping = json.load(handle)
        (entry,) = mapping["archives"].values()
        return code, json.loads(captured.out), entry, captured.err

    def test_config_with_a_nul_past_8_kib_is_shared_and_certifies(self, tmp_path, capsys):
        archive = _fig1_archive(tmp_path / "net1")
        name = sorted(os.listdir(archive))[0]
        with open(os.path.join(archive, name)) as handle:
            text = handle.read()
        with open(os.path.join(archive, name), "w") as handle:
            handle.write(_late_nul(text))
        code, payload, entry, err = self._share_certify(archive, tmp_path, capsys)
        assert code == 0, payload["certification"]
        assert name in entry["files"] and "skipped" not in err
        network = Network.from_directory(archive, on_error="skip-block")
        assert entry.get("skipped", []) == _read_quarantined(network) == []

    def test_undecodable_junk_is_skipped_as_ingestion_quarantines_it(self, tmp_path, capsys):
        archive = _fig1_archive(tmp_path / "net1")
        with open(os.path.join(archive, "dump.dat"), "wb") as handle:
            handle.write(UNDECODABLE_JUNK)
        code, payload, entry, err = self._share_certify(archive, tmp_path, capsys)
        assert code == 0, payload["certification"]
        assert "dump.dat" not in entry["files"] and "'dump.dat'" in err
        network = Network.from_directory(archive, on_error="skip-block")
        assert entry["skipped"] == _read_quarantined(network) == ["dump.dat"]


class TestAnonymizeSkipsBinaryDroppings:
    def test_binary_dropping_is_named_and_skipped(self, tmp_path, capsys):
        archive = _fig1_archive(tmp_path / "net1")
        with open(os.path.join(archive, "core.bin"), "wb") as handle:
            handle.write(BINARY_DROPPING)
        out = os.fspath(tmp_path / "anon")
        assert main(["anonymize", archive, out, "--key", "k"]) == 0
        captured = capsys.readouterr()
        assert "'core.bin'" in captured.err
        assert f"anonymized {len(os.listdir(archive)) - 1} files" in captured.out
        with open(out + ".mapping.json") as handle:
            files = json.load(handle)["files"]
        assert "core.bin" not in files and len(os.listdir(out)) == len(files)


class TestTrailingSlash:
    """``net1/`` is named ``net1`` everywhere, never ``""``."""

    def test_every_command_names_the_archive_alike(self, tmp_path, capsys):
        archive = _fig1_archive(tmp_path / "net1") + os.sep
        assert main(["analyze", "--no-cache", archive]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "network: net1"

        report = os.fspath(tmp_path / "run.json")
        args = ["corpus", archive, "--json", "--no-cache", "--no-checkpoint"]
        assert main(args + ["--run-report", report]) == 0
        payload = json.loads(capsys.readouterr().out)
        with open(report) as handle:
            manifest = json.load(handle)
        assert [e["archive"] for e in payload["archives"]] == ["net1"]
        assert [e["name"] for e in manifest["archives"]] == ["net1"]

        daemon = ServeDaemon(ServeConfig(corpus=archive, poll_interval=0.0))
        for _tick in range(6):
            if daemon.tick() is not None:
                break
        assert daemon.state.published["name"] == "net1"
        assert daemon.state.published["manifest"]["name"] == "net1"


class TestOneReaderAgreement:
    """Snapshot, ingestion and share agree on an archive holding every
    kind of damage: a binary dropping, a late NUL, undecodable junk and
    every fault kind of ``repro.synth.faults``."""

    @pytest.fixture()
    def archive(self, tmp_path):
        configs, _spec = build_enterprise("agree", 1, 12)
        for seed, kind in enumerate(fault_kinds(), start=1):
            configs, _fault = inject_fault(configs, kind, seed)
        name = sorted(configs)[0]
        configs[name] = _late_nul(configs[name])
        path = _write(tmp_path / "agree", configs)
        with open(os.path.join(path, "core.bin"), "wb") as handle:
            handle.write(BINARY_DROPPING)
        with open(os.path.join(path, "dump.dat"), "wb") as handle:
            handle.write(UNDECODABLE_JUNK)
        return path

    def test_snapshot_ingestion_and_share_agree(self, archive, tmp_path):
        network = Network.from_directory(archive, on_error="skip-block")
        inventory = {record.path: record.sha256 for record in network.inventory}
        snapshot = snapshot_corpus(archive)
        assert snapshot.files == inventory
        assert snapshot.digest == archive_digest(inventory.items())

        result = share_corpus(archive, os.fspath(tmp_path / "shared"), ShareOptions(key=b"k"))
        (record,) = result.archives
        read_quarantined = _read_quarantined(network)
        assert read_quarantined == ["core.bin", "dump.dat"]
        assert sorted(record.skipped) == read_quarantined
        assert sorted(record.files) == sorted(set(inventory) - set(read_quarantined))

    def test_generation_digest_is_the_checkpoint_digest(self, archive):
        digest = snapshot_corpus(archive).digest
        executor = AnalysisExecutor(ExecutorConfig())
        outcome = run_generation(archive, digest, executor=executor)
        assert outcome.execution.digest == digest


class TestJobsStopsAtTheBoundary:
    """``jobs`` is accepted where it enters and rejected there when negative."""

    def test_negative_jobs_rejected_at_every_entry_point(self, tmp_path):
        archive = _fig1_archive(tmp_path / "net1")
        with pytest.raises(ValueError):
            Network.from_directory(archive, jobs=-1)
        with pytest.raises(ValueError):
            run_generation(archive, "0" * 64, executor=AnalysisExecutor(), jobs=-1)
        with pytest.raises(ValueError):
            ServeConfig(corpus=archive, jobs=-1)
        assert len(Network.from_directory(archive, jobs=4)) == 6
