"""Corpus snapshots, stat scans, and digest diffs (repro.ingest.snapshot)."""

import os

from repro.ingest.archive import archive_digest
from repro.ingest.snapshot import (
    diff_snapshots,
    scan_stats,
    snapshot_corpus,
)
from repro.model import Network
from repro.synth.templates.example_fig1 import build_example_networks


def _write_corpus(root) -> None:
    configs, _meta = build_example_networks()
    os.makedirs(root, exist_ok=True)
    for name, text in sorted(configs.items()):
        with open(os.path.join(root, name), "w") as handle:
            handle.write(text)


class TestScanStats:
    def test_counts_regular_files_only(self, tmp_path):
        _write_corpus(tmp_path)
        (tmp_path / "subdir").mkdir()
        (tmp_path / "subdir" / "nested.cfg").write_text("hostname nested\n")
        stats = scan_stats(str(tmp_path))
        assert len(stats) == 6  # fig1 files; the subdirectory is ignored
        assert all("/" not in path for path in stats)

    def test_records_size_and_mtime(self, tmp_path):
        (tmp_path / "config1").write_text("hostname r1\n")
        stats = scan_stats(str(tmp_path))
        assert stats["config1"].size == len("hostname r1\n")
        assert stats["config1"].mtime_ns > 0

    def test_missing_directory_is_empty(self, tmp_path):
        assert scan_stats(str(tmp_path / "nope")) == {}

    def test_edit_changes_stats(self, tmp_path):
        _write_corpus(tmp_path)
        before = scan_stats(str(tmp_path))
        target = sorted(before)[0]
        with open(tmp_path / target, "a") as handle:
            handle.write("! edited\n")
        after = scan_stats(str(tmp_path))
        assert after[target] != before[target]
        assert {p: s for p, s in after.items() if p != target} == {
            p: s for p, s in before.items() if p != target
        }


class TestSnapshot:
    def test_digest_stable_across_rescans(self, tmp_path):
        _write_corpus(tmp_path)
        assert (
            snapshot_corpus(str(tmp_path)).digest
            == snapshot_corpus(str(tmp_path)).digest
        )

    def test_digest_changes_on_any_edit(self, tmp_path):
        _write_corpus(tmp_path)
        before = snapshot_corpus(str(tmp_path))
        target = sorted(before.files)[0]
        with open(tmp_path / target, "a") as handle:
            handle.write("! edited\n")
        assert snapshot_corpus(str(tmp_path)).digest != before.digest

    def test_digest_matches_executor_archive_digest(self, tmp_path):
        """The serve layer's corpus digest and the executor's checkpoint
        digest are the same construction over the same bytes — what makes
        a published generation's digest comparable to checkpoint keys."""
        _write_corpus(tmp_path)
        snapshot = snapshot_corpus(str(tmp_path))
        network = Network.from_directory(str(tmp_path), on_error="skip-block")
        assert snapshot.digest == archive_digest(
            (record.path, record.sha256) for record in network.inventory
        )

    def test_len_counts_files(self, tmp_path):
        _write_corpus(tmp_path)
        assert len(snapshot_corpus(str(tmp_path))) == 6


class TestDiff:
    def test_empty_diff_is_falsy(self, tmp_path):
        _write_corpus(tmp_path)
        snapshot = snapshot_corpus(str(tmp_path))
        diff = diff_snapshots(snapshot, snapshot)
        assert not diff
        assert len(diff) == 0

    def test_changed_added_removed(self, tmp_path):
        _write_corpus(tmp_path)
        before = snapshot_corpus(str(tmp_path))
        names = sorted(before.files)
        with open(tmp_path / names[0], "a") as handle:
            handle.write("! edited\n")
        os.remove(tmp_path / names[1])
        (tmp_path / "confignew").write_text("hostname shiny\n")
        diff = diff_snapshots(before, snapshot_corpus(str(tmp_path)))
        assert diff.changed == (names[0],)
        assert diff.removed == (names[1],)
        assert diff.added == ("confignew",)
        assert len(diff) == 3
        assert diff.as_dict() == {
            "changed": [names[0]],
            "added": ["confignew"],
            "removed": [names[1]],
        }
