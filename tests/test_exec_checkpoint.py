"""Checkpoint store: content addressing, validation, invalidation.

The on-disk policy it shares with the parse cache (round trips, misses,
eviction of damaged entries, write failures, chaos ``io-error``) is
covered for both stores in ``tests/test_store.py``; the tests here pin
how that policy surfaces in the checkpoint store's own stats, counters
and logs.
"""

import io
import json
import os

from repro.exec.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from repro.exec.stage import StageResult
from repro.ingest.archive import archive_digest
from repro.obs.logging import configure_logging
from repro.obs.metrics import MetricsRegistry, use_registry


def _record(path, sha):
    return (path, sha)


def _inventory():
    return [_record("r1.cfg", "a" * 64), _record("r2.cfg", "b" * 64)]


class TestArchiveDigest:
    def test_order_insensitive(self):
        forward = _inventory()
        assert archive_digest(forward) == archive_digest(list(reversed(forward)))

    def test_sensitive_to_file_content(self):
        edited = [_record("r1.cfg", "a" * 64), _record("r2.cfg", "c" * 64)]
        assert archive_digest(_inventory()) != archive_digest(edited)

    def test_sensitive_to_added_file(self):
        grown = _inventory() + [_record("r3.cfg", "d" * 64)]
        assert archive_digest(_inventory()) != archive_digest(grown)

    def test_empty_inventory_digests(self):
        assert len(archive_digest([])) == 64


class TestStoreRoundtrip:
    def test_data_payload_survives_the_store(self, tmp_path):
        # Sweep scenario rows persist their reachability delta in
        # ``data`` so a resumed run can rebuild the fragility report
        # without re-simulating finished scenarios.
        with use_registry(MetricsRegistry()):
            store = CheckpointStore(root=os.fspath(tmp_path))
            digest = archive_digest(_inventory())
            result = StageResult(
                stage="sweep1.router-r1",
                items=4,
                data={"lost_pairs": 4, "converged": True},
            )
            assert store.store(digest, "alpha", result)
            loaded = store.load(digest, "sweep1.router-r1")
        assert loaded is not None
        assert loaded.data == {"lost_pairs": 4, "converged": True}

    def test_entries_lists_only_complete_files(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = CheckpointStore(root=os.fspath(tmp_path))
            digest = archive_digest(_inventory())
            store.store(digest, "alpha", StageResult(stage="links"))
            store.store(digest, "alpha", StageResult(stage="instances"))
        (tmp_path / digest[:2] / ".tmp-junk.json").write_text("{}")
        assert len(store.disk.entries()) == 2


class TestEditBetweenRuns:
    """A checkpoint written under one inventory never replays on another."""

    def test_edited_file_changes_the_key(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = CheckpointStore(root=os.fspath(tmp_path))
            before = archive_digest(_inventory())
            store.store(before, "alpha", StageResult(stage="links"))
            # One config file's bytes changed between the runs.
            after = archive_digest(
                [_record("r1.cfg", "a" * 64), _record("r2.cfg", "f" * 64)]
            )
            assert after != before
            assert store.load(after, "links") is None
        assert store.stats.misses == 1

    def test_tampered_digest_field_invalidates(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = CheckpointStore(root=os.fspath(tmp_path))
            digest = archive_digest(_inventory())
            store.store(digest, "alpha", StageResult(stage="links"))
            path = store.disk.path(f"{digest}-links.json")
            entry = json.loads(open(path).read())
            entry["archive_digest"] = "0" * 64
            with open(path, "w") as handle:
                json.dump(entry, handle)
            assert store.load(digest, "links") is None
            assert not os.path.exists(path)  # deleted, not just ignored
        assert store.stats.evictions == 1

    def test_parser_upgrade_invalidates(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = CheckpointStore(root=os.fspath(tmp_path))
            digest = archive_digest(_inventory())
            store.store(digest, "alpha", StageResult(stage="links"))
            path = store.disk.path(f"{digest}-links.json")
            entry = json.loads(open(path).read())
            entry["parser_version"] = -1
            with open(path, "w") as handle:
                json.dump(entry, handle)
            assert store.load(digest, "links") is None
        assert store.stats.evictions == 1

    def test_wrong_schema_invalidates(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = CheckpointStore(root=os.fspath(tmp_path))
            digest = archive_digest(_inventory())
            store.store(digest, "alpha", StageResult(stage="links"))
            path = store.disk.path(f"{digest}-links.json")
            entry = json.loads(open(path).read())
            assert entry["schema"] == CHECKPOINT_SCHEMA
            entry["schema"] = "repro-checkpoint/0"
            with open(path, "w") as handle:
                json.dump(entry, handle)
            assert store.load(digest, "links") is None
        assert store.stats.evictions == 1

    def test_unreadable_entry_degrades_to_a_miss(self, tmp_path):
        with use_registry(MetricsRegistry()):
            store = CheckpointStore(root=os.fspath(tmp_path))
            digest = archive_digest(_inventory())
            store.store(digest, "alpha", StageResult(stage="links"))
            with open(store.disk.path(f"{digest}-links.json"), "w") as handle:
                handle.write("not json{")
            assert store.load(digest, "links") is None
        assert store.stats.misses == 1
        assert store.stats.evictions == 1


class TestCorruptionAccounting:
    def test_corrupt_entry_counts_and_evicts(self, tmp_path):
        # A torn write is damage: evicted and counted like a stale
        # entry, but logged as a warning.
        registry = MetricsRegistry()
        stream = io.StringIO()
        configure_logging(level="info", json_mode=True, stream=stream)
        try:
            with use_registry(registry):
                store = CheckpointStore(root=os.fspath(tmp_path))
                digest = archive_digest(_inventory())
                store.store(digest, "alpha", StageResult(stage="links"))
                path = store.disk.path(f"{digest}-links.json")
                with open(path, "w") as handle:
                    handle.write("torn write {{{")
                assert store.load(digest, "links") is None
                assert not os.path.exists(path)  # evicted, not left to rot
        finally:
            configure_logging(level="warning")
        counters = registry.snapshot()["counters"]
        assert counters.get("checkpoint.evictions") == 1
        (evicted,) = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert evicted["event"] == "store.evicted"
        assert evicted["level"] == "warning"

    def test_stale_invalidation_is_not_corruption(self, tmp_path):
        # A parser-version eviction is routine bookkeeping, not damage:
        # it is counted as an eviction but logged below warning level.
        registry = MetricsRegistry()
        stream = io.StringIO()
        configure_logging(level="info", json_mode=True, stream=stream)
        try:
            with use_registry(registry):
                store = CheckpointStore(root=os.fspath(tmp_path))
                digest = archive_digest(_inventory())
                store.store(digest, "alpha", StageResult(stage="links"))
                path = store.disk.path(f"{digest}-links.json")
                entry = json.loads(open(path).read())
                entry["parser_version"] = -1
                with open(path, "w") as handle:
                    json.dump(entry, handle)
                assert store.load(digest, "links") is None
        finally:
            configure_logging(level="warning")
        counters = registry.snapshot()["counters"]
        assert counters["checkpoint.evictions"] == 1
        (evicted,) = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert evicted["event"] == "store.evicted"
        assert evicted["level"] == "info"
        assert "parser_version" in evicted["reason"]


class TestInjectedWriteFailure:
    def test_io_error_chaos_counts_write_failures(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "*:checkpoint=io-error")
        registry = MetricsRegistry()
        with use_registry(registry):
            store = CheckpointStore(root=os.fspath(tmp_path))
            digest = archive_digest(_inventory())
            assert not store.store(digest, "alpha", StageResult(stage="links"))
            assert not store.store(digest, "alpha", StageResult(stage="instances"))
            # The failed write degrades to a miss, never an exception.
            assert store.load(digest, "links") is None
        assert store.stats.write_failures == 2
        counters = registry.snapshot()["counters"]
        assert counters.get("checkpoint.write_failures") == 2

    def test_writes_succeed_once_chaos_clears(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "*:checkpoint=io-error")
        with use_registry(MetricsRegistry()):
            store = CheckpointStore(root=os.fspath(tmp_path))
            digest = archive_digest(_inventory())
            assert not store.store(digest, "alpha", StageResult(stage="links"))
            monkeypatch.delenv("REPRO_CHAOS")
            assert store.store(digest, "alpha", StageResult(stage="links"))
            assert store.load(digest, "links") is not None
