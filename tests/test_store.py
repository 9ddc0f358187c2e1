"""The store contract: ParseCache and CheckpointStore behave alike on disk.

Both stores sit on :mod:`repro.store`, so one suite, parametrized over
the two, pins the shared policy: round trips, misses, eviction of
damaged entries, write failures, chaos ``io-error`` targeting and
atomic writes.  What each entry *means* (the parse cache's key
contract, stale-checkpoint validation) is tested beside its store.
"""

import io
import json
import os

import pytest

from repro.exec.checkpoint import CheckpointStore
from repro.exec.stage import StageResult
from repro.ingest.cache import CacheEntry, ParseCache
from repro.obs.logging import configure_logging
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.store import TMP_PREFIX

DIGEST = "ab" * 32


class CacheCase:
    prefix = "cache"
    entry = CacheEntry(config=None, diagnostics=(), quarantined=True)
    key = ParseCache(root="unused").key(b"hostname r1\n", "strict")

    def make(self, root):
        return ParseCache(root=root)

    def put(self, store):
        return store.put(self.key, self.entry)

    def get(self, store):
        return store.get(self.key)

    def path(self, store):
        return store.disk.path(self.key)

    def check(self, value):
        assert value == self.entry


class CheckpointCase:
    prefix = "checkpoint"

    def make(self, root):
        return CheckpointStore(root=root)

    def put(self, store):
        return store.store(DIGEST, "alpha", StageResult(stage="links", items=9))

    def get(self, store):
        return store.load(DIGEST, "links")

    def path(self, store):
        return store.disk.path(f"{DIGEST}-links.json")

    def check(self, value):
        assert value.stage == "links" and value.items == 9
        assert value.from_checkpoint


@pytest.fixture(params=[CacheCase(), CheckpointCase()], ids=["cache", "checkpoint"])
def case(request):
    return request.param


@pytest.fixture()
def registry():
    with use_registry(MetricsRegistry()) as scoped:
        yield scoped


@pytest.fixture()
def logs():
    """Structured log records emitted during the test, as dicts."""
    stream = io.StringIO()
    configure_logging(level="info", json_mode=True, stream=stream)
    yield lambda: [json.loads(line) for line in stream.getvalue().splitlines()]
    configure_logging(level="warning")


def _counters(registry):
    return registry.snapshot()["counters"]


def _leftovers(root):
    return [
        name
        for _dirpath, _dirnames, names in os.walk(root)
        for name in names
        if name.startswith(TMP_PREFIX)
    ]


def test_round_trip(case, tmp_path, registry):
    store = case.make(os.fspath(tmp_path))
    assert case.put(store) is True
    case.check(case.get(store))
    assert store.stats.as_dict() == {
        "hits": 1,
        "misses": 0,
        "stores": 1,
        "evictions": 0,
        "write_failures": 0,
    }
    counters = _counters(registry)
    assert counters[f"{case.prefix}.stores"] == 1
    assert counters[f"{case.prefix}.hits"] == 1


def test_absent_entry_is_a_miss(case, tmp_path, registry):
    store = case.make(os.fspath(tmp_path))
    assert case.get(store) is None
    assert store.stats.misses == 1
    assert store.stats.evictions == 0
    assert _counters(registry) == {f"{case.prefix}.misses": 1}


def test_garbage_bytes_are_evicted_and_counted(case, tmp_path, registry, logs):
    store = case.make(os.fspath(tmp_path))
    case.put(store)
    path = case.path(store)
    with open(path, "wb") as handle:
        handle.write(b"torn write {{{ \x00\xff")
    assert case.get(store) is None
    assert not os.path.exists(path)  # evicted, not left to rot
    assert store.stats.evictions == 1
    assert store.stats.misses == 1
    counters = _counters(registry)
    assert counters[f"{case.prefix}.evictions"] == 1
    assert counters[f"{case.prefix}.misses"] == 1
    (evicted,) = [r for r in logs() if r["event"] == "store.evicted"]
    assert evicted["level"] == "warning"
    assert evicted["store"] == case.prefix
    assert evicted["path"] == path
    # The next write repopulates the slot.
    assert case.put(store)
    case.check(case.get(store))


def test_unwritable_root_counts_failures_and_warns_once(case, tmp_path, registry, logs):
    blocker = tmp_path / "flat-file"
    blocker.write_text("in the way")
    store = case.make(os.fspath(blocker / "store"))
    assert case.put(store) is False
    assert case.put(store) is False
    assert case.get(store) is None  # degraded to a plain miss
    assert store.stats.write_failures == 2
    assert store.stats.stores == 0
    assert _counters(registry)[f"{case.prefix}.write_failures"] == 2
    warnings = [r for r in logs() if r["event"] == "store.write_failed"]
    assert len(warnings) == 1
    assert warnings[0]["store"] == case.prefix


def test_chaos_io_error_matches_kind_and_path(case, tmp_path, registry, monkeypatch):
    store = case.make(os.fspath(tmp_path))
    other = "checkpoint" if case.prefix == "cache" else "cache"
    # Another store's kind, or another path, leaves this write alone.
    monkeypatch.setenv("REPRO_CHAOS", f"*:{other}=io-error;*/elsewhere/*:*=io-error")
    assert case.put(store) is True
    os.remove(case.path(store))
    monkeypatch.setenv("REPRO_CHAOS", f"{tmp_path}/*:{case.prefix}=io-error")
    assert case.put(store) is False
    assert not os.path.exists(case.path(store))
    assert store.stats.write_failures == 1
    assert _counters(registry)[f"{case.prefix}.write_failures"] == 1
    # Chaos cleared: the very same store writes again.
    monkeypatch.delenv("REPRO_CHAOS")
    assert case.put(store) is True
    case.check(case.get(store))


def test_writes_leave_no_temp_files(case, tmp_path, registry, monkeypatch):
    store = case.make(os.fspath(tmp_path))
    assert case.put(store)
    assert case.put(store)  # overwrite in place

    def failing_replace(src, dst):
        raise OSError("disk full")

    # A write that fails after its temp file exists removes the temp file.
    monkeypatch.setattr(os, "replace", failing_replace)
    assert not case.put(store)
    assert _leftovers(tmp_path) == []
    assert store.disk.entries() == (case.path(store),)
    assert store.stats.write_failures == 1
