"""The ingestion engine: parse cache key contract, the serial parse pass."""

import os
import pickle

import pytest

from repro.diag import ERROR, DiagnosticSink
from repro.ingest import (
    CacheEntry,
    ParseCache,
    ParseTask,
    parse_many,
    parse_one,
    parse_stage,
)
from repro.ios.parser import ConfigParseError
from repro.junos.blocks import JunosSyntaxError
from repro.model import Network
from repro.synth.templates.example_fig1 import build_example_networks

IOS_OK = """\
hostname r1
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
"""

IOS_BAD = """\
hostname r2
interface Ethernet0
 ip address 999.0.0.1 255.255.255.0
"""

JUNOS_UNBALANCED = """\
system {
    host-name j1;
"""


class TestParseOne:
    def test_success_carries_diagnostics(self):
        outcome = parse_one(ParseTask("f1", IOS_OK, "skip-block"))
        assert outcome.config is not None
        assert outcome.config.hostname == "r1"
        assert not outcome.quarantined
        assert outcome.error is None

    def test_strict_failure_returns_error(self):
        outcome = parse_one(ParseTask("f1", IOS_BAD, "strict"))
        assert outcome.config is None
        assert isinstance(outcome.error, ValueError)

    def test_skip_file_quarantines(self):
        outcome = parse_one(ParseTask("f1", IOS_BAD, "skip-file"))
        assert outcome.config is None
        assert outcome.quarantined
        assert outcome.error is None
        assert any(d.severity == ERROR for d in outcome.diagnostics)

    def test_unknown_policy_is_an_error_outcome(self):
        outcome = parse_one(ParseTask("f1", IOS_OK, "bogus"))
        assert isinstance(outcome.error, ValueError)


class TestExceptionPickling:
    """Strict-mode errors pickle with their fields intact."""

    def test_config_parse_error_roundtrip(self):
        exc = ConfigParseError("bad mask", line_number=12, line="ip address x")
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is ConfigParseError
        assert str(clone) == str(exc)
        assert clone.line_number == 12
        assert clone.line == "ip address x"

    def test_junos_syntax_error_roundtrip(self):
        exc = JunosSyntaxError("unbalanced braces", line_number=3)
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is JunosSyntaxError
        assert str(clone) == str(exc)  # "(line 3)" suffix not doubled
        assert clone.line_number == 3


class TestParseCache:
    def test_roundtrip_replays_config_and_diagnostics(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        outcome = parse_one(ParseTask("f1", IOS_OK, "skip-block"))
        key = cache.key(IOS_OK.encode(), "skip-block")
        assert cache.get(key) is None  # cold
        cache.put(
            key,
            CacheEntry(outcome.config, outcome.diagnostics, outcome.quarantined),
        )
        entry = cache.get(key)
        assert entry is not None
        assert entry.config.hostname == "r1"
        assert entry.diagnostics == outcome.diagnostics
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_key_depends_on_content_and_mode(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        base = cache.key(b"abc", "strict")
        assert cache.key(b"abd", "strict") != base
        assert cache.key(b"abc", "skip-block") != base
        assert cache.key(b"abc", "strict") == base  # stable

    def test_key_depends_on_parser_version(self, tmp_path, monkeypatch):
        import repro.model.dialect as dialect

        cache = ParseCache(root=str(tmp_path))
        before = cache.key(b"abc", "strict")
        monkeypatch.setattr(dialect, "PARSER_VERSION", "next-version")
        assert cache.key(b"abc", "strict") != before

    def test_non_entry_pickle_is_rejected(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        key = cache.key(b"abc", "strict")
        os.makedirs(os.path.dirname(cache.disk.path(key)), exist_ok=True)
        with open(cache.disk.path(key), "wb") as handle:
            pickle.dump({"not": "an entry"}, handle)
        assert cache.get(key) is None
        assert cache.stats.evictions == 1

    def test_coerce(self, tmp_path):
        assert ParseCache.coerce(None) is None
        cache = ParseCache(root=str(tmp_path))
        assert ParseCache.coerce(cache) is cache
        coerced = ParseCache.coerce(str(tmp_path))
        assert isinstance(coerced, ParseCache)
        assert coerced.root == str(tmp_path)


class TestParseMany:
    def _tasks(self, n=4, on_error="skip-block"):
        texts = [IOS_OK.replace("r1", f"r{i}") for i in range(n)]
        return [ParseTask(f"f{i}", text, on_error) for i, text in enumerate(texts)]

    def test_outcomes_in_task_order(self):
        outcomes = parse_many(self._tasks(6))
        assert [o.source for o in outcomes] == [f"f{i}" for i in range(6)]
        assert [o.config.hostname for o in outcomes] == [f"r{i}" for i in range(6)]

    def test_cache_hits_skip_parsing(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        tasks = self._tasks(4)
        cold, cold_stage = parse_stage(tasks, cache=cache)
        warm, warm_stage = parse_stage(tasks, cache=cache)
        assert cold_stage.attributes == {"items": 4, "parsed": 4, "cached": 0}
        assert warm_stage.attributes == {"items": 4, "parsed": 0, "cached": 4}
        assert all(o.cached for o in warm)
        assert [o.config.hostname for o in cold] == [
            o.config.hostname for o in warm
        ]
        assert [o.diagnostics for o in cold] == [o.diagnostics for o in warm]

    def test_strict_errors_are_not_cached(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        tasks = [ParseTask("bad", IOS_BAD, "strict")]
        first = parse_many(tasks, cache=cache)
        second = parse_many(tasks, cache=cache)
        assert first[0].error is not None
        assert second[0].error is not None
        assert not second[0].cached

    def test_quarantine_decision_is_cached(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        tasks = [ParseTask("bad", JUNOS_UNBALANCED, "skip-file")]
        cold = parse_many(tasks, cache=cache)
        warm = parse_many(tasks, cache=cache)
        assert cold[0].quarantined and warm[0].quarantined
        assert warm[0].cached
        assert [str(d) for d in cold[0].diagnostics] == [
            str(d) for d in warm[0].diagnostics
        ]

    def test_jobs_accepted_negative_rejected(self):
        # ``jobs`` stops at the public entry point: accepted there,
        # changing nothing, and a negative value is rejected there.
        configs = {f"r{i}": IOS_OK.replace("r1", f"r{i}") for i in range(3)}
        serial = Network.from_configs(configs, on_error="skip-block")
        for jobs in (None, 0, 1, 8):
            network = Network.from_configs(configs, on_error="skip-block", jobs=jobs)
            assert sorted(network.routers) == sorted(serial.routers)
        with pytest.raises(ValueError):
            Network.from_configs(configs, jobs=-1)


class TestColdIngestStore:
    def test_one_cache_object_per_parsed_file_and_nothing_else(self, tmp_path):
        archive = tmp_path / "archive"
        archive.mkdir()
        configs, _meta = build_example_networks()
        for name, text in configs.items():
            (archive / name).write_text(text)
        root = tmp_path / "cache"
        network = Network.from_directory(
            os.fspath(archive), cache=ParseCache(root=os.fspath(root))
        )
        parsed = sum(1 for r in network.inventory if r.disposition == "parsed")
        assert parsed == len(configs)
        written = [
            os.path.relpath(os.path.join(directory, name), root)
            for directory, _dirs, names in os.walk(root)
            for name in names
        ]
        assert len(written) == parsed
        assert all(path.startswith("objects" + os.sep) for path in written)


class TestPerFileSinks:
    def test_file_sink_never_leaks_between_tasks(self):
        # Each outcome carries only its own file's diagnostics.
        tasks = [
            ParseTask("good", IOS_OK, "skip-block"),
            ParseTask("bad", IOS_BAD, "skip-block"),
        ]
        good, bad = parse_many(tasks)
        assert all(d.file in (None, "good") for d in good.diagnostics)
        assert any(d.file == "bad" for d in bad.diagnostics)

    def test_merge_reconstructs_shared_sink_stream(self):
        tasks = [
            ParseTask("a", IOS_BAD, "skip-file"),
            ParseTask("b", IOS_OK, "skip-block"),
        ]
        merged = DiagnosticSink()
        for outcome in parse_many(tasks):
            merged.merge(outcome.diagnostics)
        shared = DiagnosticSink()
        from repro.ingest.parse import _parse_with_policy

        _parse_with_policy(IOS_BAD, "a", "skip-file", shared)
        _parse_with_policy(IOS_OK, "b", "skip-block", shared)
        assert [str(d) for d in merged] == [str(d) for d in shared]
        assert merged.exit_code() == shared.exit_code()
