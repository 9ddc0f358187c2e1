"""The ingestion engine: parse cache key contract, the serial parse pass,
and the one ingestion pass behind both ``Network`` constructors."""

import os
import pickle

import pytest

from repro.diag import ERROR, PHASE_PARSE, DiagnosticSink
from repro.ingest import (
    CacheEntry,
    ParseCache,
    parse_stage,
)
from repro.ios.parser import ConfigParseError
from repro.junos.blocks import JunosSyntaxError
from repro.model import Network
from repro.synth import fault_kinds, inject_fault
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


def _files(*texts):
    """``(source, text, bytes)`` rows named ``f0``, ``f1``, ..."""
    return [(f"f{i}", text, text.encode("utf-8")) for i, text in enumerate(texts)]


def _parse_one(text, on_error, cache=None):
    (outcome,), _stage = parse_stage(_files(text), on_error, cache=cache)
    return outcome


class TestParseOne:
    def test_success_carries_diagnostics(self):
        outcome = _parse_one(IOS_OK, "skip-block")
        assert outcome.config is not None
        assert outcome.config.hostname == "r1"
        assert not outcome.quarantined
        assert outcome.error is None

    def test_strict_failure_returns_error(self):
        outcome = _parse_one(IOS_BAD, "strict")
        assert outcome.config is None
        assert isinstance(outcome.error, ValueError)

    def test_skip_file_quarantines(self):
        outcome = _parse_one(IOS_BAD, "skip-file")
        assert outcome.config is None
        assert outcome.quarantined
        assert outcome.error is None
        assert any(d.severity == ERROR for d in outcome.diagnostics)

    def test_unknown_policy_raises_up_front(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        with pytest.raises(ValueError, match="unknown on_error policy"):
            parse_stage(_files(IOS_OK), "bogus", cache=cache)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 0, 0)


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
        outcome = _parse_one(IOS_OK, "skip-block")
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
    def _files(self, n=4):
        return _files(*(IOS_OK.replace("r1", f"r{i}") for i in range(n)))

    def test_outcomes_in_task_order(self):
        outcomes, _stage = parse_stage(self._files(6), "skip-block")
        assert [o.source for o in outcomes] == [f"f{i}" for i in range(6)]
        assert [o.config.hostname for o in outcomes] == [f"r{i}" for i in range(6)]

    def test_cache_hits_skip_parsing(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        files = self._files(4)
        cold, cold_stage = parse_stage(files, "skip-block", cache=cache)
        warm, warm_stage = parse_stage(files, "skip-block", cache=cache)
        assert cold_stage.attributes == {"items": 4, "parsed": 4, "cached": 0}
        assert warm_stage.attributes == {"items": 4, "parsed": 0, "cached": 4}
        assert all(o.cached for o in warm)
        assert [o.config.hostname for o in cold] == [
            o.config.hostname for o in warm
        ]
        assert [o.diagnostics for o in cold] == [o.diagnostics for o in warm]

    def test_every_lookup_precedes_any_store(self, tmp_path):
        # Two files with the same bytes both count as parsed when cold.
        cache = ParseCache(root=str(tmp_path))
        outcomes, stage = parse_stage(_files(IOS_OK, IOS_OK), "skip-block", cache=cache)
        assert stage.attributes == {"items": 2, "parsed": 2, "cached": 0}
        assert not any(o.cached for o in outcomes)
        assert (cache.stats.misses, cache.stats.stores) == (2, 2)

    def test_cache_key_is_the_given_bytes(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        parse_stage([("f0", IOS_OK, b"one")], "skip-block", cache=cache)
        (same,), _stage = parse_stage([("f0", IOS_OK, b"one")], "skip-block", cache=cache)
        (other,), _stage = parse_stage([("f0", IOS_OK, b"two")], "skip-block", cache=cache)
        assert same.cached and not other.cached

    def test_strict_errors_are_not_cached(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        files = _files(IOS_BAD)
        first, _stage = parse_stage(files, "strict", cache=cache)
        second, _stage = parse_stage(files, "strict", cache=cache)
        assert first[0].error is not None
        assert second[0].error is not None
        assert not second[0].cached
        assert cache.stats.stores == 0

    def test_quarantine_decision_is_cached(self, tmp_path):
        cache = ParseCache(root=str(tmp_path))
        files = _files(JUNOS_UNBALANCED)
        cold, _stage = parse_stage(files, "skip-file", cache=cache)
        warm, _stage = parse_stage(files, "skip-file", cache=cache)
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
        files = [
            ("good", IOS_OK, IOS_OK.encode()),
            ("bad", IOS_BAD, IOS_BAD.encode()),
        ]
        (good, bad), _stage = parse_stage(files, "skip-block")
        assert all(d.file in (None, "good") for d in good.diagnostics)
        assert any(d.file == "bad" for d in bad.diagnostics)

    def test_merge_reconstructs_shared_sink_stream(self):
        merged = DiagnosticSink()
        for source, text, on_error in (("a", IOS_BAD, "skip-file"), ("b", IOS_OK, "skip-block")):
            (outcome,), _stage = parse_stage([(source, text, text.encode())], on_error)
            merged.merge(outcome.diagnostics)
        shared = DiagnosticSink()
        from repro.ingest.parse import _parse_with_policy

        _parse_with_policy(IOS_BAD, "a", "skip-file", shared)
        _parse_with_policy(IOS_OK, "b", "skip-block", shared)
        assert [str(d) for d in merged] == [str(d) for d in shared]
        assert merged.exit_code() == shared.exit_code()


JUNOS_PE9 = """\
system {
    host-name pe9;
}
interfaces {
    so-0/0/0 {
        unit 0 {
            family inet {
                address 10.200.0.1/30;
            }
        }
    }
}
protocols {
    ospf {
        area 0.0.0.0 {
            interface so-0/0/0.0;
        }
    }
}
"""


def _ingestion_view(network):
    """What the two constructors must agree on for the same files: the
    parse-phase rows, the quarantine list, each file's config, each
    file's inventory record (router names aside: ``from_directory``
    names routers by hostname, ``from_configs`` by key) and the parse
    span's attributes."""
    return {
        "parse_rows": [d for d in network.diagnostics if d.phase == PHASE_PARSE],
        "quarantined": list(network.quarantined),
        "configs": {r.source: r.config for r in network.routers.values()},
        "inventory": [(r.path, r.sha256, r.disposition) for r in network.inventory],
        "parse_span": network.ingest_stages[-1].attributes,
    }


@pytest.mark.parametrize("on_error", ["skip-block", "skip-file", "strict"])
@pytest.mark.parametrize("kind", sorted(fault_kinds()))
class TestOnePassBehindBothConstructors:
    """A faulted archive read from disk and the same file names and texts
    given to ``from_configs`` ingest alike, cold and warm."""

    def _ingest(self, build):
        try:
            return _ingestion_view(build())
        except Exception as exc:  # noqa: BLE001 — strict: both must raise alike
            return ("raised", type(exc), str(exc))

    def test_directory_and_configs_agree(self, tmp_path, kind, on_error):
        configs, _meta = build_example_networks()
        mutated, _fault = inject_fault({**configs, "pe9": JUNOS_PE9}, kind, seed=7)
        texts = {name: mutated[name] for name in sorted(mutated)}
        archive = tmp_path / "archive"
        archive.mkdir()
        for name, text in texts.items():
            (archive / name).write_bytes(text.encode("utf-8"))

        def from_disk(cache):
            return lambda: Network.from_directory(
                os.fspath(archive), on_error=on_error, cache=cache
            )

        def from_texts(cache):
            return lambda: Network.from_configs(texts, on_error=on_error, cache=cache)

        if kind == "duplicate-hostname" and on_error == "strict":
            # Naming, not parsing: by hostname the copy duplicates a
            # router, which strict ingestion refuses; by key it does not.
            with pytest.raises(ValueError, match="duplicate router name"):
                from_disk(None)()
            from_texts(None)()
            return
        disk_cache = ParseCache(root=os.fspath(tmp_path / "disk-cache"))
        text_cache = ParseCache(root=os.fspath(tmp_path / "text-cache"))
        for temperature in ("cold", "warm"):
            disk = self._ingest(from_disk(disk_cache))
            assert self._ingest(from_texts(text_cache)) == disk, temperature
        # The same bytes key the same entries: texts replay disk's parses.
        assert self._ingest(from_texts(disk_cache)) == disk
        if isinstance(disk, dict):
            assert {d for _p, _s, d in disk["inventory"]} <= {"cached", "quarantined"}
