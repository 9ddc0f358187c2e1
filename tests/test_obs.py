"""Observability primitives: structured logging, metrics, tracing."""

import io
import json
import logging

import pytest

from repro.obs.logging import (
    JsonFormatter,
    KeyValueFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.obs.trace import Tracer, activate_tracer, current_tracer, span, traced


class TestMetricsPrimitives:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.as_dict()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0


class TestRegistry:
    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_labels_partition_series(self):
        registry = MetricsRegistry()
        registry.counter("diag", severity="error").inc()
        registry.counter("diag", severity="warning").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["diag{severity=error}"] == 1
        assert snapshot["counters"]["diag{severity=warning}"] == 2

    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        json.dumps(snapshot)  # must not raise

    def test_use_registry_isolates(self):
        outer = get_registry()
        with use_registry() as inner:
            assert get_registry() is inner
            inner.counter("scoped").inc()
        assert get_registry() is outer
        assert "scoped" not in outer.snapshot()["counters"]


class TestTracer:
    def test_nested_spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].attributes == {"detail": 1}

    def test_span_tree_shape(self):
        tracer = Tracer()
        with tracer.span("a") as span:
            span.set(items=3)
        tree = tracer.span_tree()
        assert tree[0]["name"] == "a"
        assert tree[0]["attributes"] == {"items": 3}
        assert tree[0]["seconds"] >= 0

    def test_chrome_trace_events(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b", items=2):
                pass
        trace = tracer.chrome_trace()
        names = [event["name"] for event in trace["traceEvents"]]
        assert names == ["a", "b"]
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        json.dumps(trace)

    def test_activate_tracer_scoping(self):
        assert current_tracer() is None
        tracer = Tracer()
        with activate_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_activate_none_is_noop(self):
        with activate_tracer(None) as active:
            assert active is None
            assert current_tracer() is None


class TestSpanApi:
    def test_span_nests_in_the_active_tracer(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with span("outer") as outer:
                with span("inner", items=2) as inner:
                    inner.set(cached=1)
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.attributes == {"items": 2, "cached": 1}

    def test_detached_span_is_timed_without_a_tracer(self):
        assert current_tracer() is None
        with span("stage:read", items=0) as detached:
            detached.set(items=7)
        assert detached.end is not None and detached.seconds >= 0
        assert detached.attributes == {"items": 7}
        assert detached.children == []

    def test_span_is_timed_when_the_block_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with activate_tracer(tracer), span("stage:parse"):
                raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            with span("stage:parse") as detached:
                raise RuntimeError("boom")
        assert tracer.roots[0].end is not None
        assert detached.end is not None


class TestTracedDecorator:
    def test_records_metrics_and_span(self):
        @traced("thing", metric="analysis.thing")
        def work(x):
            return x * 2

        tracer = Tracer()
        with use_registry() as registry, activate_tracer(tracer):
            assert work(21) == 42
        counters = registry.snapshot()["counters"]
        assert counters["analysis.thing.calls"] == 1
        assert registry.snapshot()["histograms"]["analysis.thing.seconds"]["count"] == 1
        assert [s.name for s in tracer.roots] == ["thing"]

    def test_works_without_tracer(self):
        @traced("quiet")
        def work():
            return "ok"

        with use_registry() as registry:
            assert work() == "ok"
        assert registry.snapshot()["counters"]["analysis.quiet.calls"] == 1


class TestStructuredLogging:
    def _capture(self, json_mode, level="info"):
        stream = io.StringIO()
        configure_logging(level=level, json_mode=json_mode, stream=stream)
        return stream

    def teardown_method(self):
        # Leave the root logger quiet for other tests.
        configure_logging(level="warning")

    def test_key_value_rendering(self):
        stream = self._capture(json_mode=False)
        get_logger("test").info("something happened", files=3, archive="x")
        line = stream.getvalue().strip()
        assert "something happened" in line
        assert "files=3" in line
        assert "archive=x" in line

    def test_json_rendering(self):
        stream = self._capture(json_mode=True)
        get_logger("test").warning("bad thing", count=2)
        record = json.loads(stream.getvalue())
        assert record["event"] == "bad thing"
        assert record["count"] == 2
        assert record["level"] == "warning"
        assert record["logger"] == "repro.test"

    def test_level_filtering(self):
        stream = self._capture(json_mode=False, level="error")
        get_logger("test").info("dropped")
        get_logger("test").error("kept")
        assert "dropped" not in stream.getvalue()
        assert "kept" in stream.getvalue()

    def test_configure_is_idempotent(self):
        stream = self._capture(json_mode=False)
        stream2 = io.StringIO()
        configure_logging(level="info", json_mode=False, stream=stream2)
        get_logger("test").info("once")
        assert stream.getvalue() == ""  # old handler replaced, not stacked
        assert stream2.getvalue().count("once") == 1

    def test_formatters_handle_plain_records(self):
        # Records emitted by stdlib logging without our fields attribute.
        record = logging.LogRecord("x", logging.INFO, "f", 1, "plain %s", ("msg",), None)
        assert "plain msg" in KeyValueFormatter().format(record)
        assert json.loads(JsonFormatter().format(record))["event"] == "plain msg"


class TestPipelineMetrics:
    def test_ingest_populates_counters(self, tmp_path):
        from repro.model import Network

        config = "hostname r1\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
        (tmp_path / "r1.cfg").write_text(config)
        (tmp_path / "junk.bin").write_bytes(b"\x00\x01\x02")
        with use_registry() as registry:
            network = Network.from_directory(str(tmp_path), on_error="skip-block")
        counters = registry.snapshot()["counters"]
        assert counters["ingest.files.parsed"] == 1
        assert counters["ingest.files.quarantined"] == 1
        assert counters["ingest.parse.files"] == 1
        assert len(network.inventory) == 2

    def test_cache_counters_reconcile_with_stats(self, tmp_path):
        from repro.ingest import ParseCache
        from repro.model import Network

        archive = tmp_path / "archive"
        archive.mkdir()
        (archive / "r1.cfg").write_text(
            "hostname r1\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
        )
        cache = ParseCache(root=str(tmp_path / "cache"))
        with use_registry() as registry:
            Network.from_directory(str(archive), cache=cache)
            Network.from_directory(str(archive), cache=cache)
        counters = registry.snapshot()["counters"]
        assert counters["cache.misses"] == cache.stats.misses == 1
        assert counters["cache.stores"] == cache.stats.stores == 1
        assert counters["cache.hits"] == cache.stats.hits == 1

    def test_analysis_timings_recorded(self, enterprise_net):
        from repro.core import compute_instances

        net, _spec = enterprise_net
        with use_registry() as registry:
            compute_instances(net)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["analysis.instances.calls"] == 1
        assert snapshot["histograms"]["analysis.instances.seconds"]["count"] == 1

    @pytest.mark.parametrize("flags", [[], ["--stage-deadline", "60"]], ids=["inline", "watchdog"])
    def test_corpus_stage_spans_contain_their_analysis_spans(self, tmp_path, capsys, flags):
        from repro.cli import main
        from repro.exec import ANALYSIS_STAGES
        from repro.synth.templates.enterprise import build_enterprise
        from repro.synth.templates.example_fig1 import build_example_networks

        corpus = tmp_path / "corpus"
        for archive, (configs, _meta) in (
            ("ent", build_enterprise("ent", 1, 8, seed=3)),
            ("fig1", build_example_networks()),
        ):
            (corpus / archive).mkdir(parents=True)
            for name, text in configs.items():
                (corpus / archive / name).write_text(text)
        report = tmp_path / "report.json"
        code = main(
            ["corpus", str(corpus), "--no-cache", "--no-checkpoint",
             "--run-report", str(report), *flags]
        )
        capsys.readouterr()
        assert code == 0
        (run,) = json.loads(report.read_text())["spans"]
        archives = run["children"]
        assert [a["name"] for a in archives] == ["archive:ent", "archive:fig1"]
        analysis = {"instances", "pathways", "address_space", "reachability", "survivability"}

        def end(node):
            return node["start"] + node["seconds"]

        def descendants(node):
            for child in node.get("children", []):
                yield child
                yield from descendants(child)

        slack = 2e-6  # start/seconds are rounded to the microsecond
        for archive in archives:
            stages = archive["children"]
            assert [s["name"] for s in stages] == ["stage:read", "stage:parse"] + [
                f"stage:{stage}" for stage in ANALYSIS_STAGES
            ]
            for before, after in zip(stages, stages[1:]):
                assert end(before) <= after["start"] + slack  # siblings never overlap
            seen = set()
            for stage in stages:
                name = stage["name"].split(":", 1)[1]
                for node in descendants(stage):
                    assert stage["start"] - slack <= node["start"]
                    assert end(node) <= end(stage) + slack
                top = {child["name"] for child in stage.get("children", [])}
                assert top <= {name}  # each analysis span sits in its own stage
                seen |= top
            assert seen == analysis
