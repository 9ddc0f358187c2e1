"""Dialect detection tests and parser robustness fuzzing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diag import DiagnosticSink
from repro.ios.parser import ConfigParseError, parse_config
from repro.model.dialect import detect_dialect, parse_any_config

from tests.test_junos import SAMPLE as JUNOS_SAMPLE
from tests.test_parse_payload import KITCHEN_SINK as IOS_SAMPLE


class TestDetection:
    def test_ios_detected(self):
        assert detect_dialect("hostname r1\ninterface Ethernet0\n") == "ios"

    def test_junos_detected(self):
        assert detect_dialect("system {\n    host-name r1;\n}\n") == "junos"

    def test_junos_compact(self):
        assert detect_dialect("interfaces { ge-0/0/0 { unit 0 { } } }") == "junos"

    def test_ios_with_braces_in_description(self):
        # A brace inside an IOS description must not flip the detection.
        text = "interface Ethernet0\n description odd {name}\n"
        assert detect_dialect(text) == "ios"

    def test_empty_defaults_to_ios(self):
        assert detect_dialect("") == "ios"

    def test_parse_any_dispatches(self):
        ios = parse_any_config("hostname c1\n")
        junos = parse_any_config("system { host-name j1; }")
        assert ios.hostname == "c1"
        assert junos.hostname == "j1"


class TestBenchmarkParseCall:
    """perfbench/layers.py (``_parse_pass``) re-parses ingested files with
    ``parse_any_config(..., block_cache=None)``; that call must keep
    returning exactly what the call without the keyword returns."""

    @pytest.mark.parametrize("text", [IOS_SAMPLE, JUNOS_SAMPLE], ids=["ios", "junos"])
    def test_block_cache_none_changes_nothing(self, text):
        results = []
        for extra in ({"block_cache": None}, {}):
            sink = DiagnosticSink()
            config = parse_any_config(
                text, mode="lenient", sink=sink, source="r.cfg", **extra
            )
            results.append((config, tuple(sink.diagnostics)))
        assert results[0] == results[1]
        assert results[0][0].hostname in ("sink", "pe1")

    def test_any_other_block_cache_is_rejected(self):
        with pytest.raises(TypeError):
            parse_any_config(IOS_SAMPLE, block_cache=object())


class TestParserRobustnessFuzz:
    """The IOS parser must never crash with anything but ConfigParseError."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.text(
            alphabet=st.sampled_from(
                "abcdefghijklmnop 0123456789./!#-\nrouterinterfacespmt"
            ),
            max_size=400,
        )
    )
    def test_random_text_never_hard_crashes(self, text):
        try:
            config = parse_config(text)
        except ConfigParseError:
            return
        # Whatever parsed must at least be internally consistent.
        assert config.line_count >= config.command_count >= 0

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_unicode_never_hard_crashes(self, text):
        try:
            parse_config(text)
        except ConfigParseError:
            pass
