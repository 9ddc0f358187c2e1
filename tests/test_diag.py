"""Structured diagnostics: records, sinks, severity math, exit codes."""

import pytest

from repro.diag import (
    ERROR,
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    INFO,
    PHASE_BUILD,
    PHASE_PARSE,
    PHASE_READ,
    WARNING,
    Diagnostic,
    DiagnosticSink,
    UnmodeledRun,
)
from repro.report import format_diagnostics


class TestDiagnostic:
    def test_fields(self):
        diag = Diagnostic(
            severity=ERROR,
            phase=PHASE_PARSE,
            message="skipped block",
            file="R1",
            router="r1",
            line_number=12,
            line="ip address 999.0.0.1",
        )
        assert diag.file == "R1"
        assert diag.line_number == 12

    def test_str_includes_location(self):
        diag = Diagnostic(ERROR, PHASE_PARSE, "bad octet", file="R1", line_number=3)
        text = str(diag)
        assert "R1:3" in text
        assert "bad octet" in text

    def test_str_without_location(self):
        diag = Diagnostic(INFO, PHASE_BUILD, "note")
        assert "note" in str(diag)

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Diagnostic("fatal", PHASE_PARSE, "boom")

    def test_frozen(self):
        diag = Diagnostic(INFO, PHASE_PARSE, "x")
        with pytest.raises(AttributeError):
            diag.message = "y"


class TestDiagnosticSink:
    def test_empty_sink_is_clean(self):
        sink = DiagnosticSink()
        assert len(sink) == 0
        assert not sink.has_errors
        assert not sink.has_warnings
        assert sink.exit_code() == EXIT_CLEAN

    def test_sink_is_always_truthy(self):
        # `if sink:` must mean "a sink was provided", not "it has entries".
        assert bool(DiagnosticSink())

    def test_emit_helpers_set_severity(self):
        sink = DiagnosticSink()
        sink.info(PHASE_PARSE, "i")
        sink.warning(PHASE_READ, "w", file="R2")
        sink.error(PHASE_PARSE, "e", file="R1", line_number=4)
        assert [d.severity for d in sink] == [INFO, WARNING, ERROR]

    def test_counts(self):
        sink = DiagnosticSink()
        sink.error(PHASE_PARSE, "a")
        sink.error(PHASE_PARSE, "b")
        sink.warning(PHASE_READ, "c")
        assert sink.counts() == {ERROR: 2, WARNING: 1, INFO: 0}

    def test_exit_code_ladder(self):
        sink = DiagnosticSink()
        assert sink.exit_code() == EXIT_CLEAN
        sink.info(PHASE_PARSE, "note")
        assert sink.exit_code() == EXIT_CLEAN  # info alone stays clean
        sink.warning(PHASE_PARSE, "odd")
        assert sink.exit_code() == EXIT_WARNINGS
        sink.error(PHASE_PARSE, "bad")
        assert sink.exit_code() == EXIT_ERRORS

    def test_for_file(self):
        sink = DiagnosticSink()
        sink.error(PHASE_PARSE, "a", file="R1")
        sink.error(PHASE_PARSE, "b", file="R2")
        sink.warning(PHASE_READ, "c", file="R1")
        assert len(sink.for_file("R1")) == 2

    def test_summary_text(self):
        sink = DiagnosticSink()
        sink.error(PHASE_PARSE, "x")
        sink.warning(PHASE_PARSE, "y")
        assert sink.summary() == "1 error(s), 1 warning(s), 0 info"


class TestMerge:
    """merge(): the primitive that reassembles per-worker sinks."""

    def _worker_sinks(self):
        """Three sinks as parallel workers would produce them."""
        a = DiagnosticSink()
        a.info(PHASE_PARSE, "unmodeled command", file="config1")
        a.error(PHASE_PARSE, "skipped block", file="config1", line_number=7)
        b = DiagnosticSink()
        b.warning(PHASE_READ, "binary file", file="config2")
        c = DiagnosticSink()
        c.info(PHASE_BUILD, "no hostname", file="config3")
        return a, b, c

    def test_merge_returns_self(self):
        target, other = DiagnosticSink(), DiagnosticSink()
        assert target.merge(other) is target

    def test_merge_sink_carries_errors(self):
        a = DiagnosticSink()
        a.error(PHASE_PARSE, "x")
        b = DiagnosticSink()
        b.merge(a)
        assert b.has_errors

    def test_merge_preserves_submission_order(self):
        a, b, c = self._worker_sinks()
        merged = DiagnosticSink()
        merged.merge(a).merge(b).merge(c)
        messages = [d.message for d in merged]
        assert messages == [
            "unmodeled command",
            "skipped block",
            "binary file",
            "no hostname",
        ]

    def test_merge_order_is_caller_controlled(self):
        # Completion order must not matter: the caller decides by merge order.
        a, b, c = self._worker_sinks()
        forward = DiagnosticSink().merge(a).merge(b).merge(c)
        backward = DiagnosticSink().merge(c).merge(b).merge(a)
        # Sink-internal order is preserved; only the sink order flips.
        assert [d.message for d in backward] == [
            "no hostname",
            "binary file",
            "unmodeled command",
            "skipped block",
        ]
        assert [d.message for d in backward] != [d.message for d in forward]

    def test_merge_folds_severity_counts(self):
        a, b, c = self._worker_sinks()
        merged = DiagnosticSink().merge(a).merge(b).merge(c)
        assert merged.counts() == {ERROR: 1, WARNING: 1, INFO: 2}
        assert merged.has_errors
        assert merged.has_warnings

    def test_merged_exit_code_equals_shared_sink(self):
        # One sink merged from N workers ≡ one sink shared by N phases.
        a, b, c = self._worker_sinks()
        merged = DiagnosticSink().merge(a).merge(b).merge(c)
        shared = DiagnosticSink()
        for sink in (a, b, c):
            for diag in sink:
                shared.emit(diag)
        assert merged.exit_code() == shared.exit_code() == EXIT_ERRORS
        assert merged.summary() == shared.summary()
        assert [str(d) for d in merged] == [str(d) for d in shared]

    def test_merged_exit_code_is_max_of_parts(self):
        a, b, c = self._worker_sinks()
        parts = [a.exit_code(), b.exit_code(), c.exit_code()]
        merged = DiagnosticSink().merge(a).merge(b).merge(c)
        assert merged.exit_code() == max(parts)

    def test_merge_accepts_plain_iterables(self):
        diags = (
            Diagnostic(WARNING, PHASE_READ, "w", file="f1"),
            Diagnostic(ERROR, PHASE_PARSE, "e", file="f2"),
        )
        sink = DiagnosticSink().merge(diags)
        assert sink.exit_code() == EXIT_ERRORS
        assert [d.message for d in sink] == ["w", "e"]

    def test_merge_rejects_non_diagnostics(self):
        with pytest.raises(TypeError):
            DiagnosticSink().merge(["not a diagnostic"])
        with pytest.raises(TypeError):
            DiagnosticSink().merge([([(3, "ntp server 1.2.3.4")], 0, 1, "f")])

    def test_merge_accepts_unmodeled_runs(self):
        stanzas = [(3, "ntp server 1.2.3.4"), (5, "line vty 0 4")]
        stream = (
            UnmodeledRun(stanzas, 0, 1, "f"),
            Diagnostic(ERROR, PHASE_PARSE, "skipped block", file="f", line_number=4),
            UnmodeledRun(stanzas, 1, 2, "f"),
        )
        sink = DiagnosticSink().merge(stream)
        assert sink.compact() == stream
        assert [str(d) for d in sink] == [
            "info: f:3: [parse] unmodeled command: ntp | 'ntp server 1.2.3.4'",
            "error: f:4: [parse] skipped block",
            "info: f:5: [parse] unmodeled command: line | 'line vty 0 4'",
        ]
        assert len(sink) == 3
        assert sink.counts() == {ERROR: 1, WARNING: 0, INFO: 2}

    def test_merge_empty_is_noop(self):
        sink = DiagnosticSink()
        sink.warning(PHASE_PARSE, "w")
        sink.merge(DiagnosticSink()).merge(())
        assert len(sink) == 1
        assert sink.exit_code() == EXIT_WARNINGS

    def test_merge_does_not_mutate_source(self):
        a, _, _ = self._worker_sinks()
        before = list(a.diagnostics)
        DiagnosticSink().merge(a)
        assert a.diagnostics == before


class TestUnmodeledRuns:
    """Deferred unmodeled-stanza rows: recorded once, built when read."""

    def test_open_run_keeps_its_place_around_explicit_rows(self):
        sink = DiagnosticSink()
        sink.warning(PHASE_READ, "before", file="f")
        stanzas = sink.open_unmodeled("f")
        stanzas.append((2, "ntp server 1.2.3.4"))
        sink.error(PHASE_PARSE, "between", file="f", line_number=3)
        stanzas.append((4, "snmp-server location lab"))
        sink.info(PHASE_BUILD, "after", file="f")
        assert [d.message for d in sink] == [
            "before",
            "unmodeled command: ntp",
            "between",
            "unmodeled command: snmp-server",
            "after",
        ]
        assert [type(entry) for entry in sink.compact()] == [
            Diagnostic, UnmodeledRun, Diagnostic, UnmodeledRun, Diagnostic
        ]

    def test_rows_equal_eager_ones(self):
        deferred = DiagnosticSink()
        deferred.open_unmodeled("R1").append((7, "  banner motd ^C hi ^C"))
        eager = Diagnostic(
            INFO,
            PHASE_PARSE,
            "unmodeled command: banner",
            file="R1",
            line_number=7,
            line="  banner motd ^C hi ^C",
        )
        assert deferred.diagnostics == [eager]
        assert deferred.by_severity(INFO) == [eager]
        assert deferred.for_file("R1") == [eager]
        assert deferred.for_file("R2") == []

    def test_runs_never_raise_the_exit_code(self):
        sink = DiagnosticSink()
        sink.open_unmodeled("f").extend([(1, "ntp a"), (2, "ntp b")])
        assert len(sink) == 2
        assert sink.counts() == {ERROR: 0, WARNING: 0, INFO: 2}
        assert sink.exit_code() == EXIT_CLEAN
        assert sink.summary() == "0 error(s), 0 warning(s), 2 info"


class TestFormatDiagnostics:
    def test_clean_sink(self):
        text = format_diagnostics(DiagnosticSink())
        assert "no diagnostics" in text

    def test_errors_sort_first(self):
        sink = DiagnosticSink()
        sink.info(PHASE_PARSE, "an info line", file="A", line_number=1)
        sink.error(PHASE_PARSE, "an error line", file="Z", line_number=9)
        text = format_diagnostics(sink)
        assert text.index("an error line") < text.index("an info line")

    def test_quarantined_listed(self):
        sink = DiagnosticSink()
        sink.error(PHASE_PARSE, "dead file", file="R9")
        text = format_diagnostics(sink, quarantined=["R9"])
        assert "quarantined files: R9" in text

    def test_long_messages_truncated(self):
        sink = DiagnosticSink()
        sink.error(PHASE_PARSE, "x" * 500)
        text = format_diagnostics(sink)
        assert "x" * 500 not in text
        assert "…" in text
