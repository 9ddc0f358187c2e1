"""Differential testing of the ingest parse path on realistic input.

Property: for any configuration text — template-generated or
fault-mutated — the ingest pass and a replay from the parse cache are
*observably identical* to a direct parse (same config, same diagnostics,
same counts, both modes), and a lenient parse's serialized model is a
serializer fixpoint.  Hypothesis drives file choice, fault kind, and
fault seed, so each run explores a different slice of mangled-input
space around the synthetic corpus.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diag import DiagnosticSink
from repro.ingest import ParseCache, ParseTask, parse_many
from repro.ios.parser import parse_config
from repro.ios.serializer import serialize_config
from repro.synth.faults import fault_kinds, inject_fault
from repro.synth.templates.enterprise import build_enterprise
from repro.synth.templates.net5 import build_net5


def _base_corpus():
    configs = {}
    enterprise, _spec = build_enterprise("diff-e", 40, 12, seed=11)
    configs.update(enterprise)
    net5, _spec = build_net5("diff-n5", 41, seed=12)
    configs.update(net5)
    return configs


BASE = _base_corpus()
FILES = sorted(BASE)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ParseCache(root=os.fspath(tmp_path_factory.mktemp("differential-cache")))


def _view(config, diagnostics):
    # Compare materialized streams: an outcome carries runs of deferred
    # unmodeled-stanza rows where the direct sink yields the rows.
    diagnostics = tuple(DiagnosticSink().merge(diagnostics))
    if config is None:
        return ("quarantined", diagnostics)
    return (config, diagnostics, config.line_count, config.command_count)


def parse_every_way(text, cache):
    """Parse ``text`` directly, through the ingest pass, and replayed from
    the parse cache, per mode."""
    results = {}
    for mode, on_error in (("strict", "strict"), ("lenient", "skip-block")):
        sink = DiagnosticSink()
        try:
            config = parse_config(text, mode=mode, sink=sink, source="d.cfg")
            results[(mode, "plain")] = _view(config, sink.diagnostics)
        except ValueError as exc:
            results[(mode, "plain")] = ("raised", str(exc))
        tasks = [ParseTask("d.cfg", text, on_error)]
        for variant in ("ingest", "replayed"):
            (outcome,) = parse_many(tasks, cache=cache)
            if outcome.error is not None:
                results[(mode, variant)] = ("raised", str(outcome.error))
            else:
                results[(mode, variant)] = _view(outcome.config, outcome.diagnostics)
    return results


def assert_variants_agree(text, cache):
    results = parse_every_way(text, cache)
    for mode in ("strict", "lenient"):
        plain = results[(mode, "plain")]
        assert results[(mode, "ingest")] == plain, (mode, "ingest")
        assert results[(mode, "replayed")] == plain, (mode, "replayed")
    return results


def assert_serializer_fixpoint(config):
    once = serialize_config(config)
    reparsed = parse_config(once)
    assert serialize_config(reparsed) == once


def assert_serializer_converges(config):
    """Lenient parses of damaged text reach a serializer fixpoint in one
    extra round trip: retained (unmodeled) block lines serialize flat, so
    the first re-parse may re-model a previously skipped head line, after
    which serialize/parse is stable."""
    text = serialize_config(config)
    for _ in range(2):
        sink = DiagnosticSink()
        reparsed = parse_config(text, mode="lenient", sink=sink)
        again = serialize_config(reparsed)
        if again == text:
            return
        text = again
    sink = DiagnosticSink()
    reparsed = parse_config(text, mode="lenient", sink=sink)
    assert serialize_config(reparsed) == text


@pytest.mark.parametrize("name", FILES[:4])
def test_template_configs_parse_identically(name, cache):
    results = assert_variants_agree(BASE[name], cache)
    config, diags, _lines, _commands = results[("strict", "plain")]
    # Template output may contain unmodeled commands (info), never errors.
    assert not [d for d in diags if d.severity == "error"]
    assert_serializer_fixpoint(config)


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(FILES),
    kind=st.sampled_from(sorted(fault_kinds())),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_mutated_configs_parse_identically(cache, name, kind, seed):
    # Mutators run over the whole corpus (some, like splice-files, need
    # several files to work with); we then check every file they touched.
    mutated, fault = inject_fault(dict(BASE), kind, seed)
    for touched in fault.files or (name,):
        results = assert_variants_agree(mutated[touched], cache)
        lenient = results[("lenient", "plain")]
        # Whatever the mutation did, lenient mode must still produce a
        # model (file-level failures raise identically, asserted above).
        if lenient[0] != "raised":
            config = lenient[0]
            assert config.line_count >= config.command_count
            assert_serializer_converges(config)


@settings(max_examples=25, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(sorted(fault_kinds())), min_size=2, max_size=3
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_stacked_faults_parse_identically(cache, kinds, seed):
    mutated = dict(BASE)
    touched = set()
    for offset, kind in enumerate(kinds):
        mutated, fault = inject_fault(mutated, kind, seed + offset)
        touched.update(fault.files)
    for name in sorted(touched):
        assert_variants_agree(mutated[name], cache)
