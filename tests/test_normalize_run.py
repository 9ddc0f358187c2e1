"""The one run-equivalence rule drops the volatile keys and nothing else.

Every gate that compares two runs compares their documents under
:func:`repro.obs.manifest.normalize_run` (serve generations under
:func:`repro.serve.generation.normalize_generation`, the same rule after
the disposition fold).  A field the rule dropped would pass every gate
unchecked, so every leaf of four real run documents — a ``repro corpus
--json`` payload, its ``--run-report`` manifest, a ``repro sweep
--json`` payload and a serve generation — is changed in turn: the
normalized form must change exactly when no field name on the leaf's
path is :data:`~repro.obs.manifest.VOLATILE`.  The archive's routers are
hostnamed after the volatile keys, so a filter that read a router name
as a field name fails too.
"""

import contextlib
import io
import json
import os

import pytest

from repro.cli import main
from repro.exec.executor import AnalysisExecutor, ExecutorConfig
from repro.ingest.snapshot import diff_snapshots, snapshot_corpus
from repro.obs.manifest import VOLATILE, normalize_run
from repro.serve.generation import normalize_generation, run_generation
from repro.synth.templates.pods import build_pods

NORMALIZERS = {
    "corpus": normalize_run,
    "manifest": normalize_run,
    "sweep": normalize_run,
    "generation": normalize_generation,
}


def _cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Warm, resumed runs of one archive, so every volatile key is set."""
    root = tmp_path_factory.mktemp("runs")
    configs, _spec = build_pods("net", 1, len(VOLATILE) + 1)
    hostnames = dict(zip(sorted(configs), sorted(VOLATILE)))
    archive = root / "corpus" / "net"
    archive.mkdir(parents=True)
    for router, text in configs.items():
        hostname = hostnames.get(router, router)
        (archive / router).write_text(
            text.replace(f"hostname {router}\n", f"hostname {hostname}\n")
        )
    corpus, archive = os.fspath(archive.parent), os.fspath(archive)
    report = os.fspath(root / "run.json")
    flags = ["--json", "--cache-dir", os.fspath(root / "cache")]
    flags += ["--checkpoint-dir", os.fspath(root / "ckpt")]

    _cli_json("corpus", *flags, corpus)
    payload = _cli_json("corpus", *flags, "--resume", "--compress", "--run-report", report, corpus)
    with open(report) as handle:
        manifest = json.load(handle)
    sweep = ["sweep", *flags, "--max-scenarios", "4", corpus]
    _cli_json(*sweep)
    swept = _cli_json(*sweep, "--resume")

    # A serve generation after a one-file edit, so its diff is real; the
    # edit is an unmodeled command, so it has a diagnostic row.
    before = snapshot_corpus(archive)
    with open(os.path.join(archive, sorted(configs)[0]), "a") as handle:
        handle.write("snmp-server location lab\n")
    after = snapshot_corpus(archive)
    generation = run_generation(
        archive,
        after.digest,
        executor=AnalysisExecutor(ExecutorConfig()),
        diff=diff_snapshots(before, after).as_dict(),
    )
    assert generation.complete
    assert set(generation.payload["pathways"]) >= VOLATILE
    return {
        "corpus": payload,
        "manifest": manifest,
        "sweep": swept,
        "generation": generation.payload,
    }


def _field_names(name, path):
    """The field names on *path* in document *name*: every dict key but
    a generation's router names (the keys of ``pathways``)."""
    return {
        step
        for depth, step in enumerate(path)
        if isinstance(step, str)
        and not (name == "generation" and depth == 1 and path[0] == "pathways")
    }


def _positions(value, path=()):
    """Every leaf of *value* (scalars and empty collections) as
    ``("value", path)``, and each router-name key as ``("key", path)``."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            if path == ("pathways",):
                yield "key", path + (key,)
            yield from _positions(item, path + (key,))
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from _positions(item, path + (index,))
    else:
        yield "value", path


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    return "changed"


def _mutated(document, kind, path):
    copy = json.loads(json.dumps(document))
    holder = copy
    for step in path[:-1]:
        holder = holder[step]
    last = path[-1]
    if kind == "key":
        holder[_changed(last)] = holder.pop(last)
    else:
        holder[last] = _changed(holder[last])
    return copy


def test_every_volatile_key_is_set_in_some_document(documents):
    # A key no run document carries is no reason to skip a field.
    seen = {
        step
        for document in documents.values()
        for _kind, path in _positions(document)
        for step in path
        if isinstance(step, str)
    }
    assert VOLATILE <= seen


@pytest.mark.parametrize("name", sorted(NORMALIZERS))
def test_normalized_form_changes_iff_no_volatile_field_on_the_path(documents, name):
    document, normalize = documents[name], NORMALIZERS[name]
    reference = normalize(document)
    positions = list(_positions(document))
    assert len(positions) > 50
    compared = dropped = 0
    for kind, path in positions:
        volatile = bool(_field_names(name, path) & VOLATILE)
        changed = normalize(_mutated(document, kind, path)) != reference
        assert changed is not volatile, f"{name}: {kind} {path}"
        compared += changed
        dropped += volatile
    assert compared and dropped


def test_lists_keep_their_order(documents):
    rows = documents["sweep"]["archives"][0]["rows"]
    swapped = json.loads(json.dumps(documents["sweep"]))
    swapped["archives"][0]["rows"] = rows[::-1]
    assert rows != rows[::-1]
    assert normalize_run(swapped) != normalize_run(documents["sweep"])
