"""Examples-as-tests: every shipped example must run to completion.

Keeps the README's runnable walk-throughs from rotting as the library
evolves.  Each example is executed in-process with output captured.
"""

import runpy
import sys
import tempfile

import pytest

EXAMPLES = [
    "examples/quickstart.py",
    "examples/reachability_analysis.py",
    "examples/anonymize_and_share.py",
    "examples/what_if_analysis.py",
    "examples/vendor_migration.py",
]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.split("/")[-1])
def test_example_runs(path, capsys, monkeypatch, tmp_path):
    # Scratch files go through tempfile: point it at an empty directory
    # so whatever an example leaves behind shows.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), "examples must narrate what they do"
    assert not list(scratch.iterdir()), "examples must remove their scratch files"


def test_enterprise_audit_small_scale(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["examples/enterprise_audit.py", "0.08"])
    runpy.run_path("examples/enterprise_audit.py", run_name="__main__")
    out = capsys.readouterr().out
    assert "routing instances" in out
    assert "can NO LONGER" in out  # the partition question answered


def test_corpus_study_small_scale(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["examples/corpus_study.py", "0.05"])
    runpy.run_path("examples/corpus_study.py", run_name="__main__")
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "4 backbone, 7 enterprise, 20 unclassifiable" in out
