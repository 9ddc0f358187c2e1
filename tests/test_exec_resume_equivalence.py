"""Property: resuming after a mid-run kill converges to the uninterrupted run.

The executor's determinism contract (diagnostics derived from result
summaries, never from timing; checkpoint provenance stripped by
``normalize_run``) exists so that a corpus run killed at *any*
stage and then finished with ``--resume`` produces the same normalized
run manifest as a run that was never interrupted.  Hypothesis picks the
kill point.
"""

import json
import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exec import ANALYSIS_STAGES, CHAOS_ENV, SimulatedKill
from repro.obs import normalize_run
from repro.synth.templates.example_fig1 import build_example_networks


def _normalized(path):
    manifest = json.loads(open(path).read())
    core = normalize_run(manifest)
    # Checkpoint hit/miss counters legitimately differ between an
    # interrupted-then-resumed run and an uninterrupted one; everything
    # else in the normalized core must agree exactly.
    core.pop("metrics")
    return core


@settings(max_examples=5, deadline=None)
@given(stage=st.sampled_from(ANALYSIS_STAGES))
def test_resume_after_kill_matches_uninterrupted_run(stage):
    workdir = tempfile.mkdtemp(prefix="repro-resume-")
    try:
        corpusdir = os.path.join(workdir, "corpus")
        archive = os.path.join(corpusdir, "net")
        os.makedirs(archive)
        configs, _meta = build_example_networks()
        for name, text in configs.items():
            with open(os.path.join(archive, name), "w") as handle:
                handle.write(text)
        checkpoint_a = os.path.join(workdir, "ckpt-a")
        checkpoint_b = os.path.join(workdir, "ckpt-b")
        report_a = os.path.join(workdir, "a.json")
        report_b = os.path.join(workdir, "b.json")
        base = ["corpus", "--no-cache", "--json"]

        # Run 1: killed mid-flight at the chosen stage.  SimulatedKill is
        # a BaseException no barrier catches — the in-process stand-in
        # for SIGKILL; checkpoints written before it fires survive.
        os.environ[CHAOS_ENV] = f"*:{stage}=kill"
        try:
            killed = False
            try:
                main(base + ["--checkpoint-dir", checkpoint_a, corpusdir])
            except SimulatedKill:
                killed = True
            assert killed
        finally:
            os.environ.pop(CHAOS_ENV, None)

        # Run 2: resume to completion, writing a manifest.
        code = main(
            base
            + [
                "--checkpoint-dir",
                checkpoint_a,
                "--resume",
                "--run-report",
                report_a,
                corpusdir,
            ]
        )
        assert code == 0

        # Reference: the same corpus, never interrupted.
        code = main(
            base
            + [
                "--checkpoint-dir",
                checkpoint_b,
                "--run-report",
                report_b,
                corpusdir,
            ]
        )
        assert code == 0

        assert _normalized(report_a) == _normalized(report_b)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
