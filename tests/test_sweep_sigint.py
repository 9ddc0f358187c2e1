"""SIGINT mid-``repro sweep``: every checkpoint left behind is valid,
and ``--resume`` completes the sweep byte-identical (normalized) to an
uninterrupted run.

This is the real-signal companion to the in-process SimulatedKill
resume tests in ``test_sweep_cli.py``: the subprocess is interrupted by
an actual SIGINT while a chaos-hung archive pins it mid-corpus, so the
checkpoint directory is whatever the atomic-write discipline left on
disk at interrupt time — exactly what a Ctrl-C'd operator resumes from.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.exec.chaos import CHAOS_ENV
from repro.exec.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from repro.report.sweep import normalize_sweep_payload

WAIT = 60.0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two archives: net1 sweeps clean, net2 is the chaos-hang target."""
    root = tmp_path_factory.mktemp("sigint-corpus")
    assert main(["generate", "fig1", str(root / "net1"), "--seed", "1"]) == 0
    assert main(["generate", "fig1", str(root / "net2"), "--seed", "2"]) == 0
    return str(root)


def _sweep_argv(corpus, ckpt_dir, *extra):
    return [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        corpus,
        "--json",
        "--jobs",
        "1",
        "--no-cache",
        "--checkpoint-dir",
        ckpt_dir,
        *extra,
    ]


def _env(tmp_path, chaos=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "unused-cache")
    env.pop(CHAOS_ENV, None)
    if chaos is not None:
        env[CHAOS_ENV] = chaos
    return env


def _checkpoint_files(root):
    found = []
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            if name.endswith(".json") and not name.startswith(".tmp-"):
                found.append(os.path.join(dirpath, name))
    return found


def _run_json(argv, env):
    completed = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode in (0, 3), completed.stderr
    return json.loads(completed.stdout)


def test_sigint_leaves_valid_checkpoints_and_resume_is_identical(
    corpus, tmp_path
):
    ckpt = str(tmp_path / "ckpt")

    # Interrupted run: net1 sweeps and checkpoints normally; net2's first
    # scenario hangs forever under chaos, pinning the process mid-corpus.
    process = subprocess.Popen(
        _sweep_argv(corpus, ckpt),
        env=_env(tmp_path, chaos="net2:*=hang"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            if len(_checkpoint_files(ckpt)) >= 3:
                break
            if process.poll() is not None:
                raise AssertionError(
                    f"sweep exited early with {process.returncode}"
                )
            time.sleep(0.05)
        else:
            raise AssertionError("no checkpoints appeared before deadline")
        process.send_signal(signal.SIGINT)
        returncode = process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert returncode != 0  # the interrupted run did not report success

    # Every surviving checkpoint entry is complete, valid JSON with the
    # current schema: the atomic temp-file-then-rename write discipline
    # means SIGINT can abandon a .tmp- file but never truncate an entry.
    files = _checkpoint_files(ckpt)
    assert files, "interrupted run left no checkpoints to resume from"
    for path in files:
        with open(path) as handle:
            entry = json.load(handle)  # parses: no torn writes
        assert entry["schema"] == CHECKPOINT_SCHEMA
        assert entry["result"]["status"] in ("ok", "degraded")

    # The store itself accepts the directory wholesale (no evictions
    # needed): its entry census equals the file census.
    assert len(CheckpointStore(root=ckpt).disk.entries()) == len(files)

    # Resumed run (chaos cleared) vs uninterrupted reference run.
    resumed = _run_json(
        _sweep_argv(corpus, ckpt, "--resume"), _env(tmp_path)
    )
    reference = _run_json(
        _sweep_argv(corpus, str(tmp_path / "ckpt-reference")),
        _env(tmp_path),
    )

    # The resume actually replayed checkpoints rather than recomputing.
    replayed = [
        row
        for archive in resumed["archives"]
        for row in archive.get("rows", [])
        if row.get("from_checkpoint")
    ]
    assert replayed, "resume replayed nothing from the checkpoint store"

    assert json.dumps(
        normalize_sweep_payload(resumed), sort_keys=True
    ) == json.dumps(normalize_sweep_payload(reference), sort_keys=True)
