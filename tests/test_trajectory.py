"""benchmarks/trajectory.py: perfbench records → one BENCH_<label>.json."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "trajectory.py")


def _load():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trajectory = _load()


def _record(directory, name, *, p50, rss, attempted=10, failed=0, correct=True):
    os.makedirs(directory, exist_ok=True)
    record = {
        "inputs": {"variant": 7},
        "seconds": 15,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "op_user_p50_ms": {"value": p50, "unit": "ms"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            },
        },
    }
    with open(os.path.join(directory, name), "w") as handle:
        json.dump(record, handle)


@pytest.fixture
def records(tmp_path):
    parent = tmp_path / "parent"
    change = tmp_path / "change"
    _record(parent, "paper-corpus-s7-t0-20261018T010000-11.json", p50=4000.0, rss=200.0)
    # Run order comes from the stamp, not the listing: this run is second.
    _record(change, "paper-corpus-s7-t0-20261018T010300-13.json", p50=4200.0, rss=150.0)
    _record(
        change,
        "paper-corpus-s7-t0-20261018T010100-12.json",
        p50=3000.0,
        rss=140.0,
        failed=1,
        correct=False,
    )
    # Beside a traced record: never read as a run.
    (change / "paper-corpus-s7-t1-20261018T010500-14.spans.json").write_text("[]")
    return str(parent), str(change)


def test_reduces_both_sides(records, tmp_path):
    parent, change = records
    out = tmp_path / "BENCH_t.json"
    assert trajectory.main([change, "--parent", parent, "--label", "t", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["schema"] == trajectory.SCHEMA
    assert document["label"] == "t"
    workload = document["workloads"]["paper-corpus"]
    assert workload["sides"] == {
        "change": {"runs": 2, "incorrect_runs": 1, "failed_share": 0.05, "variants": [7]},
        "parent": {"runs": 1, "incorrect_runs": 0, "failed_share": 0.0, "variants": [7]},
    }
    p50 = workload["metrics"]["op_user_p50_ms"]
    assert p50["unit"] == "ms"
    assert p50["better"] == "lower"
    assert p50["change"] == {"n": 2, "median": 3600.0, "q1": 3300.0, "q3": 3900.0}
    assert p50["parent"] == {"n": 1, "median": 4000.0, "q1": 4000.0, "q3": 4000.0}
    # One pair: the parent's only run against the change's first (3,000 ms).
    assert p50["pairs"] == 1
    assert p50["wins"] == 1
    assert workload["metrics"]["peak_rss_mb"]["wins"] == 1


def test_change_alone_has_no_pairs(records):
    _parent, change = records
    document = trajectory.reduce_runs(trajectory.load_runs(change))
    p50 = document["workloads"]["paper-corpus"]["metrics"]["op_user_p50_ms"]
    assert "parent" not in p50
    assert "pairs" not in p50 and "wins" not in p50
    assert p50["better"] is None  # no directions given


def test_wins_follow_the_direction():
    assert trajectory.wins([4.0, 4.0], [3.0, 5.0], "lower") == 1
    assert trajectory.wins([0.5, 0.5], [0.6, 0.5], "higher") == 1
    assert trajectory.wins([1.0], [0.0], None) is None


def test_runs_as_a_script(records):
    parent, change = records
    proc = subprocess.run(
        [sys.executable, SCRIPT, change, "--parent", parent],
        capture_output=True,
        text=True,
        check=True,
    )
    document = json.loads(proc.stdout)
    assert document["workloads"]["paper-corpus"]["sides"]["change"]["runs"] == 2
