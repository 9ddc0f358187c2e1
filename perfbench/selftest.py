"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks, in about a minute:

* every workload finishes at ``--tiny`` size in seconds, untraced and
  traced, with ``correct`` true, no failed operation, and every metric
  ``BENCHMARK.json`` names printed with its unit; untraced runs are
  calibrated, and no run leaves a process of the benchmark running;
* each output check passes on the program's real outputs and fails on
  a deliberately tampered copy;
* a mismatched or missing pinned digest fails the run;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the command exits non-zero without printing a result.

Working files go under ``.perfbench-work/selftest/``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from gen import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
WORK_DIR = os.path.join(ROOT, ".perfbench-work", "selftest")
TINY_LIMIT_S = 60.0

failures = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def bench(args, cwd=ROOT):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        command = json.load(handle)["command"]
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable if part == "python3" else part for part in command] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return completed, time.perf_counter() - start


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def leftover_processes():
    """Processes other than this one still running a script of the benchmark."""
    prefix = os.path.join(HERE, "")
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                args = handle.read().decode("utf-8", errors="replace").split("\0")
        except OSError:
            continue
        if any(arg.startswith(prefix) for arg in args):
            found.append(pid)
    return found


def test_runs(spec) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOADS:
            completed, seconds = bench(
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"]
            )
            result = last_json(completed.stdout)
            label = f"{workload} --trace {trace}"
            expect(completed.returncode == 0 and result is not None,
                   f"{label}: exits 0 with a result ({seconds:.1f}s)")
            if result is None:
                print(completed.stderr[-2000:])
                continue
            expect(seconds < TINY_LIMIT_S, f"{label}: finishes in seconds")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, none failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label}: prints exactly the {section} metrics with units")
            if trace == 0:
                expect(any(line.startswith("calibration ") for line in
                           completed.stdout.splitlines()), f"{label}: calibrated")
            expect(not leftover_processes(), f"{label}: leaves no process running")


def child_outputs(workload: str):
    """Run gen + one timed child at tiny size; return (expect, result, outputs)."""
    base = os.path.join(WORK_DIR, workload)
    inputs, work = os.path.join(base, "inputs"), os.path.join(base, "work")
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PERFBENCH_KEEP_OUTPUTS="1")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), workload, "3", inputs, "--tiny"],
        env=env, check=True, capture_output=True,
    )
    if workload == "serve-edit":
        shutil.copytree(os.path.join(inputs, "archive"), os.path.join(work, "archive"))
    out = os.path.join(base, "timed.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "timed", workload, inputs, work, out],
        env=env, check=True, capture_output=True,
    )
    with open(os.path.join(inputs, "expect.json"), encoding="utf-8") as handle:
        truth = json.load(handle)
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    with open(out + ".outputs", encoding="utf-8") as handle:
        outputs = json.load(handle)
    return truth, result, outputs


def first_stage(payload):
    return payload["archives"][0]["execution"]["stages"][0]


def test_checks() -> None:
    truth, result, out = child_outputs("paper-corpus")
    payload = out["payload"]

    def corpus(p=payload, t=truth, equal=True):
        return checks.check_corpus(p, t, equal, {})

    expect(not corpus() and not result["failures"], "corpus check passes on real output")
    bad = copy.deepcopy(payload)
    first_stage(bad)["status"] = "failed"
    expect(bool(corpus(p=bad)), "corpus check fails on a failed stage")
    bad = copy.deepcopy(payload)
    bad["archives"][0]["routers"] += 1
    expect(bool(corpus(p=bad)), "corpus check fails on a wrong router count")
    bad = copy.deepcopy(payload)
    bad["archives"][0]["parsed"] -= 1
    expect(bool(corpus(p=bad)), "corpus check fails when parsed != files")
    bad = copy.deepcopy(payload)
    for stage in bad["archives"][0]["execution"]["stages"]:
        if stage["stage"] == "instances":
            stage["items"] += 1
    expect(bool(corpus(p=bad)), "corpus check fails on an unknown instance disagreement")
    expect(bool(corpus(equal=False)), "corpus check fails when --resume differs")
    for gap, fails in ((-1, False), (-2, True)):
        bad = copy.deepcopy(payload)
        for entry in bad["archives"]:
            for stage in entry["execution"]["stages"]:
                if entry["archive"] == "net29" and stage["stage"] == "instances":
                    stage["items"] = truth["archives"]["net29"]["instances"] + gap
        notes = {}
        found = bool(checks.check_corpus(bad, truth, True, notes))
        if fails:
            expect(found, "corpus check fails when net29 disagrees by another value")
        else:
            expect(not found and "net29" in notes["instance_disagreements"],
                   "corpus check records the known net29 disagreement by name and value")

    truth, result, out = child_outputs("pod-compress")
    payload = out["payload"]
    expect(not checks.check_pod(payload, truth, out["classes"], out["mismatches"])
           and not result["failures"], "pod check passes on real output")
    expect(bool(checks.check_pod(payload, truth, out["classes"] + 1, [])),
           "pod check fails on a wrong class count")
    expect(bool(checks.check_pod(payload, truth, out["classes"], [truth["sample"][0]])),
           "pod check fails when a compressed pathway differs")
    bad = copy.deepcopy(payload)
    first_stage(bad)["status"] = "timeout"
    expect(bool(checks.check_pod(bad, truth, out["classes"], [])),
           "pod check fails on a timed-out stage")

    truth, result, out = child_outputs("sweep-backbone")
    payload = out["payload"]
    expect(not checks.check_sweep(payload, out["enumerated"]) and not result["failures"],
           "sweep check passes on real output")
    expect(bool(checks.check_sweep(payload, out["enumerated"] + 1)),
           "sweep check fails on a missing scenario")
    bad = copy.deepcopy(payload)
    bad["archives"][0]["rows"][0]["status"] = "degraded"
    expect(bool(checks.check_sweep(bad, out["enumerated"])),
           "sweep check fails on a degraded scenario")

    truth, result, out = child_outputs("serve-edit")
    edits = result["edits"]
    expect(not checks.check_serve(edits, truth["edits"], out["final_equal"])
           and not result["failures"], "serve check passes on real output")
    for field, value, what in (
        ("parsed", 0, "an edit parsed no file"),
        ("parsed", 2, "an edit parsed two files"),
        ("complete", False, "a generation was incomplete"),
        ("generation", edits[-1]["generation"] + 5, "an edit skipped a generation"),
    ):
        bad = copy.deepcopy(edits)
        bad[-1][field] = value
        expect(bool(checks.check_serve(bad, truth["edits"], True)), f"serve check fails when {what}")
    expect(bool(checks.check_serve(edits[:-1], truth["edits"], True)),
           "serve check fails when an edit is missing")
    expect(bool(checks.check_serve(edits, truth["edits"], False)),
           "serve check fails when the last generation differs from a cold run")


def copy_benchmark(dest: str, with_program: bool) -> None:
    os.makedirs(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_pins() -> None:
    for case, pinned in (("mismatched", "0" * 64), ("missing", None)):
        dest = os.path.join(WORK_DIR, f"{case}-digest")
        copy_benchmark(dest, with_program=True)
        table_path = os.path.join(dest, "perfbench", "digests.json")
        with open(table_path, encoding="utf-8") as handle:
            table = json.load(handle)
        if pinned is None:
            del table["tiny"]["sweep-backbone"]["1"]
        else:
            table["tiny"]["sweep-backbone"]["1"] = pinned
        with open(table_path, "w", encoding="utf-8") as handle:
            json.dump(table, handle)
        completed, _ = bench(["--workload", "sweep-backbone", "--seed", "1", "--seconds", "1",
                              "--trace", "0", "--tiny"], cwd=dest)
        expect(completed.returncode != 0 and last_json(completed.stdout) is None
               and "digest" in completed.stderr, f"a {case} pinned digest fails the run")


def test_bare_directory() -> None:
    dest = os.path.join(WORK_DIR, "bare")
    copy_benchmark(dest, with_program=False)
    completed, seconds = bench(["--workload", "paper-corpus", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=dest)
    expect(completed.returncode != 0 and last_json(completed.stdout) is None and seconds < 180,
           "without the program: non-zero exit, no result")


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        test_runs(spec)
        test_checks()
        test_pins()
        test_bare_directory()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
