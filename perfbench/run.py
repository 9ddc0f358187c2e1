"""Benchmark of the analyzer's four user paths, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see ``BENCHMARK.json`` for why each exists):

* ``paper-corpus``   — ``repro corpus --json`` over the 31-network study
  corpus plus mixed IOS/JunOS archives, from empty stores;
* ``pod-compress``   — ``repro corpus --json --compress`` over a 5,004-
  router replicated pod fabric;
* ``sweep-backbone`` — ``repro sweep --json`` (depth 1) over a 32-router
  PoP-ring backbone;
* ``serve-edit``     — ``ServeDaemon.tick()`` back to back over a 48-router
  backbone archive, one seeded one-file edit at a time (closed loop, one
  client).

Every run: the inputs are generated from ``--seed`` by ``gen.py`` in a
process of its own and their digest must equal the one ``digests.json``
pins for that input variant; each measured child is a fresh interpreter with
``--jobs 1``, one archive at a time, and private, empty cache and
checkpoint directories under ``.perfbench-work/`` (nothing from the
caller's environment selects other stores).

``--trace 0`` prints the end-to-end metrics: ``setup_s``, the processor
time from process start to ready for the first timed call (median of
several fresh start-ups after one discarded warm-up); ``peak_rss_mb``;
and ``op_user_p50_ms``/``op_user_p90_ms``, the processor time of each
user operation: a serve edit (written -> published), or a whole batch
command (``repro corpus``, ``repro sweep``), whose one operation makes
its p90 read the same as its p50.  These times are user-mode processor
time, calibrated:

* every measured child runs on one CPU beside the calibration sidecar
  (``calib.py``), and each time is divided by the slowdown the sidecar's
  fixed reference loop saw on that CPU over the same interval, so it
  reads as the time on an unloaded core.  On a shared VM the same work's
  processor time swings by half or more as neighbours come and go; the
  calibrated time moves when the program's work does;
* system time is left out.  Most of it is the stores' file writes, and
  on a filesystem mounted with online discard their cost depends on what
  was deleted on it in the last half-minute, by this benchmark or anyone
  else: the same corpus pass spends from 0.25 s to 3.7 s in the kernel.

The times as measured, system time and the wall-clock twins (set-up
wall, per-operation wall p50/p90, phase wall, user/system split) are
printed on the ``ops`` line, the sidecar's slowdowns on the
``calibration`` line, and all are kept in the run record; the traced run
times the store writes inside ``ingest.overhead_s`` and
``exec.overhead_s``.
``--trace 1`` runs the phase once untraced and
once traced and prints the per-layer metrics, including each layer's
self time and the tracing overhead.  Both check the program's outputs;
a failed check makes ``correct`` false.  Host noise (CPU steal share,
load average, CPU count, Python version, filesystem type) is printed
beside the result and kept, with the spans of traced runs, under
``.perfbench-work/records/``.  The last stdout line is the result JSON.

Each workload's measured phase is a fixed amount of work (10-20 s on a
2-vCPU VM), so the parent and a change measure the same work; the
``--seconds`` the caller passes is recorded with the run.  ``--tiny``
shrinks every workload for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import NOMINAL_S  # noqa: E402
from gen import WORKLOADS  # noqa: E402
from layers import PER_LAYER, percentile  # noqa: E402

#: Fresh start-ups per run for ``setup_s``, after one discarded warm-up.
SETUP_PROBES = 7

#: A run ends within this many seconds or fails.
RUN_BUDGET_S = 170.0

#: Calibration samples around an operation shorter than this are taken
#: from a window of this length centred on it.
CALIB_WINDOW_S = 0.5

#: Fewest calibration samples an operation is calibrated with.
CALIB_MIN_SAMPLES = 5

#: Variables that would point the program at other stores or inject faults.
SCRUBBED_ENV = (
    "REPRO_CHAOS",
    "REPRO_CACHE_DIR",
    "REPRO_CHECKPOINT_DIR",
    "REPRO_BLOCK_CACHE",
    "REPRO_BENCH_RESULTS",
    "XDG_CACHE_HOME",
)

class RunFailed(RuntimeError):
    """The run cannot produce a result."""


def mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def bench_cpu() -> int:
    """The one CPU the measured children and the calibration sidecar share
    (-1: this platform cannot pin)."""
    if not hasattr(os, "sched_getaffinity"):
        return -1
    return min(os.sched_getaffinity(0))


# -- host noise ----------------------------------------------------------------


def cpu_times():
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:9]]


def host_noise(before, root: str) -> dict:
    """Diagnostics only: never used to drop or repeat samples."""
    after = cpu_times()
    steal = None
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        total = sum(delta)
        steal = delta[7] / total if total else 0.0
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            load = [float(value) for value in handle.read().split()[:3]]
    except OSError:
        load = None
    return {
        "cpu_steal_share": steal,
        "loadavg": load,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "filesystem": filesystem_type(root),
    }


def filesystem_type(path: str):
    path = os.path.realpath(path)
    best, kind = "", None
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        return None
    return kind


# -- children ------------------------------------------------------------------


class Runner:
    def __init__(self, args, root: str, run_dir: str):
        self.args = args
        self.root = root
        self.run_dir = run_dir
        self.deadline = mono() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        # Anything that still falls back to ~/.cache lands in the run.
        self.env["HOME"] = os.path.join(run_dir, "home")
        os.makedirs(self.env["HOME"])
        self.log = os.path.join(run_dir, "children.log")
        self.count = 0
        self.cpu = bench_cpu()

    def pin(self) -> None:
        """In a measured child between fork and exec: run on the bench CPU."""
        if self.cpu >= 0:
            os.sched_setaffinity(0, {self.cpu})

    def python(self, argv, what: str, stdout_path=None, pinned=False) -> None:
        remaining = self.deadline - mono()
        if remaining <= 0:
            raise RunFailed(f"out of time before {what}")
        with open(self.log, "a", encoding="utf-8") as log:
            log.write(f"== {what}\n")
            log.flush()
            out = open(stdout_path, "w", encoding="utf-8") if stdout_path else log
            try:
                completed = subprocess.run(
                    [sys.executable] + argv,
                    cwd=self.root,
                    env=self.env,
                    stdin=subprocess.DEVNULL,
                    stdout=out,
                    stderr=log,
                    timeout=remaining,
                    preexec_fn=self.pin if pinned else None,
                )
            except subprocess.TimeoutExpired:
                raise RunFailed(f"{what} ran past the run budget") from None
            finally:
                if stdout_path:
                    out.close()
        if completed.returncode != 0:
            raise RunFailed(f"{what} exited {completed.returncode}; see {self.log}")

    def generate(self) -> dict:
        argv = [
            os.path.join(HERE, "gen.py"),
            self.args.workload,
            str(self.args.seed),
            os.path.join(self.run_dir, "inputs"),
        ]
        if self.args.tiny:
            argv.append("--tiny")
        out = os.path.join(self.run_dir, "gen.json")
        self.python(argv, "gen", stdout_path=out)
        with open(out, encoding="utf-8") as handle:
            return json.loads(handle.read().splitlines()[-1])

    def child(self, mode: str) -> dict:
        self.count += 1
        work = os.path.join(self.run_dir, f"work{self.count}")
        os.makedirs(work)
        if self.args.workload == "serve-edit":
            # Edits are written to a private copy: every child starts
            # from the generated archive.
            shutil.copytree(
                os.path.join(self.run_dir, "inputs", "archive"), os.path.join(work, "archive")
            )
        out = os.path.join(self.run_dir, f"{mode}{self.count}.json")
        argv = [
            os.path.join(HERE, "child.py"),
            mode,
            self.args.workload,
            os.path.join(self.run_dir, "inputs"),
            work,
            out,
        ]
        if mode != "probe":
            # Write back what input generation and earlier children left
            # dirty, so the kernel does not flush it inside the phase.
            os.sync()
        spawned = mono()
        self.python(argv, f"{mode} child", pinned=True)
        if mode == "warm-up":
            shutil.rmtree(work)
            return {}
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result["spawned"] = spawned
        result["setup_s"] = result["ready"] - spawned
        shutil.rmtree(work)
        return result


class Calibration:
    """The sidecar that samples the bench CPU's speed (``calib.py``).

    It runs from before the first measured child to after the last, on
    the same CPU.  :meth:`scale` divides processor time spent in an
    interval by the reference loop's slowdown over that interval, which
    gives the processor time the same work takes on an unloaded core.
    """

    def __init__(self, runner: Runner):
        self.path = os.path.join(runner.run_dir, "calib.json")
        self.samples = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calib.py"), str(runner.cpu), self.path],
            cwd=runner.root,
            env=runner.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RunFailed("the calibration sidecar did not start")

    def stop(self) -> None:
        """Stop the sidecar, wait for it, and read its samples."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self.samples = [tuple(sample) for sample in json.load(handle)]

    def slowdown(self, start: float, end: float) -> float:
        """Mean reference time over ``[start, end]`` (widened to
        :data:`CALIB_WINDOW_S`) divided by the unloaded one."""
        pad = max(0.0, (CALIB_WINDOW_S - (end - start)) / 2)
        window = [s for t, s in self.samples if start - pad <= t <= end + pad]
        if len(window) < CALIB_MIN_SAMPLES:
            raise RunFailed(
                f"{len(window)} calibration samples in [{start:.3f}, {end:.3f}]"
            )
        return statistics.fmean(window) / NOMINAL_S

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.slowdown(start, end)

    def summary(self) -> dict:
        times = [s for _t, s in self.samples]
        return {
            "samples": len(times),
            "slowdown_p50": statistics.median(times) / NOMINAL_S,
            "slowdown_max": max(times) / NOMINAL_S,
        }


def check_pinned(generated: dict, workload: str, tiny: bool) -> None:
    """The generated inputs must be the ones ``digests.json`` pins."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        table = json.load(handle)
    variant = generated["variant"]
    pinned = table.get("tiny" if tiny else "full", {}).get(workload, {}).get(str(variant))
    if pinned is None:
        raise RunFailed(f"no digest pinned for {workload} input variant {variant}")
    if pinned != generated["digest"]:
        raise RunFailed(
            f"input digest {generated['digest']} != pinned {pinned} for "
            f"{workload} input variant {variant}: the generator changed"
        )


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, root: str, run_dir: str) -> tuple:
    runner = Runner(args, root, run_dir)
    generated = runner.generate()
    check_pinned(generated, args.workload, args.tiny)
    record = {"inputs": generated}
    if args.trace == 0:
        calibration = Calibration(runner)
        try:
            runner.child("warm-up")  # page cache, bytecode
            probes = [runner.child("probe") for _ in range(SETUP_PROBES)]
            timed = runner.child("timed")
        finally:
            calibration.stop()
        setup = [
            calibration.scale(p["setup_user_s"], p["spawned"], p["ready"]) for p in probes
        ]
        user = [
            calibration.scale(ms, start, end)
            for ms, (start, end) in zip(timed["op_user_ms"], timed["op_intervals"])
        ]
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(timed["peak_rss_mb"], "MB"),
            "op_user_p50_ms": metric(statistics.median(user), "ms"),
            "op_user_p90_ms": metric(percentile(user, 90), "ms"),
        }
        record.update(
            timed=timed,
            calibration=calibration.summary(),
            calibration_samples=calibration.samples,
        )
        # Beside the metrics: the times as measured, before calibration,
        # with system time, and the wall-clock twins, what a user waits on
        # this host, stolen time included.
        raw_user, cpu, wall = timed["op_user_ms"], timed["op_cpu_ms"], timed["op_wall_ms"]
        record["ops"] = {
            "count": len(user),
            "beyond_p90": sum(1 for value in user if value > percentile(user, 90)),
            "setup_user_s": statistics.median(p["setup_user_s"] for p in probes),
            "setup_cpu_s": statistics.median(p["setup_cpu_s"] for p in probes),
            "setup_wall_s": statistics.median(p["setup_s"] for p in probes),
            "user_p50_ms": statistics.median(raw_user),
            "cpu_p50_ms": statistics.median(cpu),
            "cpu_p90_ms": percentile(cpu, 90),
            "wall_p50_ms": statistics.median(wall),
            "wall_p90_ms": percentile(wall, 90),
            "wall_s": timed["wall_s"],
            "cpu_s": timed["cpu_s"],
            "user_s": timed["user_s"],
            "sys_s": timed["sys_s"],
        }
    else:
        timed = runner.child("timed")
        traced = runner.child("traced")
        values = dict(traced["per_layer"])
        values["trace.overhead_s"] = traced["traced_wall_s"] - timed["wall_s"]
        metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
        spans = traced.pop("spans")
        record.update(timed=timed, traced=traced)
        records = os.path.join(os.path.dirname(run_dir), "records")
        with open(os.path.join(records, os.path.basename(run_dir) + ".spans.json"), "w") as handle:
            json.dump(spans, handle)
    result = {
        "correct": not timed["failures"] and timed["attempted"] >= 1,
        "attempted": int(timed["attempted"]),
        "failed": int(timed["failed"]),
        "metrics": metrics,
    }
    return result, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the children and the sidecar are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: no program here (src/repro/cli.py is missing)", file=sys.stderr)
        return 2
    before = cpu_times()
    work_root = os.path.join(root, ".perfbench-work")
    os.makedirs(os.path.join(work_root, "records"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    run_dir = os.path.join(work_root, name)
    os.makedirs(run_dir)
    try:
        result, record = run(args, root, run_dir)
    except RunFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        for entry in os.listdir(run_dir):
            if entry != "children.log":
                path = os.path.join(run_dir, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path)
    record.update(host=host_noise(before, run_dir), seconds=args.seconds, result=result)
    with open(os.path.join(work_root, "records", name + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print("host " + json.dumps(record["host"], sort_keys=True))
    if "ops" in record:
        print("calibration " + json.dumps(record["calibration"], sort_keys=True))
        print("ops " + json.dumps(record["ops"], sort_keys=True))
    for failure in record["timed"]["failures"]:
        print(f"check failed: {failure}")
    for name_, note in sorted(record["timed"]["notes"].items()):
        print(f"note {name_}: {json.dumps(note, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
