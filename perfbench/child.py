"""One measured child process: one workload in a fresh interpreter.

    python3 perfbench/child.py {warm-up|probe|timed|traced} WORKLOAD INPUTS WORK OUT

``run.py`` starts this on the one CPU it measures on, with the
program's ``src`` on ``PYTHONPATH``, the
workload's generated inputs in ``INPUTS`` and a private ``WORK``
directory for the parse cache and checkpoint store (on ``serve-edit`` it
also holds the copy of the archive the edits are written to); the child
writes its result as JSON to ``OUT``.

* ``warm-up`` — ``import repro.cli`` and stop: fills the page cache
  and bytecode cache before the probes; nothing is measured.
* ``probe`` — set up and stop: interpreter start, ``import repro.cli``,
  and on ``serve-edit`` the daemon's construction and cold first
  generation up to publish.  ``setup_user_s`` is the user-mode processor
  time the process used up to then (``setup_cpu_s`` adds system time);
  ``ready`` (CLOCK_MONOTONIC) is when the first timed call could start
  (the parent took the clock before spawning).
* ``timed`` — set up, then the measured phase, timed from outside at
  the entry point users hit: ``repro.cli.main([...])`` for ``corpus``
  and ``sweep``, ``ServeDaemon.tick()`` for serving.  Peak RSS is read
  right after the phase; the output checks run afterwards.
* ``traced`` — the same phase with :mod:`layers` wrapping each layer's
  public calls in spans; reports the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def mono() -> float:
    """A clock shared with the parent process (CLOCK_MONOTONIC)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(RuntimeError):
    """The workload could not run to the end; the run fails."""


class Child:
    def __init__(self, mode, workload, inputs, work):
        self.mode = mode
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.spans = None
        with open(os.path.join(inputs, "expect.json"), encoding="utf-8") as handle:
            self.expect = json.load(handle)
        self.result = {"failures": [], "notes": {}}

    def store(self, name: str) -> str:
        return os.path.join(self.work, name)

    # -- phases shared by every workload ------------------------------------

    def begin_main(self, layer: str, name: str):
        if self.spans is None:
            return None
        self.spans.phase = "main"
        return self.spans.begin(layer, name)

    def end_main(self, record) -> None:
        if record is not None:
            self.spans.end(record)
            self.spans.phase = "after"

    def start_phase(self) -> None:
        self._phase = (mono(), resource.getrusage(resource.RUSAGE_SELF))

    def stop_phase(self) -> None:
        wall_start, before = self._phase
        after = resource.getrusage(resource.RUSAGE_SELF)
        user_s = after.ru_utime - before.ru_utime
        sys_s = after.ru_stime - before.ru_stime
        wall_end = mono()
        self.result.update(
            phase_start=wall_start,
            phase_end=wall_end,
            wall_s=wall_end - wall_start,
            cpu_s=user_s + sys_s,
            user_s=user_s,
            sys_s=sys_s,
            peak_rss_mb=after.ru_maxrss / 1024.0,
        )

    def finish_phase(self, attempted, failed, edits=None) -> None:
        """Record the phase's operations: their processor and wall times and
        when each ran (CLOCK_MONOTONIC), which ``run.py`` calibrates.  A
        batch command (``repro corpus``, ``repro sweep``) is one user
        operation: the whole call."""
        if edits is None:
            r = self.result
            ops = [(r["phase_start"], r["phase_end"], r["user_s"] * 1e3, r["cpu_s"] * 1e3)]
        else:
            ops = [(e["start"], e["end"], e["user_ms"], e["cpu_ms"]) for e in edits]
        self.result.update(
            op_wall_ms=[(op[1] - op[0]) * 1e3 for op in ops],
            op_user_ms=[op[2] for op in ops],
            op_cpu_ms=[op[3] for op in ops],
            op_intervals=[[op[0], op[1]] for op in ops],
            attempted=attempted,
            failed=failed,
        )


def run_cli(args):
    """``repro.cli.main(args)`` with stdout captured; returns (code, payload)."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    return code, json.loads(buffer.getvalue())


# -- corpus workloads (paper-corpus, pod-compress) ----------------------------


def corpus_args(child: Child):
    args = [
        "corpus",
        os.path.join(child.inputs, "corpus"),
        "--json",
        "--jobs",
        "1",
        "--archive-jobs",
        "1",
        "--cache-dir",
        child.store("cache"),
        "--checkpoint-dir",
        child.store("checkpoints"),
    ]
    if child.workload == "pod-compress":
        args.append("--compress")
    return args


def corpus_phase(child: Child) -> dict:
    args = corpus_args(child)
    record = child.begin_main("cli", "main")
    child.start_phase()
    code, payload = run_cli(args)
    child.stop_phase()
    child.end_main(record)
    stages = [
        stage
        for entry in payload["archives"]
        for stage in entry["execution"]["stages"]
    ]
    child.finish_phase(
        attempted=len(stages),
        failed=sum(1 for stage in stages if stage["status"] != "ok"),
    )
    child.result["exit_code"] = code
    if code != 0:
        child.result["failures"].append(f"repro corpus exited {code}")
    child.result["stores"] = {
        "cache": payload.get("cache"),
        "checkpoints": payload["execution"].get("checkpoints"),
    }
    return payload


def resume_matches(child: Child, payload: dict) -> bool:
    """Re-run with ``--resume`` and compare normalized payloads.

    The re-run parses without the cache (``--no-cache``) so that both
    runs report the same parsed/cached split, and replays every stage
    from the checkpoints.  The one field that differs by construction,
    the ``execution.resume`` flag the re-run was started with, is left
    out of the comparison.
    """
    from repro.report.corpus import normalize_corpus_payload

    code, resumed = run_cli(corpus_args(child) + ["--resume", "--no-cache"])
    replayed = sum(
        1
        for entry in resumed["archives"]
        for stage in entry["execution"]["stages"]
        if stage.get("from_checkpoint")
    )
    child.result["notes"]["resume"] = {"exit_code": code, "stages_replayed": replayed}

    def core(data):
        normalized = normalize_corpus_payload(data)
        normalized["execution"] = {
            key: value
            for key, value in (normalized.get("execution") or {}).items()
            if key != "resume"
        }
        return normalized

    return code == 0 and core(payload) == core(resumed)


def paper_corpus(child: Child) -> dict:
    import checks

    payload = corpus_phase(child)
    if child.mode == "traced":
        child.spans.phase = "replay"
        run_cli(corpus_args(child) + ["--resume"])
        child.spans.phase = "after"
        return {"payload": payload}
    equal = resume_matches(child, payload)
    child.result["failures"] += checks.check_corpus(
        payload, child.expect, equal, child.result["notes"]
    )
    return {"payload": payload, "resumed_equal": equal}


def reingest(child: Child, archive: str):
    """The network the measured call analyzed, re-read from its warm cache
    for the output checks (lenient, as ``repro corpus``/``sweep`` read it)."""
    from repro.ingest.cache import ParseCache
    from repro.model.network import Network

    return Network.from_directory(
        archive, on_error="skip-block", jobs=1, cache=ParseCache(root=child.store("cache"))
    )


def pod_compress(child: Child) -> dict:
    import checks

    payload = corpus_phase(child)
    if child.mode == "traced":
        return {"payload": payload}
    from repro.compress.payload import pathway_payload
    from repro.compress.plan import build_compression_plan
    from repro.core.instances import build_instance_graph, compute_instances
    from repro.core.pathways import route_pathway

    network = reingest(child, os.path.join(child.inputs, "corpus", "pod"))
    instances = compute_instances(network)
    graph = build_instance_graph(network, instances)
    plan = build_compression_plan(network, instances=instances)

    def pathway(router):
        return pathway_payload(
            route_pathway(network, router, instances=instances, instance_graph=graph)
        )

    mismatches = [
        router
        for router in child.expect["sample"]
        if pathway(plan.class_of(router).representative) != pathway(router)
    ]
    child.result["notes"]["compression"] = {
        "classes": plan.n_classes,
        "ratio": plan.ratio,
        "sampled": len(child.expect["sample"]),
    }
    child.result["failures"] += checks.check_pod(
        payload, child.expect, plan.n_classes, mismatches
    )
    return {"payload": payload, "classes": plan.n_classes, "mismatches": mismatches}


# -- sweep-backbone -------------------------------------------------------------


def sweep_backbone(child: Child) -> dict:
    import checks

    archive = os.path.join(child.inputs, "archive")
    args = [
        "sweep",
        archive,
        "--json",
        "--jobs",
        "1",
        "--cache-dir",
        child.store("cache"),
        "--checkpoint-dir",
        child.store("checkpoints"),
    ]
    record = child.begin_main("cli", "main")
    child.start_phase()
    code, payload = run_cli(args)
    child.stop_phase()
    child.end_main(record)
    rows = [row for entry in payload["archives"] for row in entry.get("rows", [])]
    child.finish_phase(
        attempted=len(rows),
        failed=sum(1 for row in rows if row["status"] != "ok"),
    )
    child.result["exit_code"] = code
    if code != 0:
        child.result["failures"].append(f"repro sweep exited {code}")
    child.result["stores"] = {
        "checkpoints": payload.get("checkpoints"),
        "sweep_not_ok": sum(1 for row in rows if row["status"] != "ok"),
    }
    if child.mode == "traced":
        return {"payload": payload}
    from repro.sweep import enumerate_scenarios

    enumerated = len(enumerate_scenarios(reingest(child, archive), depth=1).scenarios)
    child.result["failures"] += checks.check_sweep(payload, enumerated)
    return {"payload": payload, "enumerated": enumerated}


# -- serve-edit -----------------------------------------------------------------

#: Ticks allowed per edit: one sees the stats move, the next (stable)
#: re-hashes and runs the generation.
TICK_LIMIT = 6


def tick_until_generation(daemon, spans=None):
    for ticks in range(1, TICK_LIMIT + 1):
        record = spans.begin("serve", "tick") if spans is not None else None
        try:
            outcome = daemon.tick()
        finally:
            if record is not None:
                spans.end(record)
        if record is not None:
            record["generation"] = outcome is not None
        if outcome is not None:
            return outcome, ticks
    raise BenchError(f"no generation ran within {TICK_LIMIT} ticks")


def new_daemon(child: Child):
    from repro.exec.checkpoint import CheckpointStore
    from repro.ingest.cache import ParseCache
    from repro.serve import ServeConfig, ServeDaemon

    return ServeDaemon(
        ServeConfig(
            corpus=os.path.join(child.work, "archive"),
            jobs=1,
            poll_interval=0.0,
            cache=ParseCache(root=child.store("cache")),
            checkpoints=CheckpointStore(root=child.store("checkpoints")),
        )
    )


def serve_setup(child: Child):
    """Daemon construction and the cold first generation, up to publish."""
    daemon = new_daemon(child)
    outcome, _ticks = tick_until_generation(daemon, child.spans)
    if not outcome.complete:
        raise BenchError(f"cold generation failed: {outcome.error}")
    return daemon


def serve_edit(child: Child, daemon) -> dict:
    import checks

    archive = os.path.join(child.work, "archive")
    with open(os.path.join(child.inputs, "edits.json"), encoding="utf-8") as handle:
        script = json.load(handle)
    cache = daemon.config.cache
    checkpoints = daemon.config.checkpoints
    cache_before = cache.stats.as_dict()
    checkpoints_before = checkpoints.stats.as_dict()
    edits = []
    last_mtime = 0
    record = child.begin_main("bench", "edit loop")
    child.start_phase()
    for index, edit in enumerate(script):
        if child.spans is not None:
            child.spans.op = f"edit:{index}"
        path = os.path.join(archive, edit["file"])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(edit["text"])
        # The watcher notices an edit by (size, mtime_ns); keep mtimes
        # strictly increasing so a same-size edit inside one clock tick
        # is still seen.
        mtime = max(os.stat(path).st_mtime_ns, last_mtime + 1000)
        os.utime(path, ns=(mtime, mtime))
        last_mtime = mtime
        written, before = mono(), resource.getrusage(resource.RUSAGE_SELF)
        outcome, ticks = tick_until_generation(daemon, child.spans)
        published, after = mono(), resource.getrusage(resource.RUSAGE_SELF)
        manifest = (outcome.payload or {}).get("manifest") or {}
        edits.append(
            {
                "kind": edit["kind"],
                "file": edit["file"],
                "start": written,
                "end": published,
                "user_ms": (after.ru_utime - before.ru_utime) * 1e3,
                "cpu_ms": (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
                * 1e3,
                "ticks": ticks,
                "complete": outcome.complete,
                "generation": daemon.state.generation,
                "parsed": (manifest.get("dispositions") or {}).get("parsed"),
                "error": outcome.error,
            }
        )
    child.stop_phase()
    child.end_main(record)
    child.finish_phase(
        attempted=len(edits),
        failed=sum(1 for e in edits if not e["complete"] or e["parsed"] != 1),
        edits=edits,
    )

    def delta(after, before):
        return {key: after[key] - before.get(key, 0) for key in after}

    child.result["stores"] = {
        "cache": delta(cache.stats.as_dict(), cache_before),
        "checkpoints": delta(checkpoints.stats.as_dict(), checkpoints_before),
    }
    child.result["edits"] = edits
    published_payload = daemon.state.published
    if child.mode == "traced":
        child.spans.phase = "restart"
        child.spans.op = "restart"
        restart = child.spans.begin("serve", "restart")
        tick_until_generation(new_daemon(child), child.spans)
        child.spans.end(restart)
        child.spans.phase = "after"
        return {"published": published_payload}
    from repro.exec.executor import AnalysisExecutor, ExecutorConfig
    from repro.ingest.snapshot import snapshot_corpus
    from repro.serve import normalize_generation, run_generation

    cold = run_generation(
        archive,
        snapshot_corpus(archive).digest,
        executor=AnalysisExecutor(ExecutorConfig()),
        on_error="skip-block",
        jobs=1,
    )
    equal = cold.complete and normalize_generation(cold.payload) == normalize_generation(
        published_payload
    )
    child.result["failures"] += checks.check_serve(edits, child.expect["edits"], equal)
    return {"published": published_payload, "cold": cold.payload, "final_equal": equal}


# -- entry point ---------------------------------------------------------------------


def main(argv) -> int:
    if len(argv) != 5 or argv[0] not in ("warm-up", "probe", "timed", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, workload, inputs, work, out = argv
    child = Child(mode, workload, inputs, work)
    if mode == "traced":
        import layers

        child.spans = layers.Spans()
        record = child.spans.begin("cli", "import repro.cli")
        import repro.cli  # noqa: F401 — the entry point users hit
        child.spans.end(record)
        layers.install(child.spans)
    else:
        import repro.cli  # noqa: F401,F811
    if mode == "warm-up":
        return 0
    daemon = serve_setup(child) if workload == "serve-edit" else None
    child.result["ready"] = mono()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    child.result["setup_user_s"] = usage.ru_utime
    child.result["setup_cpu_s"] = usage.ru_utime + usage.ru_stime
    outputs = None
    if mode != "probe":
        if workload == "serve-edit":
            outputs = serve_edit(child, daemon)
        else:
            outputs = {
                "paper-corpus": paper_corpus,
                "pod-compress": pod_compress,
                "sweep-backbone": sweep_backbone,
            }[workload](child)
    if mode == "traced":
        import layers

        missing = layers.uncovered(child.spans, workload)
        if missing:
            raise BenchError(f"traced run recorded no {', '.join(missing)} span")
        child.result["per_layer"] = layers.layer_metrics(
            child.spans, child.result.get("stores") or {}, child.result.get("edits", [])
        )
        child.result["traced_wall_s"] = layers.traced_wall(child.spans)
        child.result["spans"] = child.spans.dump()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(child.result, handle)
    if outputs is not None and os.environ.get("PERFBENCH_KEEP_OUTPUTS"):
        with open(out + ".outputs", "w", encoding="utf-8") as handle:
            json.dump(outputs, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
