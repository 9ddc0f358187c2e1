"""The traced run's spans: wrappers around each layer's public calls.

Spans are the benchmark's own.  :func:`install` replaces the public
functions the user paths call — at the attribute each caller looks up —
with wrappers that record a span (name, layer, start, end, parent,
operation id) and keep the facts the call returns.  Nothing inside the
program changes; the same ``repro.cli.main`` / ``ServeDaemon.tick`` code
runs, so traced minus untraced wall time is the tracing overhead.

Two kinds of work are *asides*, done by the traced run only and
subtracted from its end-to-end time: re-parsing the files ingest just
parsed with ``parse_any_config`` (the ``ios``/``junos`` layers, which
split cold ingest into parsing and everything else), and, on
``paper-corpus``, the ``--resume`` replay.

Layers are the program's modules.  Each span's self time is its
duration minus its children's; a layer's self time sums its spans'.
The ``core`` layer has no spans of its own: its time is the per-stage
seconds ``AnalysisExecutor.run_archive`` returns, taken out of the
``exec`` span that contains them.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional

#: Analysis stages that belong to the ``core`` layer; ``links`` is the
#: ``model`` link index, which the traced run has built before the stage.
CORE_STAGES = (
    "process_graph",
    "instances",
    "pathways",
    "address_space",
    "consistency",
    "reachability",
    "survivability",
)

MODEL_TOUCHES = (
    ("links", "links_s"),
    ("processes", "processes_s"),
    ("igp_adjacencies", "adjacencies_s"),
    ("bgp_sessions", None),
    ("external_interfaces", None),
)

LAYERS = (
    "cli",
    "ingest",
    "ios",
    "junos",
    "model",
    "core",
    "exec",
    "compress",
    "routing",
    "sweep",
    "serve",
)

#: Layer -> the end-to-end metrics (``workload/metric``) a faster layer
#: should move, and the workloads where it does little or no work, so the
#: prediction should be no change.  Everything runs on one thread: a
#: faster layer saves at most its own share of the blocking steps.
LAYER_MAP = {
    "ingest": (("paper-corpus/op_user_p50_ms", "serve-edit/op_user_p50_ms"), ("sweep-backbone",)),
    "ios": (("paper-corpus/op_user_p50_ms", "pod-compress/op_user_p50_ms"), ("serve-edit",)),
    "junos": (("paper-corpus/op_user_p50_ms",), ("pod-compress", "sweep-backbone", "serve-edit")),
    "model": (("pod-compress/op_user_p50_ms", "pod-compress/peak_rss_mb"), ("sweep-backbone",)),
    # Pathways run twice per serve edit (stage and payload), once per
    # class on pod-compress.
    "core": (("paper-corpus/op_user_p50_ms", "serve-edit/op_user_p50_ms"), ()),
    "exec": (("serve-edit/op_user_p50_ms", "paper-corpus/op_user_p50_ms"), ("sweep-backbone",)),
    "compress": (("pod-compress/op_user_p50_ms",), ("paper-corpus", "sweep-backbone", "serve-edit")),
    "routing": (
        ("sweep-backbone/op_user_p50_ms",),
        ("paper-corpus", "pod-compress", "serve-edit"),
    ),
    "sweep": (("sweep-backbone/op_user_p50_ms",), ("paper-corpus", "pod-compress", "serve-edit")),
    "serve": (
        ("serve-edit/op_user_p50_ms", "serve-edit/op_user_p90_ms", "serve-edit/setup_s"),
        ("paper-corpus", "pod-compress", "sweep-backbone"),
    ),
    "cli": (
        tuple(f"{w}/setup_s" for w in ("paper-corpus", "pod-compress", "sweep-backbone", "serve-edit")),
        (),
    ),
}

#: Spans ``(layer, name)`` each workload's measured phase must record.  A
#: wrapped call the program stops making fails the traced run instead of
#: reading as an idle (or faster) layer.
REQUIRED_SPANS = {
    "paper-corpus": (
        ("ingest", "from_directory"),
        ("ios", "parse_any_config"),
        ("junos", "parse_any_config"),
        ("model", "processes"),
        ("exec", "run_archive"),
    ),
    "pod-compress": (
        ("ingest", "from_directory"),
        ("ios", "parse_any_config"),
        ("model", "processes"),
        ("exec", "run_archive"),
        ("compress", "build_compression_plan"),
    ),
    "sweep-backbone": (
        ("sweep", "enumerate_scenarios"),
        ("routing", "compute_baseline"),
        ("routing", "run"),
        ("sweep", "scenario_delta"),
    ),
    "serve-edit": (
        ("serve", "tick"),
        ("ingest", "snapshot_corpus"),
        ("ingest", "from_directory"),
        ("exec", "run_archive"),
        ("serve", "build_generation_payload"),
    ),
}

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = (
    ("ingest.s", "s"),
    ("ingest.overhead_s", "s"),
    ("ingest.parsed", "count"),
    ("ingest.cached", "count"),
    ("ingest.cache_hit_ratio", "ratio"),
    ("ingest.diagnostics", "count"),
    ("ingest.quarantined", "count"),
    ("ingest.cache_write_failures", "count"),
    ("ingest.snapshot_ms", "ms"),
    ("ios.parse_s", "s"),
    ("junos.parse_s", "s"),
    ("junos.files", "count"),
    ("model.links_s", "s"),
    ("model.processes_s", "s"),
    ("model.adjacencies_s", "s"),
    ("model.links", "count"),
    ("model.processes", "count"),
    ("core.process_graph_s", "s"),
    ("core.instances_s", "s"),
    ("core.pathways_s", "s"),
    ("core.address_space_s", "s"),
    ("core.consistency_s", "s"),
    ("core.reachability_s", "s"),
    ("core.survivability_s", "s"),
    ("core.pathway_calls", "count"),
    ("core.instances", "count"),
    ("exec.overhead_s", "s"),
    ("exec.checkpoint_stores", "count"),
    ("exec.checkpoint_misses", "count"),
    ("exec.checkpoint_write_failures", "count"),
    ("exec.stages_not_ok", "count"),
    ("exec.replay_s", "s"),
    ("compress.plan_s", "s"),
    ("compress.classes", "count"),
    ("compress.ratio", "ratio"),
    ("routing.baseline_s", "s"),
    ("routing.scenario_p50_ms", "ms"),
    ("routing.scenario_p90_ms", "ms"),
    ("routing.iterations", "count"),
    ("routing.diverged", "count"),
    ("sweep.enumerate_s", "s"),
    ("sweep.delta_s", "s"),
    ("sweep.not_ok", "count"),
    ("serve.generation_p50_ms", "ms"),
    ("serve.payload_p50_ms", "ms"),
    ("serve.ticks_per_edit", "count"),
    ("serve.parsed_per_edit", "count"),
    ("serve.failed_generations", "count"),
    ("serve.restart_ms", "ms"),
    ("cli.import_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def now() -> float:
    return time.perf_counter()


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (defined for one value and up)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Spans:
    """In-memory span recorder; written out when the run ends."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None
        #: "setup" (imports, the serve daemon's cold generation), "main"
        #: (the measured phase), "replay" (the --resume re-run) or
        #: "restart" (a fresh daemon over warm stores).
        self.phase = "setup"
        self.counts: Counter = Counter()
        self.facts: Dict[str, Any] = defaultdict(list)

    def begin(self, layer: str, name: str, aside: bool = False) -> Dict[str, Any]:
        record = {
            "id": len(self.records),
            "layer": layer,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "phase": self.phase,
            "aside": aside,
            "start": now(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        return record

    def end(self, record: Dict[str, Any]) -> None:
        record["end"] = now()
        popped = self._stack.pop()
        assert popped == record["id"], "spans must nest"

    def call(self, layer: str, name: str, fn, /, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span (``_aside=True`` marks an aside)."""
        record = self.begin(layer, name, kwargs.pop("_aside", False))
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(record)

    def top(self) -> Optional[Dict[str, Any]]:
        return self.records[self._stack[-1]] if self._stack else None

    # -- analysis ------------------------------------------------------------

    def duration(self, record: Dict[str, Any]) -> float:
        return record["end"] - record["start"]

    def self_times(self) -> Dict[int, float]:
        child_time: Dict[int, float] = defaultdict(float)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += self.duration(record)
        return {
            record["id"]: self.duration(record) - child_time[record["id"]]
            for record in self.records
        }

    def of(self, layer: str, name: Optional[str] = None, phase: str = "main"):
        """Records of ``layer`` (and ``name``) in ``phase``."""
        return [
            record
            for record in self.records
            if record["layer"] == layer
            and record["phase"] == phase
            and (name is None or record["name"] == name)
        ]

    def total(self, layer: str, name: Optional[str] = None, phase: str = "main") -> float:
        return sum(self.duration(record) for record in self.of(layer, name, phase))

    def dump(self) -> List[Dict[str, Any]]:
        return [dict(record) for record in self.records]

    def fact(self, kind: str, **values) -> None:
        self.facts[kind].append({"op": self.op, "phase": self.phase, **values})

    def main_facts(self, kind: str) -> List[Dict[str, Any]]:
        return [fact for fact in self.facts[kind] if fact["phase"] == "main"]


# -- wrappers ----------------------------------------------------------------


def _parse_pass(spans: Spans, path: str, network, on_error: str) -> None:
    """Re-parse, in memory, exactly the files ingest parsed (not replayed)."""
    from repro.diag import DiagnosticSink
    from repro.model.dialect import detect_dialect, parse_any_config

    mode = "strict" if on_error == "strict" else "lenient"
    for record in network.inventory:
        if record.disposition != "parsed":
            continue
        with open(os.path.join(path, record.path), "rb") as handle:
            text = handle.read().decode("utf-8", errors="replace")
        layer = "junos" if detect_dialect(text) == "junos" else "ios"
        spans.counts[f"{layer}.files"] += 1
        try:
            spans.call(
                layer,
                "parse_any_config",
                parse_any_config,
                text,
                mode=mode,
                sink=DiagnosticSink(),
                source=record.path,
                block_cache=None,
                _aside=True,
            )
        except Exception:  # noqa: BLE001 — ingest quarantined the file too
            spans.counts[f"{layer}.raised"] += 1


def install(spans: Spans) -> None:
    """Wrap each layer's public calls; see the module docstring."""
    import repro.compress.analysis as compress_analysis
    import repro.core.pathways as core_pathways
    import repro.serve.generation as serve_generation
    import repro.serve.watcher as serve_watcher
    import repro.sweep as sweep_pkg
    import repro.sweep.runner as sweep_runner
    from repro.exec.executor import AnalysisExecutor
    from repro.model.network import Network
    from repro.routing.engine import RoutingSimulation

    from_directory = Network.from_directory

    def traced_from_directory(cls, path, *args, **kwargs):
        archive = os.path.basename(os.path.normpath(path))
        if spans.phase != "main" or not (spans.op or "").startswith("edit"):
            spans.op = f"archive:{archive}"
        network = spans.call("ingest", "from_directory", from_directory, path, *args, **kwargs)
        dispositions = Counter(record.disposition for record in network.inventory)
        spans.fact(
            "ingest",
            archive=archive,
            files=len(network.inventory),
            parsed=dispositions.get("parsed", 0),
            cached=dispositions.get("cached", 0),
            quarantined=len(network.quarantined),
            diagnostics=len(network.diagnostics),
        )
        if spans.phase == "main":
            _parse_pass(spans, path, network, kwargs.get("on_error", "strict"))
        for attribute, _metric in MODEL_TOUCHES:
            spans.call("model", attribute, getattr, network, attribute)
        spans.fact(
            "model",
            archive=archive,
            links=len(network.links),
            processes=len(network.processes),
        )
        return network

    Network.from_directory = classmethod(traced_from_directory)

    run_archive = AnalysisExecutor.run_archive

    def traced_run_archive(self, archive, network):
        execution = spans.call("exec", "run_archive", run_archive, self, archive, network)
        spans.fact(
            "exec",
            archive=archive,
            stages={
                result.stage: {
                    "seconds": result.seconds,
                    "status": result.status,
                    "items": result.items,
                    "from_checkpoint": result.from_checkpoint,
                }
                for result in execution.results
            },
        )
        return execution

    AnalysisExecutor.run_archive = traced_run_archive

    # A call site the program no longer has raises AttributeError here:
    # the traced run fails rather than report the layer as idle.
    def counted(module):
        original = module.route_pathway

        def wrapper(*args, **kwargs):
            if spans.phase == "main":
                spans.counts["route_pathway"] += 1
            return original(*args, **kwargs)

        module.route_pathway = wrapper

    counted(core_pathways)
    counted(compress_analysis)

    build_plan = compress_analysis.build_compression_plan

    def traced_plan(*args, **kwargs):
        plan = spans.call("compress", "build_compression_plan", build_plan, *args, **kwargs)
        spans.fact("compress", classes=plan.n_classes, ratio=plan.ratio)
        return plan

    compress_analysis.build_compression_plan = traced_plan

    def spanned(module, attribute, layer):
        original = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            return spans.call(layer, attribute, original, *args, **kwargs)

        setattr(module, attribute, wrapper)

    spanned(sweep_pkg, "run_network_sweep", "sweep")
    spanned(sweep_runner, "enumerate_scenarios", "sweep")
    spanned(sweep_runner, "compute_baseline", "routing")
    spanned(sweep_runner, "scenario_delta", "sweep")
    spanned(serve_watcher, "snapshot_corpus", "ingest")
    spanned(serve_generation, "build_generation_payload", "serve")

    simulate = RoutingSimulation.run

    def traced_run(self, *args, **kwargs):
        parent = spans.top()
        in_baseline = parent is not None and parent["name"] == "compute_baseline"
        if not in_baseline:
            spans.counts["scenario"] += 1
            spans.op = f"scenario:{spans.counts['scenario']}"
        name = "baseline_run" if in_baseline else "run"
        result = spans.call("routing", name, simulate, self, *args, **kwargs)
        spans.fact(
            "routing",
            baseline=in_baseline,
            iterations=self.iterations,
            diverged=self.diverged,
        )
        return result

    RoutingSimulation.run = traced_run


# -- per-layer metrics -------------------------------------------------------


def _median_ms(durations: List[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(
    spans: Spans, stores: Dict[str, Any], edits: List[Dict[str, Any]]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead_s``.

    Only the measured (``main``) phase counts, apart from ``cli.import_s``
    (set-up), ``exec.replay_s`` and ``serve.restart_ms``.  ``stores``
    carries the ``ParseCache.stats`` / ``CheckpointStore.stats``
    counters of the measured phase (through the CLI payload on the CLI
    paths) and the sweep rows' count of scenarios not ``ok``; ``edits``
    the serve loop's per-edit records.  A layer that did no work on a
    workload reports zero.
    """
    m: Dict[str, float] = {}
    ingest = spans.main_facts("ingest")
    ios_s = spans.total("ios")
    junos_s = spans.total("junos")
    ingest_s = spans.total("ingest", "from_directory")
    files = sum(fact["files"] for fact in ingest)
    m["ingest.s"] = ingest_s
    m["ingest.overhead_s"] = ingest_s - ios_s - junos_s
    m["ingest.parsed"] = sum(fact["parsed"] for fact in ingest)
    m["ingest.cached"] = sum(fact["cached"] for fact in ingest)
    m["ingest.cache_hit_ratio"] = m["ingest.cached"] / files if files else 0.0
    m["ingest.diagnostics"] = sum(fact["diagnostics"] for fact in ingest)
    m["ingest.quarantined"] = sum(fact["quarantined"] for fact in ingest)
    m["ingest.cache_write_failures"] = (stores.get("cache") or {}).get("write_failures", 0)
    m["ingest.snapshot_ms"] = _median_ms(
        [spans.duration(r) for r in spans.of("ingest", "snapshot_corpus")]
    )
    m["ios.parse_s"] = ios_s
    m["junos.parse_s"] = junos_s
    m["junos.files"] = spans.counts["junos.files"]

    for attribute, metric in MODEL_TOUCHES:
        if metric:
            m[f"model.{metric}"] = spans.total("model", attribute)
    # Counts describe each archive once: its last ingest in the phase.
    last_model = {fact["archive"]: fact for fact in spans.main_facts("model")}
    m["model.links"] = sum(fact["links"] for fact in last_model.values())
    m["model.processes"] = sum(fact["processes"] for fact in last_model.values())

    stage_seconds: Dict[str, float] = defaultdict(float)
    not_ok = 0
    instances: Dict[str, int] = {}
    for fact in spans.main_facts("exec"):
        for stage, result in fact["stages"].items():
            stage_seconds[stage] += result["seconds"]
            not_ok += result["status"] != "ok"
        if "instances" in fact["stages"]:
            instances[fact["archive"]] = fact["stages"]["instances"]["items"] or 0
    for stage in CORE_STAGES:
        m[f"core.{stage}_s"] = stage_seconds[stage]
    m["core.pathway_calls"] = spans.counts["route_pathway"]
    m["core.instances"] = sum(instances.values())
    exec_s = spans.total("exec", "run_archive")
    m["exec.overhead_s"] = exec_s - sum(stage_seconds.values())
    checkpoints = stores.get("checkpoints") or {}
    m["exec.checkpoint_stores"] = checkpoints.get("stores", 0)
    m["exec.checkpoint_misses"] = checkpoints.get("misses", 0)
    m["exec.checkpoint_write_failures"] = checkpoints.get("write_failures", 0)
    m["exec.stages_not_ok"] = not_ok
    m["exec.replay_s"] = spans.total("exec", "run_archive", phase="replay")

    plans = spans.main_facts("compress")
    compress_s = spans.total("compress")
    m["compress.plan_s"] = compress_s
    m["compress.classes"] = plans[-1]["classes"] if plans else 0
    m["compress.ratio"] = plans[-1]["ratio"] if plans else 0.0

    m["routing.baseline_s"] = spans.total("routing", "compute_baseline")
    scenario_ms = [spans.duration(r) * 1e3 for r in spans.of("routing", "run")]
    m["routing.scenario_p50_ms"] = statistics.median(scenario_ms) if scenario_ms else 0.0
    m["routing.scenario_p90_ms"] = percentile(scenario_ms, 90)
    routing = [fact for fact in spans.main_facts("routing") if not fact["baseline"]]
    m["routing.iterations"] = sum(fact["iterations"] for fact in routing)
    m["routing.diverged"] = sum(1 for fact in routing if fact["diverged"])

    m["sweep.enumerate_s"] = spans.total("sweep", "enumerate_scenarios")
    m["sweep.delta_s"] = spans.total("sweep", "scenario_delta")
    m["sweep.not_ok"] = stores.get("sweep_not_ok", 0)

    m["serve.generation_p50_ms"] = _median_ms(
        [spans.duration(r) for r in spans.of("serve", "tick") if r.get("generation")]
    )
    m["serve.payload_p50_ms"] = _median_ms(
        [spans.duration(r) for r in spans.of("serve", "build_generation_payload")]
    )
    m["serve.ticks_per_edit"] = statistics.mean(e["ticks"] for e in edits) if edits else 0.0
    m["serve.parsed_per_edit"] = statistics.mean(e["parsed"] for e in edits) if edits else 0.0
    m["serve.failed_generations"] = sum(1 for e in edits if not e["complete"])
    m["serve.restart_ms"] = spans.total("serve", "restart", phase="restart") * 1e3
    m["cli.import_s"] = spans.total("cli", "import repro.cli", phase="setup")

    selfs = spans.self_times()
    layer_self: Dict[str, float] = defaultdict(float)
    for record in spans.records:
        if record["phase"] == "main":
            layer_self[record["layer"]] += selfs[record["id"]]
    # Stage seconds sit inside run_archive spans: move them out of exec
    # into core (the links stage into model).  Compress spans nested in
    # the pathways stage already count as compress.
    core_s = sum(stage_seconds[stage] for stage in CORE_STAGES)
    layer_self["exec"] -= core_s + stage_seconds["links"] - compress_s
    layer_self["core"] += core_s - compress_s
    layer_self["model"] += stage_seconds["links"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.spans"] = len(spans.records)
    return m


def uncovered(spans: Spans, workload: str) -> List[str]:
    """Required spans (and pathway calls) the measured phase lacks."""
    seen = {(r["layer"], r["name"]) for r in spans.records if r["phase"] == "main"}
    missing = [f"{layer}.{name}" for layer, name in REQUIRED_SPANS[workload]
               if (layer, name) not in seen]
    if workload in ("paper-corpus", "serve-edit") and not spans.counts["route_pathway"]:
        missing.append("core.route_pathway")
    return missing


def traced_wall(spans: Spans) -> float:
    """The measured phase's traced wall time, asides taken out."""
    roots = [r for r in spans.records if r["phase"] == "main" and r["parent"] is None]
    asides = sum(spans.duration(r) for r in spans.records if r["phase"] == "main" and r["aside"])
    return sum(spans.duration(r) for r in roots) - asides
