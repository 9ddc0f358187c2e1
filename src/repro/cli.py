"""Command-line interface: analyze configuration archives like the paper.

Subcommands::

    repro analyze <configdir>            routing design summary
    repro instances <configdir>          routing instance listing
    repro pathway <configdir> <router>   route pathway of one router
    repro anonymize <configdir> <out>    §4.1 anonymization
    repro survivability <configdir>      §8.1 what-if battery
    repro lint <configdir>               ingestion diagnostics table
    repro corpus <dir-of-archives>       batch analysis with per-stage timing
    repro sweep <dir>                    what-if failure sweep, ranked by damage
    repro diff <dir-t0> <dir-t1>         §8.2 longitudinal diff
    repro generate <template> <out>      emit a synthetic network

The config directory layout is the paper's: one file per router.

Commands that read an archive accept ``--strict`` (default: abort on the
first malformed statement) or ``--lenient`` (skip damaged blocks, report
them, analyze what remains).  Exit codes fold in the ingestion
diagnostics: 0 clean, 1 warnings, 2 errors — combined with each command's
own status via ``max``.  ``repro corpus`` and ``repro sweep`` add code
3: the run completed but at least one analysis stage (or failure
scenario) finished degraded, timed out, failed, or was skipped (see
``--resume``).

``repro corpus`` runs every analysis stage under the resilient executor
(:mod:`repro.exec`): ``--stage-deadline SECONDS|auto`` bounds each stage
(timeouts retry down a degradation ladder before giving up),
``--soft-deadline`` warns without cancelling, ``--deadline`` bounds the
whole run, ``--fail-fast`` stops at the first timeout/failure, and
finished stages are checkpointed (``--checkpoint-dir``,
``--no-checkpoint``) so an interrupted run continues with ``--resume``.
Archives are analyzed one at a time, in corpus order.  ``--compress``
also builds the compression plan in the pathways stage; the output and
the pathway work are the same.

Archive-reading commands also accept ``--cache-dir PATH`` (persistent
parse cache, default ``~/.cache/repro``) and ``--no-cache``.  Ingestion
is one serial pass that parses each file the cache has not seen;
results are identical whatever the cache holds.  ``repro sweep --jobs
N`` simulates failure scenarios on up to N worker processes (capped at
the usable CPUs).  Elsewhere ``--jobs`` and ``repro corpus
--archive-jobs`` are still accepted, but no longer change anything.

Observability (every command): ``--log-level debug|info|warning|error``
and ``--log-json`` control structured logging on stderr.  Archive
commands additionally accept ``--trace out.json`` (Chrome-trace timeline
of every pipeline stage and analysis pass) and ``--run-report r.json``
(a manifest accounting for every input file: path, size, SHA-256, cache
disposition — plus metrics, spans, diagnostics, and the exit code).
``repro share`` takes ``--strict``/``--lenient``, ``--trace`` and
``--run-report`` but none of the cache or ``--jobs`` flags: it reads
both trees without a cache, and its run report holds the ``share``
summary block, not a file inventory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Callable, List, Optional

from repro.anonymize import Anonymizer
from repro.core import (
    analyze_survivability,
    classify_design,
    diff_designs,
    extract_address_space,
    route_pathway,
)
from repro.core.filters import analyze_filter_placement
from repro.core.pathways import ROUTER_RIB
from repro.core.roles import classify_roles
from repro.diag import EXIT_ERRORS, PHASE_ANALYSIS
from repro.ingest import ParseCache
from repro.ingest.archive import archive_name, discover_archives, read_archive
from repro.model import Network
from repro.obs import (
    MetricsRegistry,
    Tracer,
    activate_tracer,
    archive_entry,
    build_manifest,
    configure_logging,
    span,
    use_registry,
    write_manifest,
)
from repro.obs.logging import LEVELS
from repro.report import (
    format_diagnostics,
    format_execution_lines,
    format_status_counts,
    format_table,
    span_row,
    stage_row,
)


def _int_in(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse ``type`` for an integer in ``[low, high]``, so a bad
    count or port ends in argparse's ``error:`` line (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


_COUNT = _int_in(0)
_PORT = _int_in(0, 65535)


def _seconds(text: str) -> float:
    """An argparse ``type`` for a deadline or interval: a positive,
    finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number of seconds: {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return value


def _stage_deadline(text: str):
    """``--stage-deadline``: ``auto`` or a positive number of seconds."""
    return text if text == "auto" else _seconds(text)


def _cache_from_args(args: argparse.Namespace) -> Optional[ParseCache]:
    """The persistent parse cache the command asked for, or ``None``.

    One instance per invocation, shared by every archive the command
    loads, so hit/miss statistics aggregate across archives.
    """
    if getattr(args, "no_cache", False):
        return None
    existing = getattr(args, "_parse_cache", None)
    if existing is not None:
        return existing
    cache = ParseCache.coerce(getattr(args, "cache_dir", None) or ParseCache())
    args._parse_cache = cache
    return cache


def _checkpoints_from_args(args: argparse.Namespace):
    """The checkpoint store the command asked for, or ``None``.

    The root is ``--checkpoint-dir``, else ``$REPRO_CHECKPOINT_DIR``,
    else ``<cache root>/checkpoints`` where the cache root is
    ``--cache-dir`` or the default cache directory.  ``--no-checkpoint``
    turns checkpointing off, and ``--resume`` then has nothing to
    replay, so it is an error.
    """
    from repro.exec import CheckpointStore, default_checkpoint_dir  # noqa: PLC0415

    if args.no_checkpoint:
        if getattr(args, "resume", False):
            raise SystemExit("error: --resume needs checkpointing (drop --no-checkpoint)")
        return None
    return CheckpointStore(
        root=args.checkpoint_dir or default_checkpoint_dir(args.cache_dir)
    )


def _load(
    args: argparse.Namespace,
    path: Optional[str] = None,
    default_mode: str = "strict",
) -> Network:
    """Load one archive under the command's --strict/--lenient policy.

    The network is held on the namespace until :func:`_finish_archive`
    accounts for it.
    """
    path = path if path is not None else args.configdir
    if not os.path.isdir(path):
        raise SystemExit(f"error: {path} is not a directory of config files")
    mode = getattr(args, "mode", None) or default_mode
    on_error = "skip-block" if mode == "lenient" else "strict"
    network = Network.from_directory(
        path,
        on_error=on_error,
        jobs=getattr(args, "jobs", None),
        cache=_cache_from_args(args),
    )
    args._held.append((path, network))
    if len(network.diagnostics) or network.quarantined:
        print(
            f"ingestion: {network.diagnostics.summary()}, "
            f"{len(network.quarantined)} file(s) quarantined "
            f"(run `repro lint` for details)",
            file=sys.stderr,
        )
    return network


def _finish_archive(args: argparse.Namespace, network: Network, execution=None) -> None:
    """Account for one archive the command is done with.

    Folds the archive's exit code into the run's, takes its
    ``--run-report`` entry (when a report was asked for) and drops the
    CLI's reference to the network.  ``repro corpus`` and ``repro sweep``
    call this as each archive's work ends, so they hold one archive at a
    time; :func:`main` calls it for whatever a command still holds when
    it returns.
    """
    index = next(i for i, (_path, held) in enumerate(args._held) if held is network)
    path, _network = args._held.pop(index)
    args._archive_code = max(args._archive_code, network.diagnostics.exit_code())
    if args.run_report:
        args._archive_entries.append(archive_entry(network, path=path, execution=execution))


def cmd_analyze(args: argparse.Namespace) -> int:
    network = _load(args)
    evidence = classify_design(network)
    roles = classify_roles(network)
    filters = analyze_filter_placement(network)

    print(f"network: {network.name}")
    print(f"routers: {len(network)}   links: {len(network.links)}")
    print(f"external-facing interfaces: {len(network.external_interfaces)}")
    print(f"routing instances: {len(network.instances)}")
    print(f"design class: {evidence.design.value}")
    for note in evidence.notes:
        print(f"  {note}")
    print(
        f"IGP instances used inter-domain: "
        f"{sum(roles.igp_inter.values())} of "
        f"{sum(roles.igp_inter.values()) + sum(roles.igp_intra.values())}"
    )
    print(f"EBGP sessions: {roles.ebgp_intra} intra / {roles.ebgp_inter} inter")
    if filters.has_filters:
        print(
            f"packet filters: {filters.total_rules} rules, "
            f"{filters.internal_fraction:.0%} on internal links"
        )
    print("address blocks:")
    for block in extract_address_space(network):
        print(f"  {block}")
    return 0


def cmd_instances(args: argparse.Namespace) -> int:
    network = _load(args)
    rows = [
        (inst.instance_id, inst.protocol, inst.asn or "", inst.size)
        for inst in sorted(network.instances, key=lambda i: -i.size)
    ]
    print(format_table(["id", "protocol", "asn", "routers"], rows))
    return 0


def cmd_pathway(args: argparse.Namespace) -> int:
    network = _load(args)
    try:
        pathway = route_pathway(network, args.router)
    except KeyError:
        raise SystemExit(f"error: unknown router {args.router!r}")
    print(f"route pathway of {args.router}:")
    for node, depth in sorted(pathway.layers.items(), key=lambda kv: kv[1]):
        label = pathway.labels[node]
        if node == ROUTER_RIB:
            label = f"{label} ({args.router})"
        print(f"  depth {depth}: {label}")
    external = pathway.external_depth()
    if external is None:
        print("  (no external routes reach this router)")
    else:
        print(f"external routes arrive after {external} hops")
    return 0


def cmd_anonymize(args: argparse.Namespace) -> int:
    from repro.share import (  # noqa: PLC0415
        default_mapping_path,
        ensure_mapping_outside,
        shared_file_name,
    )

    if not os.path.isdir(args.configdir):
        raise SystemExit(f"error: {args.configdir} is not a directory")
    mapping_path = args.mapping or default_mapping_path(args.outdir)
    try:
        ensure_mapping_outside(args.outdir, mapping_path)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    os.makedirs(args.outdir, exist_ok=True)
    key = args.key.encode("utf-8") if args.key else os.urandom(16)
    anonymizer = Anonymizer(key=key)
    files = {}
    for file in read_archive(args.configdir):
        if file.text is None:
            # Quarantined on read, as ingestion does: binary droppings
            # are not configs, so there is nothing to anonymize.
            print(f"anonymize: skipped non-text file {file.name!r}", file=sys.stderr)
            continue
        # Output files carry the pseudo-name of their stem, by share's
        # rule: a file named after its router would otherwise leak the
        # hostname the content anonymization just scrubbed.
        out_name = shared_file_name(anonymizer, file.name)
        files[file.name] = out_name
        with open(os.path.join(args.outdir, out_name), "w") as handle:
            handle.write(anonymizer.anonymize_config(file.text))
    exported = anonymizer.export_mapping()
    exported["files"] = files
    exported["key"] = key.hex()
    with open(mapping_path, "w") as handle:
        json.dump(exported, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"anonymized {len(files)} files into {args.outdir}")
    print(f"trusted-party mapping: {mapping_path} (do not share)")
    return 0


def cmd_share(args: argparse.Namespace) -> int:
    from repro.diag import EXIT_DEGRADED  # noqa: PLC0415
    from repro.share import (  # noqa: PLC0415
        ShareError,
        ShareOptions,
        certify_share,
        default_mapping_path,
        ensure_mapping_outside,
        share_corpus,
    )

    if args.diff_out and not args.certify:
        raise SystemExit("error: --diff-out needs --certify")
    if not os.path.isdir(args.configdir):
        raise SystemExit(f"error: {args.configdir} is not a directory")
    mapping_path = args.mapping or default_mapping_path(args.outdir)
    try:
        ensure_mapping_outside(args.outdir, mapping_path)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    key = args.key.encode("utf-8") if args.key else os.urandom(16)
    options = ShareOptions(
        key=key,
        decoys=args.decoys,
        decoy_template=args.decoy_template,
        max_salt_probes=args.salt_probes,
    )
    try:
        result = share_corpus(args.configdir, args.outdir, options)
    except ShareError as exc:
        raise SystemExit(f"error: {exc}")
    for record in result.archives:
        for name in record.skipped:
            print(f"share: skipped non-text file {name!r} in {record.original!r}", file=sys.stderr)
    result.mapping.write(mapping_path)
    summary = result.summary()
    code = 0
    certification = None
    if args.certify:
        mode = getattr(args, "mode", None) or "lenient"
        certification = certify_share(
            args.configdir, args.outdir, result.mapping, mode=mode
        )
        summary["certified"] = certification.ok
        if not certification.ok:
            code = EXIT_DEGRADED
        if args.diff_out:
            with open(args.diff_out, "w") as handle:
                json.dump(certification.to_dict(), handle, indent=2)
                handle.write("\n")
    args._share_summary = summary
    if args.json:
        payload = {"outdir": args.outdir, "summary": summary}
        if certification is not None:
            payload["certification"] = certification.to_dict()
        print(json.dumps(payload, indent=2))
        return code
    print(
        f"shared {summary['files']} files across {summary['archives']} "
        f"archive(s) into {args.outdir}"
    )
    if summary["decoy_routers"]:
        print(
            f"decoys: {summary['decoy_routers']} routers "
            f"({summary['decoy_template']} template)"
        )
    print(f"trusted-party mapping: {mapping_path} (do not share)")
    if certification is not None:
        if certification.ok:
            print("certified: analysis results isomorphic under the mapping")
        else:
            divergent = ", ".join(certification.divergent_sections())
            print(f"CERTIFICATION FAILED: divergent sections: {divergent}")
    return code


def cmd_survivability(args: argparse.Namespace) -> int:
    network = _load(args)
    report = analyze_survivability(network)
    print(f"articulation routers: {len(report.articulation_routers)}")
    for router in report.articulation_routers[:20]:
        print(f"  {router}")
    print(f"bridge links: {len(report.bridge_links)}")
    print("instance couplings:")
    for coupling in report.couplings:
        flag = "  SINGLE POINT OF FAILURE" if coupling.is_single_point_of_failure else ""
        print(
            f"  instances {coupling.instance_a}<->{coupling.instance_b}: "
            f"{coupling.redundancy} router(s), "
            f"{'/'.join(sorted(coupling.mechanisms))}{flag}"
        )
    if report.static_route_conflicts:
        print("static-route maintenance conflicts:")
        for prefix, routers in report.static_route_conflicts.items():
            print(f"  {prefix}: {', '.join(routers)}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.consistency import audit_configuration

    network = _load(args)
    report = audit_configuration(network)
    if report.is_clean:
        print("no findings: configuration is consistent")
        return 0
    for finding in report.findings:
        print(finding)
    print(f"{len(report)} finding(s)")
    return 1


def cmd_graph(args: argparse.Namespace) -> int:
    from repro.report.dot import instance_graph_to_dot

    network = _load(args)
    dot = instance_graph_to_dot(network)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dot)
        print(f"wrote DOT graph to {args.output}")
    else:
        print(dot)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report.design_report import generate_design_report

    network = _load(args)
    report = generate_design_report(network)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote report to {args.output}")
    else:
        print(report)
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    from repro.core.packet_reach import Flow, PacketReachability

    try:
        flow = Flow.between(args.source, args.dest, protocol=args.protocol, port=args.port)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    network = _load(args)
    reach = PacketReachability(network)
    verdict = reach.host_flow(flow)
    if not verdict.path:
        print("no attachment or no path between those hosts")
        return 2
    print(f"path: {' -> '.join(verdict.path)}")
    if verdict.allowed:
        print("flow PERMITTED by all filters along the path")
        return 0
    hit = verdict.blocked_at
    print(
        f"flow DENIED at {hit.router} {hit.interface} ({hit.direction}) "
        f"by access-list {hit.acl}"
    )
    return 1


def cmd_diff(args: argparse.Namespace) -> int:
    before = _load(args, args.before)
    after = _load(args, args.after)
    diff = diff_designs(before, after)
    for line in diff.summary_lines():
        print(line)
    return 0 if diff.is_empty else 1


def cmd_lint(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.configdir):
        raise SystemExit(f"error: {args.configdir} is not a directory of config files")
    on_error = "strict" if args.mode == "strict" else "skip-block"
    try:
        network = Network.from_directory(
            args.configdir,
            on_error=on_error,
            jobs=getattr(args, "jobs", None),
            cache=_cache_from_args(args),
        )
    except Exception as exc:
        print(f"error: {exc}")
        return EXIT_ERRORS
    args._held.append((args.configdir, network))
    try:
        network.links
        network.processes
        network.bgp_sessions
    except Exception as exc:
        network.diagnostics.error(PHASE_ANALYSIS, f"analysis failed: {exc}")
    print(f"archive: {args.configdir}   routers: {len(network)}")
    print(format_diagnostics(network.diagnostics, network.quarantined))
    return network.diagnostics.exit_code()


def _resolve_stage_deadline(args: argparse.Namespace):
    """``(seconds, suggestion)`` from ``--stage-deadline`` (both optional).

    ``auto`` promotes the measured per-stage timings of the throughput
    benchmark into the deadline (see :mod:`repro.exec.budget`); a number
    (checked by the parser) is taken literally; unset means no per-stage
    deadline.
    """
    from repro.exec import suggest_stage_deadline  # noqa: PLC0415

    value = getattr(args, "stage_deadline", None)
    if value == "auto":
        suggestion = suggest_stage_deadline()
        return suggestion.seconds, suggestion
    return value, None


def _corpus_executor(args: argparse.Namespace):
    """Build the resilient executor the corpus run asked for."""
    from repro.exec import AnalysisExecutor, ChaosPlan, ExecutorConfig  # noqa: PLC0415

    stage_deadline, suggestion = _resolve_stage_deadline(args)
    store = _checkpoints_from_args(args)
    kwargs = {}
    if args.compress:
        from repro.compress import compressed_stage_runners  # noqa: PLC0415

        kwargs["runners"] = compressed_stage_runners()
    config = ExecutorConfig(
        stage_deadline=stage_deadline,
        soft_deadline=getattr(args, "soft_deadline", None),
        run_deadline=getattr(args, "deadline", None),
        resume=getattr(args, "resume", False),
        fail_fast=getattr(args, "fail_fast", False),
        checkpoints=store,
        chaos=ChaosPlan.from_env(),
        **kwargs,
    )
    return AnalysisExecutor(config), suggestion


def _execution_block(config, suggestion) -> dict:
    """The corpus run's ``execution`` block, for ``--json`` and the run
    manifest alike; ``stage_deadline_source`` says where the deadline
    came from (the ``auto`` suggestion, or the command line)."""
    store = config.checkpoints
    return {
        "stage_deadline": config.stage_deadline,
        "stage_deadline_source": (
            suggestion.as_dict()
            if suggestion is not None
            else ({"source": "cli"} if config.stage_deadline else None)
        ),
        "soft_deadline": config.soft_deadline,
        "run_deadline": config.run_deadline,
        "resume": config.resume,
        "fail_fast": config.fail_fast,
        "checkpoints": store.stats.as_dict() if store is not None else None,
    }


def _skipped_corpus_entry(name: str):
    """The report entry for an archive the run never started.

    ``--fail-fast`` aborts must not make archives vanish from the report:
    every archive the corpus contains is listed, the unstarted ones with
    ``status: "skipped"`` and all their stages marked skipped — the same
    vocabulary the executor uses for stages it skips inside an archive.
    """
    from repro.exec import (  # noqa: PLC0415
        ANALYSIS_STAGES,
        STATUS_SKIPPED,
        ArchiveExecution,
        StageResult,
    )

    execution = ArchiveExecution(
        archive=name,
        digest="",
        results=[
            StageResult(
                stage=stage,
                status=STATUS_SKIPPED,
                attempts=0,
                detail="fail-fast abort",
            )
            for stage in ANALYSIS_STAGES
        ],
    )
    entry = {
        "archive": name,
        "routers": 0,
        "files": 0,
        "parsed": 0,
        "cached": 0,
        "quarantined": 0,
        "exit_code": 0,
        "status": execution.status,
        "stage_counts": execution.counts,
        "execution": execution.as_dict(),
        "stages": [],
        "total_seconds": 0.0,
        "parsed_per_second": None,
    }
    return entry, execution


def _corpus_entry(name: str, network: Network, execution) -> dict:
    """The report entry for one ingested and analyzed archive."""
    read, parse = network.ingest_stages
    parsed, cached = parse.attributes["parsed"], parse.attributes["cached"]
    stages = [span_row(read), span_row(parse)] + [
        stage_row(result.stage, result.seconds, result.items) for result in execution.results
    ]
    seconds = [read.seconds, parse.seconds] + [result.seconds for result in execution.results]
    return {
        "archive": name,
        "routers": len(network),
        "files": read.attributes["items"],
        "parsed": parsed,
        "cached": cached,
        "quarantined": len(network.quarantined),
        "exit_code": network.diagnostics.exit_code(),
        "status": execution.status,
        "stage_counts": execution.counts,
        "execution": execution.as_dict(),
        "stages": stages,
        "total_seconds": round(sum(seconds), 6),
        # Parsed-only throughput: cache replays are (fast) reads, not
        # parses, and counting them made warm-cache runs look
        # implausibly fast.  Replays are reported as "cached".
        "parsed_per_second": (
            round(parsed / parse.seconds, 1) if parse.seconds > 0 and parsed else None
        ),
    }


def cmd_corpus(args: argparse.Namespace) -> int:
    """Batch-analyze a directory of archives under the resilient executor.

    This is the paper's own workload — 31 networks, 8,035 files — run as
    one command: every subdirectory of ``corpusdir`` is ingested
    (cached), then every analysis stage runs inside the
    :mod:`repro.exec` barrier (per-stage deadlines, degradation ladders,
    checkpoint/resume).  Archives run one at a time, in corpus order,
    each inside one ``archive:<name>`` span; once the executor aborts
    (``--fail-fast``), the archives not yet started are listed as
    skipped, never dropped.  An exception stops the run before any later
    archive starts.  Output is a per-network table (or ``--json``).

    Exit code contract: 0 all archives clean; 1 ingestion warnings only;
    2 ingestion errors; 3 the run *completed* but at least one analysis
    stage finished below full fidelity (degraded / timed out / failed /
    skipped) — partial results are in the report, and ``--resume``
    re-executes exactly the unfinished (archive, stage) pairs.
    """
    if not os.path.isdir(args.corpusdir):
        raise SystemExit(f"error: {args.corpusdir} is not a directory")
    from repro.diag import EXIT_CLEAN, EXIT_DEGRADED  # noqa: PLC0415

    archives, ignored = discover_archives(args.corpusdir)
    for loose in ignored:
        print(
            f"corpus: ignoring loose file {loose!r} at the corpus root "
            f"(archives are directories; move it into one to analyze it)",
            file=sys.stderr,
        )
    executor, suggestion = _corpus_executor(args)
    cache = _cache_from_args(args)
    executions: List[tuple] = []
    report: List[dict] = []
    archives_skipped = 0
    for path in archives:
        name = archive_name(path)
        if executor.aborted:
            entry, execution = _skipped_corpus_entry(name)
            archives_skipped += 1
        else:
            with span(f"archive:{name}"):
                network = _load(args, path, default_mode="lenient")
                execution = executor.run_archive(name, network)
            entry = _corpus_entry(name, network, execution)
            _finish_archive(args, network, execution)
            del network  # the next archive loads without this one alive
        executions.append((name, execution))
        report.append(entry)

    code = EXIT_CLEAN
    for entry in report:
        code = max(code, entry["exit_code"])
    if any(entry["status"] != "ok" for entry in report):
        code = max(code, EXIT_DEGRADED)

    execution_block = args._corpus_execution = _execution_block(executor.config, suggestion)
    stage_totals: dict = {}
    for entry in report:
        for status, count in entry["stage_counts"].items():
            if count:
                stage_totals[status] = stage_totals.get(status, 0) + count
    payload = {
        "corpus": args.corpusdir,
        "ignored_files": ignored,
        "cache": cache.stats.as_dict() if cache is not None else None,
        "execution": execution_block,
        "compress": args.compress,
        "archives": report,
        "totals": {
            "archives": len(report),
            "archives_skipped": archives_skipped,
            "routers": sum(e["routers"] for e in report),
            "files": sum(e["files"] for e in report),
            "parsed": sum(e["parsed"] for e in report),
            "cached": sum(e["cached"] for e in report),
            "seconds": round(sum(e["total_seconds"] for e in report), 6),
            "stages": {
                status: stage_totals[status] for status in sorted(stage_totals)
            },
        },
    }
    if executor.aborted:
        print("corpus aborted by --fail-fast", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
        return code

    def stage_seconds(entry: dict, name: str) -> str:
        for stage in entry["stages"]:
            if stage["name"] == name:
                return f"{stage['seconds']:.3f}"
        return "-"

    rows = [
        (
            entry["archive"],
            entry["routers"],
            entry["files"],
            entry["parsed"],
            entry["cached"],
            stage_seconds(entry, "parse"),
            stage_seconds(entry, "links"),
            stage_seconds(entry, "instances"),
            stage_seconds(entry, "pathways"),
            entry["parsed_per_second"] or "-",
            entry["status"],
        )
        for entry in report
    ]
    totals = payload["totals"]

    def total_stage(name: str) -> str:
        return f"{sum(s['seconds'] for e in report for s in e['stages'] if s['name'] == name):.3f}"

    rows.append(
        (
            "TOTAL",
            totals["routers"],
            totals["files"],
            totals["parsed"],
            totals["cached"],
            total_stage("parse"),
            total_stage("links"),
            total_stage("instances"),
            total_stage("pathways"),
            "",
            format_status_counts(stage_totals),
        )
    )
    print(
        format_table(
            [
                "archive",
                "routers",
                "files",
                "parsed",
                "cached",
                "parse s",
                "links s",
                "inst s",
                "path s",
                "parsed/s",
                "status",
            ],
            rows,
            title=f"corpus timing — {len(report)} archive(s)",
        )
    )
    detail_lines = [
        line
        for name, execution in executions
        for line in format_execution_lines(name, execution)
    ]
    if detail_lines:
        print("stage incidents:")
        for line in detail_lines:
            print(f"  {line}")
    return code


def cmd_sweep(args: argparse.Namespace) -> int:
    """What-if failure sweep: simulate every failure, rank the damage.

    ``sweepdir`` is either one config archive or a corpus directory
    whose subdirectories are archives.  Per archive: enumerate every
    single link/router failure (``--depth 2`` adds budget-sampled
    doubles), simulate each against the no-failure baseline, and print
    a fragility ranking (or emit ``--json``).  Scenarios run under the
    executor's robustness contract — a crashing scenario is a
    ``failed`` row, a hanging one (``--scenario-deadline``) a
    ``timeout`` row, and finished rows are checkpointed so ``--resume``
    replays them after an interrupt.  Results are identical at any
    ``--jobs`` value.

    Exit codes: 0 clean; 1/2 ingestion warnings/errors; 3 the sweep
    completed but at least one scenario finished below ``ok``.
    """
    if not os.path.isdir(args.sweepdir):
        raise SystemExit(f"error: {args.sweepdir} is not a directory")
    from repro.diag import EXIT_DEGRADED  # noqa: PLC0415
    from repro.exec import ChaosPlan  # noqa: PLC0415
    from repro.report.sweep import format_sweep_report  # noqa: PLC0415
    from repro.sweep import SweepConfig, run_network_sweep  # noqa: PLC0415

    archives, ignored = discover_archives(args.sweepdir)
    for loose in ignored:
        print(
            f"sweep: ignoring loose file {loose!r} at the corpus root "
            f"(archives are directories; move it into one to analyze it)",
            file=sys.stderr,
        )
    store = _checkpoints_from_args(args)
    config = SweepConfig(
        depth=args.depth,
        double_budget=args.double_budget,
        seed=args.seed,
        max_scenarios=args.max_scenarios,
        jobs=getattr(args, "jobs", None),
        scenario_deadline=args.scenario_deadline,
        scenario_soft_deadline=args.soft_deadline,
        fail_fast=args.fail_fast,
        checkpoints=store,
        resume=args.resume,
        chaos=ChaosPlan.from_env(),
    )

    entries: List[dict] = []
    stopped: Optional[str] = None
    start = time.perf_counter()
    for path in archives:
        if stopped is not None:
            # --fail-fast stopped an earlier archive; the rest are
            # listed, not swept, so no archive silently vanishes.
            entries.append(
                {
                    "archive": archive_name(path),
                    "skipped": True,
                    "detail": f"fail-fast after {stopped}",
                    "status_counts": {},
                    "rows": [],
                }
            )
            continue
        network = _load(args, path, default_mode="lenient")
        result = run_network_sweep(network, archive=archive_name(path), config=config)
        _finish_archive(args, network)
        del network  # the next archive loads without this one alive
        entries.append(result.as_dict())
        if args.fail_fast and result.stopped_after is not None:
            stopped = f"{result.archive}:{result.stopped_after}"

    status_totals: dict = {}
    for entry in entries:
        for status, count in entry.get("status_counts", {}).items():
            status_totals[status] = status_totals.get(status, 0) + count
    payload = {
        "root": args.sweepdir,
        "jobs": getattr(args, "jobs", None),
        "depth": args.depth,
        "seed": args.seed,
        "double_budget": args.double_budget,
        "max_scenarios": args.max_scenarios,
        "ignored_files": ignored,
        "execution": {
            "scenario_deadline": args.scenario_deadline,
            "soft_deadline": args.soft_deadline,
            "resume": args.resume,
            "fail_fast": args.fail_fast,
        },
        "archives": entries,
        "checkpoints": store.stats.as_dict() if store is not None else None,
        "seconds": round(time.perf_counter() - start, 6),
        "totals": {
            "archives": len(entries),
            "scenarios": sum(len(e.get("rows", [])) for e in entries),
            "statuses": {s: status_totals[s] for s in sorted(status_totals)},
        },
    }
    # A deterministic summary for the run manifest (--run-report).
    args._sweep_summary = {
        "depth": args.depth,
        "seed": args.seed,
        "archives": payload["totals"]["archives"],
        "scenarios": payload["totals"]["scenarios"],
        "statuses": payload["totals"]["statuses"],
    }
    degraded = any(
        entry.get("skipped")
        or any(s != "ok" for s in entry.get("status_counts", {}))
        for entry in entries
    )
    code = EXIT_DEGRADED if degraded else 0
    if stopped is not None:
        print(f"sweep aborted by --fail-fast at {stopped}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
        return code
    for entry in entries:
        if entry.get("skipped"):
            print(f"{entry['archive']}: skipped ({entry['detail']})")
            continue
        print(format_sweep_report(entry, top=args.top))
    return code


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on analysis daemon over one corpus directory.

    Blocks until SIGTERM/SIGINT, then drains (the in-flight generation
    gets ``--grace`` seconds to finish and publish before being
    abandoned) and exits 0.  The bound URL is printed on stdout before
    blocking so scripts launching ``--port 0`` can discover the port.
    """
    from repro.obs.metrics import get_registry  # noqa: PLC0415
    from repro.serve import ServeConfig, ServeDaemon  # noqa: PLC0415

    if not os.path.isdir(args.configdir):
        raise SystemExit(f"error: {args.configdir} is not a directory of config files")
    stage_deadline, _suggestion = _resolve_stage_deadline(args)
    store = _checkpoints_from_args(args)
    config = ServeConfig(
        corpus=args.configdir,
        host=args.host,
        port=args.port,
        poll_interval=args.poll_interval,
        grace=args.grace,
        cache=_cache_from_args(args),
        checkpoints=store,
        stage_deadline=stage_deadline,
        soft_deadline=args.soft_deadline,
        generation_deadline=args.generation_deadline,
        backoff=args.backoff,
        max_backoff=args.max_backoff,
        # The invocation registry main() scoped for this command: the
        # daemon worker adopts it, so /metrics sees every subsystem.
        registry=get_registry(),
    )
    daemon = ServeDaemon(config)
    daemon.start()
    print(f"serving {args.configdir} on {daemon.http.url}", flush=True)
    return daemon.run()


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.synth.templates.backbone import build_backbone
    from repro.synth.templates.enterprise import build_enterprise
    from repro.synth.templates.example_fig1 import build_example_networks
    from repro.synth.templates.net5 import build_net5
    from repro.synth.templates.net15 import build_net15
    from repro.synth.templates.pods import build_pods

    builders = {
        "enterprise": lambda: build_enterprise("gen", 1, args.routers, seed=args.seed),
        "backbone": lambda: build_backbone("gen", 2, args.routers, seed=args.seed),
        "net5": lambda: build_net5(scale=args.routers / 881.0, seed=args.seed),
        "net15": lambda: build_net15(scale=args.routers / 79.0, seed=args.seed),
        "pod": lambda: build_pods("pod", 3, args.routers, seed=args.seed),
        "fig1": lambda: (build_example_networks()[0], None),
    }
    if args.template not in builders:
        raise SystemExit(
            f"error: unknown template {args.template!r} "
            f"(choose from {', '.join(sorted(builders))})"
        )
    try:
        configs, _spec = builders[args.template]()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    os.makedirs(args.outdir, exist_ok=True)
    for name, text in sorted(configs.items()):
        with open(os.path.join(args.outdir, name), "w") as handle:
            handle.write(text)
    print(f"wrote {len(configs)} configs to {args.outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="routing design reverse engineering"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mode = argparse.ArgumentParser(add_help=False)
    group = mode.add_mutually_exclusive_group()
    group.add_argument(
        "--strict",
        dest="mode",
        action="store_const",
        const="strict",
        help="abort on the first malformed statement",
    )
    group.add_argument(
        "--lenient",
        dest="mode",
        action="store_const",
        const="lenient",
        help="skip damaged blocks, report them, analyze what remains",
    )
    # No set_defaults here: parent-parser actions are shared between the
    # subparsers, so a per-command set_defaults(mode=...) would rewrite
    # the action default for every command.  The unset flag stays None
    # and each command resolves its own default (lint: lenient, rest:
    # strict).

    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--log-level",
        choices=sorted(LEVELS),
        default="warning",
        help="structured-log verbosity on stderr (default: warning)",
    )
    obs.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as one JSON object per line",
    )

    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="parse-cache directory (default: ~/.cache/repro)",
    )
    cache.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent parse cache",
    )

    checkpoints = argparse.ArgumentParser(add_help=False)
    checkpoints.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="PATH",
        help="checkpoint store directory (default: $REPRO_CHECKPOINT_DIR, "
        "else <cache-dir>/checkpoints)",
    )
    checkpoints.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="disable checkpointing of finished stages and scenarios",
    )

    ingest = argparse.ArgumentParser(add_help=False, parents=[cache])
    ingest.add_argument(
        "--jobs",
        type=_COUNT,
        default=None,
        metavar="N",
        help="repro sweep: simulate scenarios on up to N worker processes "
        "(0 = auto-detect, 1 = serial; capped at the usable CPUs); "
        "accepted by the other commands but no longer changes ingestion",
    )
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace timeline of the run to PATH",
    )
    report.add_argument(
        "--run-report",
        default=None,
        metavar="PATH",
        help="write a run manifest (file inventory, metrics, spans) to PATH",
    )
    archive = [mode, ingest, report, obs]

    p = sub.add_parser("analyze", help="routing design summary", parents=archive)
    p.add_argument("configdir")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("instances", help="routing instance listing", parents=archive)
    p.add_argument("configdir")
    p.set_defaults(func=cmd_instances)

    p = sub.add_parser("pathway", help="route pathway of one router", parents=archive)
    p.add_argument("configdir")
    p.add_argument("router")
    p.set_defaults(func=cmd_pathway)

    p = sub.add_parser("anonymize", help="anonymize a config archive", parents=[obs])
    p.add_argument("configdir")
    p.add_argument("outdir")
    p.add_argument("--key", default=None, help="deterministic anonymization key")
    p.add_argument(
        "--mapping",
        default=None,
        help="trusted-party mapping file (default: <outdir>.mapping.json; "
        "must lie outside outdir)",
    )
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser(
        "share",
        help="build a certified shareable corpus (anonymize + decoys)",
        parents=[mode, report, obs],
    )
    p.add_argument("configdir")
    p.add_argument("outdir")
    p.add_argument("--key", default=None, help="deterministic anonymization key")
    p.add_argument(
        "--mapping",
        default=None,
        help="trusted-party mapping file (default: <outdir>.mapping.json; "
        "must lie outside outdir)",
    )
    p.add_argument(
        "--decoys",
        type=_COUNT,
        default=0,
        help="approximate decoy routers to plant per archive (0 = none)",
    )
    p.add_argument(
        "--decoy-template",
        default="enterprise",
        choices=("enterprise", "mixed", "pod"),
        help="synth template the decoy component is built from",
    )
    p.add_argument(
        "--salt-probes",
        type=_int_in(1),
        default=16,
        help="admissibility probe budget per archive",
    )
    p.add_argument(
        "--certify",
        action="store_true",
        help="prove analysis invariance original vs shared (exit 3 on divergence)",
    )
    p.add_argument(
        "--diff-out",
        default=None,
        help="write the certificate (with the decoy-stripped diff on divergence) "
        "as JSON; needs --certify",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_share)

    p = sub.add_parser("survivability", help="single-failure what-ifs", parents=archive)
    p.add_argument("configdir")
    p.set_defaults(func=cmd_survivability)

    p = sub.add_parser("audit", help="consistency/vulnerability audit", parents=archive)
    p.add_argument("configdir")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("graph", help="instance graph as Graphviz DOT", parents=archive)
    p.add_argument("configdir")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("report", help="full markdown design report", parents=archive)
    p.add_argument("configdir")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("flow", help="trace a packet flow through filters", parents=archive)
    p.add_argument("configdir")
    p.add_argument("source", help="source host address")
    p.add_argument("dest", help="destination host address")
    p.add_argument("--protocol", default="ip")
    p.add_argument("--port", type=_PORT, default=None)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("lint", help="ingestion diagnostics table", parents=archive)
    p.add_argument("configdir")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "corpus",
        help="batch-analyze a directory of archives with per-stage timing",
        parents=[*archive, checkpoints],
    )
    p.add_argument("corpusdir", help="directory whose subdirectories are archives")
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable per-network timing output",
    )
    p.add_argument(
        "--archive-jobs",
        type=_COUNT,
        default=None,
        metavar="N",
        help="accepted for compatibility; archives are always analyzed "
        "one at a time",
    )
    p.add_argument(
        "--deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="whole-run analysis budget; stages beyond it are skipped "
        "(finish them later with --resume)",
    )
    p.add_argument(
        "--stage-deadline",
        type=_stage_deadline,
        default=None,
        metavar="SECONDS|auto",
        help="hard per-stage wall-clock deadline; 'auto' derives one from "
        "the benchmark timing results",
    )
    p.add_argument(
        "--soft-deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="per-stage warning threshold (logs a warning, stage keeps running)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay finished (archive, stage) checkpoints from earlier runs",
    )
    p.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the corpus at the first stage timeout or failure",
    )
    p.add_argument(
        "--compress",
        action="store_true",
        help="also build the compression plan (router equivalence classes) "
        "in the pathways stage; output and pathway work are the same",
    )
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser(
        "sweep",
        help="what-if failure sweep with ranked fragility report",
        parents=[*archive, checkpoints],
    )
    p.add_argument(
        "sweepdir",
        help="one config archive, or a directory whose subdirectories are archives",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable sweep payload",
    )
    p.add_argument(
        "--depth",
        type=int,
        choices=(1, 2),
        default=1,
        help="failure depth: 1 = singles only (default), 2 = add sampled doubles",
    )
    p.add_argument(
        "--double-budget",
        type=_COUNT,
        default=200,
        metavar="N",
        help="max sampled double-failure scenarios per archive (default 200)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="double-failure sampling seed (default 0)",
    )
    p.add_argument(
        "--max-scenarios",
        type=_COUNT,
        default=None,
        metavar="N",
        help="hard cap on scenarios per archive (truncates the plan)",
    )
    p.add_argument(
        "--scenario-deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="hard per-scenario wall-clock deadline; a hung simulation "
        "becomes a timeout row",
    )
    p.add_argument(
        "--soft-deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="per-scenario warning threshold (logs a warning only)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay finished scenario checkpoints from earlier runs",
    )
    p.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first scenario timeout or failure",
    )
    p.add_argument(
        "--top",
        type=_COUNT,
        default=15,
        metavar="N",
        help="ranked rows shown per archive in the table view (default 15)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diff", help="compare two snapshots", parents=archive)
    p.add_argument("before")
    p.add_argument("after")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "serve",
        help="always-on analysis daemon with incremental recompute",
        parents=[cache, checkpoints, obs],
    )
    p.add_argument("configdir", help="corpus directory to watch and analyze")
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address of the HTTP query surface (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port",
        type=_PORT,
        default=0,
        help="bind port; 0 picks an ephemeral port and prints it (default: 0)",
    )
    p.add_argument(
        "--poll-interval",
        type=_seconds,
        default=2.0,
        metavar="SECONDS",
        help="corpus poll cadence (default: 2.0)",
    )
    p.add_argument(
        "--grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="drain budget for the in-flight generation on SIGTERM/SIGINT "
        "(default: 10.0)",
    )
    p.add_argument(
        "--stage-deadline",
        type=_stage_deadline,
        default=None,
        metavar="SECONDS|auto",
        help="hard per-stage wall-clock deadline inside a generation; "
        "'auto' derives one from the benchmark timing results",
    )
    p.add_argument(
        "--soft-deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="per-stage warning threshold (logs a warning only)",
    )
    p.add_argument(
        "--generation-deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="whole-generation budget; stages beyond it are skipped and "
        "the generation does not publish",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="first-failure circuit-breaker backoff; doubles per "
        "consecutive failure (default: 1.0)",
    )
    p.add_argument(
        "--max-backoff",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="circuit-breaker backoff ceiling (default: 60.0)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("generate", help="emit a synthetic network", parents=[obs])
    p.add_argument("template", help="enterprise|backbone|net5|net15|pod|fig1")
    p.add_argument("outdir")
    p.add_argument("--routers", type=_int_in(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)
    return parser


def _emit_run_report(
    args: argparse.Namespace,
    argv: Optional[List[str]],
    code: int,
    registry: MetricsRegistry,
    tracer: Optional[Tracer],
    total_seconds: float,
) -> None:
    """Write the ``--run-report`` manifest for a finished invocation."""
    from repro.model.dialect import PARSER_VERSION  # noqa: PLC0415 — cycle

    cache = getattr(args, "_parse_cache", None)
    environment = {
        "parser_version": PARSER_VERSION,
        "jobs": getattr(args, "jobs", None),
        "mode": getattr(args, "mode", None),
        "cache": cache.stats.as_dict() if cache is not None else None,
        "compress": getattr(args, "compress", False),
    }
    sweep_summary = getattr(args, "_sweep_summary", None)
    if sweep_summary is not None:
        environment["sweep"] = sweep_summary
    share_summary = getattr(args, "_share_summary", None)
    if share_summary is not None:
        environment["share"] = share_summary
    execution = getattr(args, "_corpus_execution", None)
    if execution is not None:
        environment["execution"] = execution
    manifest = build_manifest(
        command=args.command,
        argv=list(argv) if argv is not None else sys.argv[1:],
        archives=args._archive_entries,
        exit_code=code,
        registry=registry,
        tracer=tracer,
        environment=environment,
        total_seconds=total_seconds,
    )
    write_manifest(manifest, args.run_report)
    print(f"wrote run report to {args.run_report}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        level=getattr(args, "log_level", "warning"),
        json_mode=getattr(args, "log_json", False),
    )
    trace_path = getattr(args, "trace", None)
    report_path = getattr(args, "run_report", None)
    # A fresh registry per invocation keeps repeated in-process main()
    # calls (tests, embedding) from bleeding counters into each other.
    registry = MetricsRegistry()
    tracer = Tracer() if (trace_path or report_path) else None
    # Archives loaded and not yet accounted for, the exit code folded
    # from those accounted for, and their --run-report entries.
    args._held, args._archive_code, args._archive_entries = [], 0, []
    start = time.perf_counter()

    def finish(code: int, fold: bool) -> int:
        """Account for the archives still held, fold their exit codes into
        *code* when *fold*, and write the trace and the run report."""
        for _path, network in list(args._held):
            _finish_archive(args, network)
        if fold and args.func is not cmd_lint:
            code = max(code, args._archive_code)
        total_seconds = time.perf_counter() - start
        if trace_path:
            with open(trace_path, "w") as handle:
                json.dump(tracer.chrome_trace(), handle, indent=2)
                handle.write("\n")
            print(f"wrote trace to {trace_path}", file=sys.stderr)
        if report_path:
            _emit_run_report(args, argv, code, registry, tracer, total_seconds)
        return code

    try:
        with use_registry(registry), activate_tracer(tracer):
            if tracer is not None:
                with tracer.span("run", command=args.command):
                    code = args.func(args)
            else:
                code = args.func(args)
    except SystemExit as exc:
        # A failed run is the one a report best explains: record the
        # status the process ends with (None is 0, a message 1), then
        # let the exit go on.
        if isinstance(exc.code, int):
            finish(exc.code, False)
        else:
            finish(0 if exc.code is None else 1, False)
        raise
    except Exception:
        finish(1, False)
        raise
    return finish(code, True)


if __name__ == "__main__":
    sys.exit(main())
