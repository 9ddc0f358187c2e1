"""Pipeline throughput at paper scale.

Not a paper table — an engineering benchmark recording that the analysis
scales to the corpus sizes the paper processed (8,035 configuration files;
the authors' tooling ran over a full provider archive of 23,417 routers).
Measures configuration parsing rate (cold and file-cache-warm), the cost
of the heaviest analysis stages, and persists every number as JSON under
``benchmarks/results/`` so future PRs have a trajectory to compare
against.

Throughput floors are intentionally an order of magnitude below what
development machines measure (single-pass lexer: ~4,400 files/s and
~1.2M lines/s cold on a 1-CPU container), so they catch only real
regressions — an accidentally quadratic parser, a cache that stopped
hitting — not noisy CI hardware.
"""

import os

from repro.core import compute_instances
from repro.ingest import ParseCache
from repro.ios import parse_config
from repro.model import Network
from repro.obs import span
from repro.report import format_table, span_row

from benchmarks.conftest import record, record_json

#: Conservative regression floors for serial *cold* parsing (see module
#: docstring).
MIN_FILES_PER_SECOND = 500
MIN_LINES_PER_SECOND = 120_000


def test_parse_throughput(benchmark, by_name):
    """Cold configs parsed per second, on net5's files."""
    configs = list(by_name["net5"].configs.values())
    total_lines = sum(text.count("\n") for text in configs)

    def parse_all():
        return [parse_config(text) for text in configs]

    parsed = benchmark(parse_all)
    seconds = benchmark.stats.stats.mean
    rate = len(configs) / seconds
    lines_rate = total_lines / seconds
    record(
        "pipeline_throughput_parse",
        format_table(
            ["quantity", "value"],
            [
                ("files", len(configs)),
                ("lines", total_lines),
                ("files/second", f"{rate:,.0f}"),
                ("lines/second", f"{lines_rate:,.0f}"),
            ],
            title="Pipeline throughput — cold parsing (net5)",
        ),
    )
    record_json(
        "pipeline_throughput_parse",
        {
            "network": "net5",
            "files": len(configs),
            "lines": total_lines,
            "seconds": round(seconds, 6),
            "files_per_second": round(rate, 1),
            "lines_per_second": round(lines_rate, 1),
            "floors": {
                "files_per_second": MIN_FILES_PER_SECOND,
                "lines_per_second": MIN_LINES_PER_SECOND,
            },
        },
    )
    assert len(parsed) == len(configs)
    # The paper's 8,035-file corpus must parse in seconds.  A drop below
    # these floors is a parser regression, not hardware noise.
    assert rate > MIN_FILES_PER_SECOND
    assert lines_rate > MIN_LINES_PER_SECOND


def test_warm_cache_parses_nothing(tmp_path_factory, by_name):
    """Second pass over an unchanged archive must re-parse zero files."""
    archive = tmp_path_factory.mktemp("cache-archive")
    for name, text in by_name["net5"].configs.items():
        (archive / name).write_text(text)
    cache = ParseCache(root=os.fspath(tmp_path_factory.mktemp("parse-cache")))

    cold = Network.from_directory(os.fspath(archive), on_error="skip-block", cache=cache)
    warm = Network.from_directory(os.fspath(archive), on_error="skip-block", cache=cache)
    (_read, cold_parse), (_read, warm_parse) = cold.ingest_stages, warm.ingest_stages
    cold_s, warm_s = cold_parse.seconds, warm_parse.seconds
    warm_parsed = warm_parse.attributes["parsed"]
    warm_cached = warm_parse.attributes["cached"]
    record(
        "pipeline_throughput_cache",
        format_table(
            ["quantity", "value"],
            [
                ("files", len(cold.routers)),
                ("cold parse s", f"{cold_s:.3f}"),
                ("warm parse s", f"{warm_s:.3f}"),
                ("warm files re-parsed", warm_parsed),
                ("warm cache hits", warm_cached),
            ],
            title="Pipeline throughput — warm parse cache (net5)",
        ),
    )
    record_json(
        "pipeline_throughput_cache",
        {
            "network": "net5",
            "files": len(cold.routers),
            "cold_seconds": round(cold_s, 6),
            "warm_seconds": round(warm_s, 6),
            "warm_parsed": warm_parsed,
            "warm_cached": warm_cached,
        },
    )
    assert warm_parsed == 0
    assert warm_cached == len(by_name["net5"].configs)
    assert sorted(cold.routers) == sorted(warm.routers)
    assert [str(d) for d in cold.diagnostics] == [str(d) for d in warm.diagnostics]


def test_analysis_throughput(benchmark, by_name):
    """Link inference + instance computation on the largest network."""
    largest = max(
        (cn for cn in (by_name["net35"], by_name["net5"])),
        key=lambda cn: len(cn.configs),
    )
    configs = largest.configs

    def analyze():
        network = Network.from_configs(configs, name="throughput")
        with span("stage:links") as links:
            links.set(items=len(network.links))
        with span("stage:instances") as stage:
            instances = compute_instances(network)
            stage.set(items=len(instances))
        return instances, [span_row(s) for s in network.ingest_stages + (links, stage)]

    instances, stages = benchmark.pedantic(analyze, rounds=3, iterations=1)
    record(
        "pipeline_throughput_analysis",
        format_table(
            ["quantity", "value"],
            [
                ("network", largest.name),
                ("routers", len(configs)),
                ("instances", len(instances)),
                ("seconds/full-analysis", f"{benchmark.stats.stats.mean:.2f}"),
            ],
            title="Pipeline throughput — parse + links + instances",
        ),
    )
    record_json(
        "pipeline_throughput_analysis",
        {
            "network": largest.name,
            "routers": len(configs),
            "instances": len(instances),
            "seconds_full_analysis": round(benchmark.stats.stats.mean, 6),
            "stages": stages,
        },
    )
    assert instances
