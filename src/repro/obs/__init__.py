"""Observability: structured logging, metrics, tracing, run manifests.

Operating the paper's workload — thousands of configuration files, dozens
of archives, sweep worker processes, a persistent parse cache — requires being
able to answer, for any run: *which file, which stage, how long, cache
hit or miss?*  This package is the shared answer, and it is deliberately
at the bottom of the dependency graph: nothing here imports the parsers,
the model, or the analyses, so every layer above may use it freely.

Four cooperating pieces:

* :mod:`repro.obs.logging` — ``get_logger()`` structured loggers with
  key=value and JSON renderers (``--log-level`` / ``--log-json``);
* :mod:`repro.obs.metrics` — a process-local registry of counters and
  histograms populated by the pipeline's hot paths;
* :mod:`repro.obs.trace` — nested spans with attributes, opened through
  one :func:`~repro.obs.trace.span` API and exportable as a Chrome-trace
  file (``--trace out.json``);
* :mod:`repro.obs.manifest` — the run manifest (``--run-report r.json``):
  input inventory with SHA-256 and cache disposition, metrics snapshot,
  span tree, diagnostics summary, and exit code.

Determinism contract: metrics and manifests are recorded **only in the
parent process**, in file and scenario order, so a ``--jobs 8``
run produces the same counters and the same inventory as ``--jobs 1``
(wall-clock figures aside — see :func:`repro.obs.manifest.normalize_manifest`).
"""

from repro.obs.logging import configure_logging, get_logger
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    FileRecord,
    archive_entry,
    build_manifest,
    normalize_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.obs.trace import Span, Tracer, activate_tracer, current_tracer, span, traced

__all__ = [
    "MANIFEST_SCHEMA",
    "Counter",
    "FileRecord",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "activate_tracer",
    "archive_entry",
    "build_manifest",
    "configure_logging",
    "current_tracer",
    "get_logger",
    "get_registry",
    "normalize_manifest",
    "span",
    "traced",
    "use_registry",
    "write_manifest",
]
