"""Cache-aware configuration parsing: one serial pass, merged in file order.

Every file is independent and the strict/lenient fault policy is applied
*per file*, so ingestion is one serial pass:

* look each file up in the :class:`~repro.ingest.cache.ParseCache` by the
  hash of its bytes; a hit *replays* the config, diagnostics and
  quarantine decision of the parse that stored it;
* parse each miss with :func:`parse_one` against a **fresh, private**
  :class:`~repro.diag.DiagnosticSink`, and store the result;
* return one outcome per file, in file order — the caller merges the
  per-file diagnostics in that order, so the diagnostic stream is the
  same whichever files were replayed;
* a strict-mode parse failure is carried back in its outcome and
  re-raised by the caller at the file's position: files earlier in the
  order contribute their diagnostics, files later contribute nothing.

There is no parse pool.  On the 1-CPU reference host a per-file process
pool parsed at 0.81x the serial rate (IPC costs more than a parse
saves); the one parallel grain left is the sweep's scenario pool
(:mod:`repro.sweep.runner`).  The public ingestion entry points still
accept ``jobs`` and reject a negative value with :func:`check_jobs`;
it no longer changes ingestion, so it goes no further.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.diag import PHASE_PARSE, DiagnosticSink, StreamEntry
from repro.ingest.cache import CacheEntry, ParseCache
from repro.ios.config import RouterConfig
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import Span, span

_log = get_logger("ingest")

#: Accepted ``on_error`` fault policies (also re-exported by
#: :mod:`repro.model.network`, their historical home).
ON_ERROR_POLICIES = ("strict", "skip-block", "skip-file")


@dataclass(frozen=True)
class ParseTask:
    """One file to parse: source name, decoded text, fault policy.

    ``data`` is the file's raw bytes when known (directory ingestion) —
    the cache key hashes bytes, not the lossily-decoded text, so a file
    whose decode behavior changes still re-keys correctly.
    """

    source: str
    text: str
    on_error: str = "strict"
    data: Optional[bytes] = field(default=None, repr=False)

    def cache_data(self) -> bytes:
        return self.data if self.data is not None else self.text.encode("utf-8")


@dataclass
class ParseOutcome:
    """The result of parsing one file, whatever happened.

    Exactly one of these holds per task:

    * ``config`` set — a successful parse (``diagnostics`` may still
      carry lenient-mode skips);
    * ``quarantined`` — the file was dropped under ``skip-file``/
      ``skip-block`` policy (``diagnostics`` names the reason);
    * ``error`` set — a strict-mode failure for the caller to re-raise.

    ``diagnostics`` is the parse's compact stream
    (:meth:`~repro.diag.DiagnosticSink.compact`): explicit rows plus
    :class:`~repro.diag.UnmodeledRun` entries over the config's
    ``unmodeled_stanzas``; merge it into a sink to read the rows.
    """

    source: str
    config: Optional[RouterConfig] = None
    diagnostics: Tuple[StreamEntry, ...] = ()
    quarantined: bool = False
    error: Optional[BaseException] = None
    cached: bool = False


def _parse_with_policy(
    text: str,
    source: str,
    on_error: str,
    sink: DiagnosticSink,
) -> Optional[RouterConfig]:
    """Parse one config under the given fault policy.

    Returns ``None`` when the file must be quarantined; strict mode lets
    the parser's exception propagate.
    """
    from repro.model.dialect import parse_any_config  # noqa: PLC0415 — cycle

    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(f"unknown on_error policy: {on_error!r}")
    if on_error == "strict":
        return parse_any_config(text, mode="strict", sink=sink, source=source)
    mode = "lenient" if on_error == "skip-block" else "strict"
    try:
        return parse_any_config(text, mode=mode, sink=sink, source=source)
    except Exception as exc:  # noqa: BLE001 — quarantine, never crash the run
        sink.error(
            PHASE_PARSE,
            f"quarantined unparseable file: {exc}",
            file=source,
            line_number=getattr(exc, "line_number", 0),
            line=getattr(exc, "line", ""),
        )
        return None


def parse_one(task: ParseTask) -> ParseOutcome:
    """Parse one task against a fresh sink; errors come back in the outcome."""
    sink = DiagnosticSink()
    try:
        config = _parse_with_policy(task.text, task.source, task.on_error, sink)
    except Exception as exc:  # noqa: BLE001 — re-raised by the caller, in order
        return ParseOutcome(
            source=task.source, diagnostics=sink.compact(), error=exc
        )
    return ParseOutcome(
        source=task.source,
        config=config,
        diagnostics=sink.compact(),
        quarantined=config is None,
    )


def check_jobs(jobs: Optional[int]) -> None:
    """Reject a negative ``jobs``: the one check of a value that is
    accepted for compatibility but no longer changes ingestion."""
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")


def parse_many(
    tasks: Sequence[ParseTask],
    *,
    cache: Union[ParseCache, str, None] = None,
) -> List[ParseOutcome]:
    """Parse all tasks through the cache; one outcome per task, in order.

    The caller folds diagnostics and raises strict-mode errors in task
    order.
    """
    cache = ParseCache.coerce(cache)
    outcomes: List[Optional[ParseOutcome]] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    # Every lookup happens before any store, so two files with the same
    # bytes both count as parsed on a cold cache.
    if cache is not None:
        for index, task in enumerate(tasks):
            keys[index] = key = cache.key(task.cache_data(), task.on_error)
            entry = cache.get(key)
            if entry is not None:
                outcomes[index] = ParseOutcome(
                    source=task.source,
                    config=entry.config,
                    diagnostics=entry.diagnostics,
                    quarantined=entry.quarantined,
                    cached=True,
                )
    pending = [index for index, outcome in enumerate(outcomes) if outcome is None]
    for index in pending:
        outcome = outcomes[index] = parse_one(tasks[index])
        if cache is not None and outcome.error is None:
            cache.put(
                keys[index],
                CacheEntry(
                    config=outcome.config,
                    diagnostics=outcome.diagnostics,
                    quarantined=outcome.quarantined,
                ),
            )
    return outcomes


def parse_stage(
    tasks: Sequence[ParseTask],
    *,
    cache: Union[ParseCache, str, None] = None,
) -> Tuple[List[ParseOutcome], Span]:
    """:func:`parse_many` as the ``stage:parse`` span, with its accounting.

    The returned span (nested in the active trace, if any) carries the
    item count, the parse attempts (``parsed``) and the cache replays
    (``cached``).  A file the parser quarantined counts as parsed.
    """
    with span("stage:parse") as stage:
        outcomes = parse_many(tasks, cache=cache)
        replayed = sum(outcome.cached for outcome in outcomes)
        parsed = len(tasks) - replayed
        stage.set(items=len(tasks), parsed=parsed, cached=replayed)
    metrics = get_registry()
    metrics.counter("ingest.parse.files").inc(len(tasks))
    metrics.counter("ingest.parse.parsed").inc(parsed)
    metrics.counter("ingest.parse.cached").inc(replayed)
    metrics.histogram("ingest.stage.parse.seconds").observe(stage.seconds)
    _log.info(
        "parse stage done",
        files=len(tasks),
        parsed=parsed,
        cached=replayed,
        seconds=round(stage.seconds, 4),
    )
    return outcomes, stage


__all__ = [
    "ON_ERROR_POLICIES",
    "ParseOutcome",
    "ParseTask",
    "check_jobs",
    "parse_many",
    "parse_one",
    "parse_stage",
]
