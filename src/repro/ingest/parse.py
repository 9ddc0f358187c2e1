"""Cache-aware configuration parsing: one serial pass, merged in file order.

Every file is independent and the strict/lenient fault policy is applied
*per file*, so ingestion is one serial pass, :func:`parse_stage`, over
``(source, text, bytes)`` files:

* look each file up in the :class:`~repro.ingest.cache.ParseCache` by the
  hash of its bytes; a hit *replays* the config, diagnostics and
  quarantine decision of the parse that stored it;
* parse each miss against a **fresh, private**
  :class:`~repro.diag.DiagnosticSink`, and store the result;
* return one outcome per file, in file order — the caller merges the
  per-file diagnostics in that order, so the diagnostic stream is the
  same whichever files were replayed;
* a strict-mode parse failure is carried back in its outcome, never
  cached, and raised by the caller at the file's position: files earlier
  in the order contribute their diagnostics, files later contribute
  nothing.

There is no parse pool.  On the 1-CPU reference host a per-file process
pool parsed at 0.81x the serial rate (IPC costs more than a parse
saves); the one parallel grain left is the sweep's scenario pool
(:mod:`repro.sweep.runner`).  The public ingestion entry points still
accept ``jobs`` and reject a negative value with :func:`check_jobs`;
it no longer changes ingestion, so it goes no further.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.diag import PHASE_PARSE, DiagnosticSink, StreamEntry
from repro.ingest.cache import CacheEntry, ParseCache
from repro.ios.config import RouterConfig
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import Span, span

_log = get_logger("ingest")

#: Accepted ``on_error`` fault policies.
ON_ERROR_POLICIES = ("strict", "skip-block", "skip-file")


@dataclass
class ParseOutcome:
    """The result of parsing one file, whatever happened.

    Exactly one of these holds per file:

    * ``config`` set — a successful parse (``diagnostics`` may still
      carry lenient-mode skips);
    * ``quarantined`` — the file was dropped under ``skip-file``/
      ``skip-block`` policy (``diagnostics`` names the reason);
    * ``error`` set — a strict-mode failure for the caller to raise.

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


def check_on_error(on_error: str) -> None:
    """Reject an ``on_error`` value that is not a fault policy."""
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(f"unknown on_error policy: {on_error!r}")


def check_jobs(jobs: Optional[int]) -> None:
    """Reject a negative ``jobs``: the one check of a value that is
    accepted for compatibility but no longer changes ingestion."""
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")


def parse_stage(
    files: Sequence[Tuple[str, str, bytes]],
    on_error: str,
    *,
    cache: Union[ParseCache, str, None] = None,
) -> Tuple[List[ParseOutcome], Span]:
    """Parse ``(source, text, bytes)`` files through the cache, keyed by
    their bytes, as the ``stage:parse`` span; one outcome per file, in
    file order.  An unknown ``on_error`` raises before any lookup.

    The returned span (nested in the active trace, if any) carries the
    item count, the parse attempts (``parsed``) and the cache replays
    (``cached``).  A file the parser quarantined counts as parsed.
    """
    check_on_error(on_error)
    with span("stage:parse") as stage:
        cache = ParseCache.coerce(cache)
        keys: List[Optional[str]] = [None] * len(files)
        hits: List[Optional[CacheEntry]] = [None] * len(files)
        if cache is not None:
            # Every lookup happens before any store, so two files with the
            # same bytes both count as parsed on a cold cache.
            keys = [cache.key(data, on_error) for _source, _text, data in files]
            hits = [cache.get(key) for key in keys]
        outcomes: List[ParseOutcome] = []
        for (source, text, _data), key, hit in zip(files, keys, hits):
            if hit is not None:
                outcomes.append(
                    ParseOutcome(source, hit.config, hit.diagnostics, hit.quarantined, cached=True)
                )
                continue
            sink = DiagnosticSink()
            try:
                config = _parse_with_policy(text, source, on_error, sink)
            except Exception as exc:  # noqa: BLE001 — raised by the caller, at its file
                outcomes.append(ParseOutcome(source, diagnostics=sink.compact(), error=exc))
                continue
            outcome = ParseOutcome(source, config, sink.compact(), quarantined=config is None)
            if cache is not None:
                cache.put(key, CacheEntry(config, outcome.diagnostics, outcome.quarantined))
            outcomes.append(outcome)
        replayed = sum(outcome.cached for outcome in outcomes)
        parsed = len(files) - replayed
        stage.set(items=len(files), parsed=parsed, cached=replayed)
    metrics = get_registry()
    metrics.counter("ingest.parse.files").inc(len(files))
    metrics.counter("ingest.parse.parsed").inc(parsed)
    metrics.counter("ingest.parse.cached").inc(replayed)
    metrics.histogram("ingest.stage.parse.seconds").observe(stage.seconds)
    _log.info(
        "parse stage done",
        files=len(files),
        parsed=parsed,
        cached=replayed,
        seconds=round(stage.seconds, 4),
    )
    return outcomes, stage


__all__ = [
    "ON_ERROR_POLICIES",
    "ParseOutcome",
    "check_jobs",
    "check_on_error",
    "parse_stage",
]
