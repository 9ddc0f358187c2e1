"""Structured diagnostics for the ingestion pipeline.

Real configuration archives are messy: truncated files, unknown commands,
duplicated hostnames, binary droppings from collection scripts.  The
paper's method only works if the analyzer degrades gracefully on such
input and reports *precisely* what it skipped.  This module is the shared
vocabulary for that reporting:

* :class:`Diagnostic` — one finding: severity, pipeline phase, file,
  router, line number, message, and the offending source line;
* :class:`DiagnosticSink` — an append-only collector threaded through a
  parse/build/analysis run, with severity counts and the exit-code
  convention used by the CLI (0 clean, 1 warnings, 2 errors).

Parsers emit into a sink when running in lenient mode;
:class:`repro.model.network.Network` attaches the sink of the run that
built it, so callers can always ask a network what was swept under the
rug on the way in.

Most rows of a real archive are one info row per IOS stanza outside the
modeled subset ("unmodeled command: X").  The IOS parser does not build
those: it records each stanza once, as ``(line_number, head_line)`` on
:attr:`repro.ios.config.RouterConfig.unmodeled_stanzas`, and the sink
holds an :class:`UnmodeledRun` — a slice of that record list — at the
stanzas' place in the stream.  Severity counts, ``len()`` and the exit
code never build a row (the runs are all info); iterating the sink
expands each run through :meth:`UnmodeledRun.rows` into exactly the
rows an eager sink would hold, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

# Severity levels, mildest first.  ``info`` records tolerated oddities
# (e.g. unmodeled commands), ``warning`` recoverable problems the pipeline
# papered over (e.g. a renamed duplicate hostname), ``error`` content that
# was dropped (a skipped block or quarantined file).
INFO = "info"
WARNING = "warning"
ERROR = "error"

SEVERITIES = (INFO, WARNING, ERROR)

# Pipeline phases a diagnostic can originate from.
PHASE_READ = "read"
PHASE_PARSE = "parse"
PHASE_BUILD = "build"
PHASE_ANALYSIS = "analysis"

# CLI exit-code convention: 0 clean, 1 warnings only, 2 any error,
# 3 run completed but some analysis stages finished degraded / timed
# out / failed (``repro corpus`` with the resilient executor).
EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2
EXIT_DEGRADED = 3


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding from the ingestion pipeline."""

    severity: str
    phase: str
    message: str
    file: Optional[str] = None
    router: Optional[str] = None
    line_number: int = 0
    line: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity!r}")

    def __str__(self) -> str:
        where = self.file or self.router or "<input>"
        if self.line_number:
            where = f"{where}:{self.line_number}"
        text = f"{self.severity}: {where}: [{self.phase}] {self.message}"
        if self.line:
            text = f"{text} | {self.line!r}"
        return text


#: One IOS stanza outside the modeled subset: ``(line_number, head_line)``.
UnmodeledStanza = Tuple[int, str]

#: A row as :class:`Diagnostic`'s fields, in declaration order.
Row = Tuple[str, str, str, Optional[str], Optional[str], int, str]


class UnmodeledRun(NamedTuple):
    """``stanzas[start:stop]`` of one parse of ``file``, at one place in a
    diagnostic stream: one info row per stanza, built only when read."""

    stanzas: Sequence[UnmodeledStanza]
    start: int
    stop: int
    file: Optional[str]

    @property
    def size(self) -> int:
        return self.stop - self.start

    def rows(self) -> Iterator[Row]:
        """The run's rows: ``info [parse] unmodeled command: <head>``,
        no router, at the stanza's head line."""
        file = self.file
        for line_number, line in islice(self.stanzas, self.start, self.stop):
            message = "unmodeled command: " + line.split(None, 1)[0]
            yield (INFO, PHASE_PARSE, message, file, None, line_number, line)

    def diagnostics(self) -> Iterator[Diagnostic]:
        """The run's rows, built."""
        for row in self.rows():
            yield Diagnostic(*row)


#: One entry of a sink's stream: an explicit row or a deferred run.
StreamEntry = Union[Diagnostic, UnmodeledRun]


class DiagnosticSink:
    """Collects :class:`Diagnostic` records for one pipeline run.

    The stream holds explicit rows and :class:`UnmodeledRun` entries.  A
    parser opens a run with :meth:`open_unmodeled` and appends stanza
    records to the list it returns; a row emitted while the run is open
    splits it, so every record keeps its place relative to the explicit
    rows.
    """

    def __init__(self) -> None:
        self._stream: List[StreamEntry] = []
        #: The open run: its record list, the first record not yet in the
        #: stream, and its file.
        self._open: Optional[Tuple[List[UnmodeledStanza], int, Optional[str]]] = None

    # -- emission ----------------------------------------------------------

    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        self._settle()
        self._stream.append(diagnostic)
        return diagnostic

    def info(self, phase: str, message: str, **fields: object) -> Diagnostic:
        return self.emit(Diagnostic(INFO, phase, message, **fields))  # type: ignore[arg-type]

    def warning(self, phase: str, message: str, **fields: object) -> Diagnostic:
        return self.emit(Diagnostic(WARNING, phase, message, **fields))  # type: ignore[arg-type]

    def error(self, phase: str, message: str, **fields: object) -> Diagnostic:
        return self.emit(Diagnostic(ERROR, phase, message, **fields))  # type: ignore[arg-type]

    def open_unmodeled(self, file: Optional[str]) -> List[UnmodeledStanza]:
        """Open a run for one parse of ``file``; returns its record list.

        Each ``(line_number, head_line)`` appended to the list stands for
        the row :meth:`UnmodeledRun.diagnostics` builds, placed in the
        stream where it was appended: every emit, merge and read first
        moves the records appended so far into the stream.  The run stays
        open until the next call.
        """
        self._settle()
        stanzas: List[UnmodeledStanza] = []
        self._open = (stanzas, 0, file)
        return stanzas

    def _settle(self) -> None:
        """Move the open run's records appended so far into the stream."""
        if self._open is not None:
            stanzas, start, file = self._open
            stop = len(stanzas)
            if stop > start:
                self._stream.append(UnmodeledRun(stanzas, start, stop, file))
                self._open = (stanzas, stop, file)

    def merge(
        self, other: Union["DiagnosticSink", Iterable[StreamEntry]]
    ) -> "DiagnosticSink":
        """Fold another sink's (or iterable's) stream into this one.

        Appends in the other collection's order and returns ``self`` so
        per-file sinks can be chained back together in file order:
        merging N sinks one after another yields exactly the
        diagnostic stream — and therefore the same severity counts and
        :meth:`exit_code` — a single shared sink would have collected.
        Runs stay deferred; any value that is neither a
        :class:`Diagnostic` nor an :class:`UnmodeledRun` raises
        :class:`TypeError`.
        """
        if isinstance(other, DiagnosticSink):
            entries: Sequence[StreamEntry] = other.compact()
        else:
            entries = tuple(other)
            for entry in entries:
                if not isinstance(entry, (Diagnostic, UnmodeledRun)):
                    raise TypeError(f"cannot merge non-Diagnostic value: {entry!r}")
        self._settle()
        self._stream.extend(entries)
        return self

    # -- queries -----------------------------------------------------------

    def _entries(self) -> List[StreamEntry]:
        self._settle()
        return self._stream

    def compact(self) -> Tuple[StreamEntry, ...]:
        """The stream as explicit rows and runs, no row built: what a
        parse outcome and a parse-cache entry carry."""
        return tuple(self._entries())

    def __iter__(self) -> Iterator[Diagnostic]:
        for entry in self._entries():
            if isinstance(entry, Diagnostic):
                yield entry
            else:
                yield from entry.diagnostics()

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """Every row, runs expanded, in stream order."""
        return list(self)

    def rows(self) -> Iterator[Row]:
        """Every row as its fields, in stream order, without building a
        :class:`Diagnostic` for the runs' rows."""
        for entry in self._entries():
            if isinstance(entry, Diagnostic):
                yield (
                    entry.severity,
                    entry.phase,
                    entry.message,
                    entry.file,
                    entry.router,
                    entry.line_number,
                    entry.line,
                )
            else:
                yield from entry.rows()

    def __len__(self) -> int:
        return sum(
            1 if isinstance(entry, Diagnostic) else entry.size
            for entry in self._entries()
        )

    def __bool__(self) -> bool:
        # A sink is always truthy so ``sink or None`` style tests are not
        # confused by an empty-but-present collector.
        return True

    def _explicit(self) -> Iterator[Diagnostic]:
        return (entry for entry in self._stream if isinstance(entry, Diagnostic))

    def counts(self) -> Dict[str, int]:
        """``{severity: count}`` over all collected diagnostics."""
        totals = {severity: 0 for severity in SEVERITIES}
        for entry in self._entries():
            if isinstance(entry, Diagnostic):
                totals[entry.severity] += 1
            else:
                totals[INFO] += entry.size
        return totals

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self._explicit())

    @property
    def has_warnings(self) -> bool:
        return any(d.severity == WARNING for d in self._explicit())

    def for_file(self, file: str) -> List[Diagnostic]:
        return [d for d in self if d.file == file]

    def by_severity(self, severity: str) -> List[Diagnostic]:
        return [d for d in self if d.severity == severity]

    def exit_code(self) -> int:
        """The CLI convention: 0 clean, 1 warnings only, 2 any error."""
        if self.has_errors:
            return EXIT_ERRORS
        if self.has_warnings:
            return EXIT_WARNINGS
        return EXIT_CLEAN

    def summary(self) -> str:
        counts = self.counts()
        return (
            f"{counts[ERROR]} error(s), {counts[WARNING]} warning(s), "
            f"{counts[INFO]} info"
        )

    def __repr__(self) -> str:
        return f"DiagnosticSink({self.summary()})"


__all__ = [
    "Diagnostic",
    "DiagnosticSink",
    "StreamEntry",
    "UnmodeledRun",
    "UnmodeledStanza",
    "SEVERITIES",
    "INFO",
    "WARNING",
    "ERROR",
    "PHASE_READ",
    "PHASE_PARSE",
    "PHASE_BUILD",
    "PHASE_ANALYSIS",
    "EXIT_CLEAN",
    "EXIT_WARNINGS",
    "EXIT_ERRORS",
    "EXIT_DEGRADED",
]
