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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Union

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


class DiagnosticSink:
    """Collects :class:`Diagnostic` records for one pipeline run."""

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []

    # -- emission ----------------------------------------------------------

    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def info(self, phase: str, message: str, **fields: object) -> Diagnostic:
        return self.emit(Diagnostic(INFO, phase, message, **fields))  # type: ignore[arg-type]

    def warning(self, phase: str, message: str, **fields: object) -> Diagnostic:
        return self.emit(Diagnostic(WARNING, phase, message, **fields))  # type: ignore[arg-type]

    def error(self, phase: str, message: str, **fields: object) -> Diagnostic:
        return self.emit(Diagnostic(ERROR, phase, message, **fields))  # type: ignore[arg-type]

    def extend(self, other: "DiagnosticSink") -> None:
        self.diagnostics.extend(other.diagnostics)

    def merge(self, other: Union["DiagnosticSink", Iterable[Diagnostic]]) -> "DiagnosticSink":
        """Fold another sink's (or iterable's) diagnostics into this one.

        Appends in the other collection's order and returns ``self`` so
        per-file sinks can be chained back together in file order:
        merging N sinks one after another yields exactly the
        diagnostic stream — and therefore the same severity counts and
        :meth:`exit_code` — a single shared sink would have collected.
        """
        if isinstance(other, DiagnosticSink):
            self.diagnostics.extend(other.diagnostics)
        else:
            for diagnostic in other:
                if not isinstance(diagnostic, Diagnostic):
                    raise TypeError(
                        f"cannot merge non-Diagnostic value: {diagnostic!r}"
                    )
                self.diagnostics.append(diagnostic)
        return self

    # -- queries -----------------------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        # A sink is always truthy so ``sink or None`` style tests are not
        # confused by an empty-but-present collector.
        return True

    def counts(self) -> Dict[str, int]:
        """``{severity: count}`` over all collected diagnostics."""
        totals = {severity: 0 for severity in SEVERITIES}
        for diagnostic in self.diagnostics:
            totals[diagnostic.severity] += 1
        return totals

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    @property
    def has_warnings(self) -> bool:
        return any(d.severity == WARNING for d in self.diagnostics)

    def for_file(self, file: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.file == file]

    def by_severity(self, severity: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

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
