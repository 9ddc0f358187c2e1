"""Corpus-level scheduling: walk the archives in order, account for each.

The paper's workload is 31 *independent* networks analyzed in one batch.
:class:`CorpusScheduler` runs the whole per-archive pipeline (ingest →
all analysis stages) for each archive in corpus order, one at a time,
and returns one :class:`ArchiveOutcome` per archive in that order.

Archives are not run concurrently: on the 1-CPU reference host,
analyzing four archives on four threads took 0.61x the serial rate.
The one parallel grain is the sweep's scenario pool
(:mod:`repro.sweep.runner`).

Failure semantics compose with the executor:

* the executor's ``--fail-fast`` abort event is shared; archives that
  have not *started* when it trips are reported as skipped outcomes
  (never silently dropped);
* a ``BaseException`` escaping a worker (``SimulatedKill``, strict-mode
  parse errors raised as ``SystemExit``, ``KeyboardInterrupt``)
  propagates at once, so no later archive starts.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.trace import span


def archive_name(path: str) -> str:
    """The display name of an archive path (its trailing component)."""
    return os.path.basename(path.rstrip(os.sep)) or path


@dataclass
class ArchiveOutcome:
    """What happened to one scheduled archive.

    ``skipped`` — the archive never started (the shared abort tripped);
    otherwise ``value`` is the worker's return value.
    """

    path: str
    name: str
    skipped: bool = False
    value: Any = None


class CorpusScheduler:
    """Runs one worker callable per archive, in archive order.

    *abort* is an optional :class:`threading.Event` (in practice the
    executor's ``--fail-fast`` signal): once set, archives that have not
    started are skipped instead of run.
    """

    def __init__(self, *, abort: Optional[threading.Event] = None):
        self._abort = abort

    def run(
        self, paths: Sequence[str], worker: Callable[[str], Any]
    ) -> List[ArchiveOutcome]:
        """Run ``worker(path)`` for every archive; outcomes in archive order."""
        outcomes = []
        for path in paths:
            outcome = ArchiveOutcome(path=path, name=archive_name(path))
            outcomes.append(outcome)
            if self._abort is not None and self._abort.is_set():
                outcome.skipped = True
            else:
                with span(f"archive:{outcome.name}"):
                    outcome.value = worker(path)
        return outcomes


__all__ = [
    "ArchiveOutcome",
    "CorpusScheduler",
    "archive_name",
]
