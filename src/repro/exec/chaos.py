"""Injectable hang/raise/kill hooks for exercising the executor.

The watchdog and exception-barrier paths are only trustworthy if they are
tested against *real* hangs and *real* exceptions, at the exact point a
production stage would produce them.  This module is that injection
point: the executor calls :meth:`ChaosPlan.trigger` at the top of every
stage attempt, inside the watchdog-guarded thread, and the plan decides
whether to misbehave.

A plan is parsed from a spec string (the ``REPRO_CHAOS`` environment
variable, so subprocess-level tests and the CI chaos job can inject
without code changes)::

    REPRO_CHAOS="<archive>:<stage>=<action>[;<archive>:<stage>=<action>...]"

* ``archive`` / ``stage`` — ``fnmatch`` patterns (``*`` matches all);
* ``action`` — one of
  - ``raise`` — raise :class:`ChaosError` (exception-barrier path),
  - ``hang`` — spin forever in pure Python (hard-deadline path; the
    loop is unwound by the watchdog's async cancel),
  - ``hang:S`` — spin for ``S`` seconds, then continue (soft-deadline
    path),
  - ``kill`` — raise :class:`SimulatedKill` (a ``BaseException`` that
    no barrier catches), aborting the whole run mid-flight the way
    SIGKILL would, with whatever checkpoints were already written,
  - ``io-error`` — raise :class:`OSError` from *store writes* instead
    of stage attempts: the clause's first field fnmatch-targets the
    destination **path**, its second the store kind — the prefix of the
    :mod:`repro.store` core doing the write (``cache`` for
    :class:`~repro.ingest.cache.ParseCache`, ``checkpoint`` for
    :class:`~repro.exec.checkpoint.CheckpointStore`).  Those writes
    are best-effort by contract, so the injected error exercises the
    degrade-silently-never-crash paths (``*.write_failures`` metrics);
* ``action@N`` — only fire on attempt ``N`` (0 = the full-fidelity
  attempt), so degradation-ladder retries can be made to succeed.

``REPRO_CHAOS=@/path/to/spec`` reads the spec from a file **at plan
build time**: a long-running daemon (``repro serve``) builds a fresh
plan per analysis generation, so editing the file flips chaos on or off
in a live process whose environment cannot be changed from outside.  A
missing file is an empty plan.

Hangs sleep in small pure-Python slices so the watchdog's injected
:class:`~repro.exec.watchdog.StageCancelled` lands at the next bytecode
boundary — exactly the behavior of a runaway analysis loop.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import List, Optional, Tuple

#: Environment variable holding the chaos spec.
CHAOS_ENV = "REPRO_CHAOS"

_HANG_SLICE_SECONDS = 0.005


class ChaosError(RuntimeError):
    """The injected stage exception (caught by the stage barrier)."""


class SimulatedKill(BaseException):
    """An uncatchable-by-barrier abort: the in-process stand-in for
    SIGKILL.  Propagates out of the executor and the CLI; checkpoints
    written before it fires survive on disk."""


@dataclass(frozen=True)
class ChaosRule:
    """One parsed ``archive:stage=action[@attempt]`` clause."""

    archive: str
    stage: str
    action: str  # "raise" | "hang" | "kill" | "io-error"
    seconds: Optional[float] = None  # hang duration; None = forever
    attempt: Optional[int] = None  # only fire on this attempt index

    def matches(self, archive: str, stage: str, attempt: int) -> bool:
        return (
            fnmatch(archive, self.archive)
            and fnmatch(stage, self.stage)
            and (self.attempt is None or self.attempt == attempt)
        )


def parse_chaos(spec: str) -> List[ChaosRule]:
    """Parse a chaos spec string into rules (raises ``ValueError`` on junk)."""
    rules: List[ChaosRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        try:
            target, action = clause.split("=", 1)
            archive, stage = target.rsplit(":", 1)
        except ValueError:
            raise ValueError(
                f"bad chaos clause {clause!r} (want archive:stage=action)"
            ) from None
        attempt: Optional[int] = None
        if "@" in action:
            action, attempt_text = action.rsplit("@", 1)
            attempt = int(attempt_text)
        seconds: Optional[float] = None
        if action.startswith("hang:"):
            seconds = float(action.split(":", 1)[1])
            action = "hang"
        if action not in ("raise", "hang", "kill", "io-error"):
            raise ValueError(f"unknown chaos action {action!r} in {clause!r}")
        rules.append(
            ChaosRule(
                archive=archive.strip() or "*",
                stage=stage.strip() or "*",
                action=action,
                seconds=seconds,
                attempt=attempt,
            )
        )
    return rules


@dataclass
class ChaosPlan:
    """The active set of chaos rules for one executor."""

    rules: Tuple[ChaosRule, ...] = ()

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> "ChaosPlan":
        return cls(rules=tuple(parse_chaos(spec)) if spec else ())

    @classmethod
    def from_env(cls) -> "ChaosPlan":
        """The plan demanded by ``$REPRO_CHAOS`` (empty when unset).

        A value of ``@/path`` is indirection: the spec is re-read from
        that file on every call, so a live daemon rebuilding its plan per
        generation picks up edits.  A missing or unreadable file — and a
        malformed spec inside one, since chaos must never take down the
        process it is probing — yields the empty plan.
        """
        spec = os.environ.get(CHAOS_ENV)
        if spec and spec.startswith("@"):
            try:
                with open(spec[1:], "r", encoding="utf-8") as handle:
                    spec = handle.read().strip()
            except OSError:
                return cls()
            try:
                return cls.from_spec(spec)
            except ValueError:
                return cls()
        return cls.from_spec(spec)

    def __bool__(self) -> bool:
        return bool(self.rules)

    def trigger(self, archive: str, stage: str, attempt: int = 0) -> None:
        """Misbehave if any rule matches; called at the top of a stage
        attempt, inside the watchdog-guarded thread."""
        for rule in self.rules:
            if rule.action == "io-error":
                continue  # fires from store writes, not stage attempts
            if not rule.matches(archive, stage, attempt):
                continue
            if rule.action == "raise":
                raise ChaosError(
                    f"injected failure in stage {stage!r} of {archive!r}"
                )
            if rule.action == "kill":
                raise SimulatedKill(
                    f"injected kill in stage {stage!r} of {archive!r}"
                )
            # hang: sleep in pure-Python slices so async cancellation
            # (StageCancelled) is delivered between bytecodes.
            start = time.perf_counter()
            while (
                rule.seconds is None
                or time.perf_counter() - start < rule.seconds
            ):
                time.sleep(_HANG_SLICE_SECONDS)
            return

    def io_error(self, kind: str, path: str) -> None:
        """Raise :class:`OSError` if an ``io-error`` rule targets this
        store write.  ``kind`` is the store (``cache`` / ``checkpoint``)
        matched against the rule's stage field; ``path`` is the
        destination file matched against its archive field."""
        for rule in self.rules:
            if rule.action != "io-error":
                continue
            if fnmatch(str(path), rule.archive) and fnmatch(kind, rule.stage):
                raise OSError(
                    f"injected io-error writing {kind} entry {path!r}"
                )


# Store writes are hot paths scattered across modules that must not each
# re-parse $REPRO_CHAOS; memoize plain specs (file-indirected @specs are
# deliberately re-read so a daemon can be retargeted live, but those are
# test-only configurations where the open() cost is acceptable).
_io_plan_cache: Tuple[Optional[str], Optional[ChaosPlan]] = (None, None)


def maybe_io_error(kind: str, path: str) -> None:
    """Module-level hook for store writes: raise an injected ``OSError``
    when ``$REPRO_CHAOS`` carries a matching ``io-error`` rule.

    Returns instantly when the variable is unset; tolerates malformed
    specs (chaos must never break the write path it probes).
    """
    global _io_plan_cache
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    if spec.startswith("@"):
        plan = ChaosPlan.from_env()
    else:
        cached_spec, cached_plan = _io_plan_cache
        if cached_spec == spec and cached_plan is not None:
            plan = cached_plan
        else:
            try:
                plan = ChaosPlan.from_spec(spec)
            except ValueError:
                plan = ChaosPlan()
            _io_plan_cache = (spec, plan)
    plan.io_error(kind, path)


__all__ = [
    "CHAOS_ENV",
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "SimulatedKill",
    "maybe_io_error",
    "parse_chaos",
]
