"""Configuration dialect detection and dispatch.

The paper's corpus was Cisco IOS, but real archives mix vendors.  This
module sniffs the dialect of a configuration file and dispatches to the
right front end, so :meth:`Network.from_directory` handles mixed-vendor
archives transparently.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.diag import DiagnosticSink
from repro.ios.config import RouterConfig
from repro.ios.parser import parse_config as parse_ios_config

#: Version of the parsing pipeline as a whole (dialect detection plus both
#: dialect front ends).  The content-addressed parse cache
#: (:mod:`repro.ingest.cache`) folds this into every key, so cached
#: results are only ever replayed against the parser that produced them.
#: **Bump this string whenever any parser's observable behavior changes** —
#: new commands modeled, different diagnostics, changed lenient recovery.
#: 2004.2: single-pass lexer rebuild of the IOS front end and a regex
#: tokenizer for JunOS (observable output is unchanged by design, but the
#: hot paths are new — a clean break keeps stale entries from ever
#: meeting the new code).
#: 2004.3: the IOS front end records each unmodeled stanza once
#: (``RouterConfig.unmodeled_stanzas``) instead of emitting its info row,
#: so cache entries carry a compact diagnostic stream.
PARSER_VERSION = "2004.3"

_JUNOS_HINT_RE = re.compile(
    r"^\s*(system|interfaces|protocols|routing-options|policy-options|firewall)\s*\{",
    re.MULTILINE,
)


def detect_dialect(text: str) -> str:
    """``"junos"`` for brace-structured configs, else ``"ios"``."""
    if _JUNOS_HINT_RE.search(text):
        return "junos"
    return "ios"


def parse_any_config(
    text: str,
    *,
    mode: str = "strict",
    sink: Optional[DiagnosticSink] = None,
    source: Optional[str] = None,
    block_cache: None = None,
) -> RouterConfig:
    """Parse a configuration file in whichever dialect it is written.

    ``mode``/``sink``/``source`` are forwarded to the dialect parser: in
    ``"lenient"`` mode, malformed statements are skipped with a
    :class:`repro.diag.Diagnostic` recorded against ``source``.  File-level
    failures (e.g. unbalanced JunOS braces) still raise in either mode.
    ``block_cache`` is kept for callers written against the removed
    stanza-level cache; it accepts ``None`` only and changes nothing.
    """
    if block_cache is not None:
        raise TypeError("block_cache accepts None only: the stanza-level cache was removed")
    if detect_dialect(text) == "junos":
        from repro.junos.parser import parse_junos_config  # noqa: PLC0415

        return parse_junos_config(text, mode=mode, sink=sink, source=source)
    return parse_ios_config(text, mode=mode, sink=sink, source=source)
