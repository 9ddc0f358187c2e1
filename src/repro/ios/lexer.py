"""Single-pass tokenizing lexer for IOS configuration text.

One scan over the raw text produces a *stanza stream*: each stanza is a
list of ``(line_number, indent, stripped_line)`` tokens, the first token
being the top-level command line.  Splitting lines into words and
building :class:`~repro.ios.blocks.ConfigBlock` trees is deferred to the
consumer (:func:`repro.ios.blocks.materialize_stanza`), so stanzas the
parser does not model — the overwhelming majority of lines in a real
config — are retained verbatim without ever paying for ``str.split()``
or node construction.

Boundary semantics are exactly those of the historical
``split_blocks`` loop:

* blank lines are skipped (they count toward neither total);
* ``line_count`` counts non-blank lines including comments,
  ``command_count`` excludes ``!`` comments (the Figure 4 quantities);
* a ``!`` comment/separator closes any open stanza, so an *indented*
  line that follows one starts a new top-level stanza (with a recorded
  indent of 0, mirroring the old stack reset);
* otherwise a line with indent 0 starts a stanza and an indented line
  continues the current one.

Indentation counts leading spaces only (tabs never indented in the old
implementation either, so a tab-led line is top-level).
"""

from __future__ import annotations

from typing import List, Tuple

#: One lexed line: ``(line_number, indent, stripped_line)``.
Token = Tuple[int, int, str]

#: One stanza: the top-level token followed by its indented lines.
Stanza = List[Token]


def lex_config(text: str) -> Tuple[List[Stanza], int, int]:
    """Lex configuration text into ``(stanzas, line_count, command_count)``."""
    stanzas: List[Stanza] = []
    append_stanza = stanzas.append
    current: Stanza = []
    open_stanza = False
    line_count = 0
    command_count = 0
    number = 0
    for raw in text.splitlines():
        number += 1
        line = raw.strip()
        if not line:
            continue
        line_count += 1
        if line[0] == "!":
            # Comment or separator: ends any open stanza.
            open_stanza = False
            continue
        command_count += 1
        if raw[0] != " ":  # fast path: no leading space means indent 0
            indent = 0
        else:
            indent = len(raw) - len(raw.lstrip(" "))
        if indent == 0 or not open_stanza:
            # A separator resets the nesting stack, so even an indented
            # line opens a fresh top-level stanza with indent 0.
            current = [(number, 0, line)]
            append_stanza(current)
            open_stanza = True
        else:
            current.append((number, indent, line))
    return stanzas, line_count, command_count


__all__ = ["Stanza", "Token", "lex_config"]
