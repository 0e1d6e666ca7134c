"""Regex lexer for MiniC.

One compiled master pattern of named groups, one alternative per token
class, is matched across the source in a single pass (the technique of
lark's ``lexer="basic"``); the loop only dispatches on the group that
matched and tracks line starts. Alternatives are tried in order, so a
closed ``/* ... */`` comment wins over an unterminated opener, which
wins over the ``/`` operator, and a last catch-all group turns any
other character into an error instead of skipping it.

Identifiers and numbers are ASCII: ``[A-Za-z_][A-Za-z0-9_]*`` and
ASCII digits. Any other character, non-ASCII letters and digits
included, is an ``unexpected character`` error.

Lex errors carry a :class:`~repro.lang.diagnostics.Diagnostic`: the
rendered message always includes line/column and a caret-underlined
source excerpt (the worst offenders historically — an unterminated
``/* ... `` block comment and a stray character — used to point at
nothing useful).
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.lang.diagnostics import Diagnostic, Span
from repro.lang.tokens import KEYWORDS, TokKind, Token

_OPERATORS = {
    kind.value: kind
    for kind in TokKind
    if not kind.value.replace("_", "").isalnum()
}

_MASTER = re.compile(
    "|".join([
        r"(?P<space>[ \t\r\n]+)",
        r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
        r"(?P<hex>0[xX][0-9A-Za-z]*)",
        r"(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))",
        r"(?P<int>[0-9]+)",
        r"(?P<comment>//[^\n]*|/\*(?s:.*?)\*/)",
        r"(?P<unclosed>/\*)",
        # longest operators first: alternation takes the first match
        "(?P<op>" + "|".join(
            re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True)
        ) + ")",
        r"(?P<stray>(?s:.))",
    ])
)

_IDENT = TokKind.IDENT
_INT_LIT = TokKind.INT_LIT
_FLOAT_LIT = TokKind.FLOAT_LIT
_new = tuple.__new__  # Token(...) without the keyword-capable __new__


def _error(
    source: str,
    message: str,
    line: int,
    col: int,
    width: int = 1,
    hint: str | None = None,
    notes: tuple[str, ...] = (),
) -> LexError:
    return LexError(
        message,
        diagnostic=Diagnostic(
            message,
            Span(line, col, col + width),
            source=source,
            hint=hint,
            notes=notes,
        ),
    )


def tokenize(source: str) -> list[Token]:
    """Convert MiniC *source* into a token list ending with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    keywords = KEYWORDS.get
    operators = _OPERATORS
    line = 1
    line_start = 0  # source offset of the current line's first column
    for match in _MASTER.finditer(source):
        group = match.lastgroup
        text = match.group()
        if group == "space" or group == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        col = match.start() - line_start + 1
        if group == "word":
            kind = keywords(text, _IDENT)
            append(_new(Token, (kind, text, line, col, None)))
        elif group == "op":
            append(_new(Token, (operators[text], text, line, col, None)))
        elif group == "int":
            append(_new(Token, (_INT_LIT, text, line, col, int(text))))
        elif group == "float":
            append(_new(Token, (_FLOAT_LIT, text, line, col, float(text))))
        elif group == "hex":
            try:
                value = int(text, 16)
            except ValueError:
                raise _error(
                    source, f"invalid hex literal {text!r}", line, col,
                    width=len(text),
                ) from None
            append(_new(Token, (_INT_LIT, text, line, col, value)))
        elif group == "unclosed":
            raise _error(
                source,
                "unterminated block comment",
                line,
                col,
                width=2,
                hint="add the closing '*/'",
                notes=(
                    f"the comment opened here (line {line}) is "
                    "still open at end of input",
                ),
            )
        else:
            raise _error(source, f"unexpected character {text!r}", line, col)
    append(Token(TokKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
