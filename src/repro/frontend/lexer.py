"""Tokenizer for the task language.

Outside comments the language is ASCII: digits and identifier characters
are ASCII only, and any other character there is a :class:`LexError`.
A number is digits with at most one ``.``, then optionally an exponent,
which needs at least one digit (``1e`` and ``2.5e+`` are malformed).
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple


class LexError(Exception):
    """Raised on input the tokenizer cannot classify."""


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'float' | 'punct' | 'keyword' | 'eof'
    text: str
    line: int


KEYWORDS = {
    "task", "func", "var", "if", "else", "for", "while", "return",
    "prefetch",
}

# Multi-character punctuation must be matched before single characters.
PUNCTUATION = [
    "&&", "||", "==", "!=", "<=", ">=", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "&", "|", "^",
]

# One alternative per token class, tried in order at each position; the
# last one takes any character no other alternative starts with.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<open>/\*)"
    r"|(?P<number>[0-9][0-9.]*(?:[eE][+-]?[0-9]*)?)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>%s)" % "|".join(re.escape(p) for p in PUNCTUATION)
    + r"|(?P<other>.)",
    re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; returns tokens ending with an ``eof`` token."""
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    line = 1
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "punct":
            yield Token("punct", text, line)
        elif kind == "word":
            yield Token("keyword" if text in KEYWORDS else "ident", text, line)
        elif kind == "space" or kind == "comment":
            line += text.count("\n")
        elif kind == "number":
            if text.isdigit():
                yield Token("int", text, line)
            elif text.count(".") > 1 or text[-1] in "eE+-":
                raise LexError("malformed number at line %d" % line)
            else:
                yield Token("float", text, line)
        elif kind == "open":
            raise LexError("unterminated block comment at line %d" % line)
        else:
            raise LexError("unexpected character %r at line %d" % (text, line))
    yield Token("eof", "", line)
