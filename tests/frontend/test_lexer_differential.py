"""The regex lexer against the character-at-a-time scanner it replaced.

``_reference_scan`` is the earlier ``_scan``, kept verbatim except that
it yields plain ``(kind, text, line)`` tuples.  Over ASCII input built
from the language's alphabet, keywords, numbers, comment markers and
stray characters, both must produce the same tokens, or ``LexError``s
with the same text.  The one intended difference is the exponent rule:
where the reference yields a float token whose exponent has no digit
(``1e``, ``2.5e+``), the lexer raises "malformed number" at that line.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.lexer import KEYWORDS, PUNCTUATION, LexError, tokenize


def _reference_scan(source: str):
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated block comment at line %d" % line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isdigit():
            j = i
            is_float = False
            while j < n and (source[j].isdigit() or source[j] == "."):
                if source[j] == ".":
                    if is_float:
                        raise LexError("malformed number at line %d" % line)
                    is_float = True
                j += 1
            if j < n and source[j] in "eE":
                is_float = True
                j += 1
                if j < n and source[j] in "+-":
                    j += 1
                while j < n and source[j].isdigit():
                    j += 1
            yield ("float" if is_float else "int", source[i:j], line)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            yield (kind, text, line)
            i = j
            continue
        for punct in PUNCTUATION:
            if source.startswith(punct, i):
                yield ("punct", punct, line)
                i += len(punct)
                break
        else:
            raise LexError("unexpected character %r at line %d" % (ch, line))
    yield ("eof", "", line)


def _expected(source: str):
    tokens = []
    try:
        for token in _reference_scan(source):
            kind, text, line = token
            if kind == "float" and text[-1] in "eE+-":
                return "malformed number at line %d" % line
            tokens.append(token)
    except LexError as exc:
        return str(exc)
    return tokens


def _actual(source: str):
    try:
        return [tuple(token) for token in tokenize(source)]
    except LexError as exc:
        return str(exc)


ALPHABET = (
    "abcxyzAEZ_e0123456789.&|=!<>-+*/%(){}[],;:^ \t\r\n"
    "$#@\"'\\~`?\f"
)
FRAGMENTS = sorted(KEYWORDS) + PUNCTUATION + [
    "//", "/*", "*/", "\n", "i64", "f64",
    "0", "42", "3.5", "1.", "1e3", "2.5e-2", "7E+1", "1e", "2.5e+", "3E-",
    "1.2.3", "9..", "x1", "_y",
]
SOURCES = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(ALPHABET, max_size=6)),
    max_size=24,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(SOURCES)
def test_lexer_matches_reference(source):
    assert _actual(source) == _expected(source)


def test_reference_cases_cover_every_outcome():
    cases = {
        "a /* b\n */ c": [("ident", "a", 1), ("ident", "c", 2),
                          ("eof", "", 2)],
        "x = 1e;": "malformed number at line 1",
        "\n1.2.3": "malformed number at line 2",
        "/* open": "unterminated block comment at line 1",
        "a\n$": "unexpected character '$' at line 2",
        "\f": "unexpected character '\\x0c' at line 1",
    }
    for source, want in cases.items():
        assert _expected(source) == want
        assert _actual(source) == want
