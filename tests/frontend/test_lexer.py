"""Tokenizer tests."""

import pytest

from repro.frontend.lexer import LexError, Token, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source_yields_eof_only(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        assert kinds("task foo var") == [
            ("keyword", "task"), ("ident", "foo"), ("keyword", "var"),
        ]

    def test_integer_literal(self):
        assert kinds("42") == [("int", "42")]

    def test_float_literals(self):
        assert kinds("3.5 1e3 2.5e-2") == [
            ("float", "3.5"), ("float", "1e3"), ("float", "2.5e-2"),
        ]

    def test_multichar_punctuation_wins(self):
        assert kinds("<= == -> &&") == [
            ("punct", "<="), ("punct", "=="), ("punct", "->"), ("punct", "&&"),
        ]

    def test_adjacent_punct_split_correctly(self):
        assert kinds("a<=b") == [
            ("ident", "a"), ("punct", "<="), ("ident", "b"),
        ]

    def test_underscore_identifiers(self):
        assert kinds("_x x_1") == [("ident", "_x"), ("ident", "x_1")]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == [("ident", "a"), ("ident", "b")]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* forever")


class TestLineNumbers:
    def test_lines_tracked_across_newlines(self):
        tokens = tokenize("a\nb\n\nc")
        lines = {t.text: t.line for t in tokens if t.kind == "ident"}
        assert lines == {"a": 1, "b": 2, "c": 4}

    def test_block_comment_advances_lines(self):
        tokens = tokenize("/* one\ntwo */ x")
        assert tokens[0].line == 2


class TestErrors:
    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_malformed_number_raises(self):
        with pytest.raises(LexError):
            tokenize("1.2.3")


class TestToken:
    def test_fields_repr_and_equality(self):
        token = Token("ident", "x", 3)
        assert (token.kind, token.text, token.line) == ("ident", "x", 3)
        assert repr(token) == "Token(kind='ident', text='x', line=3)"
        assert token == Token("ident", "x", 3)
        assert token != Token("ident", "x", 4)
        assert tokenize("x")[0] == Token("ident", "x", 1)
