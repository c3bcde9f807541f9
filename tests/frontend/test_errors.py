"""Frontend error paths: malformed DSL raises *typed* errors.

The contract the fuzzer's negative mode
(:func:`repro.fuzz.generator.generate_invalid_program`) relies on:
every malformed input fails with ``LexError`` / ``ParseError`` /
``LoweringError`` carrying a message — never an arbitrary crash.
"""

from __future__ import annotations

import pytest

from repro.frontend import (
    LexError,
    LoweringError,
    ParseError,
    compile_source,
)

VALID = """
task t(A: f64*, n: i64) {
  var i: i64 = 0;
  for (i = 0; i < n; i = i + 1) {
    A[i] = A[i] * 2.0;
  }
}
"""


class TestLexErrors:
    def test_stray_character(self):
        with pytest.raises(LexError):
            compile_source(VALID.replace(";", "; $", 1), name="t")

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            compile_source(VALID + "/* dangling", name="t")

    @pytest.mark.parametrize("number", ["1e", "2.5e+", "3E-"])
    def test_exponent_without_digit(self, number):
        with pytest.raises(LexError, match="^malformed number at line 5$"):
            compile_source(VALID.replace("2.0", number), name="t")

    @pytest.mark.parametrize("text", ["²", "٣", "é"])
    def test_non_ascii_outside_comments(self, text):
        # A superscript digit, an Arabic-Indic digit and a letter: digits
        # and identifier characters are ASCII only.
        with pytest.raises(LexError, match="^unexpected character .* at line 5$"):
            compile_source(VALID.replace("2.0", text), name="t")

    def test_non_ascii_inside_comments_is_skipped(self):
        source = "// — line\n/* é² block */" + VALID
        compile_source(source, name="t")


class TestParseErrors:
    def test_unterminated_loop_body(self):
        source = VALID[:VALID.rstrip().rfind("}")]
        with pytest.raises(ParseError):
            compile_source(source, name="t")

    def test_bad_assignment_target(self):
        source = VALID.replace("{\n", "{\n  1 + 2 = 3;\n", 1)
        with pytest.raises(ParseError):
            compile_source(source, name="t")

    def test_missing_semicolon(self):
        source = VALID.replace("var i: i64 = 0;", "var i: i64 = 0")
        with pytest.raises(ParseError):
            compile_source(source, name="t")


class TestLoweringErrors:
    def test_undefined_variable(self):
        source = VALID.replace("{\n", "{\n  nope = 1;\n", 1)
        with pytest.raises(LoweringError):
            compile_source(source, name="t")

    def test_type_mismatch_pointer_from_float(self):
        source = VALID.replace("{\n", "{\n  var q: i64* = 3.5;\n", 1)
        with pytest.raises(LoweringError):
            compile_source(source, name="t")

    def test_indexing_non_pointer(self):
        source = VALID.replace("{\n", "{\n  n[0] = 1.0;\n", 1)
        with pytest.raises(LoweringError):
            compile_source(source, name="t")

    def test_unknown_callee(self):
        source = VALID.replace("{\n", "{\n  var x: f64 = nosuch(1.0);\n", 1)
        with pytest.raises(LoweringError):
            compile_source(source, name="t")

    def test_call_arity_mismatch(self):
        source = (
            "func h(a: f64) -> f64 {\n  return a;\n}\n"
            + VALID.replace("{\n", "{\n  var x: f64 = h(1.0, 2.0);\n", 1)
        )
        with pytest.raises(LoweringError):
            compile_source(source, name="t")

    def test_unknown_type_name(self):
        source = VALID.replace("var i: i64", "var i: i65", 1)
        with pytest.raises((LoweringError, ParseError)):
            compile_source(source, name="t")


class TestErrorsAreTyped:
    def test_messages_are_informative(self):
        try:
            compile_source(VALID.replace("{\n", "{\n  nope = 1;\n", 1),
                           name="t")
        except LoweringError as exc:
            assert "nope" in str(exc)
        else:
            pytest.fail("expected LoweringError")

    def test_fuzzer_negative_mode_contract(self):
        # The generator's invalid programs must stay inside the typed
        # error families they declare (spot check; the fuzz suite does
        # the wide sweep).
        from repro.fuzz.generator import generate_invalid_program

        for seed in range(20):
            invalid = generate_invalid_program(seed)
            with pytest.raises(invalid.expects):
                compile_source(invalid.source, name="invalid")
