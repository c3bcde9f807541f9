"""Delinearization and bridge-form tests."""

import pytest

from repro.analysis import AccessAnalysis
from repro.frontend import compile_source
from repro.transform import optimize_function
from repro.transform.access_phase import (
    DelinearizeError,
    FormError,
    IndexForm,
    SymbolTable,
    delinearize,
    linear_to_affine,
)
from repro.polyhedral import AffineExpr


def index_expr(source, task="t"):
    module = compile_source(source)
    func = module.function(task)
    optimize_function(func)
    analysis = AccessAnalysis(func)
    access = analysis.real_accesses()[0]
    return access.index, analysis


class Test1D:
    def test_flat_index(self):
        index, _ = index_expr(
            "task t(A: f64*, n: i64) { var i: i64;"
            " for (i = 0; i < n; i = i + 1) { A[i] = 0.0; } }"
        )
        result = delinearize(index)
        assert result.depth == 1
        assert result.strides == [()]

    def test_offset_index(self):
        index, _ = index_expr(
            "task t(A: f64*, n: i64, off: i64) { var i: i64;"
            " for (i = 0; i < n; i = i + 1) { A[i + off] = 0.0; } }"
        )
        result = delinearize(index)
        assert result.depth == 1


class Test2D:
    def test_row_major(self):
        index, _ = index_expr(
            "task t(A: f64*, N: i64, B: i64) { var i: i64; var j: i64;"
            " for (i = 0; i < B; i = i + 1) {"
            "  for (j = 0; j < B; j = j + 1) { A[i*N + j] = 0.0; } } }"
        )
        result = delinearize(index)
        assert result.depth == 2
        assert len(result.strides[0]) == 1  # N
        assert result.strides[1] == ()
        assert result.assumptions  # 0 <= j < N recorded

    def test_block_offsets_split_correctly(self):
        index, _ = index_expr(
            "task t(A: f64*, N: i64, B: i64, Ax: i64, Ay: i64) {"
            " var i: i64; var j: i64;"
            " for (i = 0; i < B; i = i + 1) {"
            "  for (j = 0; j < B; j = j + 1) {"
            "   A[(Ax+i)*N + Ay+j] = 0.0; } } }"
        )
        result = delinearize(index)
        assert result.depth == 2
        outer, inner = result.subscripts
        outer_params = {p.name for p in outer.parameters()}
        inner_params = {p.name for p in inner.parameters()}
        assert outer_params == {"Ax"}
        assert inner_params == {"Ay"}


class Test3D:
    def test_three_level_strides(self):
        index, _ = index_expr(
            "task t(A: f64*, N: i64, M: i64, B: i64) {"
            " var i: i64; var j: i64; var k: i64;"
            " for (i = 0; i < B; i = i + 1) {"
            "  for (j = 0; j < B; j = j + 1) {"
            "   for (k = 0; k < B; k = k + 1) {"
            "    A[i*N*M + j*M + k] = 0.0; } } } }"
        )
        result = delinearize(index)
        assert result.depth == 3
        stride_sizes = [len(s) for s in result.strides]
        assert stride_sizes == [2, 1, 0]


class TestFailures:
    def test_iv_product_fails(self):
        # craft i*j-like nonlinearity: multiply returns None upstream, so
        # delinearize never sees it; instead test an unfactorable mix.
        index, _ = index_expr(
            "task t(A: f64*, N: i64, M: i64, B: i64) {"
            " var i: i64; var j: i64;"
            " for (i = 0; i < B; i = i + 1) {"
            "  for (j = 0; j < B; j = j + 1) {"
            "   A[i*N + j*M] = 0.0; } } }"
        )
        with pytest.raises(DelinearizeError):
            delinearize(index)


class TestSymbolTable:
    def test_param_names_stable(self):
        _, analysis = index_expr(
            "task t(A: f64*, n: i64) { var i: i64;"
            " for (i = 0; i < n; i = i + 1) { A[i] = 0.0; } }"
        )
        table = SymbolTable()
        n = analysis.func.arg_named("n")
        assert table.param_name(n) == "n"
        assert table.param_value("n") is n

    def test_iv_names_unique(self):
        table = SymbolTable()
        from repro.ir import Phi, I64
        a, b = Phi(I64), Phi(I64)
        assert table.iv_name(a) != table.iv_name(b)
        assert table.iv_name(a) == table.iv_name(a)


class TestIndexForm:
    def test_from_subscripts_relinearizes(self):
        subs = [AffineExpr.symbol("x"), AffineExpr.symbol("y") + 2]
        form = IndexForm.from_subscripts(subs, [("N",), ()])
        assert form.evaluate({"x": 3, "y": 4, "N": 10}) == 36

    def test_canonical_combines_terms(self):
        a = IndexForm.from_subscripts([AffineExpr.symbol("x")], [()])
        b = IndexForm.from_subscripts([AffineExpr.symbol("x")], [()])
        assert a.canonical() == b.canonical()

    def test_fractional_coefficient_rejected(self):
        from fractions import Fraction
        subs = [AffineExpr({"x": Fraction(1, 2)})]
        with pytest.raises(FormError):
            IndexForm.from_subscripts(subs, [()])


class TestLinearToAffine:
    def test_rejects_param_coefficient_on_iv(self):
        index, analysis = index_expr(
            "task t(A: f64*, N: i64, B: i64) { var i: i64;"
            " for (i = 0; i < B; i = i + 1) { A[i*N] = 0.0; } }"
        )
        with pytest.raises(FormError):
            linear_to_affine(index, SymbolTable())
