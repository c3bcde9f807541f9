"""Frontend-AST → task-language source.

The reducer edits the parsed AST and needs to get back to compilable
source text; this module is the inverse of :func:`repro.frontend.parse`
up to formatting.  Parenthesization is deliberately conservative —
every binary/unary/cast operand is wrapped — so no precedence table has
to be kept in sync with the parser.  The round-trip property
(``parse(unparse(parse(s)))`` equals ``parse(s)`` structurally) is
pinned in ``tests/fuzz/test_reducer.py``.
"""

from __future__ import annotations

import math

from ..frontend import ast


def unparse_program(program: ast.Program) -> str:
    return "\n\n".join(_function(f) for f in program.functions) + "\n"


def _function(func: ast.FunctionDecl) -> str:
    params = ", ".join("%s: %s" % (p.name, p.type) for p in func.params)
    head = "%s %s(%s)" % ("task" if func.is_task else "func",
                          func.name, params)
    if func.return_type is not None and not func.is_task:
        head += " -> %s" % func.return_type
    lines = [head + " {"]
    lines.extend(_block(func.body, 1))
    lines.append("}")
    return "\n".join(lines)


def _block(body: list, depth: int) -> list:
    lines: list[str] = []
    for stmt in body:
        lines.extend(_stmt(stmt, depth))
    return lines


def _stmt(stmt: ast.Stmt, depth: int) -> list:
    pad = "  " * depth
    if isinstance(stmt, ast.If):
        lines = [pad + "if (%s) {" % _expr(stmt.cond)]
        lines.extend(_block(stmt.then_body, depth + 1))
        if stmt.else_body:
            lines.append(pad + "} else {")
            lines.extend(_block(stmt.else_body, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, ast.For):
        head = "for (%s; %s; %s) {" % (
            _inline_stmt(stmt.init), _expr(stmt.cond) if stmt.cond else "",
            _inline_stmt(stmt.step),
        )
        lines = [pad + head]
        lines.extend(_block(stmt.body, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, ast.While):
        lines = [pad + "while (%s) {" % _expr(stmt.cond)]
        lines.extend(_block(stmt.body, depth + 1))
        lines.append(pad + "}")
        return lines
    return [pad + _inline_stmt(stmt) + ";"]


def _inline_stmt(stmt) -> str:
    """A simple statement without the trailing semicolon (for-headers)."""
    if stmt is None:
        return ""
    if isinstance(stmt, ast.VarDecl):
        text = "var %s: %s" % (stmt.name, stmt.type)
        if stmt.init is not None:
            text += " = %s" % _expr(stmt.init)
        return text
    if isinstance(stmt, ast.Assign):
        return "%s = %s" % (_expr(stmt.target), _expr(stmt.value))
    if isinstance(stmt, ast.Return):
        if stmt.value is None:
            return "return"
        return "return %s" % _expr(stmt.value)
    if isinstance(stmt, ast.ExprStmt):
        return _expr(stmt.expr)
    if isinstance(stmt, ast.PrefetchStmt):
        return "prefetch(%s)" % _expr(stmt.address)
    raise TypeError("cannot unparse statement %r" % type(stmt).__name__)


def _expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.IntLiteral):
        return str(expr.value)
    if isinstance(expr, ast.FloatLiteral):
        return _float_text(expr.value)
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.BinaryExpr):
        return "(%s %s %s)" % (_expr(expr.lhs), expr.op, _expr(expr.rhs))
    if isinstance(expr, ast.UnaryExpr):
        return "(%s%s)" % (expr.op, _expr(expr.operand))
    if isinstance(expr, ast.IndexExpr):
        return "%s[%s]" % (_expr(expr.base), _expr(expr.index))
    if isinstance(expr, ast.CallExpr):
        return "%s(%s)" % (expr.callee,
                           ", ".join(_expr(a) for a in expr.args))
    if isinstance(expr, ast.CastExpr):
        return "(%s) (%s)" % (expr.target, _expr(expr.operand))
    raise TypeError("cannot unparse expression %r" % type(expr).__name__)


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("non-finite float literal %r" % value)
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = "%.12f" % value
    return text
