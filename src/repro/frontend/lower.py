"""Lowering from the task-language AST to repro IR.

Lowering is deliberately naive: every local variable (and parameter) gets
a stack slot (alloca), and name references load from it.  The mem2reg
pass then promotes slots to SSA registers, exactly as Clang + LLVM do.
This keeps the lowering simple and gives the pass pipeline real work.
"""

from __future__ import annotations

from .. import ir
from . import ast


class LoweringError(Exception):
    """Raised when the AST cannot be mapped to IR (type errors, etc.)."""


_BASE_TYPE_MAP = {
    "i8": ir.I8,
    "i32": ir.I32,
    "i64": ir.I64,
    "f32": ir.F32,
    "f64": ir.F64,
}

_CMP_MAP = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}

_INT_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
            "&": "and", "|": "or", "^": "xor"}
_FLOAT_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}


def lower_type(ty: ast.TypeName) -> ir.Type:
    base = _BASE_TYPE_MAP.get(ty.name)
    if base is None:
        raise LoweringError("unknown type %s (line %d)" % (ty.name, ty.line))
    result: ir.Type = base
    for _ in range(ty.pointer_depth):
        result = ir.pointer_to(result)
    return result


class _FunctionLowerer:
    def __init__(self, module: ir.Module, decl: ast.FunctionDecl):
        self.module = module
        self.decl = decl
        ret = lower_type(decl.return_type) if decl.return_type else ir.VOID
        self.func = ir.Function(
            decl.name,
            [lower_type(p.type) for p in decl.params],
            [p.name for p in decl.params],
            return_type=ret,
            is_task=decl.is_task,
        )
        self.builder = ir.IRBuilder()
        self.slots: dict[str, ir.Value] = {}

    def lower(self) -> ir.Function:
        entry = self.func.add_block("entry")
        self.builder.set_block(entry)
        for arg in self.func.args:
            slot = self.builder.alloca(arg.type, name=arg.name + ".addr")
            self.builder.store(arg, slot)
            self.slots[arg.name] = slot
        self.lower_stmts(self.decl.body)
        # Fall-through return for void functions without explicit return.
        if self.builder.block is not None and self.builder.block.terminator is None:
            if not self.func.return_type.is_void():
                raise LoweringError(
                    "function %s may fall off the end without returning"
                    % self.func.name
                )
            self.builder.ret()
        self._prune_unreachable()
        return self.func

    def _prune_unreachable(self) -> None:
        """Drop blocks never targeted (created by returns inside branches)."""
        reachable = set()
        worklist = [self.func.entry]
        while worklist:
            block = worklist.pop()
            if id(block) in reachable:
                continue
            reachable.add(id(block))
            worklist.extend(block.successors())
        for block in list(self.func.blocks):
            if id(block) not in reachable:
                self.func.remove_block(block)

    # -- statements -----------------------------------------------------------

    def lower_stmts(self, stmts: list[ast.Stmt]) -> None:
        for stmt in stmts:
            if self.builder.block.terminator is not None:
                break  # dead code after return
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            ty = lower_type(stmt.type)
            slot = self.builder.alloca(ty, name=stmt.name)
            self.slots[stmt.name] = slot
            if stmt.init is not None:
                value = self.coerce(self.lower_expr(stmt.init), ty, stmt.line)
                self.builder.store(value, slot)
        elif isinstance(stmt, ast.Assign):
            self.lower_assign(stmt)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.Return):
            value = None
            if stmt.value is not None:
                value = self.coerce(
                    self.lower_expr(stmt.value), self.func.return_type, stmt.line
                )
            self.builder.ret(value)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.PrefetchStmt):
            address = self.lower_address(stmt.address)
            self.builder.prefetch(address)
        else:
            raise LoweringError("unhandled statement %r" % stmt)

    def lower_assign(self, stmt: ast.Assign) -> None:
        if isinstance(stmt.target, ast.Name):
            slot = self.slots.get(stmt.target.ident)
            if slot is None:
                raise LoweringError(
                    "assignment to unknown variable %s (line %d)"
                    % (stmt.target.ident, stmt.line)
                )
            ty = slot.type.pointee  # type: ignore[attr-defined]
            value = self.coerce(self.lower_expr(stmt.value), ty, stmt.line)
            self.builder.store(value, slot)
        elif isinstance(stmt.target, ast.IndexExpr):
            address = self.lower_address(stmt.target)
            ty = address.type.pointee  # type: ignore[attr-defined]
            value = self.coerce(self.lower_expr(stmt.value), ty, stmt.line)
            self.builder.store(value, address)
        else:
            raise LoweringError("invalid assignment target (line %d)" % stmt.line)

    def lower_if(self, stmt: ast.If) -> None:
        cond = self.as_bool(self.lower_expr(stmt.cond), stmt.line)
        then_block = self.func.add_block("if.then")
        merge_block = self.func.add_block("if.end")
        else_block = (
            self.func.add_block("if.else") if stmt.else_body else merge_block
        )
        self.builder.condbr(cond, then_block, else_block)

        self.builder.set_block(then_block)
        self.lower_stmts(stmt.then_body)
        if self.builder.block.terminator is None:
            self.builder.jump(merge_block)

        if stmt.else_body:
            self.builder.set_block(else_block)
            self.lower_stmts(stmt.else_body)
            if self.builder.block.terminator is None:
                self.builder.jump(merge_block)

        self.builder.set_block(merge_block)

    def lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header = self.func.add_block("for.cond")
        body = self.func.add_block("for.body")
        latch = self.func.add_block("for.inc")
        exit_block = self.func.add_block("for.end")

        self.builder.jump(header)
        self.builder.set_block(header)
        if stmt.cond is not None:
            cond = self.as_bool(self.lower_expr(stmt.cond), stmt.line)
            self.builder.condbr(cond, body, exit_block)
        else:
            self.builder.jump(body)

        self.builder.set_block(body)
        self.lower_stmts(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.jump(latch)

        self.builder.set_block(latch)
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        self.builder.jump(header)

        self.builder.set_block(exit_block)

    def lower_while(self, stmt: ast.While) -> None:
        header = self.func.add_block("while.cond")
        body = self.func.add_block("while.body")
        exit_block = self.func.add_block("while.end")

        self.builder.jump(header)
        self.builder.set_block(header)
        cond = self.as_bool(self.lower_expr(stmt.cond), stmt.line)
        self.builder.condbr(cond, body, exit_block)

        self.builder.set_block(body)
        self.lower_stmts(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.jump(header)

        self.builder.set_block(exit_block)

    # -- expressions -------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> ir.Value:
        if isinstance(expr, ast.IntLiteral):
            return ir.Constant(ir.I64, expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return ir.Constant(ir.F64, expr.value)
        if isinstance(expr, ast.Name):
            slot = self.slots.get(expr.ident)
            if slot is None:
                raise LoweringError(
                    "unknown variable %s (line %d)" % (expr.ident, expr.line)
                )
            return self.builder.load(slot, name=expr.ident)
        if isinstance(expr, ast.IndexExpr):
            address = self.lower_address(expr)
            return self.builder.load(address)
        if isinstance(expr, ast.BinaryExpr):
            return self.lower_binary(expr)
        if isinstance(expr, ast.UnaryExpr):
            return self.lower_unary(expr)
        if isinstance(expr, ast.CallExpr):
            callee = self.module.functions.get(expr.callee)
            if callee is None:
                raise LoweringError(
                    "call to unknown function %s (line %d)" % (expr.callee, expr.line)
                )
            args = []
            for param, arg_expr in zip(callee.args, expr.args):
                args.append(self.coerce(self.lower_expr(arg_expr), param.type, expr.line))
            if len(expr.args) != len(callee.args):
                raise LoweringError(
                    "call to %s with %d args, expected %d (line %d)"
                    % (expr.callee, len(expr.args), len(callee.args), expr.line)
                )
            return self.builder.call(callee, args)
        if isinstance(expr, ast.CastExpr):
            target = lower_type(expr.target)
            return self.coerce(self.lower_expr(expr.operand), target, expr.line)
        raise LoweringError("unhandled expression %r" % expr)

    def lower_address(self, expr: ast.Expr) -> ir.Value:
        """Lower an IndexExpr to the address of the element (a GEP)."""
        if not isinstance(expr, ast.IndexExpr):
            raise LoweringError("expected indexed expression (line %d)" % expr.line)
        base = self.lower_expr(expr.base)
        if not base.type.is_pointer():
            raise LoweringError(
                "indexing non-pointer value (line %d)" % expr.line
            )
        index = self.coerce(self.lower_expr(expr.index), ir.I64, expr.line)
        return self.builder.gep(base, index)

    def lower_binary(self, expr: ast.BinaryExpr) -> ir.Value:
        if expr.op in ("&&", "||"):
            lhs = self.as_bool(self.lower_expr(expr.lhs), expr.line)
            rhs = self.as_bool(self.lower_expr(expr.rhs), expr.line)
            op = "and" if expr.op == "&&" else "or"
            return self.builder.binop(op, lhs, rhs)
        lhs = self.lower_expr(expr.lhs)
        rhs = self.lower_expr(expr.rhs)
        lhs, rhs = self.unify(lhs, rhs, expr.line)
        if expr.op in _CMP_MAP:
            return self.builder.cmp(_CMP_MAP[expr.op], lhs, rhs)
        if lhs.type.is_float():
            op = _FLOAT_OPS.get(expr.op)
            if op is None:
                raise LoweringError(
                    "operator %s not valid on floats (line %d)" % (expr.op, expr.line)
                )
        elif lhs.type.is_pointer():
            # Pointer arithmetic: p + i is a GEP.
            if expr.op != "+":
                raise LoweringError(
                    "only + is allowed on pointers (line %d)" % expr.line
                )
            return self.builder.gep(lhs, rhs)
        else:
            op = _INT_OPS.get(expr.op)
            if op is None:
                raise LoweringError(
                    "operator %s not valid on ints (line %d)" % (expr.op, expr.line)
                )
        return self.builder.binop(op, lhs, rhs)

    def lower_unary(self, expr: ast.UnaryExpr) -> ir.Value:
        operand = self.lower_expr(expr.operand)
        if expr.op == "-":
            if operand.type.is_float():
                zero = ir.Constant(operand.type, 0.0)
                return self.builder.binop("fsub", zero, operand)
            zero = ir.Constant(operand.type, 0)
            return self.builder.binop("sub", zero, operand)
        if expr.op == "!":
            as_b = self.as_bool(operand, expr.line)
            return self.builder.binop("xor", as_b, ir.Constant(ir.BOOL, 1))
        raise LoweringError("unhandled unary %s (line %d)" % (expr.op, expr.line))

    # -- typing helpers -------------------------------------------------------------

    def as_bool(self, value: ir.Value, line: int) -> ir.Value:
        if value.type == ir.BOOL:
            return value
        if value.type.is_integer():
            return self.builder.cmp("ne", value, ir.Constant(value.type, 0))
        if value.type.is_pointer():
            raise LoweringError(
                "pointer used as condition; compare explicitly (line %d)" % line
            )
        return self.builder.cmp("ne", value, ir.Constant(value.type, 0.0))

    def unify(self, lhs: ir.Value, rhs: ir.Value, line: int):
        """Implicit numeric conversions for mixed-type binops."""
        if lhs.type == rhs.type:
            return lhs, rhs
        if lhs.type.is_pointer() and rhs.type.is_integer():
            return lhs, self.coerce(rhs, ir.I64, line)
        if lhs.type.is_float() or rhs.type.is_float():
            target = lhs.type if lhs.type.is_float() else rhs.type
            if lhs.type.is_float() and rhs.type.is_float():
                target = ir.F64 if 64 in (lhs.type.bits, rhs.type.bits) else ir.F32
            return self.coerce(lhs, target, line), self.coerce(rhs, target, line)
        if lhs.type.is_integer() and rhs.type.is_integer():
            target = lhs.type if lhs.type.bits >= rhs.type.bits else rhs.type
            return self.coerce(lhs, target, line), self.coerce(rhs, target, line)
        raise LoweringError(
            "cannot unify %r and %r (line %d)" % (lhs.type, rhs.type, line)
        )

    def coerce(self, value: ir.Value, target: ir.Type, line: int) -> ir.Value:
        if value.type == target:
            return value
        if isinstance(value, ir.Constant):
            if target.is_integer() and value.type.is_integer():
                return ir.Constant(target, value.value)
            if target.is_float():
                return ir.Constant(target, float(value.value))
        if value.type.is_integer() and target.is_integer():
            kind = "sext" if target.bits > value.type.bits else "trunc"
            return self.builder.cast(kind, value, target)
        if value.type.is_integer() and target.is_float():
            return self.builder.cast("sitofp", value, target)
        if value.type.is_float() and target.is_integer():
            return self.builder.cast("fptosi", value, target)
        if value.type.is_float() and target.is_float():
            kind = "fpext" if target.bits > value.type.bits else "fptrunc"
            return self.builder.cast(kind, value, target)
        raise LoweringError(
            "cannot convert %r to %r (line %d)" % (value.type, target, line)
        )


def lower_program(program: ast.Program, name: str = "module") -> ir.Module:
    """Lower a parsed program into an IR module.

    Functions are lowered in declaration order; calls may only reference
    functions declared earlier (the workload kernels obey this).
    """
    module = ir.Module(name)
    lowerers = []
    for decl in program.functions:
        lw = _FunctionLowerer(module, decl)
        module.add_function(lw.func)
        lowerers.append((lw, decl))
    for lw, _decl in lowerers:
        lw.lower()
    return module


def compile_source(source: str, name: str = "module") -> ir.Module:
    """Parse and lower task-language source into an (unoptimized) module."""
    from .parser import parse

    return lower_program(parse(source), name)
