"""IR emission for affine prefetch plans.

Turns an :class:`AffinePlan` (scan nests + prefetch address forms) into
a fresh task function whose only job is to prefetch — the Listing 1(c)
style access version.
"""

from __future__ import annotations

from ... import ir
from ...ir import Argument, Function, GlobalVariable, IRBuilder, Module, Value
from ...polyhedral.affine import AffineExpr
from ...polyhedral.codegen import Bound
from .affine import AccessNest, AffinePlan
from .forms import IndexForm


class EmitError(Exception):
    """Raised when a plan cannot be emitted (unknown symbol, etc.)."""


class _Env:
    """Resolves symbol names to IR values during emission."""

    def __init__(self, func: Function):
        self.func = func
        self.scan_vars: dict[str, Value] = {}

    def resolve(self, name: str) -> Value:
        value = self.scan_vars.get(name)
        if value is not None:
            return value
        for arg in self.func.args:
            if arg.name == name:
                return arg
        raise EmitError("unknown symbol %r during emission" % name)


def emit_access_function(task: Function, plan: AffinePlan,
                         module: Module | None = None,
                         name: str | None = None) -> Function:
    """Emit the access version of ``task`` from an affine plan."""
    access = Function(
        name or task.name + "_access",
        [a.type for a in task.args],
        [a.name for a in task.args],
        return_type=ir.VOID,
        is_task=True,
    )
    entry = access.add_block("entry")
    builder = IRBuilder(entry)
    env = _Env(access)

    for access_nest in plan.nests:
        builder = _emit_nest(access, builder, env, access_nest)

    builder.ret()
    if module is not None:
        module.add_function(access)
    ir.verify_function(access)
    return access


def _emit_nest(func: Function, builder: IRBuilder, env: _Env,
               access_nest: AccessNest) -> IRBuilder:
    return _emit_loops(func, builder, env, access_nest, 0)


def _emit_loops(func: Function, builder: IRBuilder, env: _Env,
                access_nest: AccessNest, level: int) -> IRBuilder:
    nest = access_nest.nest
    if level == len(nest.loops):
        _emit_prefetches(builder, env, access_nest)
        return builder

    spec = nest.loops[level]
    lower = _emit_bound_list(builder, env, spec.lowers, is_lower=True)
    upper = _emit_bound_list(builder, env, spec.uppers, is_lower=False)

    header = func.add_block("scan.cond")
    body = func.add_block("scan.body")
    latch = func.add_block("scan.inc")
    exit_block = func.add_block("scan.end")

    pre_block = builder.block
    builder.jump(header)
    builder.set_block(header)
    phi = builder.phi(ir.I64, name=spec.var)
    phi.add_incoming(lower, pre_block)
    cond = builder.cmp("sle", phi, upper)
    builder.condbr(cond, body, exit_block)

    env.scan_vars[spec.var] = phi

    builder.set_block(body)
    inner = _emit_loops(func, builder, env, access_nest, level + 1)
    inner.jump(latch)

    latch_builder = IRBuilder(latch)
    step = latch_builder.add(phi, ir.int_constant(1), name=spec.var + ".next")
    latch_builder.jump(header)
    phi.add_incoming(step, latch)

    env.scan_vars.pop(spec.var, None)
    return IRBuilder(exit_block)


def _emit_bound_list(builder: IRBuilder, env: _Env, bounds: list[Bound],
                     is_lower: bool) -> Value:
    values = [
        _emit_bound(builder, env, bound, is_lower) for bound in bounds
    ]
    result = values[0]
    for value in values[1:]:
        pred = "sgt" if is_lower else "slt"
        cond = builder.cmp(pred, value, result)
        result = builder.select(cond, value, result)
    return result


def _emit_bound(builder: IRBuilder, env: _Env, bound: Bound,
                is_lower: bool) -> Value:
    numerator = _emit_affine(builder, env, bound.expr)
    if bound.divisor == 1:
        return numerator
    divisor = ir.int_constant(bound.divisor)
    if is_lower:
        # ceil(a/b) = floor((a + b - 1) / b), b > 0
        numerator = builder.add(
            numerator, ir.int_constant(bound.divisor - 1)
        )
    # floor division for arbitrary-sign numerator, positive divisor:
    # a - ((a % b + b) % b) is the largest multiple of b below a.
    rem = builder.srem(numerator, divisor)
    rem = builder.add(rem, divisor)
    rem = builder.srem(rem, divisor)
    adjusted = builder.sub(numerator, rem)
    return builder.sdiv(adjusted, divisor)


def _emit_affine(builder: IRBuilder, env: _Env, expr: AffineExpr) -> Value:
    total: Value | None = None
    for sym in sorted(expr.coeffs):
        coeff = expr.coeffs[sym]
        if coeff.denominator != 1:
            raise EmitError("fractional coefficient in %r" % expr)
        value = env.resolve(sym)
        c = int(coeff)
        if c != 1:
            value = builder.mul(value, ir.int_constant(c))
        total = value if total is None else builder.add(total, value)
    if expr.const.denominator != 1:
        raise EmitError("fractional constant in %r" % expr)
    const = int(expr.const)
    if total is None:
        return ir.int_constant(const)
    if const != 0:
        total = builder.add(total, ir.int_constant(const))
    return total


def _emit_prefetches(builder: IRBuilder, env: _Env,
                     access_nest: AccessNest) -> None:
    emitted: set = set()
    for spec in access_nest.prefetches:
        key = (id(spec.base), spec.index.canonical())
        if key in emitted:
            continue  # "prefetch each address only once"
        emitted.add(key)
        index = _emit_index(builder, env, spec.index)
        base = _resolve_base(env, spec.base)
        address = builder.gep(base, index)
        builder.prefetch(address)


def _resolve_base(env: _Env, base: Value) -> Value:
    if isinstance(base, GlobalVariable):
        return base
    if isinstance(base, Argument):
        return env.resolve(base.name)
    raise EmitError("unsupported prefetch base %r" % base)


def _emit_index(builder: IRBuilder, env: _Env, form: IndexForm) -> Value:
    total: Value | None = None
    constant_acc = 0
    for term in form.terms:
        if term.scan_var is None and not term.params:
            constant_acc += term.coeff
            continue
        value: Value | None = None
        for param in term.params:
            resolved = env.resolve(param)
            value = resolved if value is None else builder.mul(value, resolved)
        if term.scan_var is not None:
            resolved = env.resolve(term.scan_var)
            value = resolved if value is None else builder.mul(value, resolved)
        assert value is not None
        if term.coeff != 1:
            value = builder.mul(value, ir.int_constant(term.coeff))
        total = value if total is None else builder.add(total, value)
    if total is None:
        return ir.int_constant(constant_acc)
    if constant_acc != 0:
        total = builder.add(total, ir.int_constant(constant_acc))
    return total
