"""Structural verifier for the repro IR.

Checks the invariants every pass must preserve; tests run the verifier
after each transformation.  Raises :class:`VerificationError` with a list
of findings on failure.
"""

from __future__ import annotations

from .function import Function, Module, predecessors_map
from .instructions import Instruction, Phi
from .values import Argument, Constant, GlobalVariable, Undef, Value


class VerificationError(Exception):
    """Raised when IR violates a structural invariant."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def verify_function(func: Function) -> None:
    problems: list[str] = []
    block_set = set(id(b) for b in func.blocks)

    for block in func.blocks:
        if not block.instructions:
            problems.append("block %s is empty" % block.name)
            continue
        term = block.terminator
        if term is None:
            problems.append("block %s lacks a terminator" % block.name)
        n_phis = len(block.phis())
        for i, inst in enumerate(block.instructions):
            if inst.parent is not block:
                problems.append(
                    "instruction %r in %s has wrong parent" % (inst, block.name)
                )
            if inst.is_terminator and inst is not block.instructions[-1]:
                problems.append("terminator mid-block in %s" % block.name)
            if isinstance(inst, Phi) and i >= n_phis:
                problems.append("phi after non-phi in %s" % block.name)
            _check_operands(inst, func, problems)
        if term is not None:
            for succ in term.successors():
                if id(succ) not in block_set:
                    problems.append(
                        "block %s branches to foreign block %s" % (block.name, succ.name)
                    )

    preds_of = predecessors_map(func)
    for block in func.blocks:
        preds = preds_of[block]
        actual = {id(b) for b in preds}
        for phi in block.phis():
            phi_preds = {id(b) for b in phi.incoming_blocks}
            if phi_preds != actual:
                problems.append(
                    "phi %s in %s has incoming {%s} but preds {%s}"
                    % (
                        phi.short_name(),
                        block.name,
                        ",".join(b.name for b in phi.incoming_blocks),
                        ",".join(b.name for b in preds),
                    )
                )

    _check_name_count(func, problems)
    if problems:
        raise VerificationError(problems)


def _check_name_count(func: Function, problems: list[str]) -> None:
    """The function's live-name count must equal a recount."""
    recount: dict[str, int] = {}
    for block in func.blocks:
        recount[block.name] = recount.get(block.name, 0) + 1
        for inst in block.instructions:
            if inst.name:
                recount[inst.name] = recount.get(inst.name, 0) + 1
    kept = func._names
    if kept != recount:
        for name in sorted(set(kept) | set(recount)):
            if kept.get(name, 0) != recount.get(name, 0):
                problems.append(
                    "name %r counted %d times but borne %d times"
                    % (name, kept.get(name, 0), recount.get(name, 0))
                )


def _check_operands(inst: Instruction, func: Function, problems: list[str]) -> None:
    for op in inst.operands:
        if not isinstance(op, Value):
            problems.append("non-Value operand on %r" % inst)
            continue
        if inst not in op.uses:
            problems.append(
                "use list of %s missing user %r" % (op.short_name(), inst)
            )
        if isinstance(op, Argument) and op not in func.args:
            problems.append("operand argument %s not in function" % op.name)
        if isinstance(op, Instruction) and op.function is not func:
            problems.append(
                "operand %s defined in another function" % op.short_name()
            )
        if not isinstance(op, (Instruction, Argument, Constant, GlobalVariable, Undef)):
            problems.append("operand %r has unknown kind" % op)


def verify_module(module: Module) -> None:
    problems: list[str] = []
    for func in module.functions.values():
        try:
            verify_function(func)
        except VerificationError as exc:
            problems.extend("%s: %s" % (func.name, p) for p in exc.problems)
    if problems:
        raise VerificationError(problems)
