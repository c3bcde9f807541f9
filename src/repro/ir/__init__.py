"""A small SSA-style intermediate representation.

This package stands in for the LLVM IR layer the paper's compiler pass is
built on: typed values with use lists, basic blocks, functions/modules,
an IRBuilder, a verifier and a textual printer.
"""

from .basicblock import BasicBlock
from .builder import IRBuilder
from .function import Function, Module, predecessors_map
from .instructions import (
    BINARY_OPS,
    CMP_PREDICATES,
    GEP,
    Alloca,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBr,
    Instruction,
    Jump,
    Load,
    Phi,
    Prefetch,
    Ret,
    Select,
    Store,
    Terminator,
    int_constant,
)
from .printer import format_function, format_module
from .types import (
    BOOL,
    F32,
    F64,
    I8,
    I16,
    I32,
    I64,
    VOID,
    FloatType,
    IntType,
    PointerType,
    Type,
    VoidType,
    pointer_to,
)
from .values import Argument, Constant, GlobalVariable, Undef, Value
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "BasicBlock", "IRBuilder", "Function", "Module", "predecessors_map",
    "BINARY_OPS", "CMP_PREDICATES", "GEP", "Alloca", "BinOp", "Call", "Cast",
    "Cmp", "CondBr", "Instruction", "Jump", "Load", "Phi", "Prefetch", "Ret",
    "Select", "Store", "Terminator", "int_constant",
    "format_function", "format_module",
    "BOOL", "F32", "F64", "I8", "I16", "I32", "I64", "VOID",
    "FloatType", "IntType", "PointerType", "Type", "VoidType", "pointer_to",
    "Argument", "Constant", "GlobalVariable", "Undef", "Value",
    "VerificationError", "verify_function", "verify_module",
]
