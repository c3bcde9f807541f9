"""IR interpreters (reference and fast) and simulated memory."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "interpreter": ("UNDEF", "ExecutionTrace", "InterpError", "Interpreter",
                    "MemoryEvent"),
    "fast": ("FastInterpreter", "INTERP_CHOICES", "resolve_interp"),
    "decode": ("DecodedFunction", "decode_function", "decode_stats",
               "invalidate_decode", "reset_decode_stats"),
    "memory": ("Allocation", "MemoryError_", "SimMemory"),
    "trace": ("KIND_NAMES", "PhaseTrace", "TaskTrace", "TraceStore"),
})
