"""Exception hierarchy for the engine.

Every error raised by the library derives from ModalgError so callers can
catch one type at the CLI boundary.
"""


class ModalgError(Exception):
    """Base class for all engine errors."""


class CapExceeded(ModalgError):
    """The instance is too large for explicit enumeration.

    Raised during an evaluation, `node` is the innermost node being evaluated
    and the message ends with its label.
    """

    node = None


class ArityMismatch(ModalgError):
    pass


class UnknownBuiltin(ModalgError):
    pass


class UnboundModuleVar(ModalgError):
    pass


UnboundSetVar = UnboundModuleVar  # a set variable is a module variable


class UnmappedVariable(ModalgError):
    """A relational variable maps to no vocabulary symbol (or a missing one)."""


class NonMonotoneDetected(ModalgError):
    """Defensive: a least-fixed-point iteration step shrank the set.

    Raised during an evaluation, `node` is the Lfp node whose round shrank
    the set and the message ends with its label.
    """

    node = None


class IllegalSelect(ModalgError):
    """A selection operand classifies as neither input nor output of the body."""


class IncompleteStructure(ModalgError):
    pass


class NonSingletonEncoding(ModalgError):
    pass


class NonPropositionalFormula(ModalgError):
    pass


class UnsafeRule(ModalgError):
    pass


class WellformednessError(ModalgError):
    """Raised by evaluators on ill-formed input (diagnostics list the cause)."""


class SpecSyntaxError(ModalgError):
    """Surface-syntax parse error, with line/column info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
