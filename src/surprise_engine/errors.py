"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class FrameTooLarge(EngineError):
    """A frame or an operation exceeds its configured size cap."""


class FrameMismatch(EngineError):
    """Two values built over different product frames were combined."""


class TextError(EngineError):
    """Faulty input text; ``position``, when known, is the 0-based offset
    of the fault, and the message ends with its 1-based column."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position

    def __str__(self):
        base = super().__str__()
        if self.position is None:
            return base
        return f"{base} (at column {self.position + 1})"


class FormulaError(TextError):
    """A formula is invalid against its frame (unknown variable or value,
    boolean shorthand applied to a non-boolean variable)."""


class FormulaSyntaxError(FormulaError):
    """Malformed formula text; ``position`` is the offending offset."""


class InvalidMassFunction(EngineError):
    """Mass assignment violates the mass-function conditions."""


class EmptyEvidence(EngineError):
    """Conditioning on the empty set is undefined."""


class ConditioningUndefined(EngineError):
    """Conditioning evidence B has Bel(B complement) = 1."""


class SolverError(EngineError):
    """The LP kernel could not certify a result; never a silent failure."""


class IterationLimit(SolverError):
    """Pivot budget exhausted before the simplex terminated."""


class ConstraintError(TextError):
    """Malformed constraint text."""


class CompileError(EngineError):
    """Constraint set cannot be reduced to the supported linear forms."""


class InfeasibleSystem(EngineError):
    """A query was asked of a system with no feasible belief function."""


class QueryUndefinedEverywhere(EngineError):
    """The query's evidence guard is infeasible: every feasible belief
    function makes the conditioning undefined."""


class MonotonicityViolation(EngineError):
    """Calibration entries decrease in surprise as the ratio grows."""


class RatioOutOfRange(EngineError):
    """Announced ratio lies beyond the calibration saturation point."""


class DuplicateRatio(EngineError):
    """Two calibration entries normalize to the same ratio."""


class ScenarioError(EngineError):
    """Scenario file problem; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        base = super().__str__()
        if self.line is None:
            return base
        return f"line {self.line}: {base}"
