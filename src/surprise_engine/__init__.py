"""Belief-function reasoning driven by measured surprise.

Declare fragments of belief as constraints over belief functions; the
engine answers feasibility, tight bounds on queried (conditional)
beliefs, minimum-commitment belief functions, and surprise ranges.
"""

from .belief import MassFunction, belief_table, leq_committed, mobius_transform, zeta_transform
from .calibration import CalibrationCurve, build_curve
from .constraints import (
    BelTerm,
    BoundsResult,
    CompiledSystem,
    Constraint,
    FeasibilityResult,
    bounds,
    compile_constraints,
    conflict_core,
    constraint_satisfied,
    evaluate_term,
    feasible,
    lower_envelope,
    mincommit,
    parse_constraint,
    surprise_report,
)
from .errors import (
    CompileError,
    ConditioningUndefined,
    ConstraintError,
    DuplicateRatio,
    EmptyEvidence,
    EngineError,
    FormulaError,
    FormulaSyntaxError,
    FrameMismatch,
    FrameTooLarge,
    InfeasibleSystem,
    InvalidMassFunction,
    IterationLimit,
    MonotonicityViolation,
    QueryUndefinedEverywhere,
    RatioOutOfRange,
    ScenarioError,
    SolverError,
)
from .frames import (
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    ProductFrame,
    SubsetOfTheta,
    extension,
    parse_formula,
    pretty,
    satisfies,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .solver import LinearProgram, SolveResult, solve

__version__ = "0.1.0"
