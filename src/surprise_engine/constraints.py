"""The user-facing constraint language over belief fragments and its
reduction to linear systems over a column basis of the mass function.

A constraint relates linear combinations of belief terms, e.g.::

    Bel(not STRIKE) = 0.3
    Bel(M | P) = c
    Bel(PARTY) = Bel(PARTY | RAIN)
    Bel(TEMP=med or TEMP=low) > Bel(TEMP=med) + Bel(TEMP=low)

A row sees a mass function only through ``Bel`` of the sets it names,
so the LP columns are the nonempty sets of the intersection closure of
the frame and every named set, not the 2^|theta| subsets.  A focal set
lies inside a named set iff the least column containing it does, so
moving each focal set's mass onto that column changes no row, and a
point of the columns is itself a mass function (Fagin & Halpern 1991).
The move can only lower ``Bel(S)`` of a subset ``S``, so the lower
envelope reads ``min Bel(S)`` off the basis as it stands.
``bounds`` refines the basis by its query's sets, and the envelope of a
parameterized system by every subset; a finer basis is just as exact.
:func:`extend` lowers only the constraints it adds onto a compiled
system, whose basis their sets refine; :func:`compile_constraints` is
``extend`` of the system with no constraint.

Unconditional terms are linear in the columns directly.  A single
conditional term against constants is cleared of its denominator through
``Bel(A|B) = (Bel(A or not B) - Bel(not B)) / (1 - Bel(not B))``, and the
guard ``Bel(not B) < 1`` keeps that denominator positive.  An equality
between two terms of which at least one is conditional gets a scalar
parameter for the shared value.

Strict rows are exact.  Each strict row and each guard shares one slack
column ``delta >= 0`` in the LP: ``a.m + delta <= c`` for ``a.m < c``.
The strict system is feasible iff ``delta`` can be made positive, and
bounds optimize over its closure, ``delta >= 0``, with an end open when
no point that attains it meets every strict row strictly.

One branch-and-prune routine searches the box of parameter values,
tightened first at the root; each cell relaxes the parameterized rows to
interval rows, and a parameter-free system is the zero-dimensional box.
Feasibility searches depth-first; each end of bounds gets a best-first
search keyed by the cells' relaxed optima.  A compiled system keeps its
box, with the root relaxation's program and every probed cell, from the
first call that searches it, so ``feasible``, ``bounds``,
``conflict_core`` and ``lower_envelope`` on one system share one phase 1
per cell; on a parameter-free system each LP starts from the last one's
optimal basis.  A query is a quotient of two linear functions of the columns,
optimized over a cell by Dinkelbach's method.  The lower envelope walks
the subsets by size and runs a best-first search only for a subset whose
value the witnesses found so far and its own subsets' values leave open.

An infeasible system is explained by an irreducible conflicting subset
of its constraints, found by a deletion filter.  Each deletion test cuts
its subsystem out of the compiled rows instead of compiling it again,
and searches its parameter box.  When the root relaxation of an
infeasible set is infeasible too, the Farkas certificate that phase 1
leaves on it names a conflicting subset, which seeds the filter and
shrinks the core after every test that stays infeasible; this holds
with parameters or without.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import count
from math import fsum, isfinite
from typing import Sequence

import numpy as np

from .belief import MassFunction, mobius_transform, zeta_transform
from .errors import (
    CompileError,
    ConditioningUndefined,
    ConstraintError,
    FormulaError,
    FrameTooLarge,
    InfeasibleSystem,
    InvalidMassFunction,
    QueryUndefinedEverywhere,
)
from .frames import (
    Formula,
    Not,
    ProductFrame,
    Tokens,
    extension_bits,
    formula_at,
    pretty,
    tokenize,
)
from .solver import INFEASIBLE, LinearProgram, solve

# LP optima at or below this count as zero: the largest slack delta, the
# Dinkelbach gap max(num - v*den) and the largest denominator.
ZERO_TOL = 1e-9
DEFAULT_MAX_PARAMETERS = 2
DEFAULT_COMPILE_MAX_THETA = 12
MINCOMMIT_MAX_THETA = 12
_MIN_CELL_WIDTH = 2.0 ** -30
_PROBE_CAP = 20_000


@dataclass(frozen=True)
class BelTerm:
    """A belief fragment ``Bel(target)`` or ``Bel(target | evidence)``."""

    target: Formula
    evidence: Formula | None = None

    def render(self, frame: ProductFrame | None = None) -> str:
        if self.evidence is None:
            return f"Bel({pretty(self.target, frame)})"
        return f"Bel({pretty(self.target, frame)} | {pretty(self.evidence, frame)})"


_RELOPS = frozenset(("=", "<=", ">=", "<", ">"))
_SIGNS = frozenset(("+", "-"))


@dataclass(frozen=True)
class Constraint:
    """Normalized relation ``sum(coef * term) relop const``."""

    terms: tuple[tuple[float, BelTerm], ...]
    relop: str
    const: float
    text: str = ""

    def __post_init__(self):
        if not self.terms:
            raise ConstraintError("a constraint needs at least one belief term")
        if self.relop not in _RELOPS:
            raise ConstraintError(f"unknown relational operator {self.relop!r}")

    def render(self, frame: ProductFrame | None = None) -> str:
        if self.text:
            return self.text
        parts = []
        for coef, term in self.terms:
            body = term.render(frame)
            parts.append(body if coef == 1.0 else f"{coef:g}*{body}")
        return " + ".join(parts) + f" {self.relop} {self.const:g}"


# ---------------------------------------------------------------------------
# Constraint surface syntax (the grammar is in ``frames``)

def _expected(what: str, tokens: Tokens, i: int) -> ConstraintError:
    kind, value, pos = tokens.kinds[i], tokens.values[i], tokens.offset(i)
    if kind == "bad":
        return ConstraintError(f"unexpected character {value!r}", pos)
    return ConstraintError(f"expected {what}, found {value!r}" if value else f"expected {what}", pos)


def bel_term_at(tokens: Tokens, i: int, frame: ProductFrame) -> tuple[BelTerm, int]:
    """The belief term ``Bel(target [| evidence])`` whose name ``Bel`` is
    token ``i``, and the index of the token after it.  Every error is a
    :class:`ConstraintError` at its position in the tokenized text."""
    kinds = tokens.kinds
    if kinds[i + 1] != "(":
        raise _expected("'(' after Bel", tokens, i + 1)
    try:
        target, i = formula_at(tokens, i + 2, frame)
        evidence = None
        if kinds[i] == "|":
            evidence, i = formula_at(tokens, i + 1, frame)
    except FormulaError as exc:
        raise ConstraintError(f"inside Bel(...): {exc.args[0]}", exc.position) from exc
    if kinds[i] == "|":
        raise ConstraintError("more than one '|' inside Bel(...)", tokens.offset(i))
    if kinds[i] != ")":
        raise _expected("')' to close Bel(...)", tokens, i)
    return BelTerm(target, evidence), i + 1


def parse_constraint(text: str, frame: ProductFrame,
                     constants: dict[str, float] | None = None) -> Constraint:
    """Parse a relation between linear combinations of belief terms.

    Identifiers outside formulas are symbolic constants resolved through
    ``constants``; an unresolved name is an error, and so is a number,
    constant or sum of them that is not finite.
    """
    constants = constants or {}
    tokens = tokenize(text)
    kinds, values = tokens.kinds, tokens.values
    # each distinct term and its coefficient, in order of first mention;
    # a repeated term is found by comparing trees, which stops at their
    # first difference, where hashing one walks the whole tree
    terms: list[BelTerm] = []
    coefs: list[float] = []
    consts = {1.0: 0.0, -1.0: 0.0}
    relop = None
    i = 0
    for side in (1.0, -1.0):  # the left side's terms add, the right side's subtract
        while True:
            sign = 1.0
            while kinds[i] in _SIGNS:
                if kinds[i] == "-":
                    sign = -sign
                i += 1
            start, kind, value = i, kinds[i], values[i]
            coef = None
            if kind == "number":
                coef = float(value)
                i += 1
            elif kind == "name" and value != "Bel":
                if value not in constants:
                    raise ConstraintError(f"constant {value!r} has no value", tokens.offset(i))
                coef = constants[value]
                i += 1
            if coef is not None and not isfinite(coef):
                raise ConstraintError(f"{kind if kind == 'number' else 'constant'} {value!r} "
                                      "is not finite", tokens.offset(start))
            if coef is not None and kinds[i] == "*":
                i += 1
                if values[i] != "Bel":
                    raise _expected("Bel(...) after '*'", tokens, i)
            if values[i] == "Bel":
                term, i = bel_term_at(tokens, i, frame)
                weight = side * sign * (1.0 if coef is None else coef)
                for k, seen in enumerate(terms):
                    if seen == term:
                        coefs[k] += weight
                        if not isfinite(coefs[k]):
                            raise ConstraintError(
                                f"the coefficients of {term.render(frame)} add up to a number "
                                "that is not finite", tokens.offset(start))
                        break
                else:
                    terms.append(term)
                    coefs.append(weight)
            elif coef is not None:
                consts[side] += sign * coef
                if not isfinite(consts[side]):
                    raise ConstraintError("the constants add up to a number that is not finite",
                                          tokens.offset(start))
            else:
                raise _expected("a term", tokens, i)
            if kinds[i] not in _SIGNS:
                break
        kind = kinds[i]
        if kind in _RELOPS and relop is None:
            relop, relop_at, i = kind, i, i + 1
        elif kind in _RELOPS or kind == "end" and relop is None:
            raise ConstraintError("a constraint needs exactly one relational operator, found "
                                  + (f"a second {values[i]!r}" if relop else "none"),
                                  tokens.offset(i))
        elif kind != "end":
            raise _expected("'+' or '-'" if relop else "'+', '-' or a relational operator",
                            tokens, i)
    merged = tuple((coef, term) for term, coef in zip(terms, coefs) if coef != 0.0)
    if not merged:
        raise ConstraintError("constraint has no belief term")
    const = consts[-1.0] - consts[1.0]
    if not isfinite(const):
        raise ConstraintError("the constants add up to a number that is not finite",
                              tokens.offset(relop_at))
    return Constraint(merged, relop, const, text=text.strip())


# ---------------------------------------------------------------------------
# Compilation

@dataclass(frozen=True, eq=False)
class StaticRow:
    """Row ``coeffs.m relop const``; a strict row holds with the shared
    slack ``delta`` in every program: ``<=`` rows read ``coeffs.m + delta
    <= const`` and ``>=`` rows ``coeffs.m - delta >= const``."""

    coeffs: np.ndarray
    relop: str  # "<=", ">=", "="
    const: float
    origin: int | str
    strict: bool = False


@dataclass(frozen=True, eq=False)
class ParamRow:
    """Row ``L(m) + t * R(m) = 0`` with ``L(m) = L_coeffs.m - L_const`` and
    ``R(m) = R_coeffs.m - R_const``; ``R(m)`` is nonpositive by construction
    (it is minus the conditioning normalizer, or exactly -1)."""

    l_coeffs: np.ndarray
    l_const: float
    r_coeffs: np.ndarray
    r_const: float
    param: int
    origin: int


@dataclass(eq=False)
class CompiledSystem:
    """A constraint set lowered onto its column basis.

    ``columns`` are the nonempty sets of the intersection closure of the
    whole frame and every set a row mentions, in bitmask order.  Column
    ``C`` carries the mass of every focal set whose closure, the least
    column that contains it, is ``C``: a focal set lies inside a
    mentioned set iff its closure does, so each row reads the same on a
    mass function and on its columns, and a point of the columns is
    itself a mass function focused on them.  A finer basis (see
    :func:`refine`) is just as exact.

    ``box`` is the parameter box that every call on the system searches,
    built by the first and kept for the rest (see :func:`_box`).  Calls
    that should share it must land on the same object: ``subsystem`` of
    every constraint and ``refine`` by sets already in the basis return
    the system itself.  Nothing else is cached, and nothing outlives the
    system."""

    frame: ProductFrame
    constraints: tuple[Constraint, ...]
    columns: tuple[int, ...]
    static_rows: list[StaticRow]
    param_rows: list[ParamRow]
    num_params: int
    # per constraint, the guard bits ``not g`` of each evidence ``g`` it
    # conditions on, in term order
    conditions: tuple[tuple[int, ...], ...] = ()
    # the parameter box every call on this system shares (see _box)
    box: _Box | None = field(default=None, init=False, repr=False)

    @cached_property
    def strict(self) -> bool:
        """Has the system strict rows or guards, so that its programs
        carry the slack column ``delta``?"""
        return any(row.strict for row in self.static_rows)

    @cached_property
    def column_bits(self) -> np.ndarray:
        return np.array(self.columns, dtype=np.int64 if self.frame.theta_size < 63 else object)

    def bel_vector(self, bits: int) -> np.ndarray:
        """Coefficient vector of ``Bel`` of the subset: the indicator of the
        columns inside it.  Exact for every intersection of basis sets."""
        return ((self.column_bits & ~bits) == 0).astype(float)


def _closure(columns: Sequence[int], sets) -> tuple[int, ...]:
    """The nonempty sets of the intersection closure of ``columns``, a
    closed family that holds the whole frame, and ``sets``, in bitmask
    order."""
    family = set(columns)
    for bits in sets:
        if bits not in family:
            family |= {c & bits for c in family}
    family.discard(0)
    return tuple(sorted(family))


def compile_constraints(constraints: Sequence[Constraint], frame: ProductFrame, *,
                        max_theta: int = DEFAULT_COMPILE_MAX_THETA,
                        max_parameters: int = DEFAULT_MAX_PARAMETERS) -> CompiledSystem:
    """Lower constraints to rows over their column basis: :func:`extend`
    of the system with no constraint, whose one column is the frame.

    Raises :class:`FrameTooLarge` over the cap and :class:`CompileError`
    for relations outside the supported linear forms or needing more than
    ``max_parameters`` parameters.
    """
    if frame.theta_size > max_theta:
        raise FrameTooLarge(f"frame has {frame.theta_size} points; compile cap is {max_theta}")
    empty = CompiledSystem(frame, (), (frame.full_bits,), [], [], 0)
    return extend(empty, constraints, max_parameters=max_parameters)


def extend(system: CompiledSystem, constraints: Sequence[Constraint], *,
           max_parameters: int = DEFAULT_MAX_PARAMETERS) -> CompiledSystem:
    """The system with ``constraints`` added after its own, the inverse of
    :func:`subsystem`: only the new constraints are lowered.  Their sets
    refine the basis (see :func:`refine`), their rows follow the system's
    and the guards of the whole set come last, so extending a compiled
    set gives the rows that compiling the longer set gives, over the same
    columns when the system's basis is that of its own constraints.

    Raises :class:`CompileError` as :func:`compile_constraints` does."""
    frame = system.frame
    # each term as (coef, extension of its target or, for a conditional,
    # of ``f or not g``, and ``not g`` or None), and each constraint's
    # parameter or None
    forms = []
    num_params = system.num_params
    for con in constraints:
        terms = []
        for coef, term in con.terms:
            f = extension_bits(frame, term.target)
            if term.evidence is None:
                terms.append((coef, f, None))
            else:
                not_g = frame.full_bits ^ extension_bits(frame, term.evidence)
                terms.append((coef, f | not_g, not_g))
        param = None
        if len(terms) > 1 and any(not_g is not None for _, _, not_g in terms):
            if not (con.relop == "=" and con.const == 0.0 and len(terms) == 2
                    and sorted(c for c, _, _ in terms) == [-1.0, 1.0]):
                raise CompileError(
                    f"constraint {con.render(frame)!r} mixes conditional belief terms "
                    "nonlinearly; supported forms are a single conditional term against "
                    "constants, or an equality between two belief terms")
            # equality of two belief terms, at least one conditional: one
            # parameter for the shared value
            num_params += 1
            if num_params > max_parameters:
                raise CompileError(
                    f"constraint set needs more than {max_parameters} parameters")
            param = num_params - 1
        forms.append((terms, param))

    columns = _closure(system.columns, {bits for terms, _ in forms for _, u, not_g in terms
                                        for bits in (u, not_g) if bits is not None})
    # a system with no constraint has no rows to carry onto the new basis
    base = _rebase(system, columns) if system.constraints else system
    conditions = tuple(tuple(not_g for _, _, not_g in terms if not_g is not None)
                       for terms, _ in forms)
    system = CompiledSystem(frame, base.constraints + tuple(constraints), columns,
                            [r for r in base.static_rows if not isinstance(r.origin, str)],
                            list(base.param_rows), num_params, base.conditions + conditions)
    # finite coefficients may still add up past the largest float: such a
    # row does not compile
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (con, (terms, param)) in enumerate(zip(constraints, forms),
                                                    start=len(base.constraints)):
            if param is not None:
                for _, u, not_g in terms:
                    system.param_rows.append(_param_row(system, u, not_g, param, idx))
                continue
            const = con.const
            strict = con.relop in ("<", ">")
            relop = {"<": "<=", ">": ">="}.get(con.relop, con.relop)
            coef, u, not_g = terms[0]
            if not_g is not None:  # the only term is conditional
                # k * Bel(f|g) relop c, cleared through the normalizer:
                # k*Bel(f or not g) + (c-k)*Bel(not g) relop c
                coeffs = coef * system.bel_vector(u) + (const - coef) * system.bel_vector(not_g)
            else:
                coeffs = np.zeros(len(system.columns))
                for coef, f, _ in terms:
                    coeffs += coef * system.bel_vector(f)
            if not (isfinite(const) and np.isfinite(coeffs).all()):
                raise CompileError(f"constraint {con.render(frame)!r} overflows: "
                                   "its row holds a number that is not finite")
            system.static_rows.append(StaticRow(coeffs, relop, const, idx, strict))
    system.static_rows += _guard_rows(system)
    return system


def _guard_rows(system: CompiledSystem) -> list[StaticRow]:
    """The guards ``Bel(not g) < 1``, one per evidence ``g`` that some
    constraint conditions on, in order of first mention and owned by the
    first constraint that mentions it."""
    owners: dict[int, int] = {}
    for idx, guards in enumerate(system.conditions):
        for bits in guards:
            owners.setdefault(bits, idx)
    return [StaticRow(system.bel_vector(bits), "<=", 1.0, f"guard:{idx}", strict=True)
            for bits, idx in owners.items()]


def _owner(row: StaticRow | ParamRow) -> int:
    """The index of the constraint that owns a row."""
    return int(row.origin[len("guard:"):]) if isinstance(row.origin, str) else row.origin


def subsystem(system: CompiledSystem, keep: Sequence[int]) -> CompiledSystem:
    """The system of the constraints numbered ``keep``, in that order, cut
    out of the compiled rows: what :func:`compile_constraints` gives for
    those constraints, without compiling them.

    The static and parameterized rows of the kept constraints stay, each
    owned by its constraint's new number, and the parameters are numbered
    again in order.  A guard stays iff a kept constraint conditions on its
    evidence, owned by the first of them.  Keeping every constraint in
    order gives the system itself, and with it the box its calls share."""
    if list(keep) == list(range(len(system.constraints))):
        return system
    new = {old: idx for idx, old in enumerate(keep)}
    sub = CompiledSystem(system.frame, tuple(system.constraints[i] for i in keep),
                         system.columns, [], [], 0, tuple(system.conditions[i] for i in keep))
    for row in sorted((r for r in system.static_rows
                       if not isinstance(r.origin, str) and r.origin in new),
                      key=lambda r: new[r.origin]):
        sub.static_rows.append(replace(row, origin=new[row.origin]))
    sub.static_rows += _guard_rows(sub)
    params: dict[int, int] = {}
    for pr in sorted((pr for pr in system.param_rows if pr.origin in new),
                     key=lambda pr: new[pr.origin]):
        param = params.setdefault(pr.param, len(params))
        sub.param_rows.append(replace(pr, param=param, origin=new[pr.origin]))
    sub.num_params = len(params)
    return sub


def _param_row(system: CompiledSystem, u: int, not_g: int | None, param: int,
               origin: int) -> ParamRow:
    if not_g is None:
        # Bel(f) = t  <=>  Bel(f) - t = 0
        return ParamRow(system.bel_vector(u), 0.0, np.zeros(len(system.columns)), 1.0,
                        param, origin)
    # Bel(f|g) = t  <=>  [Bel(u) - Bel(not g)] + t*[Bel(not g) - 1] = 0
    l_coeffs = system.bel_vector(u) - system.bel_vector(not_g)
    return ParamRow(l_coeffs, 0.0, system.bel_vector(not_g), 1.0, param, origin)


def refine(system: CompiledSystem, sets) -> CompiledSystem:
    """The system over the closure of its columns and ``sets``, or the
    system itself when that adds no column.  Each new column takes the
    row coefficients of the least old column that contains it, so every
    row reads as before and ``Bel`` of each added set is exact."""
    return _rebase(system, _closure(system.columns, sets))


def _rebase(system: CompiledSystem, columns: tuple[int, ...]) -> CompiledSystem:
    """The system over a closed family ``columns`` that holds its own."""
    if len(columns) == len(system.columns):
        return system
    least = _least(system, columns)
    return replace(
        system, columns=columns,
        static_rows=[replace(r, coeffs=r.coeffs[least]) for r in system.static_rows],
        param_rows=[replace(pr, l_coeffs=pr.l_coeffs[least], r_coeffs=pr.r_coeffs[least])
                    for pr in system.param_rows])


def _least(system: CompiledSystem, columns: tuple[int, ...]) -> np.ndarray:
    """The index of the least column of the system that contains each of
    ``columns``."""
    new = np.array(columns, dtype=system.column_bits.dtype)
    least = np.empty(len(columns), dtype=np.intp)
    # the least container lies inside every other one, so of the
    # containers taken by decreasing size it is the last
    for i in sorted(range(len(system.columns)), key=lambda i: -system.columns[i].bit_count()):
        least[(new & ~system.columns[i]) == 0] = i
    return least


# ---------------------------------------------------------------------------
# Feasibility and bounds

@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    witness: MassFunction | None = None


@dataclass(frozen=True, eq=False)
class BoundsResult:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False
    witness_lo: MassFunction | None = None
    witness_hi: MassFunction | None = None

    def __iter__(self):
        return iter((self.lo, self.hi))


def _rows(system: CompiledSystem, cells: Sequence[tuple[float, float]]) -> list:
    """LP rows of the system over a box of parameter values: the static
    rows, the interval relaxation of each parameterized row, and the mass
    row ``sum(m) = 1``.  ``L + t*R = 0`` with ``R <= 0`` holds for some
    ``t`` in ``[lo, hi]`` iff ``L + lo*R >= 0`` and ``L + hi*R <= 0``.
    When the system has strict rows, every row gets the column ``delta``
    last: +1 on a strict ``<=`` row, -1 on a strict ``>=`` row, else 0."""
    rows = [(r.coeffs, r.relop, r.const, r.strict) for r in system.static_rows]
    for pr in system.param_rows:
        lo, hi = cells[pr.param]
        rows.append((pr.l_coeffs + lo * pr.r_coeffs, ">=", pr.l_const + lo * pr.r_const, False))
        rows.append((pr.l_coeffs + hi * pr.r_coeffs, "<=", pr.l_const + hi * pr.r_const, False))
    rows.append((np.ones(len(system.columns)), "=", 1.0, False))
    if not system.strict:
        return [(coeffs, op, const) for coeffs, op, const, _ in rows]
    return [(np.append(coeffs, (1.0 if op == "<=" else -1.0) if strict else 0.0), op, const)
            for coeffs, op, const, strict in rows]


def _program(system: CompiledSystem, cells=(), *, warm: bool = False) -> LinearProgram:
    """The LP rows of a cell, as one program for every LP over that cell."""
    return LinearProgram(len(system.columns) + system.strict, _rows(system, cells), warm=warm)


def _objective(system: CompiledSystem, vec: np.ndarray) -> np.ndarray:
    """A mass-vector objective over the columns of the system's programs,
    with 0 on ``delta``."""
    return np.concatenate((vec, [0.0])) if system.strict else vec


def _slack(system: CompiledSystem, point: np.ndarray) -> float:
    """The least slack of the strict rows, guards included, at the mass
    vector of a program's point."""
    m = point[:len(system.columns)]
    return min((row.const - row.coeffs @ m if row.relop == "<=" else row.coeffs @ m - row.const
                for row in system.static_rows if row.strict), default=np.inf)


def _max_delta(program: LinearProgram):
    """The optimum point of ``max delta`` over the program, its last
    column, when that maximum is positive, else ``None``."""
    res = solve(program, np.eye(1, program.num_vars, program.num_vars - 1)[0])
    return res.point if res.status != INFEASIBLE and res.value > ZERO_TOL else None


class _Box:
    """The parameter box of a system, with its cells' programs probed once
    for every search of every call on the system; a parameter-free system
    has one cell.  The program of the root relaxation, the cell [0, 1]^k,
    is kept as ``relaxation``: its phase 1 runs once for the system, and on
    an infeasible one its Farkas certificate names a conflicting subset of
    the constraints.  The box holds no reference to its system, which
    holds the box; each call passes the system in.

    On a parameter-free system, where every LP of every call runs over
    the root program, that program is warm: each solve starts from the
    last one's optimal basis, so a run of LPs over the polytope, such as
    the lower envelope's, pivots only from one optimum to the next.  The
    cells of a parameterized box, its root included, start each solve
    from phase 1's tableau: the search's path depends on the optima it
    meets, and from warm-started optima it can exhaust its probe budget
    where the cold path does not (ROADMAP item 2).

    The root is tightened first (optimization-based bound tightening,
    Belotti et al. 2009): wherever the root relaxation holds, a row ``L +
    t*R = 0`` puts ``t`` at ``L/(-R)``, so ``t`` lies between that
    quotient's least and largest value, each one Dinkelbach run.  A range
    empty by rounding collapses to its midpoint, whose phase 1 decides."""

    def __init__(self, system: CompiledSystem):
        self.probed: dict[tuple, tuple | None] = {}
        self.limit = _PROBE_CAP  # probing past this many cells raises
        root = tuple((0.0, 1.0) for _ in range(system.num_params))
        # warm only without parameters; the certified-gap search of ROADMAP
        # item 2 would let every cell warm-start and remove this split
        self.relaxation = _program(system, root, warm=not system.num_params)
        found = self.cell(system, root, self.relaxation)
        if root and found is not None:
            program, point = found
            lo, hi = [0.0] * len(root), [1.0] * len(root)
            for pr in system.param_rows:
                num = _objective(system, pr.l_coeffs - pr.l_const)  # L, as sum(m) = 1
                den = _objective(system, pr.r_const - pr.r_coeffs) if pr.r_coeffs.any() else None
                lo[pr.param] = max(lo[pr.param], -_relaxed_max(program, point, -num, den)[0])
                hi[pr.param] = min(hi[pr.param], _relaxed_max(program, point, num, den)[0])
            root = tuple((a, b) if a <= b else (0.5 * (a + b),) * 2 for a, b in zip(lo, hi))
        self.root = root

    def cell(self, system: CompiledSystem, cells: tuple, program: LinearProgram | None = None):
        """The program of a cell of the system's box and a point of it with
        ``delta > 0``, or ``None`` when the cell is not strictly feasible."""
        if cells not in self.probed:
            if len(self.probed) >= self.limit:
                raise CompileError("parameter search exceeded its probe budget")
            if program is None:
                program = _program(system, cells)
            res = solve(program)
            point = None if res.status == INFEASIBLE else res.point
            # the point in hand shows delta > 0 when every strict row has slack there
            if point is not None and _slack(system, point) <= ZERO_TOL:
                point = _max_delta(program)
            self.probed[cells] = None if point is None else (program, point)
        return self.probed[cells]


def _box(system: CompiledSystem) -> _Box:
    """The system's box, built on the first call that needs it and kept on
    the system for every later one.  Each call may probe up to
    ``_PROBE_CAP`` cells that no earlier call probed."""
    if system.box is None:
        system.box = _Box(system)
    else:
        system.box.limit = len(system.box.probed) + _PROBE_CAP
    return system.box


def _relaxed_max(program: LinearProgram, point: np.ndarray, num: np.ndarray, den):
    """The largest ``num/den`` over a cell's program with a point that
    attains it, or ``None`` when ``den`` is 0 on the whole cell.  For
    ``den=None``, the constant 1, one solve of ``num`` is exact.  Else
    Dinkelbach's method (Dinkelbach 1967) starts from the quotient at
    ``point``, or at the largest ``den`` when it is 0 there, and maximizes
    ``num - v*den``.  While that optimum is above ``ZERO_TOL`` its point
    has ``den > 0`` (``num`` is 0 wherever ``den`` is) and a quotient
    above ``v``, and ``v`` moves to that quotient."""
    if den is None:
        res = solve(program, num)
        return res.value, res.point
    if den @ point <= ZERO_TOL:
        res = solve(program, den)
        if res.value <= ZERO_TOL:
            return None
        point = res.point
    while True:
        v = float(num @ point) / float(den @ point)
        res = solve(program, num - v * den)
        if res.value <= ZERO_TOL:
            return v, point
        point = res.point


def _search(system: CompiledSystem, box: _Box, num: np.ndarray | None = None, den=None):
    """Best-first branch-and-prune for the largest ``num/den`` (see
    :func:`_relaxed_max`) over the leaves of the system's box, its strictly
    feasible cells no wider than ``_MIN_CELL_WIDTH``; without ``num``, a
    depth-first search, lower halves first, for the first leaf.  Cells
    that are not strictly feasible, or where ``den`` is 0, are dropped:
    a subcell's rows imply its cell's.  A cell waits under its parent's
    relaxed optimum, which bounds its own, until popped; it is then keyed
    by its own and split once no cell waits under a higher key, so the
    first leaf reached is the best: its ``(value, point, program, cells)``."""
    order = count(1)
    heap = [(0.0, 0, box.root, None)]
    while heap:
        key, rank, cells, found = heapq.heappop(heap)
        if found is None:
            cell = box.cell(system, cells)
            if cell is None:
                continue
            best = (0.0, cell[1]) if num is None else _relaxed_max(*cell, num, den)
            if best is None:
                continue
            key, found = -best[0], (*best, cell[0], cells)
            if heap and heap[0] < (key, rank):  # another cell may beat it: it waits
                heapq.heappush(heap, (key, rank, cells, found))
                continue
        widths = [hi - lo for lo, hi in cells]
        if max(widths, default=0.0) <= _MIN_CELL_WIDTH:
            return found
        widest = widths.index(max(widths))
        lo, hi = cells[widest]
        mid = 0.5 * (lo + hi)
        for half in ((mid, hi), (lo, mid)):  # a tie pops the later push: lower halves first
            child = cells[:widest] + (half,) + cells[widest + 1:]
            heapq.heappush(heap, (key, -next(order), child, None))
    return None


def feasible(system: CompiledSystem) -> FeasibilityResult:
    """Is any belief function consistent with the system?  Returns a
    witness mass function, which meets every strict row strictly, when
    so."""
    leaf = _search(system, _box(system))
    if leaf is None:
        return FeasibilityResult(False)
    _, point, _, _ = leaf
    return FeasibilityResult(True, _witness(system, point))


def _witness(system: CompiledSystem, point: np.ndarray) -> MassFunction:
    """The mass function of a program's point: each column's mass on the
    column's set."""
    return MassFunction.from_vector(system.frame, point[:len(system.columns)],
                                    subsets=system.columns)


def _end_witness(system: CompiledSystem, num: np.ndarray, den: np.ndarray, end: tuple):
    """The witness of an end and whether the end is open.  An end is
    closed when no strict row binds at its witness.  Otherwise one more
    solve maximizes ``delta`` over the points of the witness's cell that
    attain the end, ``num - v*den >= 0`` with ``den - delta >= 0``: the end
    is open iff that maximum is 0, and a positive one gives a witness that
    meets every strict row strictly."""
    v, point, program, _ = end
    if _slack(system, point) > ZERO_TOL:
        return point, False
    rows = list(zip(program.row_coeffs, program.relops, program.consts))
    attains = [(num - v * den, ">=", 0.0), (np.append(den[:-1], -1.0), ">=", 0.0)]
    face = LinearProgram(program.num_vars, rows + attains)
    better = _max_delta(face)
    return (point, True) if better is None else (better, False)


def bounds(system: CompiledSystem, query: BelTerm) -> BoundsResult:
    """Tight range of the query value over every belief function (and
    parameter value) satisfying the system.

    ``Bel(f | g)`` is the quotient ``num(m) / den(m)`` with ``num =
    Bel(f or not g) - Bel(not g)`` and ``den = 1 - Bel(not g)``; an
    unconditional query has ``not g`` empty, so ``den`` is 1.  Each end is
    the best optimum of that quotient over the closure of the strict
    system, on the leaves of the parameter box, found by its own search
    (:func:`_search`); the two searches share the cells' programs.  Since
    ``num`` is 0 wherever ``den`` is, that optimum is attained at a point
    with ``den > 0``.  Each end is reported as the value its witness
    attains, and is open when no point that attains it meets every strict
    row strictly (see :func:`_end_witness`).  The LPs run over the
    system's basis refined by the :func:`query_sets`; when that adds no
    column, they share the system's box with its other calls.
    """
    frame = system.frame
    f, g = _query_bits(frame, query)
    not_g = frame.full_bits ^ g
    u = f | not_g
    system = refine(system, (u, not_g))
    bel_not_g = system.bel_vector(not_g)
    num = _objective(system, system.bel_vector(u) - bel_not_g)
    den = _objective(system, 1.0 - bel_not_g)  # every row set holds sum(m) = 1
    key_den = den if not_g else None  # with no evidence, den is the constant 1

    box = _box(system)
    hi_end = _search(system, box, num, key_den)
    if hi_end is None:
        if _search(system, box) is None:
            raise InfeasibleSystem("the constraint system is infeasible")
        raise QueryUndefinedEverywhere(
            f"every feasible belief function makes {query.render(system.frame)} undefined")
    hi_point, hi_open = _end_witness(system, num, den, hi_end)
    lo_point, lo_open = _end_witness(system, -num, den, _search(system, box, -num, key_den))
    w_hi, w_lo = _witness(system, hi_point), _witness(system, lo_point)
    target = frame.subset(f)
    if query.evidence is None:
        hi, lo = w_hi.belief(target), w_lo.belief(target)
    else:  # as evaluate_term does, with the formulas walked once
        evidence = frame.subset(g)
        hi, lo = w_hi.condition(evidence).belief(target), w_lo.condition(evidence).belief(target)
    hi = min(max(hi, 0.0), 1.0)
    lo = min(min(max(lo, 0.0), 1.0), hi)
    return BoundsResult(lo, hi, lo_open, hi_open, w_lo, w_hi)


def _query_bits(frame: ProductFrame, query: BelTerm) -> tuple[int, int]:
    """The sets ``f`` and ``g`` of the query ``Bel(f | g)``; ``g`` is the
    whole frame when there is no evidence."""
    f = extension_bits(frame, query.target)
    return f, frame.full_bits if query.evidence is None else extension_bits(frame, query.evidence)


def query_sets(frame: ProductFrame, query: BelTerm) -> tuple[int, int]:
    """The sets ``f or not g`` and ``not g`` whose ``Bel`` the LPs of the
    query ``Bel(f | g)`` read; ``not g`` is empty when there is no
    evidence.  A system refined by them answers the query with no new
    column."""
    f, g = _query_bits(frame, query)
    not_g = frame.full_bits ^ g
    return f | not_g, not_g


def surprise_report(system: CompiledSystem, event: Formula,
                    evidence: Formula | None = None) -> BoundsResult:
    """Guaranteed range of surprise upon the event occurring: the bounds
    of belief in the event's negation, under the optional evidence."""
    return bounds(system, BelTerm(Not(event), evidence))


# ---------------------------------------------------------------------------
# Minimum commitment

def lower_envelope(system: CompiledSystem) -> np.ndarray:
    """Pointwise minimum of ``Bel`` over the closure of the feasible set,
    indexed by subset bitmask.

    Two bounds hold for every subset ``S``.  Each witness ``m`` found so
    far, a leaf point of the parameter box, gives ``env[S] <= Bel_m(S)``;
    and ``Bel`` is monotone, so ``env[S]`` is at least ``env[S - {x}]`` for
    each ``x`` in ``S``.  The subsets are walked in layers of increasing
    size.  A subset whose two bounds meet within ``ZERO_TOL`` takes its
    witness value with no LP; any other gets one search of the box
    (:func:`_search`) for the largest ``-Bel(S)``, whose leaf point joins
    the witnesses.  The lower bounds are built only from certified
    values, an LP optimum or the lower bound a subset took, so rounding
    does not pile up across layers.  The searches share the cells'
    programs, and the first witness is the leaf of the feasibility
    search, which on a parameter-free system is the point of phase 1.
    The least ``Bel(S)`` over the columns is the least over every mass
    function, so a parameter-free system's LPs run over its own basis and
    box; a parameterized system's, over every nonempty subset."""
    n = system.frame.theta_size
    if n > MINCOMMIT_MAX_THETA:
        raise FrameTooLarge(f"lower envelope covers 2^{n} subsets; cap is theta_size <= {MINCOMMIT_MAX_THETA}")
    full = system.frame.full_bits
    if system.num_params:
        # the box search is only known to finish here: over the closure basis
        # it can exhaust its probe budget or raise a SolverError (see
        # TestMincommit); a search that stops on a certified gap (ROADMAP
        # item 2) would make this refinement unnecessary
        system = _rebase(system, tuple(range(1, full + 1)))
    box = _box(system)
    leaf = _search(system, box)
    if leaf is None:
        raise InfeasibleSystem("the constraint system is infeasible")

    def bel(point: np.ndarray) -> np.ndarray:  # of every subset, each column's mass on its set
        return zeta_transform(np.bincount(system.column_bits, point[:len(system.columns)], full + 1), n)

    upper = bel(leaf[1])
    env = np.ones(full + 1)
    env[0] = 0.0
    certified = np.zeros(full + 1)  # 0 until a subset is reached, so a max over it is harmless
    subsets = np.arange(full + 1)
    sizes = sum((subsets >> x) & 1 for x in range(n))
    for size in range(1, n):
        layer = subsets[sizes == size]
        # S - {x}, or S itself when x is not in S
        lower = np.max([certified[layer & ~(1 << x)] for x in range(n)], axis=0)
        for s, low in zip(layer.tolist(), lower.tolist()):
            if upper[s] - low <= ZERO_TOL:
                env[s], certified[s] = upper[s], low
                continue
            value, point, _, _ = _search(system, box, -_objective(system, system.bel_vector(s)))
            env[s] = certified[s] = -value
            upper = np.minimum(upper, bel(point))
    return np.clip(env, 0.0, 1.0)


def evaluate_term(mass: MassFunction, term: BelTerm) -> float:
    """Direct evaluation of a belief term on a concrete mass function;
    propagates :class:`ConditioningUndefined`."""
    frame = mass.frame
    target = frame.subset(extension_bits(frame, term.target))
    if term.evidence is None:
        return mass.belief(target)
    return mass.condition(frame.subset(extension_bits(frame, term.evidence))).belief(target)


def constraint_satisfied(mass: MassFunction, constraint: Constraint, *,
                         tol: float = 1e-6) -> bool:
    """Check a constraint against a mass function by direct evaluation;
    ``tol`` forgives rounding on ``=``, ``<=`` and ``>=``, and a strict
    relation holds only when it holds strictly."""
    try:
        lhs = fsum(coef * evaluate_term(mass, term) for coef, term in constraint.terms)
    except ConditioningUndefined:
        return False
    c = constraint.const
    op = constraint.relop
    if op == "=":
        return abs(lhs - c) <= tol
    if op == "<=":
        return lhs <= c + tol
    if op == ">=":
        return lhs >= c - tol
    if op == "<":
        return lhs < c
    return lhs > c


def mincommit(system: CompiledSystem) -> MassFunction | None:
    """The minimum-committed belief function satisfying the system, when
    one exists.

    The lower envelope of feasible beliefs is inverted over the subset
    lattice by :func:`envelope_mass`.
    """
    return envelope_mass(system, lower_envelope(system))


def envelope_mass(system: CompiledSystem, env: np.ndarray) -> MassFunction | None:
    """The mass function whose belief is the lower envelope ``env``.

    It is returned only when the recovered weights form a genuine mass
    function that itself satisfies every constraint (it then realizes the
    envelope exactly, hence is pointwise minimal); otherwise ``None``.
    """
    candidate = mobius_transform(env, system.frame.theta_size)
    if candidate.min() < -1e-9:
        return None
    candidate = np.clip(candidate, 0.0, None)
    candidate[0] = 0.0
    total = candidate.sum()
    if not 0.9 < total < 1.1:
        return None
    try:
        mass = MassFunction.from_vector(system.frame, candidate / total)
    except InvalidMassFunction:
        return None
    for con in system.constraints:
        if not constraint_satisfied(mass, con):
            return None
    return mass


# ---------------------------------------------------------------------------
# Diagnostics

def conflict_core(system: CompiledSystem) -> list[int]:
    """Indices of an irreducible conflicting subset of the constraints, or
    ``[]`` when the system is feasible.

    A deletion filter (Chinneck & Dravnieks 1991): a constraint leaves the
    core when the core without it stays infeasible.  Each test searches
    the parameter box of its :func:`subsystem`, so nothing is compiled;
    the first, of every constraint, searches the system's own box, which a
    ``feasible`` call before may have built.  An infeasible test also
    names a conflicting subset for free: the owners of the rows with a
    nonzero multiplier in the Farkas certificate of its root relaxation.
    The root's certificate seeds the core, which one search confirms
    (else the core starts from every constraint), and each test that
    stays infeasible shrinks the core to the subset its certificate names;
    a seed's parameterized constraints are tested first.  A set whose root
    relaxation is feasible, or infeasible only through the strict slack
    ``delta``, has no certificate, and its deletion starts from every
    constraint."""
    everything = list(range(len(system.constraints)))
    core = _conflict(system, everything)
    if core is None:
        return []
    order = core
    if core != everything:
        confirmed = _conflict(system, core)
        core = everything if confirmed is None else confirmed
        # the seed clashes at the root: its tests that keep no parameterized
        # constraint are single solves, so those constraints are dropped first
        searched = {pr.origin for pr in system.param_rows}
        order = sorted(core, key=lambda i: i not in searched)
    for idx in order:
        if idx not in core or len(core) == 1:  # a certificate dropped it, or it is alone
            continue
        smaller = _conflict(system, [i for i in core if i != idx])
        if smaller is not None:
            core = smaller
    return core


def _conflict(system: CompiledSystem, keep: list[int]) -> list[int] | None:
    """``None`` when the constraints numbered ``keep`` are feasible
    together; else those of them that the Farkas certificate of their root
    relaxation names, or all of them when there is no certificate.  A
    static row or guard names its owner, and both interval rows of a
    parameterized row name its constraint; the named subset's own root
    relaxation has those same rows, so the certificate proves it
    infeasible too."""
    sub = subsystem(system, keep)
    box = _box(sub)
    if _search(sub, box) is not None:
        return None
    farkas = box.relaxation.farkas
    if farkas is None:  # the relaxation is feasible, or infeasible only through delta
        return keep
    rows = sub.static_rows + [pr for pr in sub.param_rows for _ in range(2)]  # as in _rows
    named = {_owner(row) for row, y in zip(rows, farkas) if abs(y) > ZERO_TOL}
    return [keep[i] for i in sorted(named)] or keep
