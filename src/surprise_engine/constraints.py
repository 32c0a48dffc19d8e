"""The user-facing constraint language over belief fragments and its
reduction to linear systems on the mass vector.

A constraint relates linear combinations of belief terms, e.g.::

    Bel(not STRIKE) = 0.3
    Bel(M | P) = c
    Bel(PARTY) = Bel(PARTY | RAIN)
    Bel(TEMP=med or TEMP=low) > Bel(TEMP=med) + Bel(TEMP=low)

Unconditional terms are linear in the mass vector directly.  A single
conditional term against constants is cleared of its denominator through
``Bel(A|B) = (Bel(A or not B) - Bel(not B)) / (1 - Bel(not B))``.  An
equality between two terms of which at least one is conditional gets a
scalar parameter for the shared value; parameters are resolved by an
interval branch-and-prune sweep over their [0,1] domains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .belief import MassFunction, mobius_transform
from .errors import (
    CompileError,
    ConditioningUndefined,
    ConstraintError,
    FrameTooLarge,
    InfeasibleSystem,
    QueryUndefinedEverywhere,
    SolverError,
)
from .frames import Formula, Not, ProductFrame, extension_bits, parse_formula, pretty
from .solver import FEASIBLE, INFEASIBLE, LinearProgram, SolveResult, solve

EPS_STRICT = 1e-6
EPS_GUARD = 1e-9
# Query bisection needs the conditioning normalizer to sit above LP noise,
# otherwise cleared rows lose meaning near Bel(not g) = 1.
EPS_QUERY_GUARD = 1e-6
DEFAULT_GRID = 256
DEFAULT_MAX_PARAMETERS = 2
DEFAULT_COMPILE_MAX_THETA = 12
MINCOMMIT_MAX_THETA = 12
_MIN_CELL_WIDTH = 2.0 ** -30
_LEAF_CAP = 64
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
        if self.relop not in ("=", "<=", ">=", "<", ">"):
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
# Constraint surface syntax

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RELOP_RE = re.compile(r"<=|>=|=|<|>")


def _tokenize_constraint(text: str, frame: ProductFrame) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _RELOP_RE.match(text, pos)
        if m and not (m.group() == "=" and text.startswith("=>", pos)):
            tokens.append(("relop", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("number", float(m.group()), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            name = m.group()
            if name == "Bel":
                term, pos = _scan_bel(text, m.end(), frame)
                tokens.append(("bel", term, m.start()))
                continue
            tokens.append(("ident", name, pos))
            pos = m.end()
            continue
        raise ConstraintError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


def _scan_bel(text: str, pos: int, frame: ProductFrame) -> tuple[BelTerm, int]:
    """Scan ``( formula [| formula] )`` starting at ``pos``."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text) or text[pos] != "(":
        raise ConstraintError("expected '(' after Bel", pos)
    depth = 0
    bar = None
    start = pos + 1
    i = pos
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                break
        elif ch == "|" and depth == 1:
            if bar is not None:
                raise ConstraintError("more than one '|' inside Bel(...)", i)
            bar = i
        i += 1
    else:
        raise ConstraintError("unbalanced parentheses in Bel(...)", pos)
    if bar is None:
        target_text, evidence_text = text[start:i], None
    else:
        target_text, evidence_text = text[start:bar], text[bar + 1:i]
    try:
        target = parse_formula(target_text, frame)
        evidence = None if evidence_text is None else parse_formula(evidence_text, frame)
    except ConstraintError:
        raise
    except Exception as exc:  # formula errors keep their own position info
        raise ConstraintError(f"inside Bel(...): {exc}", start) from exc
    return BelTerm(target, evidence), i + 1


def parse_constraint(text: str, frame: ProductFrame,
                     constants: dict[str, float] | None = None) -> Constraint:
    """Parse a relation between linear combinations of belief terms.

    Identifiers outside formulas are symbolic constants resolved through
    ``constants``; an unresolved name is an error.
    """
    constants = constants or {}
    tokens = _tokenize_constraint(text, frame)
    relops = [t for t in tokens if t[0] == "relop"]
    if len(relops) != 1:
        raise ConstraintError(
            f"a constraint needs exactly one relational operator, found {len(relops)}")
    split = tokens.index(relops[0])
    lhs = tokens[:split] + [("end", None, relops[0][2])]
    rhs = tokens[split + 1:]
    lterms, lconst = _parse_side(lhs, constants)
    rterms, rconst = _parse_side(rhs, constants)

    merged: dict[BelTerm, float] = {}
    for coef, term in lterms:
        merged[term] = merged.get(term, 0.0) + coef
    for coef, term in rterms:
        merged[term] = merged.get(term, 0.0) - coef
    terms = tuple((coef, term) for term, coef in merged.items() if coef != 0.0)
    if not terms:
        raise ConstraintError("constraint has no belief term")
    return Constraint(terms, relops[0][1], rconst - lconst, text=text.strip())


def _parse_side(tokens: list, constants: dict[str, float]) -> tuple[list, float]:
    terms: list[tuple[float, BelTerm]] = []
    const = 0.0
    i = 0
    sign = 1.0
    expect_item = True
    while tokens[i][0] != "end":
        kind, value, pos = tokens[i]
        if expect_item:
            if kind == "-":
                sign = -sign
                i += 1
                continue
            if kind == "+":
                i += 1
                continue
            coef = None
            if kind == "number":
                coef = value
                i += 1
            elif kind == "ident":
                if value not in constants:
                    raise ConstraintError(f"constant {value!r} has no value", pos)
                coef = constants[value]
                i += 1
            if tokens[i][0] == "*":
                if coef is None:
                    raise ConstraintError("'*' needs a numeric coefficient before it", tokens[i][2])
                i += 1
                if tokens[i][0] != "bel":
                    raise ConstraintError("'*' must be followed by Bel(...)", tokens[i][2])
            if tokens[i][0] == "bel":
                terms.append((sign * (1.0 if coef is None else coef), tokens[i][1]))
                i += 1
            elif coef is not None:
                const += sign * coef
            else:
                raise ConstraintError(f"expected a term, found {tokens[i][1]!r}", tokens[i][2])
            sign = 1.0
            expect_item = False
        else:
            if kind == "+":
                sign = 1.0
            elif kind == "-":
                sign = -1.0
            else:
                raise ConstraintError(f"expected '+' or '-', found {value!r}", pos)
            i += 1
            expect_item = True
    if expect_item and (terms or const):
        raise ConstraintError("dangling operator at end of expression", tokens[i][2])
    if expect_item and not terms and const == 0.0:
        raise ConstraintError("empty side of constraint", tokens[i][2])
    return terms, const


# ---------------------------------------------------------------------------
# Compilation

@dataclass(frozen=True, eq=False)
class StaticRow:
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
    """A constraint set lowered onto the mass vector of its frame."""

    frame: ProductFrame
    constraints: tuple[Constraint, ...]
    static_rows: list[StaticRow]
    param_rows: list[ParamRow]
    num_params: int
    eps_strict: float = EPS_STRICT
    eps_guard: float = EPS_GUARD
    grid: int = DEFAULT_GRID
    _vec_cache: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def mass_dim(self) -> int:
        return 1 << self.frame.theta_size

    def bel_vector(self, bits: int) -> np.ndarray:
        """Coefficient vector of ``Bel`` of the subset: indicator of the
        sub-bitmasks of ``bits``."""
        cached = self._vec_cache.get(bits)
        if cached is None:
            cached = _subset_indicator(bits, self.mass_dim)
            self._vec_cache[bits] = cached
        return cached


def _subset_indicator(bits: int, mass_dim: int) -> np.ndarray:
    vec = np.zeros(mass_dim)
    s = bits
    while True:
        vec[s] = 1.0
        if s == 0:
            break
        s = (s - 1) & bits
    return vec


def compile_constraints(constraints: Sequence[Constraint], frame: ProductFrame, *,
                        max_theta: int = DEFAULT_COMPILE_MAX_THETA,
                        max_parameters: int = DEFAULT_MAX_PARAMETERS,
                        eps_strict: float = EPS_STRICT,
                        eps_guard: float = EPS_GUARD,
                        grid: int = DEFAULT_GRID) -> CompiledSystem:
    """Lower constraints to rows over the mass vector.

    Raises :class:`FrameTooLarge` over the cap and :class:`CompileError`
    for relations outside the supported linear forms or needing more than
    ``max_parameters`` parameters.
    """
    if frame.theta_size > max_theta:
        raise FrameTooLarge(
            f"frame has {frame.theta_size} points; compile cap is {max_theta} "
            f"(mass vector would have {1 << frame.theta_size} coordinates)")
    system = CompiledSystem(frame, tuple(constraints), [], [], 0,
                            eps_strict=eps_strict, eps_guard=eps_guard, grid=grid)
    guard_bits: dict[int, int | str] = {}
    num_params = 0
    for idx, con in enumerate(constraints):
        relop, const = con.relop, con.const
        strict = relop in ("<", ">")
        if relop == "<":
            relop, const = "<=", const - eps_strict
        elif relop == ">":
            relop, const = ">=", const + eps_strict

        conditionals = [(c, t) for c, t in con.terms if t.evidence is not None]
        for _, term in conditionals:
            g = extension_bits(frame, term.evidence)
            guard_bits.setdefault(frame.full_bits ^ g, idx)

        if not conditionals:
            coeffs = np.zeros(system.mass_dim)
            for coef, term in con.terms:
                coeffs += coef * system.bel_vector(extension_bits(frame, term.target))
            system.static_rows.append(StaticRow(coeffs, relop, const, idx, strict))
            continue

        if len(con.terms) == 1:
            # k * Bel(f|g) relop c, cleared through the normalizer:
            # k*Bel(f or not g) + (c-k)*Bel(not g) relop c
            coef, term = con.terms[0]
            g = extension_bits(frame, term.evidence)
            not_g = frame.full_bits ^ g
            u = extension_bits(frame, term.target) | not_g
            coeffs = coef * system.bel_vector(u) + (const - coef) * system.bel_vector(not_g)
            system.static_rows.append(StaticRow(coeffs, relop, const, idx, strict))
            continue

        coefs = sorted(c for c, _ in con.terms)
        if (con.relop == "=" and con.const == 0.0 and len(con.terms) == 2
                and coefs == [-1.0, 1.0]):
            # Equality of two belief terms, at least one conditional:
            # introduce one parameter for the shared value.
            num_params += 1
            if num_params > max_parameters:
                raise CompileError(
                    f"constraint set needs more than {max_parameters} parameters")
            for _, term in con.terms:
                system.param_rows.append(_param_row(system, term, num_params - 1, idx))
            continue

        raise CompileError(
            f"constraint {con.render(frame)!r} mixes conditional belief terms "
            "nonlinearly; supported forms are a single conditional term against "
            "constants, or an equality between two belief terms")

    for bits, origin in guard_bits.items():
        system.static_rows.append(
            StaticRow(system.bel_vector(bits), "<=", 1.0 - eps_guard, f"guard:{origin}"))
    system.num_params = num_params
    return system


def _param_row(system: CompiledSystem, term: BelTerm, param: int, origin: int) -> ParamRow:
    frame = system.frame
    if term.evidence is None:
        # Bel(f) = t  <=>  Bel(f) - t = 0
        return ParamRow(system.bel_vector(extension_bits(frame, term.target)), 0.0,
                        np.zeros(system.mass_dim), 1.0, param, origin)
    g = extension_bits(frame, term.evidence)
    not_g = frame.full_bits ^ g
    u = extension_bits(frame, term.target) | not_g
    # Bel(f|g) = t  <=>  [Bel(u) - Bel(not g)] + t*[Bel(not g) - 1] = 0
    l_coeffs = system.bel_vector(u) - system.bel_vector(not_g)
    return ParamRow(l_coeffs, 0.0, system.bel_vector(not_g), 1.0, param, origin)


# ---------------------------------------------------------------------------
# Feasibility and bounds

@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    witness: MassFunction | None = None
    param_values: tuple[float, ...] | None = None


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


def _static_lp_rows(system: CompiledSystem,
                    extra: Iterable[tuple[np.ndarray, str, float]]) -> list:
    rows = [(r.coeffs, r.relop, r.const) for r in system.static_rows]
    rows.extend(extra)
    return rows


def _cell_rows(system: CompiledSystem, cells: Sequence[tuple[float, float]]) -> list:
    """Interval relaxation of the parameterized rows over a box of
    parameter values.  ``L + t*R = 0`` with ``R <= 0`` holds for some
    ``t`` in ``[lo, hi]`` iff ``L + lo*R >= 0`` and ``L + hi*R <= 0``."""
    rows = []
    for pr in system.param_rows:
        lo, hi = cells[pr.param]
        rows.append((pr.l_coeffs + lo * pr.r_coeffs, ">=", pr.l_const + lo * pr.r_const))
        rows.append((pr.l_coeffs + hi * pr.r_coeffs, "<=", pr.l_const + hi * pr.r_const))
    return rows


def _probe(system: CompiledSystem, extra, cells=None, objective=None,
           maximize=True, lenient=False, start=None) -> SolveResult:
    rows = _static_lp_rows(system, extra)
    if cells is not None:
        rows.extend(_cell_rows(system, cells))
    lp = LinearProgram(system.mass_dim, rows, objective, maximize=maximize, zero_vars=(0,))
    try:
        return solve(lp, start=start)
    except SolverError:
        if not lenient:
            raise
        # Bisection probes at margins below LP resolution are genuinely
        # undecidable; counting them infeasible keeps reported bounds at
        # oracle-attained values, which is the sound direction.
        return SolveResult(INFEASIBLE)


def _search_cells(system: CompiledSystem, extra, lenient=False) -> tuple[SolveResult, tuple] | None:
    """Depth-first branch-and-prune over the parameter box.  Returns the
    solver result and the surviving (fully refined) cell, or ``None``."""
    k = system.num_params
    stack = [tuple((0.0, 1.0) for _ in range(k))]
    probes = 0
    while stack:
        cells = stack.pop()
        probes += 1
        if probes > _PROBE_CAP:
            raise CompileError("parameter sweep exceeded its probe budget")
        res = _probe(system, extra, cells, lenient=lenient)
        if res.status == INFEASIBLE:
            continue
        widths = [hi - lo for lo, hi in cells]
        widest = max(range(k), key=lambda i: widths[i])
        if widths[widest] <= _MIN_CELL_WIDTH:
            return res, cells
        lo, hi = cells[widest]
        mid = 0.5 * (lo + hi)
        upper = cells[:widest] + ((mid, hi),) + cells[widest + 1:]
        lower = cells[:widest] + ((lo, mid),) + cells[widest + 1:]
        stack.append(upper)
        stack.append(lower)  # explored first
    return None


def _feasible_probe(system: CompiledSystem, extra=(),
                    lenient=False) -> tuple[SolveResult, tuple | None] | None:
    if system.num_params == 0:
        res = _probe(system, extra, lenient=lenient)
        return None if res.status == INFEASIBLE else (res, None)
    return _search_cells(system, extra, lenient=lenient)


def feasible(system: CompiledSystem) -> FeasibilityResult:
    """Is any belief function consistent with the system?  Returns a
    witness mass function when so."""
    found = _feasible_probe(system)
    if found is None:
        return FeasibilityResult(False)
    res, cells = found
    witness = MassFunction.from_vector(system.frame, res.point)
    params = None if cells is None else tuple(0.5 * (lo + hi) for lo, hi in cells)
    return FeasibilityResult(True, witness, params)


def _term_bits(system: CompiledSystem, term: BelTerm) -> tuple[int, int | None]:
    f_bits = extension_bits(system.frame, term.target)
    if term.evidence is None:
        return f_bits, None
    return f_bits, extension_bits(system.frame, term.evidence)


def _query_row(system: CompiledSystem, term: BelTerm, relop: str, v: float):
    f_bits, g_bits = _term_bits(system, term)
    if g_bits is None:
        return (system.bel_vector(f_bits), relop, v)
    not_g = system.frame.full_bits ^ g_bits
    coeffs = system.bel_vector(f_bits | not_g) + (v - 1.0) * system.bel_vector(not_g)
    return (coeffs, relop, v)


def _oracle_value(system: CompiledSystem, term: BelTerm, witness: MassFunction,
                  fallback: float | None = None) -> float:
    f_bits, g_bits = _term_bits(system, term)
    m = witness
    if g_bits is not None:
        try:
            m = m.condition(system.frame.subset(g_bits))
        except ConditioningUndefined:
            if fallback is None:
                raise
            return fallback
    return m.belief(system.frame.subset(f_bits))


def _open_flag(system: CompiledSystem, point: np.ndarray | None) -> bool:
    """An endpoint is open when a strict-origin row is binding there."""
    if point is None:
        return False
    for row in system.static_rows:
        if row.strict and abs(float(row.coeffs @ point) - row.const) <= 1e-9:
            return True
    return False


def bounds(system: CompiledSystem, query: BelTerm, *, iters: int = 30) -> BoundsResult:
    """Tight range of the query value over every belief function (and
    parameter value) satisfying the system.

    Unconditional queries on parameter-free systems are two LP solves;
    conditional queries go through bisection on the query value with the
    cleared conditional row added at each probe.
    """
    guard_extra = []
    if query.evidence is not None:
        g = extension_bits(system.frame, query.evidence)
        guard_extra.append((system.bel_vector(system.frame.full_bits ^ g), "<=",
                            1.0 - EPS_QUERY_GUARD))
    base = _feasible_probe(system, tuple(guard_extra))
    if base is None:
        if _feasible_probe(system) is None:
            raise InfeasibleSystem("the constraint system is infeasible")
        raise QueryUndefinedEverywhere(
            f"every feasible belief function makes {query.render(system.frame)} undefined")

    if system.num_params == 0 and query.evidence is None:
        objective = system.bel_vector(extension_bits(system.frame, query.target))
        hi_res = _probe(system, (), objective=objective, maximize=True)
        lo_res = _probe(system, (), objective=objective, maximize=False)
        w_hi = MassFunction.from_vector(system.frame, hi_res.point)
        w_lo = MassFunction.from_vector(system.frame, lo_res.point)
        lo = min(max(_oracle_value(system, query, w_lo), 0.0), 1.0)
        hi = min(max(_oracle_value(system, query, w_hi), 0.0), 1.0)
        return BoundsResult(lo, hi, _open_flag(system, lo_res.point),
                            _open_flag(system, hi_res.point), w_lo, w_hi)

    def probe(relop: str, v: float):
        extra = tuple(guard_extra) + (_query_row(system, query, relop, v),)
        return _feasible_probe(system, extra, lenient=True)

    def bisect(relop: str, start_feasible: float, start_infeasible: float):
        a, b = start_feasible, start_infeasible
        found = probe(relop, a)
        if found is None:
            raise SolverError("bisection endpoint probe lost feasibility; "
                              "the system is numerically degenerate")
        best = found
        for _ in range(iters):
            mid = 0.5 * (a + b)
            found = probe(relop, mid)
            if found is None:
                b = mid
            else:
                a = mid
                best = found
        return a, best

    # Upper end: largest v with some feasible Bel >= v.
    at_one = probe(">=", 1.0)
    if at_one is not None:
        hi_val, hi_found = 1.0, at_one
    else:
        hi_val, hi_found = bisect(">=", 0.0, 1.0)
    # Lower end: smallest v with some feasible Bel <= v.
    at_zero = probe("<=", 0.0)
    if at_zero is not None:
        lo_val, lo_found = 0.0, at_zero
    else:
        lo_val, lo_found = bisect("<=", 1.0, 0.0)

    # Report the oracle values the witnesses actually attain: bisection
    # probe levels can overshoot by (LP residual / normalizer) when the
    # evidence guard binds, while attained values are always sound.
    w_hi = MassFunction.from_vector(system.frame, hi_found[0].point)
    w_lo = MassFunction.from_vector(system.frame, lo_found[0].point)
    hi = min(max(_oracle_value(system, query, w_hi, fallback=hi_val), 0.0), 1.0)
    lo = min(max(_oracle_value(system, query, w_lo, fallback=lo_val), 0.0), 1.0)
    lo = min(lo, hi)
    return BoundsResult(lo, hi, _open_flag(system, lo_found[0].point),
                        _open_flag(system, hi_found[0].point), w_lo, w_hi)


def surprise_report(system: CompiledSystem, event: Formula,
                    evidence: Formula | None = None, *, iters: int = 30) -> BoundsResult:
    """Guaranteed range of surprise upon the event occurring: the bounds
    of belief in the event's negation, under the optional evidence."""
    return bounds(system, BelTerm(Not(event), evidence), iters=iters)


# ---------------------------------------------------------------------------
# Minimum commitment

def lower_envelope(system: CompiledSystem) -> np.ndarray:
    """Pointwise minimum of ``Bel`` over the feasible set, indexed by
    subset bitmask.  One LP per subset and surviving parameter cell; only
    the first LP of a cell runs phase 1, the others start from its basis."""
    n = system.frame.theta_size
    if n > MINCOMMIT_MAX_THETA:
        raise FrameTooLarge(f"lower envelope needs 2^{n} solves; cap is theta_size <= {MINCOMMIT_MAX_THETA}")
    full = system.frame.full_bits
    env = np.ones(full + 1)
    env[0] = 0.0
    boxes = [None] if system.num_params == 0 else _surviving_leaves(system)
    infeasible = 0
    for cells in boxes:
        start = None
        for s in range(1, full):
            res = _probe(system, (), cells, objective=system.bel_vector(s), maximize=False,
                         start=start)
            if res.status == INFEASIBLE:
                infeasible += 1
                break
            if start is None:
                start = res
            env[s] = min(env[s], res.value)
    if infeasible == len(boxes):
        raise InfeasibleSystem("the constraint system is infeasible")
    return np.clip(env, 0.0, 1.0)


def _surviving_leaves(system: CompiledSystem) -> list[tuple]:
    """All parameter cells at grid resolution that stay feasible after
    refinement to the width floor."""
    k = system.num_params
    grid_width = 1.0 / system.grid
    coarse = [tuple((0.0, 1.0) for _ in range(k))]
    probes = 0
    leaves = []
    while coarse:
        cells = coarse.pop()
        probes += 1
        if probes > _PROBE_CAP:
            raise CompileError("parameter sweep exceeded its probe budget")
        res = _probe(system, (), cells)
        if res.status == INFEASIBLE:
            continue
        widths = [hi - lo for lo, hi in cells]
        widest = max(range(k), key=lambda i: widths[i])
        if widths[widest] <= grid_width:
            refined = _refine_leaf(system, cells)
            if refined is not None:
                leaves.append(refined)
                if len(leaves) > _LEAF_CAP:
                    raise CompileError(
                        "parameter space has too many feasible cells for an "
                        "exhaustive envelope; tighten the constraints")
            continue
        lo, hi = cells[widest]
        mid = 0.5 * (lo + hi)
        coarse.append(cells[:widest] + ((mid, hi),) + cells[widest + 1:])
        coarse.append(cells[:widest] + ((lo, mid),) + cells[widest + 1:])
    return leaves


def _refine_leaf(system: CompiledSystem, cells: tuple) -> tuple | None:
    k = system.num_params
    while True:
        widths = [hi - lo for lo, hi in cells]
        widest = max(range(k), key=lambda i: widths[i])
        if widths[widest] <= _MIN_CELL_WIDTH:
            return cells
        lo, hi = cells[widest]
        mid = 0.5 * (lo + hi)
        survivor = None
        for half in ((lo, mid), (mid, hi)):
            trial = cells[:widest] + (half,) + cells[widest + 1:]
            if _probe(system, (), trial).status != INFEASIBLE:
                survivor = trial
                break
        if survivor is None:
            return None
        cells = survivor


def evaluate_term(mass: MassFunction, term: BelTerm) -> float:
    """Direct evaluation of a belief term on a concrete mass function;
    propagates :class:`ConditioningUndefined`."""
    frame = mass.frame
    target = frame.subset(extension_bits(frame, term.target))
    if term.evidence is None:
        return mass.belief(target)
    return mass.condition(frame.subset(extension_bits(frame, term.evidence))).belief(target)


def constraint_satisfied(mass: MassFunction, constraint: Constraint, *,
                         eps_strict: float = EPS_STRICT, tol: float = 1e-6) -> bool:
    """Check a constraint against a mass function by direct evaluation."""
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
        return lhs <= c - eps_strict + tol
    return lhs >= c + eps_strict - tol


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
    except Exception:
        return None
    for con in system.constraints:
        if not constraint_satisfied(mass, con, eps_strict=system.eps_strict):
            return None
    return mass


# ---------------------------------------------------------------------------
# Diagnostics

def conflict_core(system: CompiledSystem) -> list[int]:
    """Indices of an irreducible conflicting subset of the constraints,
    found by greedy deletion.  Assumes the system is infeasible."""
    def is_feasible(subset: list[int]) -> bool:
        sub = compile_constraints([system.constraints[i] for i in subset], system.frame,
                                  max_theta=system.frame.theta_size,
                                  max_parameters=max(system.num_params, DEFAULT_MAX_PARAMETERS),
                                  eps_strict=system.eps_strict,
                                  eps_guard=system.eps_guard, grid=system.grid)
        return _feasible_probe(sub) is not None

    core = list(range(len(system.constraints)))
    for idx in list(core):
        trial = [i for i in core if i != idx]
        if not trial:
            continue
        if not is_feasible(trial):
            core = trial
    return core
