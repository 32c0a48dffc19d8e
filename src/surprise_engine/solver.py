"""Dense linear-program kernel over the mass simplex.

Every program here optimizes (or merely satisfies) linear rows over
vectors constrained to ``x >= 0`` and ``sum(x) = 1``, with selected
coordinates pinned to zero (the empty-set coordinate of a mass vector).
The implementation is a two-phase simplex on a dense tableau.  Each
pivot enters the column with the most negative reduced cost (Dantzig's
rule); after ``BLAND_AFTER`` consecutive pivots that do not move the
point, the rest of that phase enters the first improving column instead
(Bland's rule), which cannot cycle (Bland 1977).  Ties go to the lowest
index, so runs are deterministic.

A solve may start from the result of an earlier solve over the same
rows: phase 1 is skipped and phase 2 runs from that result's feasible
basis, refactored against the rows.  The lower envelope, which optimizes
every subset's belief over one polytope, pays for phase 1 once that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import IterationLimit, SolverError

PIVOT_TOL = 1e-9
RESIDUAL_TOL = 1e-7
DEFAULT_MAX_PIVOTS = 1_000_000
# Consecutive zero-step pivots after which a phase gives up Dantzig's rule
# for Bland's, which cannot cycle.
BLAND_AFTER = 50

INFEASIBLE = "infeasible"
FEASIBLE = "feasible"
OPTIMAL = "optimal"

_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


class LinearProgram:
    """Rows over ``num_vars`` simplex-constrained variables.

    ``rows`` is a sequence of ``(coefficients, relop, constant)`` with
    relop one of ``<=``, ``>=``, ``=``.  ``objective`` is an optional
    coefficient vector, maximized unless ``maximize`` is false.
    ``zero_vars`` are coordinate indices pinned to zero.
    """

    __slots__ = ("num_vars", "row_coeffs", "relops", "consts", "objective", "maximize", "zero_vars")

    def __init__(self, num_vars: int, rows: Sequence[tuple], objective=None,
                 *, maximize: bool = True, zero_vars: Sequence[int] = ()):
        self.num_vars = int(num_vars)
        if self.num_vars < 1:
            raise SolverError("a program needs at least one variable")
        coeffs = []
        relops = []
        consts = []
        for row in rows:
            c, op, const = row
            c = np.asarray(c, dtype=float)
            if c.shape != (self.num_vars,):
                raise SolverError(f"row width {c.shape} does not match {self.num_vars} variables")
            if op not in _FLIP:
                raise SolverError(f"unknown relational operator {op!r}")
            coeffs.append(c)
            relops.append(op)
            consts.append(float(const))
        self.row_coeffs = np.array(coeffs, dtype=float) if coeffs else np.zeros((0, self.num_vars))
        self.relops = relops
        self.consts = np.array(consts, dtype=float)
        if not (np.isfinite(self.row_coeffs).all() and np.isfinite(self.consts).all()):
            raise SolverError("row coefficients must be finite")
        self.objective = None if objective is None else np.asarray(objective, dtype=float)
        if self.objective is not None and self.objective.shape != (self.num_vars,):
            raise SolverError("objective width does not match the variable count")
        self.maximize = bool(maximize)
        self.zero_vars = tuple(sorted(set(int(z) for z in zero_vars)))


@dataclass(frozen=True, eq=False)
class _Basis:
    """A feasible basis of a program's rows, small enough to keep with
    every result: the rows' key, the basic column of each row, and the
    rows found redundant in phase 1."""

    rows: tuple
    columns: np.ndarray
    dropped: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of :func:`solve`.  A feasible result keeps its final basis,
    so that ``solve(other, start=result)`` over the same rows skips
    phase 1."""

    status: str
    value: float | None = None
    point: np.ndarray | None = None
    dual_value: float | None = None
    pivots: int = 0
    basis: _Basis | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status != INFEASIBLE


def _pivot(T: np.ndarray, z: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    pivot_row = T[row]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    T[rows] -= factors[rows, None] * pivot_row
    z -= z[col] * pivot_row
    basis[row] = col


def _iterate(T: np.ndarray, z: np.ndarray, basis: np.ndarray, budget: int) -> int:
    """Run simplex pivots (minimization) until optimality; returns the
    pivot count.

    The entering column is the one with the most negative reduced cost
    (Dantzig's rule).  After ``BLAND_AFTER`` consecutive pivots that do
    not move the point, the rest of the run enters the first improving
    column instead (Bland's rule), which cannot cycle.  The leaving row
    has the minimum ratio, ties broken on the smallest basis variable.
    """
    pivots = 0
    stalled = 0
    reduced = z[:-1]
    rhs = T[:, -1]
    while True:
        bland = stalled >= BLAND_AFTER
        if bland:
            improving = (reduced < -PIVOT_TOL).nonzero()[0]
            if improving.size == 0:
                return pivots
            col = int(improving[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -PIVOT_TOL:
                return pivots
        column = T[:, col]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise SolverError("unbounded direction on a simplex-constrained program")
        ratios = rhs[rows] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        row = int(ties[basis[ties].argmin()])
        if pivots >= budget:
            raise IterationLimit(f"pivot budget of {budget} exhausted")
        _pivot(T, z, basis, row, col)
        pivots += 1
        if not bland:
            stalled = stalled + 1 if best <= PIVOT_TOL else 0


def _standard_form(lp: LinearProgram):
    """Tableau of ``A x (+ slack) (+ artificial) = b`` with ``b >= 0``, the
    mass-simplex row last.  Returns the kept (unpinned) coordinates, the
    tableau, its initial basis, the artificial columns and the number of
    structural plus slack columns."""
    keep = np.delete(np.arange(lp.num_vars), lp.zero_vars)
    n = keep.size
    if n == 0:
        raise SolverError("every variable is pinned to zero")

    m = len(lp.relops) + 1
    A = np.zeros((m, n))
    b = np.zeros(m)
    ops = list(lp.relops) + ["="]
    if len(lp.relops):
        A[:-1] = lp.row_coeffs[:, keep]
        b[:-1] = lp.consts
    A[-1] = 1.0
    b[-1] = 1.0
    for i in range(m):
        if b[i] < 0:
            A[i] = -A[i]
            b[i] = -b[i]
            ops[i] = _FLIP[ops[i]]

    n_slack = sum(op != "=" for op in ops)
    n_art = sum(op != "<=" for op in ops)
    total = n + n_slack + n_art
    T = np.zeros((m, total + 1))
    T[:, :n] = A
    T[:, -1] = b
    basis = np.empty(m, dtype=int)
    art_cols: list[int] = []
    si, ai = n, n + n_slack
    for i, op in enumerate(ops):
        if op == "<=":
            T[i, si] = 1.0
            basis[i] = si
            si += 1
        elif op == ">=":
            T[i, si] = -1.0
            si += 1
            T[i, ai] = 1.0
            basis[i] = ai
            art_cols.append(ai)
            ai += 1
        else:
            T[i, ai] = 1.0
            basis[i] = ai
            art_cols.append(ai)
            ai += 1
    return keep, T, basis, art_cols, n + n_slack


def _phase1(T: np.ndarray, basis: np.ndarray, art_cols: list[int], width: int,
            budget: int) -> tuple[int, list[int] | None]:
    """Drive the artificial variables to zero.  Returns the pivot count and
    the rows left redundant, or ``None`` in their place when the rows are
    infeasible."""
    art_set = set(art_cols)
    z = np.zeros(T.shape[1])
    z[art_cols] = 1.0
    for i in range(T.shape[0]):
        if basis[i] in art_set:
            z -= T[i]
    pivots = _iterate(T, z, basis, budget)
    if -z[-1] > 1e-9:
        return pivots, None

    # Remove artificial variables: pivot basics out on the largest
    # available element (tiny pivots would blow residuals up), dropping
    # numerically redundant rows.
    dropped = []
    for i in range(T.shape[0]):
        if basis[i] in art_set:
            row = np.abs(T[i, :width])
            col = int(np.argmax(row))
            if row[col] > 1e-7:
                _pivot(T, z, basis, i, col)
            else:
                dropped.append(i)
    return pivots, dropped


@lru_cache(maxsize=64)
def _projection(width: int) -> np.ndarray:
    """Fixed weights with no rational relation: the fractional parts of
    the multiples of the golden ratio."""
    weights = np.modf(np.arange(1, width + 1) * 0.6180339887498949)[0]
    weights.flags.writeable = False
    return weights


def _row_key(lp: LinearProgram) -> tuple:
    """Identifies a program's rows: their relations, constants and pinned
    coordinates exactly, their coefficients by a fixed projection.  A key
    keeps every result small; a warm solve refactors the basis against its
    own rows and verifies its point, so the key guards against misuse, not
    against wrong answers."""
    return (lp.num_vars, lp.zero_vars, tuple(lp.relops), lp.consts.tobytes(),
            (lp.row_coeffs @ _projection(lp.num_vars)).tobytes())


def _tableau(A: np.ndarray, b: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``B^-1 [A | b]`` for the basis ``B = A[:, columns]``; raises
    :class:`SolverError` when that basis is singular or infeasible."""
    try:
        T = np.linalg.solve(A[:, columns], np.column_stack([A, b]))
    except np.linalg.LinAlgError:
        raise SolverError("the start's basis is singular for these rows") from None
    if T[:, -1].min() < -RESIDUAL_TOL:
        raise SolverError("the start's basis is infeasible for these rows")
    T[:, columns] = np.eye(len(columns))  # exact unit columns, as pivoting leaves them
    return T


def solve(lp: LinearProgram, *, start: SolveResult | None = None,
          max_pivots: int = DEFAULT_MAX_PIVOTS) -> SolveResult:
    """Two-phase simplex.

    Returns ``INFEASIBLE``, ``OPTIMAL`` (with value and point), or, when
    no objective was supplied, ``FEASIBLE`` with a satisfying point.
    ``start`` is the result of an earlier feasible solve over the same
    rows: phase 1 is then skipped, phase 2 runs from that result's basis
    and ``pivots`` counts the phase-2 pivots only.  A ``start`` over other
    rows raises :class:`SolverError`.  Raises :class:`IterationLimit` when
    the pivot budget runs out, which is reported distinctly from
    infeasibility.
    """
    keep, T, basis, art_cols, width = _standard_form(lp)
    rows = _row_key(lp)
    A_std = T[:, :width].copy()
    b_std = T[:, -1].copy()
    if start is None:
        pivots, dropped = _phase1(T, basis, art_cols, width, max_pivots)
        if dropped is None:
            return SolveResult(INFEASIBLE, pivots=pivots)
        T = np.hstack([T[:, :width], T[:, -1:]])
        if dropped:
            T, basis = np.delete(T, dropped, axis=0), np.delete(basis, dropped)
    else:
        warm = start.basis
        if warm is None or warm.rows != rows:
            raise SolverError("a start must be a feasible solve over the same rows")
        basis, dropped, pivots = warm.columns.copy(), warm.dropped, 0
    if dropped:
        A_std = np.delete(A_std, dropped, axis=0)
        b_std = np.delete(b_std, dropped)
    if start is not None:
        T = _tableau(A_std, b_std, basis)
    m = T.shape[0]

    def extract_point() -> np.ndarray:
        x = np.zeros(lp.num_vars)
        for i in range(m):
            if basis[i] < keep.size:
                x[keep[basis[i]]] = T[i, -1]
        return x

    if lp.objective is None:
        point = extract_point()
        _verify(lp, point)
        return SolveResult(FEASIBLE, point=point, pivots=pivots,
                           basis=_Basis(rows, basis, tuple(dropped)))

    # Phase 2: optimize the caller's objective.
    cost = np.zeros(width + 1)
    struct_cost = lp.objective[keep]
    cost[:keep.size] = -struct_cost if lp.maximize else struct_cost
    z2 = cost.copy()
    for i in range(m):
        if cost[basis[i]] != 0.0:
            z2 -= cost[basis[i]] * T[i]
    pivots += _iterate(T, z2, basis, max_pivots - pivots)

    point = extract_point()
    _verify(lp, point)
    value = float(lp.objective @ point)
    dual = _dual_value(A_std, b_std, cost[:width], basis, lp.maximize)
    return SolveResult(OPTIMAL, value=value, point=point, dual_value=dual, pivots=pivots,
                       basis=_Basis(rows, basis, tuple(dropped)))


def _dual_value(A_std: np.ndarray, b_std: np.ndarray, cost: np.ndarray,
                basis: np.ndarray, maximize: bool) -> float | None:
    """Objective value certified by the final basis multipliers."""
    try:
        B = A_std[:, basis]
        y = np.linalg.solve(B.T, cost[basis])
    except np.linalg.LinAlgError:
        return None
    dual_min = float(y @ b_std)
    return -dual_min if maximize else dual_min


def _verify(lp: LinearProgram, point: np.ndarray) -> None:
    """Surface numerical failures as diagnostics instead of silent garbage."""
    if point.min() < -RESIDUAL_TOL:
        raise SolverError(f"solution has negative coordinate {point.min()}")
    if abs(point.sum() - 1.0) > RESIDUAL_TOL:
        raise SolverError(f"solution mass {point.sum()} drifted from 1")
    if len(lp.relops):
        lhs = lp.row_coeffs @ point
        for i, op in enumerate(lp.relops):
            resid = lhs[i] - lp.consts[i]
            bad = (op == "=" and abs(resid) > RESIDUAL_TOL) or \
                  (op == "<=" and resid > RESIDUAL_TOL) or \
                  (op == ">=" and resid < -RESIDUAL_TOL)
            if bad:
                raise SolverError(f"row {i} violated by {resid} at the returned point")
