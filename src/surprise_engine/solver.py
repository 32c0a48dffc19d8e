"""Dense linear-program kernel in general form.

A program is a set of rows ``A x relop b`` over ``x >= 0``, with relop
one of ``<=``, ``>=``, ``=``, and selected coordinates pinned to zero.
The kernel knows nothing of mass functions: the row ``sum(m) = 1`` of a
mass vector comes with the program's rows like any other.  The
implementation is a two-phase simplex on a dense tableau.  Each pivot
enters the column with the most negative reduced cost (Dantzig's rule);
after ``BLAND_AFTER`` consecutive pivots that do not move the point, the
rest of that phase enters the first improving column instead (Bland's
rule), which cannot cycle (Bland 1977).  Ties go to the lowest index, so
runs are deterministic.

A program holds only its rows; the objective comes with each solve.
The first solve of a program runs phase 1 and keeps its outcome on the
program, and every solve then runs phase 2 from a copy of that feasible
tableau.  The LPs over one polytope, which differ only in the objective
(the steps of Dinkelbach's method, the bound tightening and the lower
envelope's searched subsets), pay for phase 1 once that way.

A program whose phase 1 ends infeasible keeps a Farkas certificate
instead: multipliers ``y``, one per row in the caller's order and signs,
with ``y <= 0`` on ``<=`` rows, ``y >= 0`` on ``>=`` rows, ``y.b > 0`` and,
up to the pivot tolerance, ``y.A_j <= 0`` on every unpinned column ``j``.
They are the final phase-1 reduced costs of the rows' slack or artificial
columns, so no extra solve reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Rows over ``num_vars`` nonnegative variables.

    ``rows`` is a sequence of ``(coefficients, relop, constant)`` with
    relop one of ``<=``, ``>=``, ``=``.  ``zero_vars`` are coordinate
    indices pinned to zero.  A program has no objective; each
    :func:`solve` brings its own.  The first solve keeps the outcome of
    phase 1 on the program for every later one: the feasible tableau, or
    the Farkas certificate of an infeasible program (see :attr:`farkas`).
    """

    __slots__ = ("num_vars", "row_coeffs", "relops", "consts", "zero_vars", "_phase1")

    def __init__(self, num_vars: int, rows: Sequence[tuple], *, zero_vars: Sequence[int] = ()):
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
        self.zero_vars = tuple(sorted(set(int(z) for z in zero_vars)))
        self._phase1 = None  # set by the first solve; see _phase1

    @property
    def farkas(self) -> np.ndarray | None:
        """One multiplier per row proving the program infeasible, once a
        solve has found it so; else ``None``.  The rows with a nonzero
        multiplier are infeasible on their own."""
        return self._phase1 if isinstance(self._phase1, np.ndarray) else None


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of :func:`solve`."""

    status: str
    value: float | None = None
    point: np.ndarray | None = None
    pivots: int = 0


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
            raise SolverError("the program is unbounded in the objective's direction")
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
    """Tableau of ``A x (+ slack) (+ artificial) = b`` with ``b >= 0``.
    Returns the kept (unpinned) coordinates, the tableau, its initial
    basis, the artificial columns and the number of structural plus slack
    columns."""
    keep = np.delete(np.arange(lp.num_vars), lp.zero_vars)
    n = keep.size
    if n == 0:
        raise SolverError("every variable is pinned to zero")

    m = len(lp.relops)
    A = lp.row_coeffs[:, keep]
    b = lp.consts.copy()
    ops = list(lp.relops)
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


def _phase1(lp: LinearProgram, budget: int) -> tuple[object, int]:
    """Phase 1 of a program: drive the artificial variables to zero.
    Returns the outcome the program keeps, with the pivot count: either
    the Farkas certificate of an infeasible program, or the kept
    coordinates, the feasible tableau without artificial columns or
    redundant rows, and its basis.

    Each row starts with a unit column, its slack or artificial, in the
    basis, so its standard-form multiplier is that column's cost less its
    final reduced cost; a row ``_standard_form`` negated has its
    multiplier negated back."""
    keep, T, basis, art_cols, width = _standard_form(lp)
    art_set = set(art_cols)
    unit = basis.copy()
    cost = np.zeros(T.shape[1])
    cost[art_cols] = 1.0
    z = cost.copy()
    for i in range(T.shape[0]):
        if basis[i] in art_set:
            z -= T[i]
    pivots = _iterate(T, z, basis, budget)
    if -z[-1] > 1e-9:
        y = (cost[unit] - z[unit]) * np.where(lp.consts < 0, -1.0, 1.0)
        ops = np.array(lp.relops)
        # optimality leaves a wrong sign of at most PIVOT_TOL: clip it
        y[ops == "<="] = np.minimum(y[ops == "<="], 0.0)
        y[ops == ">="] = np.maximum(y[ops == ">="], 0.0)
        return y, pivots

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
    T = np.hstack([T[:, :width], T[:, -1:]])
    if dropped:
        T, basis = np.delete(T, dropped, axis=0), np.delete(basis, dropped)
    # a basic value rounded just below zero would turn into a large negative
    # step on a tiny pivot in phase 2: it is zero
    rhs = T[:, -1]
    rhs[(rhs < 0.0) & (rhs > -RESIDUAL_TOL)] = 0.0
    return (keep, T, basis), pivots


def _point(num_vars: int, keep: np.ndarray, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    x = np.zeros(num_vars)
    basic = basis < keep.size
    x[keep[basis[basic]]] = T[basic, -1]
    return x


def solve(lp: LinearProgram, objective=None, *,
          max_pivots: int = DEFAULT_MAX_PIVOTS) -> SolveResult:
    """Two-phase simplex.

    Returns ``INFEASIBLE``; ``OPTIMAL`` with value and point when an
    ``objective`` coefficient vector is given, which is maximized (to
    minimize, negate it); or ``FEASIBLE`` with a satisfying point.  Only
    the first solve of a program runs phase 1.  Every solve runs phase 2
    on a copy of the program's feasible tableau, and ``pivots`` counts the
    pivots of this solve.  Raises :class:`IterationLimit` when the pivot
    budget runs out, which is reported distinctly from infeasibility.
    """
    if objective is not None:
        objective = np.asarray(objective, dtype=float)
        if objective.shape != (lp.num_vars,):
            raise SolverError("objective width does not match the variable count")
    pivots = 0
    if lp._phase1 is None:
        lp._phase1, pivots = _phase1(lp, max_pivots)
    if lp.farkas is not None:
        return SolveResult(INFEASIBLE, pivots=pivots)
    keep, T, basis = lp._phase1
    if objective is None:
        point = _point(lp.num_vars, keep, T, basis)
        _verify(lp, point)
        return SolveResult(FEASIBLE, point=point, pivots=pivots)

    # Phase 2: optimize the caller's objective.
    T, basis = T.copy(), basis.copy()
    width = T.shape[1] - 1
    cost = np.zeros(width + 1)
    cost[:keep.size] = -objective[keep]
    z2 = cost.copy()
    for i in range(T.shape[0]):
        if cost[basis[i]] != 0.0:
            z2 -= cost[basis[i]] * T[i]
    pivots += _iterate(T, z2, basis, max_pivots - pivots)

    point = _point(lp.num_vars, keep, T, basis)
    _verify(lp, point)
    return SolveResult(OPTIMAL, value=float(objective @ point), point=point, pivots=pivots)


def _verify(lp: LinearProgram, point: np.ndarray) -> None:
    """Surface numerical failures as diagnostics instead of silent garbage."""
    if point.min() < -RESIDUAL_TOL:
        raise SolverError(f"solution has negative coordinate {point.min()}")
    for i, (op, resid) in enumerate(zip(lp.relops, lp.row_coeffs @ point - lp.consts)):
        if (abs(resid) if op == "=" else resid if op == "<=" else -resid) > RESIDUAL_TOL:
            raise SolverError(f"row {i} violated by {resid} at the returned point")
