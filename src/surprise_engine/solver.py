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
program.  A later solve runs phase 2 from a copy of that feasible
tableau, or, on a program made with ``warm=True``, from the tableau and
basis of the last solve, which stay primal feasible whatever the
objective: only the reduced-cost row is rebuilt (Bixby 2002, *Solving
real-world linear programs: a decade and more of progress*, Oper. Res.
50).  The LPs over one polytope, which differ only in the objective (the
steps of Dinkelbach's method, the bound tightening and the lower
envelope's searched subsets), pay for phase 1 once that way, and on a
warm program each starts next to the last optimum.  The reduced-cost row
is the tableau's last row, so a pivot is one rank-1 update of the whole
array.

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

# +1 on a ``<=`` row, -1 on a ``>=`` row, 0 on an ``=`` row
_SENSE = {"<=": 1.0, ">=": -1.0, "=": 0.0}


class LinearProgram:
    """Rows over ``num_vars`` nonnegative variables.

    ``rows`` is a sequence of ``(coefficients, relop, constant)`` with
    relop one of ``<=``, ``>=``, ``=``.  ``zero_vars`` are coordinate
    indices pinned to zero.  A program has no objective; each
    :func:`solve` brings its own.  The first solve keeps the outcome of
    phase 1 on the program for every later one: the feasible tableau, or
    the Farkas certificate of an infeasible program (see :attr:`farkas`).
    A ``warm`` program also keeps each solve's final tableau, and the next
    solve starts from it.
    """

    __slots__ = ("num_vars", "row_coeffs", "relops", "consts", "zero_vars", "warm", "_sense",
                 "_phase1")

    def __init__(self, num_vars: int, rows: Sequence[tuple], *, zero_vars: Sequence[int] = (),
                 warm: bool = False):
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
            if op not in _SENSE:
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
        self.warm = bool(warm)
        self._sense = np.array([_SENSE[op] for op in relops])
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


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``T[row, col]``: one rank-1 update of every row, the
    reduced-cost row included."""
    T[row] /= T[row, col]
    update = T[:, col, None] * T[row]
    update[row] = 0.0
    T -= update
    basis[row] = col


def _iterate(T: np.ndarray, basis: np.ndarray, budget: int) -> int:
    """Run simplex pivots (minimization) until optimality; returns the
    pivot count.  ``T`` is the tableau with the reduced costs as its last
    row and the right-hand sides as its last column.

    The entering column is the one with the most negative reduced cost
    (Dantzig's rule).  After ``BLAND_AFTER`` consecutive pivots that do
    not move the point, the rest of the run enters the first improving
    column instead (Bland's rule), which cannot cycle.  The leaving row
    has the minimum ratio, ties broken on the smallest basis variable.
    """
    pivots = 0
    stalled = 0
    reduced = T[-1, :-1]
    rhs = T[:-1, -1]
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
        column = T[:-1, col]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise SolverError("the program is unbounded in the objective's direction")
        ratios = rhs[rows] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        row = int(ties[basis[ties].argmin()])
        if pivots >= budget:
            raise IterationLimit(f"pivot budget of {budget} exhausted")
        _pivot(T, basis, row, col)
        pivots += 1
        if not bland:
            stalled = stalled + 1 if best <= PIVOT_TOL else 0


def _standard_form(lp: LinearProgram):
    """Tableau of ``A x (+ slack) (+ artificial) = b`` with ``b >= 0``, and
    a last row, zero, for the reduced costs.  Returns the kept (unpinned)
    coordinates, the tableau, its initial basis and the number of
    structural plus slack columns; the artificial columns follow those.
    Each row's basic column is its slack on a ``<=`` row, else its
    artificial."""
    keep = np.delete(np.arange(lp.num_vars), lp.zero_vars)
    n = keep.size
    if n == 0:
        raise SolverError("every variable is pinned to zero")

    m = len(lp.relops)
    flip = np.where(lp.consts < 0, -1.0, 1.0)
    sense = lp._sense * flip
    slack = (sense != 0.0).nonzero()[0]
    art = (sense != 1.0).nonzero()[0]
    width = n + slack.size
    T = np.zeros((m + 1, width + art.size + 1))
    T[:m, :n] = lp.row_coeffs[:, keep] * flip[:, None]
    T[:m, -1] = lp.consts * flip
    basis = np.empty(m, dtype=int)
    basis[slack] = n + np.arange(slack.size)
    T[slack, basis[slack]] = sense[slack]
    basis[art] = width + np.arange(art.size)
    T[art, basis[art]] = 1.0
    return keep, T, basis, width


def _phase1(lp: LinearProgram, budget: int) -> tuple[object, int]:
    """Phase 1 of a program: drive the artificial variables to zero.
    Returns the outcome the program keeps, with the pivot count: either
    the Farkas certificate of an infeasible program, or the kept
    coordinates, the feasible tableau without artificial columns or
    redundant rows, its basis and its point.  The count includes the
    pivots that move artificial variables left basic at zero out of the
    basis.

    Each row starts with a unit column, its slack or artificial, in the
    basis, so its standard-form multiplier is that column's cost less its
    final reduced cost; a row ``_standard_form`` negated has its
    multiplier negated back."""
    keep, T, basis, width = _standard_form(lp)
    unit = basis.copy()
    artificial = basis >= width
    T[-1, width:-1] = 1.0  # minimize the sum of the artificial variables
    T[-1] -= T[:-1][artificial].sum(axis=0)
    pivots = _iterate(T, basis, budget)
    z = T[-1]
    if -z[-1] > 1e-9:
        y = (artificial.astype(float) - z[unit]) * np.where(lp.consts < 0, -1.0, 1.0)
        # optimality leaves a wrong sign of at most PIVOT_TOL: clip it
        y[lp._sense * y > 0.0] = 0.0
        return y, pivots

    # Remove artificial variables: pivot basics out on the largest
    # available element (tiny pivots would blow residuals up), dropping
    # numerically redundant rows.
    dropped = []
    for i in (basis >= width).nonzero()[0]:
        row = np.abs(T[i, :width])
        col = int(np.argmax(row))
        if row[col] > 1e-7:
            _pivot(T, basis, i, col)
            pivots += 1
        else:
            dropped.append(i)
    T = np.delete(np.delete(T, np.s_[width:-1], axis=1), dropped, axis=0)
    basis = np.delete(basis, dropped)
    # a basic value rounded just below zero would turn into a large negative
    # step on a tiny pivot in phase 2: it is zero
    rhs = T[:-1, -1]
    rhs[(rhs < 0.0) & (rhs > -RESIDUAL_TOL)] = 0.0
    return (keep, T, basis, _point(lp.num_vars, keep, T, basis)), pivots


def _point(num_vars: int, keep: np.ndarray, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    x = np.zeros(num_vars)
    basic = basis < keep.size
    x[keep[basis[basic]]] = T[:-1, -1][basic]
    return x


def solve(lp: LinearProgram, objective=None, *,
          max_pivots: int = DEFAULT_MAX_PIVOTS) -> SolveResult:
    """Two-phase simplex.

    Returns ``INFEASIBLE``; ``OPTIMAL`` with value and point when an
    ``objective`` coefficient vector is given, which is maximized (to
    minimize, negate it); or ``FEASIBLE`` with the point of phase 1.  Only
    the first solve of a program runs phase 1.  Every solve with an
    objective runs phase 2: on a copy of the program's feasible tableau,
    or on a ``warm`` program from the last solve's tableau, which it keeps
    for the next.  ``pivots`` counts the pivots of this solve.  Raises
    :class:`IterationLimit` when the pivot budget runs out, which is
    reported distinctly from infeasibility.
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
    keep, T, basis, point = lp._phase1
    if objective is None:
        _verify(lp, point)
        return SolveResult(FEASIBLE, point=point.copy(), pivots=pivots)

    # Phase 2: optimize the caller's objective from a feasible basis.
    if not lp.warm:
        T, basis = T.copy(), basis.copy()
    cost = np.zeros(T.shape[1])
    cost[:keep.size] = -objective[keep]
    T[-1] = cost - cost[basis] @ T[:-1]
    try:
        pivots += _iterate(T, basis, max_pivots - pivots)
        point = _point(lp.num_vars, keep, T, basis)
        _verify(lp, point)
    except SolverError:
        if lp.warm:  # the kept tableau may be spoilt: the next solve starts afresh
            lp._phase1 = None
        raise
    return SolveResult(OPTIMAL, value=float(objective @ point), point=point, pivots=pivots)


def _verify(lp: LinearProgram, point: np.ndarray) -> None:
    """Surface numerical failures as diagnostics instead of silent garbage."""
    if point.min() < -RESIDUAL_TOL:
        raise SolverError(f"solution has negative coordinate {point.min()}")
    resid = lp.row_coeffs @ point - lp.consts
    excess = np.where(lp._sense == 0.0, np.abs(resid), lp._sense * resid)
    violated = (excess > RESIDUAL_TOL).nonzero()[0]
    if violated.size:
        i = int(violated[0])
        raise SolverError(f"row {i} violated by {resid[i]} at the returned point")
