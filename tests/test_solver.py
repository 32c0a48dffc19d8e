"""Two-phase simplex kernel in general form; the programs here put their
points on the probability simplex through ``conftest.simplex_program``."""

import random
from itertools import combinations

import numpy as np
import pytest

from surprise_engine import (
    EngineError,
    IterationLimit,
    LinearProgram,
    ProductFrame,
    SolverError,
    compile_constraints,
    constraints,
    parse_constraint,
    solve,
    solver,
)
from surprise_engine.solver import FEASIBLE, INFEASIBLE, OPTIMAL
from conftest import (
    dense_bel,
    dense_rows,
    random_frame,
    random_mass,
    random_subset,
    simplex_program,
    subset_formula,
)


def test_segment_optimum():
    lp = simplex_program(2, [([1.0, 0.0], "=", 0.3)])
    res = solve(lp, [0.0, 1.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.7, abs=1e-9)
    assert np.allclose(res.point, [0.3, 0.7], atol=1e-9)


def test_conflicting_rows_infeasible():
    lp = simplex_program(2, [([1, 0], ">=", 0.6), ([1, 0], "<=", 0.4)])
    assert solve(lp).status == INFEASIBLE


def test_feasibility_without_objective():
    lp = simplex_program(4, [([0, 1, 0, 0], "=", 0.0), ([0, 0, 1, 0], "=", 0.0)],
                         zero_vars=(0,))
    res = solve(lp)
    assert res.status == FEASIBLE
    assert res.point[0] == 0.0
    assert res.point.sum() == pytest.approx(1.0, abs=1e-9)


def test_hire_system_vertex_is_vacuous():
    # mass coordinates over subsets of a 2-point space: indices 0=empty,
    # 1={yes}, 2={no}, 3=theta; constraints force everything onto theta.
    rows = [([0, 1, 0, 0], "=", 0.0), ([0, 0, 1, 0], "=", 0.0)]
    lp = simplex_program(4, rows, zero_vars=(0,))
    res = solve(lp)
    assert np.allclose(res.point, [0, 0, 0, 1], atol=1e-9)
    # cross-check against exhaustive vertex enumeration at this dimension
    vertices = _enumerate_vertices(4, rows, zero_vars=(0,))
    assert len(vertices) == 1
    assert np.allclose(vertices[0], [0, 0, 0, 1], atol=1e-12)


def _enumerate_vertices(num_vars, rows, zero_vars=()):
    """All basic feasible points of {x >= 0, sum x = 1, rows} by brute
    force over support choices."""
    eq_rows = [(np.asarray(c, float), op, b) for c, op, b in rows]
    vertices = []
    indices = [i for i in range(num_vars) if i not in zero_vars]
    for size in range(1, len(indices) + 1):
        for support in combinations(indices, size):
            A = [np.ones(size)]
            b = [1.0]
            for c, op, rhs in eq_rows:
                if op == "=":
                    A.append(c[list(support)])
                    b.append(rhs)
            A, b = np.array(A), np.array(b)
            sol, residual, rank, _ = np.linalg.lstsq(A, b, rcond=None)
            if np.linalg.norm(A @ sol - b) > 1e-9 or sol.min() < -1e-9:
                continue
            ok = True
            x = np.zeros(num_vars)
            x[list(support)] = sol
            for c, op, rhs in eq_rows:
                v = float(np.asarray(c) @ x)
                if op == "<=" and v > rhs + 1e-9:
                    ok = False
                if op == ">=" and v < rhs - 1e-9:
                    ok = False
            if ok and not any(np.allclose(x, w, atol=1e-9) for w in vertices):
                vertices.append(x)
    return vertices


def _grid(num_vars, steps):
    """Every point of the simplex at resolution 1/steps, one per row."""
    bars = np.array(list(combinations(range(steps + num_vars - 1), num_vars - 1)))
    edges = np.hstack([np.full((len(bars), 1), -1), bars.reshape(len(bars), -1),
                       np.full((len(bars), 1), steps + num_vars - 1)])
    return (np.diff(edges, axis=1) - 1) / steps


def _margin(points, rows):
    """By how much each point satisfies its worst row: negative when it
    violates one."""
    worst = np.full(len(points), np.inf)
    for c, op, rhs in rows:
        v = points @ np.asarray(c, float) - rhs
        worst = np.minimum(worst, -abs(v) if op == "=" else -v if op == "<=" else v)
    return worst


def _grid_optimum(num_vars, rows, objective, maximize, steps):
    """Dense grid search over the simplex at resolution 1/steps."""
    points = _grid(num_vars, steps)
    values = points[_margin(points, rows) >= -1e-9] @ np.asarray(objective, float)
    if not values.size:
        return None
    return float(values.max() if maximize else values.min())


def test_agreement_with_grid_search_small():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.choice([2, 3])
        rows = []
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.uniform(-1, 1) for _ in range(n)]
            rows.append((coeffs, rng.choice(["<=", ">="]), rng.uniform(0.0, 0.8)))
        objective = [rng.uniform(-1, 1) for _ in range(n)]
        maximize = rng.random() < 0.5
        sign = 1.0 if maximize else -1.0  # a minimum is minus the maximum of the negation
        res = solve(simplex_program(n, rows), np.multiply(sign, objective))
        steps = 400
        grid = _grid_optimum(n, rows, objective, maximize, steps)
        if res.status == INFEASIBLE:
            # a grid point inside every row by more than the spacing would
            # refute infeasibility
            assert _margin(_grid(n, steps), rows).max() <= 1.0 / steps
            continue
        assert grid is not None
        assert sign * res.value == pytest.approx(grid, abs=5e-3)


def test_agreement_with_grid_search_wider():
    rng = random.Random(11)
    for trial in range(8):
        n = rng.choice([4, 5, 6])
        rows = []
        for _ in range(rng.randint(0, 4)):
            coeffs = [rng.uniform(-1, 1) for _ in range(n)]
            rows.append((coeffs, rng.choice(["<=", ">="]), rng.uniform(0.1, 0.9)))
        objective = [rng.uniform(-1, 1) for _ in range(n)]
        res = solve(simplex_program(n, rows), objective)
        steps = 25
        grid = _grid_optimum(n, rows, objective, True, steps)
        if res.status == INFEASIBLE:
            continue
        assert grid is not None
        # coarse grid undershoots the optimum by at most gradient * spacing
        slack = 2.0 * sum(abs(c) for c in objective) / steps
        assert grid - 1e-9 <= res.value + 1e-9
        assert res.value <= grid + slack


def test_determinism():
    rng = random.Random(5)
    rows = [([rng.uniform(-1, 1) for _ in range(6)], "<=", 0.4) for _ in range(4)]
    objective = [rng.uniform(-1, 1) for _ in range(6)]
    first = solve(simplex_program(6, rows), objective)
    lp = simplex_program(6, rows)
    second = solve(lp, objective)
    assert first.pivots == second.pivots
    assert first.value == second.value
    assert np.array_equal(first.point, second.point)
    again = solve(lp, objective)
    assert again.value == second.value
    assert np.array_equal(again.point, second.point)


def test_iteration_limit_is_distinct_from_infeasible():
    lp = simplex_program(3, [([1, 1, 0], "<=", 0.9)])
    with pytest.raises(IterationLimit):
        solve(lp, [1.0, 2.0, 3.0], max_pivots=0)


def test_returned_point_satisfies_rows():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 10)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [rng.uniform(-1, 1) for _ in range(n)]
            rows.append((coeffs, rng.choice(["<=", ">=", "="]), rng.uniform(0.0, 0.4)))
        lp = simplex_program(n, rows)
        res = solve(lp)
        if res.status == INFEASIBLE:
            continue
        x = res.point
        assert x.min() >= -1e-7 and abs(x.sum() - 1) <= 1e-7
        for coeffs, op, rhs in rows:
            v = float(np.asarray(coeffs) @ x)
            if op == "=":
                assert abs(v - rhs) <= 1e-7
            elif op == "<=":
                assert v <= rhs + 1e-7
            else:
                assert v >= rhs - 1e-7


def test_row_width_validation():
    with pytest.raises(SolverError):
        simplex_program(3, [([1, 2], "=", 0.5)])
    with pytest.raises(SolverError):
        simplex_program(3, [([1, 2, 3], "!!", 0.5)])
    with pytest.raises(SolverError):
        solve(simplex_program(3, [([1, 2, 3], "=", 0.5)]), [1.0, 2.0])


def _random_rows(rng, n, count):
    return [([rng.uniform(-1, 1) for _ in range(n)], rng.choice(["<=", ">=", "="]),
             rng.uniform(0.0, 0.5)) for _ in range(count)]


def test_warm_start_matches_cold_solve():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 10)
        rows = _random_rows(rng, n, rng.randint(0, 5))
        zero_vars = (0,) if rng.random() < 0.5 else ()
        lp = simplex_program(n, rows, zero_vars=zero_vars)
        if solve(lp).status == INFEASIBLE:
            continue
        for _ in range(6):
            objective = [rng.uniform(-1, 1) for _ in range(n)]
            if rng.random() >= 0.5:  # minimize: maximize the negation
                objective = [-c for c in objective]
            warm = solve(lp, objective)
            cold = solve(simplex_program(n, rows, zero_vars=zero_vars), objective)
            assert warm.status == cold.status == OPTIMAL
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
            checked += 1
    assert checked >= 60


def _chained_objectives(warm: LinearProgram, objectives) -> tuple[int, int]:
    """Solve each objective on the warm program, which starts from the last
    solve's optimum, and on a cold copy, which starts from phase 1's
    tableau; the optima agree within 1e-9.  A point that fails the
    kernel's verification raises.  Returns the phase-2 pivots of the warm
    and of the cold solves."""
    cold = LinearProgram(warm.num_vars, list(zip(warm.row_coeffs, warm.relops, warm.consts)),
                         zero_vars=warm.zero_vars)
    solve(warm), solve(cold)  # phase 1
    warm_pivots = cold_pivots = 0
    for objective in objectives:
        res, ref = solve(warm, objective), solve(cold, objective)
        assert res.status == ref.status == OPTIMAL
        assert res.value == pytest.approx(ref.value, abs=1e-9)
        warm_pivots += res.pivots
        cold_pivots += ref.pivots
    return warm_pivots, cold_pivots


def _random_objective(rng, n):
    """Random coefficients, or a signed 0/1 vector, whose ties make the
    optima degenerate."""
    if rng.random() < 0.5:
        return [rng.uniform(-1, 1) for _ in range(n)]
    sign = rng.choice((1.0, -1.0))
    return [sign * float(rng.random() < 0.5) for _ in range(n)]


def test_warm_program_chains_objectives_like_a_cold_one():
    rng = random.Random(29)
    chained = 0
    while chained < 4:
        n = rng.randint(3, 12)
        rows = _degenerate_rows(rng, n)[:n] + _random_rows(rng, n, rng.randint(1, 4))
        rows.append((np.ones(n), "=", 1.0))
        lp = LinearProgram(n, rows, zero_vars=(0,) if rng.random() < 0.5 else (), warm=True)
        if solve(lp).status == INFEASIBLE:
            continue
        _chained_objectives(lp, [_random_objective(rng, n) for _ in range(200)])
        chained += 1


def test_warm_root_of_a_twelve_point_system_chains_objectives():
    """The root program of a parameter-free system on a 12-point frame,
    shaped like the benchmark's lattice systems: 200 objectives, ``Bel`` of
    random subsets either way, random mixes and ``delta``, chained on one
    warm program, in fewer pivots than from phase 1's tableau each time."""
    rng = random.Random(12)
    frame = ProductFrame([("V0", ("v0", "v1", "v2")), ("V1", ("v0", "v1", "v2", "v3"))])
    anchor = random_mass(frame, rng, max_focals=6)
    cons = []
    while len(cons) < 10:
        s = random_subset(frame, rng)
        g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.3 else None
        try:
            value = (anchor if g is None else anchor.condition(g)).belief(s)
        except EngineError:
            continue
        op = rng.choice(["=", "<=", ">=", "<", ">"])
        value += {"<": 0.05, ">": -0.05}.get(op, 0.0)
        given = "" if g is None else f" | {subset_formula(frame, g)}"
        cons.append(parse_constraint(f"Bel({subset_formula(frame, s)}{given}) {op} {value!r}",
                                     frame))
    system = compile_constraints(cons, frame)
    assert system.num_params == 0 and system.strict
    root = constraints._box(system).relaxation
    assert root.warm
    objectives = []
    for _ in range(200):
        pick = rng.random()
        if pick < 0.6:
            vec = rng.choice((1.0, -1.0)) * system.bel_vector(random_subset(frame, rng).bits)
        elif pick < 0.9:
            vec = np.array([rng.uniform(-1, 1) for _ in system.columns])
        else:
            vec = np.zeros(len(system.columns))
        objectives.append(constraints._objective(system, vec) if pick < 0.9 else
                          np.eye(1, root.num_vars, root.num_vars - 1)[0])
    warm, cold = _chained_objectives(root, objectives)
    assert warm < cold


def test_warm_program_starts_afresh_after_a_failed_solve(monkeypatch):
    # a solve that raises may leave the kept tableau spoilt: the next one
    # runs phase 1 again instead of starting from it
    lp = LinearProgram(3, [([1.0, 1.0, 0.0], "<=", 0.6), (np.ones(3), "=", 1.0)], warm=True)
    verify = solver._verify

    def failing(*args):
        monkeypatch.setattr(solver, "_verify", verify)
        raise SolverError("row 0 violated")

    monkeypatch.setattr(solver, "_verify", failing)
    with pytest.raises(SolverError):
        solve(lp, [1.0, 2.0, 3.0])
    again = solve(lp, [1.0, 2.0, 3.0])
    assert again.value == pytest.approx(3.0, abs=1e-12)
    assert again.pivots > 0
    assert solve(lp, [1.0, 2.0, 3.0]).pivots == 0


def _row_by_row_standard_form(lp: LinearProgram):
    """The standard-form tableau built one row at a time: the reference for
    ``solver._standard_form``."""
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    keep = [j for j in range(lp.num_vars) if j not in lp.zero_vars]
    rows = []
    for coeffs, op, const in zip(lp.row_coeffs, lp.relops, lp.consts):
        coeffs = coeffs[keep]
        if const < 0:
            coeffs, op, const = -coeffs, flip[op], -const
        rows.append((coeffs, op, const))
    n, m = len(keep), len(rows)
    n_slack = sum(op != "=" for _, op, _ in rows)
    n_art = sum(op != "<=" for _, op, _ in rows)
    T = np.zeros((m + 1, n + n_slack + n_art + 1))
    basis = []
    si, ai = n, n + n_slack
    for i, (coeffs, op, const) in enumerate(rows):
        T[i, :n], T[i, -1] = coeffs, const
        if op != "=":
            T[i, si] = 1.0 if op == "<=" else -1.0
            si += 1
        if op == "<=":
            basis.append(si - 1)
        else:
            T[i, ai] = 1.0
            basis.append(ai)
            ai += 1
    return keep, T, basis, n + n_slack


def _first_violated_row(lp: LinearProgram, point: np.ndarray):
    """The first row that the point misses by more than ``RESIDUAL_TOL``,
    row by row: the reference for ``solver._verify``."""
    for i, (coeffs, op, const) in enumerate(zip(lp.row_coeffs, lp.relops, lp.consts)):
        resid = coeffs @ point - const
        if (abs(resid) if op == "=" else resid if op == "<=" else -resid) > solver.RESIDUAL_TOL:
            return i
    return None


def test_vectorised_setup_and_verification_match_row_by_row():
    rng = random.Random(41)
    violated = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        rows = [(np.array([rng.choice((0.0, -1.0, 1.0, rng.uniform(-2, 2))) for _ in range(n)]),
                 rng.choice(("<=", ">=", "=")), rng.choice((0.0, rng.uniform(-2, 2))))
                for _ in range(rng.randint(0, 6))]
        zero_vars = tuple(j for j in range(n - 1) if rng.random() < 0.2)
        lp = LinearProgram(n, rows, zero_vars=zero_vars)
        keep, T, basis, width = solver._standard_form(lp)
        ref_keep, ref_T, ref_basis, ref_width = _row_by_row_standard_form(lp)
        assert keep.tolist() == ref_keep and width == ref_width
        assert np.array_equal(T, ref_T) and basis.tolist() == ref_basis
        point = np.array([rng.choice((0.0, rng.uniform(0, 1))) for _ in range(n)])
        expected = _first_violated_row(lp, point)
        if expected is None:
            solver._verify(lp, point)
        else:
            with pytest.raises(SolverError, match=f"^row {expected} violated"):
                solver._verify(lp, point)
            violated += 1
    assert 20 < violated < 180


def test_infeasible_program_stays_infeasible():
    lp = simplex_program(3, [([1, 0, 0], ">=", 0.6), ([1, 0, 0], "<=", 0.4)])
    assert solve(lp).status == INFEASIBLE
    for objective in ([1.0, 2.0, 3.0], [-1.0, 0.0, 0.5]):
        for sign in (1.0, -1.0):
            res = solve(lp, np.multiply(sign, objective))
            assert res.status == INFEASIBLE
            assert res.pivots == 0


def _degenerate_rows(rng, n):
    """Many rows with zero right-hand sides, all tight at one vertex."""
    vertex = rng.randrange(n)
    rows = []
    for _ in range(rng.randint(n, 3 * n)):
        coeffs = [rng.choice([-1.0, 0.0, 1.0, rng.uniform(-1, 1)]) for _ in range(n)]
        coeffs[vertex] = 0.0
        rows.append((coeffs, rng.choice(["<=", ">=", "<=", ">=", "="]), 0.0))
    return rows


@pytest.mark.parametrize("threshold", [0, 1])
def test_bland_fallback_agrees_with_default_rule(monkeypatch, threshold):
    rng = random.Random(23)
    cases = []
    for _ in range(60):
        n = rng.randint(3, 10)
        objective = [rng.uniform(-1, 1) for _ in range(n)]
        rows = _degenerate_rows(rng, n)
        if rng.random() >= 0.5:  # minimize: maximize the negation
            objective = [-c for c in objective]
        cases.append((n, rows, objective, solve(simplex_program(n, rows), objective)))
    monkeypatch.setattr(solver, "BLAND_AFTER", threshold)
    for n, rows, objective, default in cases:
        # a fresh program, so that phase 1 also runs under the fallback
        res = solve(simplex_program(n, rows), objective)
        assert res.status == default.status == OPTIMAL
        assert res.value == pytest.approx(default.value, abs=1e-9)


def test_pivots_count_every_pivot(monkeypatch):
    """``SolveResult.pivots`` counts every pivot of a solve, those that
    move artificial variables left basic at zero out of phase 1's basis
    included."""
    calls, iterated = [], []
    pivot, iterate = solver._pivot, solver._iterate

    def counting_pivot(*args):
        calls.append(1)
        pivot(*args)

    def counting_iterate(*args):
        iterated.append(iterate(*args))
        return iterated[-1]

    monkeypatch.setattr(solver, "_pivot", counting_pivot)
    monkeypatch.setattr(solver, "_iterate", counting_iterate)
    rng = random.Random(5)
    counted = 0
    for _ in range(40):
        n = rng.randint(3, 8)
        res = solve(simplex_program(n, _degenerate_rows(rng, n)),
                    [rng.uniform(-1, 1) for _ in range(n)])
        counted += res.pivots
    assert counted == len(calls)
    assert len(calls) > sum(iterated)  # some were drive-out pivots


def test_bland_fallback_breaks_a_dantzig_cycle(monkeypatch):
    # Beale (1955): at the degenerate origin Dantzig's rule, with ties on
    # the smallest basis variable, cycles through six bases forever.
    def beale():
        T = np.array([[0.25, -8, -1, 9, 1, 0, 0, 0],
                      [0.5, -12, -0.5, 3, 0, 1, 0, 0],
                      [0, 0, 1, 0, 0, 0, 1, 1]], dtype=float)
        z = np.array([-0.75, 20, -0.5, 6, 0, 0, 0, 0], dtype=float)
        return np.vstack([T, z]), np.array([4, 5, 6])

    T, basis = beale()
    solver._iterate(T, basis, 1000)
    assert -T[-1, -1] == pytest.approx(-1.25, abs=1e-12)
    monkeypatch.setattr(solver, "BLAND_AFTER", 10 ** 9)
    with pytest.raises(IterationLimit):
        solver._iterate(*beale(), 1000)


def test_infeasible_program_keeps_a_farkas_certificate():
    """On random infeasible programs in general form, with every relation
    and negative constants, the certificate proves infeasibility: ``y.b >
    0``, ``y.A_j <= 1e-9`` on every column, and each multiplier has its
    row's sign.  The rows with a nonzero multiplier are infeasible on their
    own for HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 6)
        rows = [(np.array([rng.choice((0.0, rng.uniform(-2, 2))) for _ in range(n)]),
                 rng.choice(("<=", ">=", "=")), rng.uniform(-2, 2))
                for _ in range(rng.randint(2, 8))]
        lp = LinearProgram(n, rows)
        if solve(lp).status != INFEASIBLE:
            assert lp.farkas is None
            continue
        y = lp.farkas
        assert y @ lp.consts > 0
        assert (y @ lp.row_coeffs).max() <= 1e-9
        for (_, op, _), mult in zip(rows, y):
            assert mult <= 0 if op == "<=" else mult >= 0 if op == ">=" else True
        named = [row for row, mult in zip(rows, y) if mult != 0]
        a_ub = [c if op == "<=" else -c for c, op, _ in named if op != "="]
        b_ub = [b if op == "<=" else -b for _, op, b in named if op != "="]
        a_eq = [c for c, op, _ in named if op == "="]
        b_eq = [b for _, op, b in named if op == "="]
        out = linprog(np.zeros(n), A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                      A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
                      bounds=[(0, None)] * n, method="highs")
        assert out.status == 2  # infeasible
        checked += 1


def _highs(linprog, num_vars, rows, objective, maximize):
    a_ub, b_ub, a_eq, b_eq = [], [], [np.ones(num_vars)], [1.0]
    for coeffs, op, rhs in rows:
        if op == "=":
            a_eq.append(coeffs)
            b_eq.append(rhs)
        else:
            sign = 1.0 if op == "<=" else -1.0
            a_ub.append(sign * coeffs)
            b_ub.append(sign * rhs)
    return linprog(-objective if maximize else objective,
                   A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                   A_eq=np.array(a_eq), b_eq=b_eq,
                   bounds=[(0, 0)] + [(0, None)] * (num_vars - 1), method="highs")


def _violation(rows, x):
    worst = max(-x.min(), abs(x.sum() - 1.0), abs(x[0]))
    for coeffs, op, rhs in rows:
        r = float(coeffs @ x) - rhs
        worst = max(worst, abs(r) if op == "=" else r if op == "<=" else -r)
    return worst


def _shifted(rows, by):
    """Every row moved outward by ``by``, or inward when it is negative;
    an equality becomes a band when loosened."""
    out = []
    for coeffs, op, rhs in rows:
        if op == "=":
            out += [(coeffs, "<=", rhs + by), (coeffs, ">=", rhs - by)] if by > 0 else [
                (coeffs, op, rhs)]
        else:
            out.append((coeffs, op, rhs + by if op == "<=" else rhs - by))
    return out


def _marginal(linprog, num_vars, rows):
    """Feasibility flips when the rows move by 1e-6: HiGHS finds the
    loosened rows feasible and the tightened rows infeasible."""
    zero = np.zeros(num_vars)
    return (_highs(linprog, num_vars, _shifted(rows, 1e-6), zero, False).status == 0
            and _highs(linprog, num_vars, _shifted(rows, -1e-6), zero, False).status != 0)


def test_agrees_with_highs_on_compiled_systems():
    """Differential check against an independent LP solver, over the
    closure of each random constraint set's rows on the dense mass vector
    (strict rows read as non-strict, guards included).  The two may disagree on feasibility only
    where a row is missed by less than 1e-6, inside HiGHS's own tolerance.
    A numerical failure must raise, and only on such a marginal system."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(31)
    compared = margin_only = 0
    for _ in range(80):
        frame = random_frame(rng, max_points=6)
        anchor = random_mass(frame, rng)
        cons = []
        for _ in range(rng.randint(1, 5)):
            s = random_subset(frame, rng)
            g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.4 else None
            try:
                value = (anchor if g is None else anchor.condition(g)).belief(s)
            except EngineError:
                value = rng.random()
            if rng.random() < 0.25:
                value = rng.random()
            given = "" if g is None else f" | {subset_formula(frame, g)}"
            op = rng.choice(["=", "<=", ">=", "<", ">"])
            cons.append(parse_constraint(
                f"Bel({subset_formula(frame, s)}{given}) {op} {value!r}", frame))
        width = 1 << frame.theta_size
        rows = dense_rows(cons, frame)
        objective = dense_bel(frame, random_subset(frame, rng).bits)
        for maximize in (True, False):
            try:
                ours = solve(simplex_program(width, rows, zero_vars=(0,)),
                             objective if maximize else -objective)
            except SolverError:
                assert _marginal(linprog, width, rows)
                margin_only += 1
                continue
            theirs = _highs(linprog, width, rows, objective, maximize)
            if ours.status == OPTIMAL and theirs.status == 0:
                value = ours.value if maximize else -ours.value
                assert value == pytest.approx(-theirs.fun if maximize else theirs.fun, abs=1e-6)
                compared += 1
            elif ours.status == OPTIMAL or theirs.status == 0:
                point = ours.point if ours.status == OPTIMAL else theirs.x
                assert _violation(rows, point) <= 1e-6
                margin_only += 1
    assert compared >= 60
    assert margin_only <= compared // 4
