"""Shared generators for randomized suites.

LP-heavy suites use plain seeded ``random.Random`` instances so runtimes
stay predictable; structural properties use hypothesis.
"""

import random

import numpy as np
import pytest
from hypothesis import settings

from surprise_engine import LinearProgram, MassFunction, ProductFrame, constraints
from surprise_engine.frames import extension_bits

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


def simplex_program(num_vars: int, rows, *, zero_vars=()) -> LinearProgram:
    """A program over the probability simplex: the rows plus ``sum(x) = 1``,
    which the general-form kernel takes as one more row."""
    return LinearProgram(num_vars, list(rows) + [(np.ones(num_vars), "=", 1.0)],
                         zero_vars=zero_vars)


def dense_bel(frame: ProductFrame, bits: int) -> np.ndarray:
    """``Bel`` of a subset over the dense mass vector, indexed by subset
    bitmask: the indicator of the subset's subsets."""
    return ((np.arange(1 << frame.theta_size) & ~bits) == 0).astype(float)


def dense_rows(cons, frame: ProductFrame, params=()) -> list:
    """The rows ``(coeffs, relop, const)`` of the closure of each
    constraint over the dense mass vector, built from its sets alone, then
    the guards ``Bel(not g) <= 1``.

    A term ``Bel(f | g)`` is ``num/den`` with ``num = Bel(f or not g) -
    Bel(not g)`` and ``den = 1 - Bel(not g)``, both linear on the simplex
    (``1`` is ``sum(m)``); an unconditional term has ``den = 1``.  A single
    term, or a sum of unconditional ones, against ``c`` gives ``sum(coef *
    num) - c * den relop 0``; an equality of two terms, one conditional,
    gives ``num - t * den = 0`` for each, with ``t`` the value in ``params``
    of the k-th such constraint."""
    full = frame.full_bits
    ones = np.ones(1 << frame.theta_size)
    rows, guards, k = [], [], 0
    for con in cons:
        terms = []
        for coef, term in con.terms:
            f = extension_bits(frame, term.target)
            not_g = 0 if term.evidence is None else full ^ extension_bits(frame, term.evidence)
            if term.evidence is not None and not_g not in guards:
                guards.append(not_g)
            bel_not_g = dense_bel(frame, not_g)
            terms.append((coef, dense_bel(frame, f | not_g) - bel_not_g, ones - bel_not_g))
        if len(terms) == 2 and any(t.evidence is not None for _, t in con.terms):
            rows += [(num - params[k] * den, "=", 0.0) for _, num, den in terms]
            k += 1
            continue
        relop = {"<": "<=", ">": ">="}.get(con.relop, con.relop)
        rows.append((sum(coef * num for coef, num, _ in terms) - con.const * terms[0][2],
                     relop, 0.0))
    return rows + [(dense_bel(frame, not_g), "<=", 1.0) for not_g in guards]


def dense_program(cons, frame: ProductFrame, params=()) -> LinearProgram:
    """:func:`dense_rows` on the simplex, with the empty set's mass pinned
    to zero."""
    return simplex_program(1 << frame.theta_size, dense_rows(cons, frame, params),
                           zero_vars=(0,))


def least_column(system, bits: int) -> int:
    """The index of the least column of the system's basis that contains
    the nonempty subset: the column that carries its mass."""
    containers = [i for i, c in enumerate(system.columns) if bits & ~c == 0]
    return min(containers, key=lambda i: system.columns[i].bit_count())


def column_masses(system, mass: MassFunction) -> np.ndarray:
    """A mass function on the columns of the system's basis: each focal
    set's mass on its least containing column."""
    out = np.zeros(len(system.columns))
    for bits, v in mass.focal_bits().items():
        out[least_column(system, bits)] += v
    return out


def dense_coeffs(system, coeffs: np.ndarray) -> np.ndarray:
    """Row coefficients over the columns of the system's basis, read on
    every nonempty subset in bitmask order: the coefficient of its least
    containing column."""
    return np.array([coeffs[least_column(system, bits)]
                     for bits in range(1, system.frame.full_bits + 1)])


def counting_solves(monkeypatch) -> list:
    """The programs of every ``solve`` that ``constraints`` runs from now
    on, in a list that the caller may clear."""
    solves = []
    solve = constraints.solve

    def counting(lp, *args, **kwargs):
        solves.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(constraints, "solve", counting)
    return solves


def random_frame(rng: random.Random, max_points: int = 8) -> ProductFrame:
    """A frame whose product space has at most ``max_points`` points."""
    shapes = {
        2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)], 5: [(5,)],
        6: [(6,), (2, 3)], 8: [(8,), (2, 4), (2, 2, 2)],
        9: [(9,), (3, 3)], 10: [(10,), (2, 5)], 11: [(11,)], 12: [(12,), (3, 4), (2, 2, 3)],
    }
    choices = [s for pts, ss in shapes.items() if pts <= max_points for s in ss]
    shape = rng.choice(choices)
    variables = []
    for i, size in enumerate(shape):
        name = f"V{i}"
        if size == 2:
            values = ("Yes", "No")
        else:
            values = tuple(f"v{j}" for j in range(size))
        variables.append((name, values))
    return ProductFrame(variables)


def random_mass(frame: ProductFrame, rng: random.Random, max_focals: int = 4) -> MassFunction:
    """A mass function with at most ``max_focals`` focal elements."""
    full = frame.full_bits
    count = rng.randint(1, min(max_focals, full))
    focals = set()
    while len(focals) < count:
        bits = rng.randint(1, full)
        focals.add(bits)
    weights = [rng.random() + 0.05 for _ in focals]
    total = sum(weights)
    return MassFunction(frame, {b: w / total for b, w in zip(focals, weights)})


def random_subset(frame: ProductFrame, rng: random.Random, nonempty: bool = False):
    lo = 1 if nonempty else 0
    return frame.subset(rng.randint(lo, frame.full_bits))


def subset_formula(frame: ProductFrame, subset) -> str:
    """Any formula whose extension is the subset (disjunction of points)."""
    if subset.is_empty():
        name = frame.names[0]
        v = frame.values(name)[0]
        return f"({name}={v} and not {name}={v})"
    parts = []
    for p in subset.points():
        values = frame.point_values(p)
        conj = " and ".join(f"{n}={v}" for n, v in zip(frame.names, values))
        parts.append(f"({conj})")
    return " or ".join(parts)


@pytest.fixture
def rng():
    return random.Random(20260809)
