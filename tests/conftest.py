"""Shared generators for randomized suites.

LP-heavy suites use plain seeded ``random.Random`` instances so runtimes
stay predictable; structural properties use hypothesis.
"""

import random

import numpy as np
import pytest
from hypothesis import settings

from surprise_engine import LinearProgram, MassFunction, ProductFrame, constraints

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


def simplex_program(num_vars: int, rows, *, zero_vars=()) -> LinearProgram:
    """A program over the probability simplex: the rows plus ``sum(x) = 1``,
    which the general-form kernel takes as one more row."""
    return LinearProgram(num_vars, list(rows) + [(np.ones(num_vars), "=", 1.0)],
                         zero_vars=zero_vars)


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
