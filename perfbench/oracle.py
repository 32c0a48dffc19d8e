"""The benchmark's own belief arithmetic and the checks it makes on answers.

Nothing here calls the engine.  A mass function is a ``{mask: weight}``
dict; ``Bel(A)`` is the sum of the weights of the focal sets inside ``A``
and ``Bel(A | B) = (Bel(A or not B) - Bel(not B)) / (1 - Bel(not B))``.
Each check returns a list of messages; an empty list means the answer
passed.
"""

from __future__ import annotations

from math import fsum

import numpy as np

from inputs import Frame, Row, Term, bel, cond

#: Residual allowed on a row, after clearing a conditional's normalizer.
TOL = 1e-6
#: Distance allowed between a reported end and the value its witness attains.
ATTAIN_TOL = 1e-6
#: Distance allowed between an unconditional end and an independent LP.
HIGHS_TOL = 1e-6
#: The bunker bounds must equal c + d - c*d this closely (the engine's own
#: acceptance tolerance for the two-equality case).
FUSION_TOL = 1e-3


def term_value(mass: dict[int, float], t: Term, full: int) -> tuple[float, float]:
    """``(value, normalizer)`` of a belief term at a mass function."""
    if t.evidence is None:
        return bel(mass, t.target), 1.0
    return cond(mass, t.target, t.evidence, full)


def row_violation(mass: dict[int, float], row: Row, full: int) -> str | None:
    vals = [term_value(mass, t, full) for t in row.terms]
    norm = min(n for _, n in vals)
    if norm <= 1e-12:
        return f"{row.text}: a conditional is undefined (normalizer {norm:.3g})"
    lhs = fsum(t.coef * v for t, (v, _) in zip(row.terms, vals))
    # a residual r on the cleared row is r / normalizer on the quotient
    resid = (lhs - row.const) * norm
    bad = (row.relop == "=" and abs(resid) > TOL) or \
          (row.relop == "<=" and resid > TOL) or \
          (row.relop == ">=" and resid < -TOL)
    return f"{row.text}: lhs {lhs!r} (normalizer {norm:.3g})" if bad else None


def check_mass(mass: dict[int, float], full: int) -> list[str]:
    errs = []
    if any(f <= 0 or f > full for f in mass):
        errs.append("focal set outside the frame or empty")
    if any(v < 0 for v in mass.values()):
        errs.append("negative mass")
    if abs(fsum(mass.values()) - 1.0) > TOL:
        errs.append(f"masses sum to {fsum(mass.values())!r}")
    return errs


def check_satisfies(mass: dict[int, float], rows: list[Row], full: int,
                    what: str) -> list[str]:
    errs = [f"{what}: {e}" for e in check_mass(mass, full)]
    for row in rows:
        v = row_violation(mass, row, full)
        if v:
            errs.append(f"{what} violates {v}")
    return errs


def bel_table(mass: dict[int, float], n_points: int) -> np.ndarray:
    """``Bel`` of every subset, by summing each focal set into its supersets."""
    table = np.zeros(1 << n_points)
    for f, v in mass.items():
        table[f] += v
    for i in range(n_points):
        step = 1 << i
        for s in range(1 << n_points):
            if s & step:
                table[s] += table[s ^ step]
    return table


def mobius(table: np.ndarray, n_points: int) -> np.ndarray:
    """Weights whose subset sums are ``table`` (inclusion-exclusion)."""
    out = np.array(table, dtype=float)
    for i in range(n_points):
        step = 1 << i
        for s in range(1 << n_points):
            if s & step:
                out[s] -= out[s ^ step]
    return out


def check_dominated(lower: np.ndarray, upper: np.ndarray, what: str) -> list[str]:
    gap = lower - upper
    worst = int(np.argmax(gap))
    if gap[worst] > TOL:
        return [f"{what}: Bel {lower[worst]!r} above {upper[worst]!r} on subset {worst:#x}"]
    return []


def check_envelope_refusal(env: np.ndarray, rows: list[Row], frame: Frame) -> list[str]:
    """The engine found no minimum-committed function.  That is wrong if the
    envelope's Mobius weights form a mass function meeting every row."""
    weights = mobius(env, frame.size)
    weights[0] = 0.0
    if weights.min() < -1e-9 or abs(weights.sum() - 1.0) > 1e-6:
        return []
    mass = {f: float(v) for f, v in enumerate(weights) if v > 1e-12}
    if any(row_violation(mass, row, frame.full) for row in rows):
        return []
    return ["mincommit refused, yet the envelope's weights form a mass function meeting every row"]


def consonant(mass: dict[int, float]) -> bool:
    focals = sorted(mass, key=lambda f: (f.bit_count(), f))
    return all(a & ~b == 0 for a, b in zip(focals, focals[1:]))


def conjunctive(mass: dict[int, float], full: int) -> bool:
    """Under every evidence ``B`` that leaves some focal set meeting it, the
    propositions believed (some cut inside ``A``, none inside its
    complement) are closed under intersection."""
    for b in range(1, full + 1):
        cuts = {f & b for f in mass} - {0}
        if not cuts:
            continue
        believed = [a for a in range(full + 1)
                    if any(c & ~a == 0 for c in cuts) and not any(c & a == 0 for c in cuts)]
        present = set(believed)
        if any(x & y not in present for x in believed for y in believed):
            return False
    return True


def highs_ends(rows: list[Row], frame: Frame, target: int) -> tuple[float, float] | None:
    """Min and max of ``Bel(target)`` over the rows, by scipy's HiGHS LP over
    one column per nonempty subset.  None when scipy does not import.

    Conditional rows are cleared of their normalizer and, like the engine,
    keep it at least 1e-9 so that the conditional stays defined.
    """
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    full = frame.full
    cols = np.arange(1, full + 1)

    def indicator(a: int) -> np.ndarray:
        return ((cols & ~a) == 0).astype(float)

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in rows:
        coeffs = np.zeros(full)
        const = row.const
        (t,) = row.terms
        if t.evidence is None:
            coeffs += t.coef * indicator(t.target)
        else:
            not_b = full ^ t.evidence
            # k*Bel(A|B) op c  <=>  k*Bel(A or not B) + (c - k)*Bel(not B) op c
            coeffs += t.coef * indicator(t.target | not_b) + (const - t.coef) * indicator(not_b)
            a_ub.append(indicator(not_b))
            b_ub.append(1.0 - 1e-9)
        if row.relop == "=":
            a_eq.append(coeffs)
            b_eq.append(const)
        elif row.relop == "<=":
            a_ub.append(coeffs)
            b_ub.append(const)
        else:
            a_ub.append(-coeffs)
            b_ub.append(-const)
    a_eq.append(np.ones(full))
    b_eq.append(1.0)
    obj = indicator(target)
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * obj, A_ub=np.array(a_ub) if a_ub else None,
                      b_ub=np.array(b_ub) if b_ub else None,
                      A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None),
                      method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        ends.append(sign * res.fun)
    return ends[0], ends[1]
