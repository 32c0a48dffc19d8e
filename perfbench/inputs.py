"""Seeded inputs for the three workloads.

Everything the engine sees is a generated ``.bel`` file (plus a copy of the
bundled ``bunker.bel``).  Next to each file this module keeps its own
description of the constraints as :class:`Row` objects over bitmask subsets,
so answers can be checked by the benchmark's arithmetic in ``oracle.py``
without asking the engine.

Points of a frame are numbered in mixed radix with the first variable
slowest, the same convention the scenario format uses; point ``p`` is bit
``p`` of a subset mask.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import fsum
from pathlib import Path


@dataclass(frozen=True)
class Term:
    """``coef * Bel(target | evidence)``; ``evidence`` None is unconditional."""

    coef: float
    target: int
    evidence: int | None = None


@dataclass(frozen=True)
class Row:
    terms: tuple[Term, ...]
    relop: str
    const: float
    text: str


@dataclass(frozen=True)
class Frame:
    names: tuple[str, ...]
    values: tuple[tuple[str, ...], ...]

    @property
    def size(self) -> int:
        n = 1
        for vals in self.values:
            n *= len(vals)
        return n

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def digits(self, point: int) -> tuple[int, ...]:
        out = []
        for vals in reversed(self.values):
            point, digit = divmod(point, len(vals))
            out.append(digit)
        return tuple(reversed(out))

    def where(self, pred) -> int:
        """Mask of the points whose value tuple satisfies ``pred``."""
        bits = 0
        for p in range(self.size):
            vals = tuple(v[d] for v, d in zip(self.values, self.digits(p)))
            if pred(*vals):
                bits |= 1 << p
        return bits

    def formula(self, bits: int) -> str:
        """A formula for the subset: the disjunction of its points."""
        points = []
        for p in range(self.size):
            if bits >> p & 1:
                atoms = [f"{n}={v[d]}" for n, v, d in zip(self.names, self.values, self.digits(p))]
                points.append(" and ".join(atoms))
        if not points:
            raise ValueError("the empty subset has no point formula")
        return " or ".join(points)

    def variables_section(self) -> str:
        return "\n".join(f"{n}: {', '.join(v)}" for n, v in zip(self.names, self.values))


def bel_text(frame: Frame, target: int, evidence: int | None = None) -> str:
    if evidence is None:
        return f"Bel({frame.formula(target)})"
    return f"Bel({frame.formula(target)} | {frame.formula(evidence)})"


def num(x: float) -> str:
    return repr(float(x))


def write_scenario(path: Path, frame: Frame, rows: list[Row]) -> Path:
    body = ["[variables]", frame.variables_section(), "", "[constraints]", *(r.text for r in rows)]
    path.write_text("\n".join(body) + "\n")
    return path


# ---------------------------------------------------------------------------
# Anchors: the benchmark's own mass arithmetic, needed to derive rows


def bel(mass: dict[int, float], a: int) -> float:
    return fsum(v for f, v in mass.items() if f & ~a == 0)


def cond(mass: dict[int, float], a: int, b: int, full: int) -> tuple[float, float]:
    """``(Bel(a | b), 1 - Bel(not b))`` by the conditioning formula."""
    not_b = full ^ b
    outside = bel(mass, not_b)
    norm = 1.0 - outside
    if norm <= 0.0:
        return float("nan"), norm
    return (bel(mass, a | not_b) - outside) / norm, norm


class Draw:
    """Two random streams.  ``shape`` picks frames, focal sets, subsets,
    relations and which rows exist, and is the same for every seed;
    ``value`` picks weights, slacks and constants from the seed.  LP and
    bisection costs follow the shape of a system far more than its numbers,
    so a fixed shape keeps pass totals comparable between seeds while each
    seed still gives other systems to solve."""

    def __init__(self, workload: str, seed: int):
        self.shape = random.Random(f"{workload}:shape")
        self.value = random.Random(f"{workload}:{seed}")


def random_mass(g: Draw, frame: Frame, focals: int) -> dict[int, float]:
    full = frame.full
    sets: set[int] = set()
    while len(sets) < min(focals, full):
        sets.add(g.shape.randint(1, full))
    ordered = sorted(sets)
    weights = [g.value.random() + 0.5 for _ in ordered]
    total = fsum(weights)
    return {s: w / total for s, w in zip(ordered, weights)}


def _proper_subset(rng: random.Random, frame: Frame) -> int:
    return rng.randrange(1, frame.full)


def _target(g: Draw, frame: Frame, mass: dict[int, float]) -> int:
    """A proper subset, most often one that holds a focal set of the anchor,
    so that rows and queries are not all about sets of belief 0."""
    while True:
        a = _proper_subset(g.shape, frame)
        if g.shape.random() < 0.7:
            a = g.shape.choice(sorted(mass)) | (a & _proper_subset(g.shape, frame))
        if a != frame.full:
            return a


def _evidence(g: Draw, frame: Frame, mass: dict[int, float]) -> int:
    """Evidence ``b`` meeting every focal set of the anchor, so that the
    anchor conditions on it with ``Bel(not b) = 0``."""
    while True:
        b = _proper_subset(g.shape, frame)
        if all(f & b for f in mass):
            return b


def anchored_row(g: Draw, frame: Frame, mass: dict[int, float],
                 conditional: bool, relop: str | None = None) -> Row:
    """A row that holds at the anchor: ``=`` its value, or a slack bound."""
    a = _target(g, frame, mass)
    if conditional:
        b = _evidence(g, frame, mass)
        v, _ = cond(mass, a, b, frame.full)
    else:
        b = None
        v = bel(mass, a)
    relop = relop or g.shape.choice(["=", "=", "<=", ">="])
    slack = g.value.uniform(0.05, 0.15)
    const = v if relop == "=" else min(1.0, v + slack) if relop == "<=" else max(0.0, v - slack)
    return Row((Term(1.0, a, b),), relop, const, f"{bel_text(frame, a, b)} {relop} {num(const)}")


def planted_row(g: Draw, frame: Frame, rows: list[Row]) -> Row:
    """A row contradicting an unconditional ``=`` row ``Bel(A) = v``: either
    ``Bel(A) >= v + 0.1``, or ``Bel(S) <= v - 0.1`` on a superset ``S``."""
    base = g.shape.choice([r for r in rows if r.relop == "=" and r.terms[0].evidence is None])
    a, v = base.terms[0].target, base.const
    if g.shape.random() < 0.5:
        sup = a | _proper_subset(g.shape, frame)
        const = v - 0.1
        return Row((Term(1.0, sup),), "<=", const, f"{bel_text(frame, sup)} <= {num(const)}")
    const = v + 0.1
    return Row((Term(1.0, a),), ">=", const, f"{bel_text(frame, a)} >= {num(const)}")


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One user request: ``kind`` is the command, ``path`` its input file."""

    kind: str  # check | bounds | surprise | mincommit | classify
    label: str
    path: Path
    frame: Frame
    rows: list[Row]
    query: Term | None = None  # bounds and surprise
    args: tuple = ()  # engine-facing texts: query, or (event, given)
    anchor: dict[int, float] | None = None
    planted: int | None = None  # index of the planted row, if any
    expect: dict = field(default_factory=dict)  # workload-specific properties
    group: str = ""  # ops on one scenario share witnesses for dominance checks


@dataclass
class Session:
    """A scripted REPL session followed by ``mincommit`` on its saved file."""

    label: str
    path: Path
    saved: Path
    frame: Frame
    anchor: dict[int, float]
    base: list[Row]
    queries: list[tuple[str, Term]]
    script: list[tuple[str, str, Row | None]]  # (kind, line, row assumed by the line)


# ---------------------------------------------------------------------------
# fusion: bunker-shaped two-evidence scenarios

BUNKER = Frame(("M", "P", "E"), (("Yes", "No"),) * 3)
_IS = {"Yes": True, "No": False}


def _bunker_sets():
    f = BUNKER
    m = f.where(lambda M, P, E: _IS[M])
    p = f.where(lambda M, P, E: _IS[P])
    e = f.where(lambda M, P, E: _IS[E])
    return m, p, e


def bunker_rows(c: float, d: float, params: int) -> list[Row]:
    """The bunker constraint family with the first ``params`` of its two
    independence equalities, texts as in the bundled file."""
    full = BUNKER.full
    m, p, e = _bunker_sets()
    nm, np_, ne = full ^ m, full ^ p, full ^ e
    one = [
        ("Bel(M | P) = c", (Term(1, m, p),), "=", c),
        ("Bel(not M | P) = 0", (Term(1, nm, p),), "=", 0.0),
        ("Bel(M | E) = d", (Term(1, m, e),), "=", d),
        ("Bel(not M | E) = 0", (Term(1, nm, e),), "=", 0.0),
        ("Bel(M) = 0", (Term(1, m),), "=", 0.0),
        ("Bel(not M) = 0", (Term(1, nm),), "=", 0.0),
        ("Bel(P) = 0", (Term(1, p),), "=", 0.0),
        ("Bel(not P) = 0", (Term(1, np_),), "=", 0.0),
        ("Bel(E) = 0", (Term(1, e),), "=", 0.0),
        ("Bel(not E) = 0", (Term(1, ne),), "=", 0.0),
        ("Bel(M => P) = 1", (Term(1, nm | p),), "=", 1.0),
        ("Bel(M => E) = 1", (Term(1, nm | e),), "=", 1.0),
        ("Bel(not P | not M) = c", (Term(1, np_, nm),), "=", c),
        ("Bel(not E | not M) = d", (Term(1, ne, nm),), "=", d),
        ("Bel(not P | not M) = Bel(not P | not M /\\ E)",
         (Term(1, np_, nm), Term(-1, np_, nm & e)), "=", 0.0),
        ("Bel(not E | not M) = Bel(not E | not M /\\ P)",
         (Term(1, ne, nm), Term(-1, ne, nm & p)), "=", 0.0),
    ]
    return [Row(t, op, k, text) for text, t, op, k in one[:14 + params]]


BUNKER_QUERY_TEXT = "Bel(M | P /\\ E)"


def bunker_query() -> Term:
    m, p, e = _bunker_sets()
    return Term(1.0, m, p & e)


def _bunker_file(path: Path, c: float, d: float, params: int) -> Path:
    rows = bunker_rows(c, d, params)
    text = "\n".join([
        f"# bunker-shaped two-evidence scenario, {params} independence equalities",
        "[variables]", BUNKER.variables_section(), "",
        "[constants]", f"c = {num(c)}", f"d = {num(d)}", "",
        "[constraints]", *(r.text for r in rows), "",
        "[queries]", f"military_given_both: {BUNKER_QUERY_TEXT}", ""])
    path.write_text(text)
    return path


def fusion(seed: int, workdir: Path, bundled: Path) -> list[Op]:
    """The bundled scenario (two equalities) with check, bounds and
    mincommit, then seeded (c, d) variants: one with one equality (check,
    bounds, classify) and two with none (check, bounds, surprise,
    mincommit)."""
    rng = random.Random(f"fusion:{seed}")
    bunker_copy = workdir / "bunker.bel"
    bunker_copy.write_text(bundled.read_text())
    q = bunker_query()
    ops: list[Op] = []

    def add(kind, name, path, c, d, params):
        rows = bunker_rows(c, d, params)
        args = (BUNKER_QUERY_TEXT,) if kind == "bounds" else ("not M", "P /\\ E") if kind == "surprise" else ()
        ops.append(Op(kind, f"{name}.{kind}", path, BUNKER, rows, q if args else None, args,
                      expect={"c": c, "d": d, "params": params}, group=name))

    for kind in ("check", "bounds", "mincommit"):
        add(kind, "bunker", bunker_copy, 0.6, 0.7, 2)
    variants = [("one_eq", 1, ("check", "bounds", "classify")),
                ("no_eq_a", 0, ("check", "bounds", "surprise", "mincommit")),
                ("no_eq_b", 0, ("check", "bounds", "surprise", "mincommit"))]
    for name, params, kinds in variants:
        c, d = round(rng.uniform(0.15, 0.85), 3), round(rng.uniform(0.15, 0.85), 3)
        path = _bunker_file(workdir / f"{name}.bel", c, d, params)
        for kind in kinds:
            add(kind, name, path, c, d, params)
    return ops


# ---------------------------------------------------------------------------
# Evidence and query rows shared by lattice and elicit


def plausibility_rows(g: Draw, frame: Frame, mass: dict[int, float],
                      evidences) -> list[Row]:
    """``Bel(not B) <= u < 1`` for each evidence ``B``: the evidence is not
    ruled out, so every conditional keeps a normalizer of at least 0.1."""
    rows = []
    for b in sorted(set(evidences)):
        not_b = frame.full ^ b
        u = min(0.9, bel(mass, not_b) + g.value.uniform(0.05, 0.15))
        rows.append(Row((Term(1.0, not_b),), "<=", u, f"{bel_text(frame, not_b)} <= {num(u)}"))
    return rows


def interior_query(g: Draw, frame: Frame, mass: dict[int, float]) -> Term:
    """A conditional query whose value at the anchor is strictly between 0
    and 1: some focal set lies inside ``Q or not B`` and some does not."""
    while True:
        b = _evidence(g, frame, mass)
        q = _target(g, frame, mass) & b
        inside = sum(f & ~(q | (frame.full ^ b)) == 0 for f in mass)
        if q and 0 < inside < len(mass):
            return Term(1.0, q, b)


def loose_rows(g: Draw, frame: Frame, mass: dict[int, float], q: Term) -> list[Row]:
    """Slack bounds around the anchor's value ``v`` of an interior query,
    kept inside (0, 1) so that each end of its interval takes a bisection."""
    v, _ = cond(mass, q.target, q.evidence, frame.full)
    lo = v * (1.0 - g.value.uniform(0.2, 0.4))
    hi = v + (1.0 - v) * g.value.uniform(0.2, 0.4)
    text = bel_text(frame, q.target, q.evidence)
    return [Row((q,), ">=", lo, f"{text} >= {num(lo)}"),
            Row((q,), "<=", hi, f"{text} <= {num(hi)}")]


def _evidences(rows: list[Row]) -> list[int]:
    return [t.evidence for r in rows for t in r.terms if t.evidence is not None]


# ---------------------------------------------------------------------------
# lattice: parameter-free systems on frames of 4 to 12 points

LATTICE_SHAPES = [(2, 2), (5,), (2, 3), (7,), (2, 2, 2), (3, 3), (2, 5), (11,), (3, 4)]
LATTICE_ROUNDS = 4
# systems that also get a copy with one planted contradiction
LATTICE_PLANTED = (1, 4, 6, 8)
LATTICE_MINCOMMIT_MAX_POINTS = 8


def shape_frame(shape: tuple[int, ...]) -> Frame:
    names = tuple(f"V{i}" for i in range(len(shape)))
    return Frame(names, tuple(tuple(f"v{j}" for j in range(k)) for k in shape))


def lattice(seed: int, workdir: Path) -> list[Op]:
    """Each frame shape, twice: check, an unconditional and a conditional
    bounds, mincommit on frames of at most 8 points, and on four shapes a
    check of a copy with one planted contradiction."""
    g = Draw("lattice", seed)
    ops: list[Op] = []
    for r in range(LATTICE_ROUNDS):
        for i, shape in enumerate(LATTICE_SHAPES):
            frame = shape_frame(shape)
            anchor = random_mass(g, frame, g.shape.randint(3, 5))
            q = Term(1.0, _target(g, frame, anchor))
            qc = interior_query(g, frame, anchor)
            rows = [anchored_row(g, frame, anchor, False, "=")]
            rows += [anchored_row(g, frame, anchor, False) for _ in range(g.shape.randint(6, 8))]
            rows += [anchored_row(g, frame, anchor, True) for _ in range(g.shape.randint(3, 4))]
            rows += loose_rows(g, frame, anchor, qc)
            rows += plausibility_rows(g, frame, anchor, _evidences(rows))
            g.shape.shuffle(rows)
            name = f"r{r}_sys{i}_{frame.size}pt"
            path = write_scenario(workdir / f"{name}.bel", frame, rows)
            common = dict(path=path, frame=frame, rows=rows, anchor=anchor, group=name)
            ops.append(Op("check", f"{name}.check", **common))
            ops.append(Op("bounds", f"{name}.bounds", query=q,
                          args=(bel_text(frame, q.target),), **common))
            ops.append(Op("bounds", f"{name}.bounds_cond", query=qc,
                          args=(bel_text(frame, qc.target, qc.evidence),), **common))
            if frame.size <= LATTICE_MINCOMMIT_MAX_POINTS:
                ops.append(Op("mincommit", f"{name}.mincommit", **common))
            if i in LATTICE_PLANTED:
                bad = rows + [planted_row(g, frame, rows)]
                bad_path = write_scenario(workdir / f"{name}_planted.bel", frame, bad)
                ops.append(Op("check", f"{name}.check_planted", bad_path, frame, bad,
                              anchor=anchor, planted=len(bad) - 1, group=f"{name}_planted"))
    return ops


# ---------------------------------------------------------------------------
# elicit: scripted REPL sessions on an 8-point anchored scenario

ELICIT_FRAME = Frame(("RAIN", "WIND", "COLD"), (("Yes", "No"),) * 3)
ELICIT_SESSIONS = 8


def elicit(seed: int, workdir: Path) -> list[Session]:
    """Each session: bounds on two tracked conditional queries, five
    assumptions that hold at the anchor, two planted contradictions each
    retracted at once, the tracked queries again, and a save."""
    g = Draw("elicit", seed)
    frame = ELICIT_FRAME
    sessions = []
    for s in range(ELICIT_SESSIONS):
        anchor = random_mass(g, frame, 4)
        queries = []
        for _ in range(2):
            qt = interior_query(g, frame, anchor)
            queries.append((bel_text(frame, qt.target, qt.evidence), qt))
        base = [anchored_row(g, frame, anchor, False, "="),
                anchored_row(g, frame, anchor, False),
                anchored_row(g, frame, anchor, True)]
        assumed = [anchored_row(g, frame, anchor, False, "="),
                   anchored_row(g, frame, anchor, True, "="),
                   anchored_row(g, frame, anchor, False),
                   anchored_row(g, frame, anchor, True),
                   anchored_row(g, frame, anchor, False)]
        for _, qt in queries:
            base += loose_rows(g, frame, anchor, qt)
        base += plausibility_rows(g, frame, anchor, _evidences(base + assumed))
        name = f"session{s}"
        path = write_scenario(workdir / f"{name}.bel", frame, base)
        saved = workdir / f"{name}_saved.bel"
        script: list[tuple[str, str, Row | None]] = []
        script += [("bounds", f"bounds {qtext}", None) for qtext, _ in queries]
        script += [("assume", f"assume {row.text}", row) for row in assumed]
        n_rows = len(base) + len(assumed)
        for _ in range(2):
            bad = planted_row(g, frame, base + assumed)
            script.append(("assume_planted", f"assume {bad.text}", bad))
            script.append(("retract", f"retract {n_rows + 1}", None))
        script += [("bounds", f"bounds {qtext}", None) for qtext, _ in queries]
        script.append(("save", f"save {saved}", None))
        sessions.append(Session(name, path, saved, frame, anchor, base, queries, script))
    return sessions
