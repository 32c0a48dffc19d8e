"""Spans around the engine's public functions, installed from outside.

A traced run wraps the layer entry points (scenario loading, compilation,
the ``constraints`` commands, the LP kernel, the ``MassFunction`` methods
and the REPL) with functions that record a span: name, start, end and the
span that called it.  Spans are kept only inside an operation and stay in
memory until the run writes them out.  Runs that report end-to-end metrics
install nothing.
"""

from __future__ import annotations

import functools
import time

from surprise_engine import belief, cli, constraints, scenario, solver
from surprise_engine.errors import SolverError

NAME, START, END, PARENT, ATTRS = range(5)

ENTRY_POINTS = ("feasible", "bounds", "surprise_report", "mincommit", "lower_envelope",
                "conflict_core")
SEARCH = {f"constraints.{n}" for n in ENTRY_POINTS if n != "conflict_core"}
BOUNDS_CALLS = {"constraints.bounds", "constraints.surprise_report"}
BELIEF_METHODS = ("__init__", "from_vector", "belief", "surprise", "conditional_surprise",
                  "condition", "is_vacuous", "is_consonant", "is_conjunctive", "focal_bits",
                  "mass", "to_vector", "approx_equal")
BUNKER_OPS = ("check", "bounds", "mincommit")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, label: str) -> None:
        self._open("op", {"label": label})

    def end_op(self, failed: bool) -> None:
        self.spans[self._stack[-1]][ATTRS]["failed"] = failed
        self._close(self._stack[-1])

    def _wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside an operation: checking, not measuring
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    self.spans[idx][ATTRS] = on_result(args, out)
                return out
            except SolverError:
                if name == "solver.solve":
                    self.spans[idx][ATTRS] = {"error": True}
                raise
            finally:
                self._close(idx)
        return traced

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        def lp_shape(args, res):
            lp = args[0]
            return {"pivots": res.pivots, "rows": len(lp.relops) + 1,
                    "cols": lp.num_vars - len(lp.zero_vars)}

        solve = self._wrap("solver.solve", solver.solve, lp_shape)
        self._patch(solver, "solve", solve)
        self._patch(constraints, "solve", solve)
        compile_ = self._wrap("constraints.compile", constraints.compile_constraints)
        self._patch(constraints, "compile_constraints", compile_)
        self._patch(scenario, "compile_constraints", compile_)
        for name in ENTRY_POINTS:
            self._patch(constraints, name,
                        self._wrap(f"constraints.{name}", getattr(constraints, name)))
        self._patch(constraints, "mobius_transform",
                    self._wrap("belief", constraints.mobius_transform))
        mf = belief.MassFunction
        for name in BELIEF_METHODS:
            raw = mf.__dict__[name]
            if isinstance(raw, classmethod):
                self._patch(mf, name, classmethod(self._wrap("belief", raw.__func__)))
            else:
                self._patch(mf, name, self._wrap("belief", raw))
        self._patch(scenario, "load_scenario", self._wrap("scenario.load", scenario.load_scenario))
        self._patch(cli.Repl, "run", self._wrap("cli.repl", cli.Repl.run))
        self._patch(cli.Repl, "do_assume", self._wrap("cli.assume", cli.Repl.do_assume))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        n = len(spans)
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * n
        root = [0] * n
        entry: list[int | None] = [None] * n  # outermost constraints entry point above
        in_conflict = [False] * n
        in_assume = [False] * n
        in_belief = [False] * n
        for i, s in enumerate(spans):
            p = s[PARENT]
            name = s[NAME]
            if p is None:
                root[i] = i
                continue
            child[p] += dur[i]
            root[i] = root[p]
            entry[i] = entry[p] if entry[p] is not None else (
                i if name.startswith("constraints.") and name != "constraints.compile" else None)
            in_conflict[i] = in_conflict[p] or spans[p][NAME] == "constraints.conflict_core"
            in_assume[i] = in_assume[p] or spans[p][NAME] == "cli.assume"
            in_belief[i] = in_belief[p] or spans[p][NAME] == "belief"

        m = {k: 0.0 for k in (
            "solver.solves", "solver.pivots", "solver.solve_s", "solver.errors",
            "solver.errors_swallowed", "constraints.compile_calls", "constraints.compile_s",
            "constraints.search_s", "constraints.conflict_s", "constraints.conflict_compiles",
            "belief.s", "scenario.load_s", "cli.repl_self_s")}
        rows = cols = 0
        calls = {"bounds": 0, "check": 0}
        solves_in = {"bounds": 0, "check": 0}
        assumes = assume_compiles = 0
        bunker = {f"bunker.{op}_{what}": 0 for op in BUNKER_OPS for what in ("solves", "pivots")}
        for i, s in enumerate(spans):
            name, attrs = s[NAME], s[ATTRS] or {}
            if name == "solver.solve":
                m["solver.solves"] += 1
                m["solver.solve_s"] += dur[i]
                if attrs.get("error"):
                    m["solver.errors"] += 1
                    if not spans[root[i]][ATTRS]["failed"]:
                        m["solver.errors_swallowed"] += 1
                    continue
                m["solver.pivots"] += attrs["pivots"]
                rows += attrs["rows"]
                cols += attrs["cols"]
                e = entry[i]
                if e is not None:
                    kind = "bounds" if spans[e][NAME] in BOUNDS_CALLS else \
                        "check" if spans[e][NAME] == "constraints.feasible" else None
                    if kind:
                        solves_in[kind] += 1
                label = spans[root[i]][ATTRS]["label"]
                if label.startswith("bunker."):
                    op = label.split(".", 1)[1]
                    bunker[f"bunker.{op}_solves"] += 1
                    bunker[f"bunker.{op}_pivots"] += attrs["pivots"]
            elif name == "constraints.compile":
                m["constraints.compile_calls"] += 1
                m["constraints.compile_s"] += dur[i]
                m["constraints.conflict_compiles"] += in_conflict[i]
                assume_compiles += in_assume[i] and not in_conflict[i]
            elif name == "constraints.conflict_core" and not in_conflict[i]:
                m["constraints.conflict_s"] += dur[i]
            elif name == "belief" and not in_belief[i]:
                m["belief.s"] += dur[i]
            elif name == "scenario.load":
                m["scenario.load_s"] += dur[i]
            elif name.startswith("cli."):
                m["cli.repl_self_s"] += dur[i] - child[i]
                assumes += name == "cli.assume"
            if name in SEARCH:
                m["constraints.search_s"] += dur[i] - child[i]
            if entry[i] == i:
                if name in BOUNDS_CALLS:
                    calls["bounds"] += 1
                elif name == "constraints.feasible":
                    calls["check"] += 1

        good = m["solver.solves"] - m["solver.errors"]
        m["solver.us_per_pivot"] = 1e6 * m["solver.solve_s"] / m["solver.pivots"] if m["solver.pivots"] else 0.0
        m["solver.columns_mean"] = cols / good if good else 0.0
        m["solver.rows_mean"] = rows / good if good else 0.0
        m["constraints.solves_per_bounds"] = solves_in["bounds"] / calls["bounds"] if calls["bounds"] else 0.0
        m["constraints.solves_per_check"] = solves_in["check"] / calls["check"] if calls["check"] else 0.0
        m["cli.compiles_per_assume"] = assume_compiles / assumes if assumes else 0.0
        m.update(bunker)
        return m
