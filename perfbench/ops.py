"""Running operations through the engine's public functions, and checking
what they return.

An operation is what one user request costs: load the ``.bel`` file,
compile it, and make the command's call the way ``surprise_engine.cli``
does.  Engine functions are always looked up on their modules at call time,
so the wrappers that ``tracing.py`` installs in a traced run see every call.
"""

from __future__ import annotations

import io
import re
import time
from dataclasses import dataclass

import numpy as np

import oracle
from inputs import Op, Session


@dataclass
class Record:
    """One timed operation."""

    label: str
    category: str  # check | bounds | mincommit | other
    seconds: float
    error: str | None = None


CATEGORY = {"check": "check", "bounds": "bounds", "surprise": "bounds",
            "mincommit": "mincommit", "classify": "mincommit"}


class Engine:
    """The engine modules an operation calls into."""

    def __init__(self):
        from surprise_engine import cli, constraints, errors, frames, scenario
        self.cli, self.cons, self.frames, self.scenario = cli, constraints, frames, scenario
        self.EngineError = errors.EngineError


def _mass(m) -> dict[int, float]:
    return dict(m.focal_bits())


# ---------------------------------------------------------------------------
# Single-command operations


def execute(eng: Engine, op: Op):
    """The engine work of one command; returns the raw answer."""
    cons = eng.cons
    sc = eng.scenario.load_scenario(op.path)
    system = sc.system()
    if op.kind == "check":
        res = cons.feasible(system)
        core = None if res.feasible else cons.conflict_core(system)
        return res, core
    if op.kind == "bounds":
        return cons.bounds(system, eng.scenario.parse_query_term(op.args[0], sc.frame))
    if op.kind == "surprise":
        event = eng.frames.parse_formula(op.args[0], sc.frame)
        given = eng.frames.parse_formula(op.args[1], sc.frame)
        return cons.surprise_report(system, event, given)
    if op.kind == "mincommit":
        mass = cons.mincommit(system)
        return mass, (cons.lower_envelope(system) if mass is None else None)
    if op.kind == "classify":
        mass = cons.mincommit(system)
        if mass is None:
            return None, None
        try:
            conj = mass.is_conjunctive()
        except eng.EngineError:
            conj = None
        return mass, (mass.is_vacuous(), mass.is_consonant(), conj)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def run_op(eng: Engine, op: Op, tracer=None) -> tuple[list[Record], object]:
    if tracer:
        tracer.begin_op(op.label)
    t0 = time.perf_counter()
    error = None
    try:
        answer = execute(eng, op)
    except Exception as exc:  # a failed operation is counted, not fatal
        answer, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end_op(failed=error is not None)
    return [Record(op.label, CATEGORY[op.kind], seconds, error)], answer


def plain(op: Op, answer) -> dict:
    """The answer reduced to numbers and masks, for checking and comparing."""
    if op.kind == "check":
        res, core = answer
        return {"feasible": res.feasible,
                "witness": _mass(res.witness) if res.witness is not None else None,
                "core": list(core) if core is not None else None}
    if op.kind in ("bounds", "surprise"):
        return {"lo": answer.lo, "hi": answer.hi,
                "w_lo": _mass(answer.witness_lo), "w_hi": _mass(answer.witness_hi)}
    mass, extra = answer
    out = {"mass": _mass(mass) if mass is not None else None}
    if op.kind == "mincommit":
        out["env"] = None if extra is None else np.asarray(extra, dtype=float)
    else:
        out["classes"] = extra
    return out


def check_op(op: Op, ans: dict) -> list[str]:
    """Checks that need only this operation's answer."""
    full = op.frame.full
    errs: list[str] = []
    if op.kind == "check":
        if op.planted is not None:
            if ans["feasible"]:
                errs.append("planted contradiction reported feasible")
            elif op.planted not in ans["core"]:
                errs.append(f"conflict core {ans['core']} lacks planted row {op.planted}")
        elif not ans["feasible"]:
            errs.append("reported infeasible, but nothing was planted")
        else:
            errs += oracle.check_satisfies(ans["witness"], op.rows, full, "witness")
        return errs

    if op.kind in ("bounds", "surprise"):
        lo, hi = ans["lo"], ans["hi"]
        if lo > hi + 1e-12:
            errs.append(f"empty interval [{lo}, {hi}]")
        q = op.query
        for end, key in ((lo, "w_lo"), (hi, "w_hi")):
            errs += oracle.check_satisfies(ans[key], op.rows, full, key)
            got, norm = oracle.term_value(ans[key], q, full)
            if norm <= 1e-12 or abs(got - end) * norm > oracle.ATTAIN_TOL:
                errs.append(f"{key} attains {got!r}, the reported end is {end!r}")
        if op.anchor is not None:
            v, _ = oracle.term_value(op.anchor, q, full)
            if not lo - oracle.TOL <= v <= hi + oracle.TOL:
                errs.append(f"[{lo}, {hi}] misses the anchor's {v!r}")
        if op.expect:
            errs += _fusion_interval(op.expect, lo, hi)
        return errs

    mass = ans["mass"]
    if mass is not None:
        errs += oracle.check_satisfies(mass, op.rows, full, "mincommit")
        if op.anchor is not None:
            errs += oracle.check_dominated(oracle.bel_table(mass, op.frame.size),
                                           oracle.bel_table(op.anchor, op.frame.size),
                                           "mincommit against the anchor")
        if op.kind == "classify":
            vacuous, cons_, conj = ans["classes"]
            if vacuous != (set(mass) == {full}):
                errs.append(f"vacuous reported {vacuous}")
            if cons_ != oracle.consonant(mass):
                errs.append(f"consonant reported {cons_}")
            if conj is not None and conj != oracle.conjunctive(mass, full):
                errs.append(f"conjunctive reported {conj}")
    elif op.kind == "mincommit":
        env = ans["env"]
        errs += oracle.check_envelope_refusal(env, op.rows, op.frame)
        if op.anchor is not None:
            errs += oracle.check_dominated(env, oracle.bel_table(op.anchor, op.frame.size),
                                           "envelope against the anchor")
    return errs


def _fusion_interval(expect: dict, lo: float, hi: float) -> list[str]:
    c, d, params = expect["c"], expect["d"], expect["params"]
    combined = c + d - c * d
    tol = oracle.FUSION_TOL
    if params == 2 and not (abs(lo - combined) <= tol and abs(hi - combined) <= tol):
        return [f"[{lo}, {hi}] is not c + d - c*d = {combined}"]
    if not lo - tol <= combined <= hi + tol:
        return [f"[{lo}, {hi}] excludes c + d - c*d = {combined}"]
    if params == 0 and lo > max(c, d) + oracle.TOL:
        return [f"lower end {lo} above max(c, d) = {max(c, d)}"]
    return []


def check_groups(ops: list[Op], answers: list[dict | None]) -> list[str]:
    """A minimum-committed function (or lower envelope) lies below every
    witness found on the same scenario."""
    errs = []
    witnesses: dict[str, list[dict]] = {}
    for op, ans in zip(ops, answers):
        if ans is None:
            continue
        for key in ("witness", "w_lo", "w_hi"):
            if ans.get(key) is not None:
                witnesses.setdefault(op.group, []).append(ans[key])
    for op, ans in zip(ops, answers):
        if ans is None or op.kind not in ("mincommit", "classify"):
            continue
        low = ans["mass"]
        table = oracle.bel_table(low, op.frame.size) if low is not None else ans.get("env")
        if table is None:
            continue
        for w in witnesses.get(op.group, []):
            errs += [f"{op.label}: {e}" for e in
                     oracle.check_dominated(table, oracle.bel_table(w, op.frame.size),
                                            "result against a witness")]
    return errs


def check_highs(ops: list[Op], answers: list[dict | None]) -> list[str] | None:
    """Unconditional lattice ends against an independent LP solver; None
    when scipy is not available."""
    errs = []
    for op, ans in zip(ops, answers):
        if ans is None or op.kind != "bounds" or op.query.evidence is not None:
            continue
        ends = oracle.highs_ends(op.rows, op.frame, op.query.target)
        if ends is None:
            return None
        lo, hi = ends
        if abs(lo - ans["lo"]) > oracle.HIGHS_TOL or abs(hi - ans["hi"]) > oracle.HIGHS_TOL:
            errs.append(f"{op.label}: [{ans['lo']}, {ans['hi']}] against HiGHS [{lo}, {hi}]")
    return errs


# ---------------------------------------------------------------------------
# REPL sessions


class ScriptedStdin:
    """Feeds a script to the REPL and notes the time and output position at
    each read: the span between two reads is one command's cost."""

    def __init__(self, lines: list[str], stdout: io.StringIO):
        self._lines = iter(lines)
        self._stdout = stdout
        self.marks: list[tuple[float, int]] = []

    def readline(self) -> str:
        self.marks.append((time.perf_counter(), self._stdout.tell()))
        line = next(self._lines, None)
        return "" if line is None else line + "\n"


SESSION_CATEGORY = {"start": "check", "assume": "check", "assume_planted": "check",
                    "retract": "check", "bounds": "bounds", "save": "other",
                    "mincommit": "mincommit"}
_PROMPT = "bel> "


def run_session(eng: Engine, sess: Session, tracer=None) -> tuple[list[Record], dict]:
    """The REPL session, then ``mincommit`` on the file it saved."""
    out = io.StringIO()
    lines = [line for _, line, _ in sess.script] + ["quit"]
    stdin = ScriptedStdin(lines, out)
    if tracer:
        tracer.begin_op(f"{sess.label}.repl")
    t0 = time.perf_counter()
    error = None
    try:
        repl = eng.cli.Repl(eng.scenario.load_scenario(sess.path), stdin=stdin, stdout=out)
        repl.run()
    except Exception as exc:  # a failed session is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    t_end = time.perf_counter()
    if tracer:
        tracer.end_op(failed=error is not None)

    text = out.getvalue()
    records, segments = [], []
    starts = [(t0, 0)] + stdin.marks
    kinds = ["start"] + [k for k, _, _ in sess.script]
    for i, kind in enumerate(kinds):
        if i + 1 < len(starts):
            (ta, pa), (tb, pb) = starts[i], starts[i + 1]
            seg = text[pa:pb].replace(_PROMPT, "")
            err = next((ln for ln in seg.splitlines() if ln.startswith("ERROR")), None)
        else:  # the session ended before reaching this command
            ta, tb, seg, err = t_end, t_end, "", error or "session ended early"
        records.append(Record(f"{sess.label}.{kind}.{i}", SESSION_CATEGORY[kind], tb - ta, err))
        segments.append(seg)

    mc_op = Op("mincommit", f"{sess.label}.mincommit", sess.saved, sess.frame, [],
               anchor=sess.anchor)
    mc_records, mc_answer = run_op(eng, mc_op, tracer) if error is None else \
        ([Record(mc_op.label, "mincommit", 0.0, "no saved file")], None)
    return records + mc_records, {"segments": segments, "mincommit": mc_answer}


_QUERY_RE = re.compile(r"QUERY (.*) = [\[(](\S+), (\S+)[\])]$")
_NARROW_RE = re.compile(r"NARROWED (.*): \[(\S+), (\S+)\] -> \[(\S+), (\S+)\]$")
_CONFLICT_RE = re.compile(r"CONFLICT (\d+): ")
PRINT_TOL = 1e-8  # the REPL prints nine significant digits


def check_session(eng: Engine, sess: Session, result: dict) -> list[str]:
    full = sess.frame.full
    errs: list[str] = []
    rows = list(sess.base)
    queries = dict(sess.queries)
    current: dict[str, tuple[float, float]] = {}

    def within(q, lo, hi):
        v, _ = oracle.term_value(sess.anchor, queries[q], full)
        if not lo - oracle.TOL <= v <= hi + oracle.TOL:
            errs.append(f"{q[:40]}...: [{lo}, {hi}] misses the anchor's {v!r}")

    for (kind, line, row), seg in zip([("start", "", None)] + sess.script, result["segments"]):
        out = seg.splitlines()
        infeasible = "CHECK infeasible" in out
        if infeasible != (kind == "assume_planted"):
            errs.append(f"{kind} {line[:50]}...: infeasible status {infeasible}")
        if kind == "bounds":
            m = next((_QUERY_RE.match(ln) for ln in out if _QUERY_RE.match(ln)), None)
            if m is None:
                errs.append(f"no interval for {line[:50]}...")
                continue
            q, lo, hi = m.group(1), float(m.group(2)), float(m.group(3))
            within(q, lo, hi)
            if q in current:
                olo, ohi = current[q]
                if lo < olo - PRINT_TOL or hi > ohi + PRINT_TOL:
                    errs.append(f"interval widened: [{olo}, {ohi}] -> [{lo}, {hi}]")
            current[q] = (lo, hi)
        elif kind == "assume":
            rows.append(row)
            for ln in out:
                m = _NARROW_RE.match(ln)
                if not m:
                    continue
                q = m.group(1)
                old = (float(m.group(2)), float(m.group(3)))
                new = (float(m.group(4)), float(m.group(5)))
                if q not in current or max(abs(a - b) for a, b in zip(old, current[q])) > PRINT_TOL:
                    errs.append(f"NARROWED from {old}, the last interval was {current.get(q)}")
                if new[0] < old[0] - PRINT_TOL or new[1] > old[1] + PRINT_TOL:
                    errs.append(f"interval widened: {old} -> {new}")
                within(q, *new)
                current[q] = new
        elif kind == "assume_planted":
            core = [int(m.group(1)) for ln in out if (m := _CONFLICT_RE.match(ln))]
            if len(rows) + 1 not in core:
                errs.append(f"conflict core {core} lacks the planted row {len(rows) + 1}")
        elif kind == "save" and f"SAVED {sess.saved}" not in out:
            errs.append("no SAVED line")

    try:
        saved = eng.scenario.load_scenario(sess.saved)
    except Exception as exc:  # reported as a wrong answer
        return errs + [f"saved file does not reload: {exc}"]
    if [c.render(saved.frame) for c in saved.constraints] != [r.text for r in rows]:
        errs.append("saved file reloads to other constraints")
    if sorted(t.render(saved.frame) for _, t in saved.queries) != sorted(
            eng.scenario.parse_query_term(q, saved.frame).render(saved.frame) for q in queries):
        errs.append("saved file reloads to other queries")

    ans = result["mincommit"]
    if ans is not None:
        mc_op = Op("mincommit", "", sess.saved, sess.frame, rows, anchor=sess.anchor)
        errs += check_op(mc_op, plain(mc_op, ans))
    return errs
