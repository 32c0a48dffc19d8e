"""Command-line front end: scenario commands, an interactive elicitation
REPL, and the bundled scenario corpus.

Exit codes: 0 success, 1 infeasible system or undefined query, 2 usage or
parse error, or a frame over a size cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import constraints as cons
from .belief import MassFunction
from .errors import (
    CompileError,
    ConstraintError,
    EngineError,
    FormulaError,
    FrameTooLarge,
    InfeasibleSystem,
    QueryUndefinedEverywhere,
    ScenarioError,
)
from .frames import extension, parse_formula, pretty
from .scenario import Scenario, load_scenario, parse_query_term, render_scenario

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


@dataclass
class QueryResult:
    """One rendered outcome of a command: an interval, a mass report, a
    boolean, a plain value, or a diagnostic."""

    query: str
    kind: str
    payload: dict = field(default_factory=dict)

    def text_lines(self) -> list[str]:
        if self.kind == "interval":
            lo, hi = self.payload["lo"], self.payload["hi"]
            lb = "(" if self.payload.get("lo_open") else "["
            rb = ")" if self.payload.get("hi_open") else "]"
            return [f"QUERY {self.query} = {lb}{_num(lo)}, {_num(hi)}{rb}"]
        if self.kind == "status":
            return [f"CHECK {self.payload['status']}"]
        if self.kind == "mass":
            lines = [f"MASS {label} = {_num(v)}" for label, v in self.payload["focals"]]
            return lines or ["MASS (none)"]
        if self.kind == "boolean":
            return [f"CLASSIFY {self.query} = {'true' if self.payload['value'] else 'false'}"]
        if self.kind == "value":
            return [f"{self.query} = {_num(self.payload['value'])}"]
        if self.kind == "diagnostic":
            lines = [f"DIAGNOSTIC {self.payload['message']}"]
            lines += [f"CONFLICT {i + 1}: {t}" for i, t in enumerate(self.payload.get("conflict", []))]
            return lines
        raise ValueError(f"unknown result kind {self.kind!r}")

    def json_line(self) -> str:
        return json.dumps({"query": self.query, "kind": self.kind, **self.payload},
                          sort_keys=True)


def _num(v: float) -> str:
    return f"{v:.9g}"


def _interval_result(name: str, res: cons.BoundsResult) -> QueryResult:
    return QueryResult(name, "interval", {
        "lo": res.lo, "hi": res.hi, "lo_open": res.lo_open, "hi_open": res.hi_open,
    })


def _mass_result(name: str, mass: MassFunction) -> QueryResult:
    focals = [(subset.label(), value) for subset, value in mass.focal_elements()]
    return QueryResult(name, "mass", {"focals": focals})


def bundled_scenario(name: str) -> Path:
    """Path of a scenario shipped with the package, e.g. ``hire.bel``."""
    return Path(str(resources.files("surprise_engine").joinpath("data", name)))


# ---------------------------------------------------------------------------
# Commands


def run_check(scenario: Scenario) -> tuple[list[QueryResult], int]:
    core = cons.conflict_core(scenario.system())  # [] iff feasible
    if not core:
        return [QueryResult("check", "status", {"status": "feasible"})], EXIT_OK
    conflict = [scenario.constraints[i].render(scenario.frame) for i in core]
    out = [QueryResult("check", "status", {"status": "infeasible"}),
           QueryResult("check", "diagnostic",
                       {"message": "irreducible conflicting constraints", "conflict": conflict})]
    return out, EXIT_INFEASIBLE


def run_bounds(scenario: Scenario, query_text: str | None) -> tuple[list[QueryResult], int]:
    system = scenario.system()
    if query_text is not None:
        queries = [(query_text.strip(), parse_query_term(query_text, scenario.frame))]
    else:
        queries = scenario.queries
    # refined by every query at once, so that the queries share one box
    system = cons.refine(system, [bits for _, term in queries
                                  for bits in cons.query_sets(scenario.frame, term)])
    out = []
    code = EXIT_OK
    for name, term in queries:
        try:
            out.append(_interval_result(name, cons.bounds(system, term)))
        except QueryUndefinedEverywhere as exc:
            out.append(QueryResult(name, "diagnostic", {"message": str(exc)}))
            code = EXIT_INFEASIBLE
    return out, code


def run_mincommit(scenario: Scenario) -> tuple[list[QueryResult], int]:
    system = scenario.system()
    env = cons.lower_envelope(system)
    mass = cons.envelope_mass(system, env)
    if mass is not None:
        return [_mass_result("mincommit", mass)], EXIT_OK
    lines = [(scenario.frame.subset(bits).label(), float(v))
             for bits, v in enumerate(env) if v > 1e-9]
    return [QueryResult("mincommit", "diagnostic",
                        {"message": "no minimum-committed belief function; "
                                    "lower envelope is not a belief function"}),
            QueryResult("envelope", "mass", {"focals": lines})], EXIT_INFEASIBLE


def run_condition(scenario: Scenario, formula_text: str) -> tuple[list[QueryResult], int]:
    """Condition the scenario's minimum-committed belief function."""
    system = scenario.system()
    mass = cons.mincommit(system)
    if mass is None:
        return [QueryResult("condition", "diagnostic",
                            {"message": "scenario has no minimum-committed belief function "
                                        "to condition"})], EXIT_INFEASIBLE
    evidence = parse_formula(formula_text, scenario.frame)
    conditioned = mass.condition(extension(scenario.frame, evidence))
    return [_mass_result(f"condition {pretty(evidence, scenario.frame)}", conditioned)], EXIT_OK


def run_surprise(scenario: Scenario, event_text: str,
                 given_text: str | None) -> tuple[list[QueryResult], int]:
    system = scenario.system()
    event = parse_formula(event_text, scenario.frame)
    given = parse_formula(given_text, scenario.frame) if given_text else None
    label = f"surprise({pretty(event, scenario.frame)}"
    if given is not None:
        label += f" | {pretty(given, scenario.frame)}"
    label += ")"
    try:
        res = cons.surprise_report(system, event, given)
    except QueryUndefinedEverywhere as exc:
        return [QueryResult(label, "diagnostic", {"message": str(exc)})], EXIT_INFEASIBLE
    return [_interval_result(label, res)], EXIT_OK


def run_classify(scenario: Scenario) -> tuple[list[QueryResult], int]:
    system = scenario.system()
    mass = cons.mincommit(system)
    if mass is None:
        return [QueryResult("classify", "diagnostic",
                            {"message": "no minimum-committed belief function to classify"})], \
            EXIT_INFEASIBLE
    out = [QueryResult("vacuous", "boolean", {"value": mass.is_vacuous()}),
           QueryResult("consonant", "boolean", {"value": mass.is_consonant()})]
    try:
        out.append(QueryResult("conjunctive", "boolean", {"value": mass.is_conjunctive()}))
    except EngineError as exc:
        out.append(QueryResult("conjunctive", "diagnostic", {"message": str(exc)}))
    return out, EXIT_OK


def run_calibrate(scenario: Scenario, x: int | None, y: int | None) -> tuple[list[QueryResult], int]:
    curve = scenario.calibration
    if curve is None:
        return [QueryResult("calibrate", "diagnostic",
                            {"message": "scenario has no [calibration] section"})], EXIT_INFEASIBLE
    if x is None:
        anchors = [QueryResult(f"ANCHOR log_ratio {_num(r)}", "value", {"value": s})
                   for r, s in curve.anchors]
        return anchors, EXIT_OK
    value = curve.to_surprise(x, y)
    return [QueryResult(f"CALIBRATE {x} vs {y}", "value", {"value": value})], EXIT_OK


# ---------------------------------------------------------------------------
# REPL


class Repl:
    """Interactive constraint elicitation over a loaded scenario.

    Commands: ``assume <constraint>``, ``retract <n>``, ``bounds <Bel(...)>``,
    ``why-infeasible``, ``list``, ``save <path>``, ``quit``.

    The state is the scenario, the ``system`` its constraints compiled to,
    that system's conflict ``core`` (``[]`` iff it is feasible), and the
    tracked ``queries``: each query's text maps to its term and its last
    bounds.  The constraints are compiled at the start and by ``assume``,
    which lowers only its own constraint onto the kept system
    (:func:`~surprise_engine.constraints.extend`) and changes nothing when
    that constraint does not compile; ``retract`` cuts its system out of
    the kept one.  The system's basis stays refined by the sets of every
    tracked query, so the check and each query's bounds after an
    ``assume`` or ``retract`` share one box: one root phase 1.
    """

    system: cons.CompiledSystem
    core: list[int]

    def __init__(self, scenario: Scenario, *, stdin=None, stdout=None):
        self.scenario = scenario
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.queries: dict[str, tuple[cons.BelTerm, tuple[float, float]]] = {}

    def say(self, line: str) -> None:
        print(line, file=self.stdout)

    def run(self) -> int:
        self.say("surprise-engine repl; 'help' lists commands, 'quit' leaves")
        self._check(self.scenario.system())
        self._say_status()
        while True:
            self.stdout.write("bel> ")
            self.stdout.flush()
            line = self.stdin.readline()
            if not line:
                return EXIT_OK
            line = line.strip()
            if not line:
                continue
            if line in ("quit", "exit"):
                return EXIT_OK
            try:
                if self._dispatch(line):
                    return EXIT_OK
            except EngineError as exc:
                self.say(f"ERROR {exc}")

    def _dispatch(self, line: str) -> bool:
        cmd, _, rest = line.partition(" ")
        rest = rest.strip()
        if cmd == "help":
            self.say("commands: assume <constraint> | retract <n> | bounds <Bel(...)> | "
                     "why-infeasible | list | save <path> | quit")
        elif cmd == "assume":
            self.do_assume(rest)
        elif cmd == "retract":
            self.do_retract(rest)
        elif cmd == "bounds":
            self.do_bounds(rest)
        elif cmd == "why-infeasible":
            self.do_why()
        elif cmd == "list":
            for i, con in enumerate(self.scenario.constraints, start=1):
                self.say(f"{i}: {con.render(self.scenario.frame)}")
        elif cmd == "save":
            self.do_save(rest)
        else:
            self.say(f"ERROR unknown command {cmd!r}; try 'help'")
        return False

    def _check(self, system: cons.CompiledSystem) -> None:
        """Keep the system and its conflict core, or neither when the
        search fails."""
        self.system, self.core = system, cons.conflict_core(system)

    def _say_status(self) -> None:
        self.say(f"CHECK {'infeasible' if self.core else 'feasible'}")

    def do_assume(self, text: str) -> None:
        if not text:
            self.say("ERROR assume needs a constraint")
            return
        con = cons.parse_constraint(text, self.scenario.frame, self.scenario.config.constants)
        self._check(cons.extend(self.system, [con],
                                max_parameters=self.scenario.config.max_parameters))
        self.scenario.constraints.append(con)
        if self.core:
            self._say_status()
            self.do_why()
            return
        self.say(f"ASSUMED {len(self.scenario.constraints)}: {con.render(self.scenario.frame)}")
        for qtext, (term, old) in list(self.queries.items()):
            try:
                res = cons.bounds(self.system, term)
            except QueryUndefinedEverywhere:
                self.say(f"UNDEFINED {qtext}")
                continue
            new = (res.lo, res.hi)
            if new[0] > old[0] + 1e-9 or new[1] < old[1] - 1e-9:
                self.say(f"NARROWED {qtext}: [{_num(old[0])}, {_num(old[1])}] -> "
                         f"[{_num(new[0])}, {_num(new[1])}]")
            self.queries[qtext] = (term, new)

    def do_retract(self, text: str) -> None:
        try:
            n = int(text)
        except ValueError:
            self.say("ERROR retract needs a constraint number")
            return
        if not 1 <= n <= len(self.scenario.constraints):
            self.say(f"ERROR no constraint numbered {n}")
            return
        keep = [i for i in range(len(self.scenario.constraints)) if i != n - 1]
        self._check(cons.subsystem(self.system, keep))
        con = self.scenario.constraints.pop(n - 1)
        self.say(f"RETRACTED {n}: {con.render(self.scenario.frame)}")
        self._say_status()

    def do_bounds(self, text: str) -> None:
        if self.core:
            self.say("ERROR system is infeasible; retract something first")
            return
        term = parse_query_term(text, self.scenario.frame)
        key = text.strip()
        system = cons.refine(self.system, cons.query_sets(self.scenario.frame, term))
        try:
            res = cons.bounds(system, term)
        except QueryUndefinedEverywhere as exc:
            self.say(f"UNDEFINED {exc}")
            return
        self.system = system  # the query is tracked: keep its sets in the basis
        self.queries[key] = (term, (res.lo, res.hi))
        for line in _interval_result(key, res).text_lines():
            self.say(line)

    def do_why(self) -> None:
        """Print the kept conflict core."""
        if not self.core:
            self.say("CHECK feasible (nothing to explain)")
            return
        self.say("DIAGNOSTIC irreducible conflicting constraints")
        for i in self.core:
            self.say(f"CONFLICT {i + 1}: {self.system.constraints[i].render(self.scenario.frame)}")

    def do_save(self, text: str) -> None:
        if not text:
            self.say("ERROR save needs a path")
            return
        snapshot = Scenario(
            frame=self.scenario.frame,
            constraints=list(self.scenario.constraints),
            calibration=self.scenario.calibration,
            calibration_entries=list(self.scenario.calibration_entries),
            queries=[(f"q{i + 1}", term) for i, (term, _) in enumerate(self.queries.values())],
            config=self.scenario.config,
        )
        try:
            Path(text).write_text(render_scenario(snapshot))
        except OSError as exc:
            self.say(f"ERROR cannot write {text}: {exc.strerror or exc}")
            return
        self.say(f"SAVED {text}")


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surprise-engine",
        description="Reason over declared fragments of belief: feasibility, "
                    "tight belief bounds, minimum commitment, and surprise.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="scenario file (.bel)")
        p.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                       help="override a constant or config flag")
        p.add_argument("--max-theta", type=int, default=None,
                       help="cap on product-space points at compile time")
        p.add_argument("--format", choices=("text", "json-lines"), default="text")

    common(sub.add_parser("check", help="is any belief function consistent with the scenario?"))
    p = sub.add_parser("bounds", help="tight bounds of the scenario queries")
    common(p)
    p.add_argument("query", nargs="?", default=None, help="a Bel(...) term; default: all [queries]")
    p = sub.add_parser("condition", help="condition the minimum-committed belief function")
    common(p)
    p.add_argument("evidence", help="formula to condition on")
    p = sub.add_parser("surprise", help="guaranteed surprise range upon an event occurring")
    common(p)
    p.add_argument("event", help="the event formula")
    p.add_argument("--given", default=None, help="optional evidence formula")
    common(sub.add_parser("mincommit", help="minimum-committed belief function, if any"))
    common(sub.add_parser("classify", help="classify the minimum-committed belief function"))
    p = sub.add_parser("calibrate", help="convert a ratio through the calibration curve")
    common(p)
    p.add_argument("x", nargs="?", type=int, default=None)
    p.add_argument("y", nargs="?", type=int, default=None)
    common(sub.add_parser("repl", help="interactive constraint elicitation"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.set:
        name, eq, value = item.partition("=")
        if not eq:
            print(f"error: --set expects NAME=VALUE, got {item!r}", file=sys.stderr)
            return EXIT_USAGE
        overrides[name.strip()] = value
    try:
        scenario = load_scenario(args.file, overrides)
    except (ScenarioError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.max_theta is not None:
        scenario.config.max_theta = args.max_theta

    try:
        if args.command == "repl":
            return Repl(scenario).run()
        if args.command == "check":
            results, code = run_check(scenario)
        elif args.command == "bounds":
            results, code = run_bounds(scenario, args.query)
        elif args.command == "condition":
            results, code = run_condition(scenario, args.evidence)
        elif args.command == "surprise":
            results, code = run_surprise(scenario, args.event, args.given)
        elif args.command == "mincommit":
            results, code = run_mincommit(scenario)
        elif args.command == "classify":
            results, code = run_classify(scenario)
        elif args.command == "calibrate":
            if (args.x is None) != (args.y is None) or args.x is not None and min(args.x, args.y) <= 0:
                print("error: calibrate needs two positive integers x and y, or neither",
                      file=sys.stderr)
                return EXIT_USAGE
            results, code = run_calibrate(scenario, args.x, args.y)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
    except InfeasibleSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CompileError, ConstraintError, FormulaError, FrameTooLarge, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    for result in results:
        if args.format == "json-lines":
            print(result.json_line())
        else:
            for line in result.text_lines():
                print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
