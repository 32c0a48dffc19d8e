"""Scenario files: a line-oriented plain-text format declaring a frame,
symbolic constants, belief constraints, calibration entries, and named
queries.

::

    # comment
    [config]
    independence = on

    [variables]
    TEMP: low, med, high

    [constants]
    c = 0.6

    [constraints]
    Bel(TEMP=med or TEMP=low) > Bel(TEMP=med) + Bel(TEMP=low)
    when independence: Bel(not P | not M) = Bel(not P | not M /\\ E)

    [calibration]
    51 vs 43 -> 4

    [queries]
    not_high: Bel(TEMP=med or TEMP=low)

Constraint lines prefixed ``when <flag>:`` are kept only when the flag is
on in ``[config]`` (or overridden on the command line).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path

from .calibration import CalibrationCurve, build_curve
from .constraints import (
    DEFAULT_COMPILE_MAX_THETA,
    DEFAULT_MAX_PARAMETERS,
    BelTerm,
    CompiledSystem,
    Constraint,
    bel_term_at,
    compile_constraints,
    parse_constraint,
)
from .errors import EngineError, ScenarioError, TextError
from .frames import ProductFrame, tokenize

_SECTIONS = ("config", "variables", "constants", "constraints", "calibration", "queries")
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_VARIABLE_RE = re.compile(rf"({_IDENT})\s*:\s*(.+)")
_ASSIGN_RE = re.compile(rf"({_IDENT})\s*=\s*(.+)")
_CALIB_RE = re.compile(r"(\d+)\s+vs\s+(\d+)\s*->\s*([0-9.eE+-]+)")
_QUERY_RE = re.compile(rf"({_IDENT})\s*:\s*(.+)")
_WHEN_RE = re.compile(rf"when\s+({_IDENT})\s*:\s*(.+)")

_TRUE_WORDS = {"on", "true", "yes", "1"}
_FALSE_WORDS = {"off", "false", "no", "0"}

_INT_CONFIG_KEYS = {"max_theta", "max_parameters"}


@dataclass
class ScenarioConfig:
    max_theta: int = DEFAULT_COMPILE_MAX_THETA
    max_parameters: int = DEFAULT_MAX_PARAMETERS
    flags: dict[str, bool] = field(default_factory=dict)
    constants: dict[str, float] = field(default_factory=dict)


@dataclass
class Scenario:
    frame: ProductFrame
    constraints: list[Constraint]
    calibration: CalibrationCurve | None
    calibration_entries: list[tuple[int, int, float]]
    queries: list[tuple[str, BelTerm]]
    config: ScenarioConfig

    def system(self) -> CompiledSystem:
        return compile_constraints(
            self.constraints, self.frame,
            max_theta=self.config.max_theta,
            max_parameters=self.config.max_parameters)


def _parse_bool(value: str, line: int) -> bool:
    v = value.strip().lower()
    if v in _TRUE_WORDS:
        return True
    if v in _FALSE_WORDS:
        return False
    raise ScenarioError(f"expected on/off, got {value!r}", line)


def _at(exc: EngineError, offset: int, lineno: int) -> ScenarioError:
    """The error of a text that starts ``offset`` characters into line
    ``lineno``, with its column counted from the start of the line."""
    if isinstance(exc, TextError) and exc.position is not None:
        exc.position += offset
    return ScenarioError(str(exc), lineno)


def load_scenario(path, overrides: dict[str, str] | None = None) -> Scenario:
    """Read and resolve a scenario file.

    ``overrides`` replace constants or config flags before any constraint
    is parsed, matching the CLI's ``--set name=value``.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(raw, overrides, source=str(path))


def parse_scenario(text: str, overrides: dict[str, str] | None = None, *,
                   source: str = "<scenario>") -> Scenario:
    # each section's lines, stripped, with their numbers and the width of
    # the white space stripped off their start
    sections: dict[str, list[tuple[int, str, int]]] = {name: [] for name in _SECTIONS}
    current: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0]
        indent = len(line) - len(line.lstrip())
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            current = name
            continue
        if current is None:
            raise ScenarioError(f"content before any section: {line!r}", lineno)
        sections[current].append((lineno, line, indent))

    config = ScenarioConfig()

    for lineno, line, indent in sections["constants"]:
        m = _ASSIGN_RE.fullmatch(line)
        if not m:
            raise ScenarioError(f"expected 'name = number', got {line!r}", lineno)
        try:
            value = float(m.group(2))
        except ValueError:
            raise ScenarioError(f"constant {m.group(1)!r} has a non-numeric value", lineno) from None
        if not isfinite(value):
            fault = TextError(f"constant {m.group(1)!r} is not finite", m.start(2))
            raise _at(fault, indent, lineno)
        config.constants[m.group(1)] = value

    for lineno, line, _ in sections["config"]:
        m = _ASSIGN_RE.fullmatch(line)
        if not m:
            raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
        key, value = m.group(1), m.group(2).strip()
        if key in _INT_CONFIG_KEYS:
            try:
                setattr(config, key, int(value))
            except ValueError:
                raise ScenarioError(f"config {key!r} needs an integer", lineno) from None
        else:
            config.flags[key] = _parse_bool(value, lineno)

    for key, value in (overrides or {}).items():
        value = value.strip()
        if key in _INT_CONFIG_KEYS:
            try:
                setattr(config, key, int(value))
            except ValueError:
                raise ScenarioError(f"--set {key}={value}: {key!r} needs an integer") from None
        elif value.lower() in _TRUE_WORDS or value.lower() in _FALSE_WORDS:
            config.flags[key] = value.lower() in _TRUE_WORDS
        else:
            try:
                number = float(value)
            except ValueError:
                raise ScenarioError(f"--set {key}={value}: not a number or on/off flag") from None
            if not isfinite(number):
                raise ScenarioError(f"--set {key}={value}: not a finite number")
            config.constants[key] = number

    variables = []
    for lineno, line, _ in sections["variables"]:
        m = _VARIABLE_RE.fullmatch(line)
        if not m:
            raise ScenarioError(f"expected 'NAME: value, value, ...', got {line!r}", lineno)
        values = [v.strip() for v in m.group(2).split(",")]
        variables.append((m.group(1), values))
    if not variables:
        raise ScenarioError("scenario declares no variables")
    try:
        frame = ProductFrame(variables)
    except EngineError as exc:
        raise ScenarioError(str(exc), sections["variables"][0][0]) from exc

    constraints: list[Constraint] = []
    for lineno, line, indent in sections["constraints"]:
        body, start = line, indent
        m = _WHEN_RE.fullmatch(line)
        if m:
            flag, body, start = m.group(1), m.group(2), indent + m.start(2)
            if flag not in config.flags:
                raise ScenarioError(f"undeclared flag {flag!r} in 'when' prefix", lineno)
            if not config.flags[flag]:
                continue
        try:
            constraints.append(parse_constraint(body, frame, config.constants))
        except EngineError as exc:
            raise _at(exc, start, lineno) from exc

    entries: list[tuple[int, int, float]] = []
    for lineno, line, _ in sections["calibration"]:
        m = _CALIB_RE.fullmatch(line)
        if not m:
            raise ScenarioError(f"expected 'X vs Y -> surprise', got {line!r}", lineno)
        entries.append((int(m.group(1)), int(m.group(2)), float(m.group(3))))
    curve = None
    if sections["calibration"]:
        try:
            curve = build_curve(entries)
        except (EngineError, ValueError) as exc:
            raise ScenarioError(str(exc), sections["calibration"][0][0]) from exc

    queries: list[tuple[str, BelTerm]] = []
    seen_names = set()
    for lineno, line, indent in sections["queries"]:
        m = _QUERY_RE.fullmatch(line)
        if not m:
            raise ScenarioError(f"expected 'name: Bel(...)', got {line!r}", lineno)
        name = m.group(1)
        if name in seen_names:
            raise ScenarioError(f"duplicate query name {name!r}", lineno)
        seen_names.add(name)
        try:
            queries.append((name, parse_query_term(m.group(2), frame)))
        except EngineError as exc:
            raise _at(exc, indent + m.start(2), lineno) from exc

    return Scenario(frame, constraints, curve, entries, queries, config)


def parse_query_term(text: str, frame: ProductFrame) -> BelTerm:
    """Parse a bare ``Bel(target)`` or ``Bel(target | evidence)``."""
    tokens = tokenize(text)
    if tokens.values[0] != "Bel":
        raise ScenarioError(f"a query must be a single Bel(...) term, got {text.strip()!r}")
    term, i = bel_term_at(tokens, 0, frame)
    if tokens.kinds[i] != "end":
        raise ScenarioError(f"trailing input after Bel(...): {text[tokens.offset(i):].strip()!r}")
    return term


def render_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to file syntax (used by the REPL's save)."""
    out = []
    cfg = scenario.config
    out.append("[config]")
    out.append(f"max_theta = {cfg.max_theta}")
    out.append(f"max_parameters = {cfg.max_parameters}")
    for flag, value in sorted(cfg.flags.items()):
        out.append(f"{flag} = {'on' if value else 'off'}")
    out.append("")
    out.append("[variables]")
    for name in scenario.frame.names:
        out.append(f"{name}: {', '.join(scenario.frame.values(name))}")
    if cfg.constants:
        out.append("")
        out.append("[constants]")
        for name, value in sorted(cfg.constants.items()):
            out.append(f"{name} = {value!r}")
    out.append("")
    out.append("[constraints]")
    for con in scenario.constraints:
        out.append(con.render(scenario.frame))
    if scenario.calibration_entries:
        out.append("")
        out.append("[calibration]")
        for x, y, s in scenario.calibration_entries:
            out.append(f"{x} vs {y} -> {s!r}")
    if scenario.queries:
        out.append("")
        out.append("[queries]")
        for name, term in scenario.queries:
            out.append(f"{name}: {term.render(scenario.frame)}")
    return "\n".join(out) + "\n"
