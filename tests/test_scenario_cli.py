"""Scenario files, command dispatch, exit codes, and the REPL."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import surprise_engine
from surprise_engine import (
    CompileError,
    ScenarioError,
    bounds,
    compile_constraints,
    constraints,
    feasible,
    solver,
)
from surprise_engine import scenario as scenario_module
from surprise_engine.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, Repl, bundled_scenario, main
from surprise_engine.scenario import load_scenario, parse_scenario
from conftest import counting_solves

CORPUS = ["hire.bel", "nixon.bel", "temperature.bel", "window.bel", "bunker.bel", "bird.bel"]


class TestScenarioParsing:
    def test_hire_loads(self):
        sc = load_scenario(bundled_scenario("hire.bel"))
        assert sc.frame.names == ("HIRE",)
        assert len(sc.constraints) == 2
        assert [name for name, _ in sc.queries] == ["hire", "no_hire"]

    def test_bunker_independence_toggle(self):
        on = load_scenario(bundled_scenario("bunker.bel"))
        off = load_scenario(bundled_scenario("bunker.bel"), {"independence": "off"})
        assert len(on.constraints) == 16
        assert len(off.constraints) == 14

    def test_constants_substituted(self):
        sc = load_scenario(bundled_scenario("bunker.bel"), {"c": "0.5"})
        assert sc.constraints[0].const == 0.5

    def test_empty_constraints_section_valid(self):
        sc = parse_scenario("""
[variables]
A: Yes, No

[constraints]

[queries]
a: Bel(A)
""")
        assert sc.constraints == []
        res = bounds(sc.system(), sc.queries[0][1])
        assert (res.lo, res.hi) == (pytest.approx(0.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))

    def test_unknown_section_reports_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("[variables]\nA: Yes, No\n[wat]\n")
        assert err.value.line == 3

    def test_bad_constraint_reports_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("[variables]\nA: Yes, No\n\n[constraints]\nBel(B) = 1\n")
        assert err.value.line == 5

    def test_grid_key_is_a_non_boolean_flag(self, tmp_path, capsys):
        # `grid` sized a parameter grid that the search no longer has; it is
        # now an ordinary config flag, and 64 is not on/off
        path = tmp_path / "grid.bel"
        path.write_text("[config]\ngrid = 64\n\n[variables]\nA: Yes, No\n")
        assert main(["bounds", str(path), "Bel(A)"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 2: expected on/off, got '64'\n"
        with pytest.raises(SystemExit) as done:
            main(["bounds", str(path), "Bel(A)", "--grid", "64"])
        assert done.value.code == EXIT_USAGE

    def test_undeclared_when_flag(self):
        with pytest.raises(ScenarioError, match="undeclared flag"):
            parse_scenario("[variables]\nA: Yes, No\n[constraints]\nwhen foo: Bel(A) = 0\n")

    def test_missing_constant_named(self):
        with pytest.raises(ScenarioError, match="'k'"):
            parse_scenario("[variables]\nA: Yes, No\n[constraints]\nBel(A) = k\n")

    def test_no_variables_rejected(self):
        with pytest.raises(ScenarioError, match="no variables"):
            parse_scenario("[constraints]\n")

    def test_comments_and_blank_lines_ignored(self):
        sc = parse_scenario("""
# header comment
[variables]
A: Yes, No   # trailing comment

[constraints]
Bel(A) = 0   # another
""")
        assert len(sc.constraints) == 1

    def test_calibration_section(self):
        sc = parse_scenario("""
[variables]
A: Yes, No

[calibration]
51 vs 43 -> 4
""")
        assert sc.calibration is not None
        assert sc.calibration.to_surprise(51, 43) == 0.4


class TestCorpus:
    @pytest.mark.parametrize("name", CORPUS)
    def test_loads_and_checks(self, name):
        sc = load_scenario(bundled_scenario(name))
        assert feasible(sc.system()).feasible

    def test_every_query_answers(self):
        for name in ["hire.bel", "window.bel", "bird.bel"]:
            sc = load_scenario(bundled_scenario(name))
            system = sc.system()
            for _, term in sc.queries:
                res = bounds(system, term)
                assert 0.0 <= res.lo <= res.hi <= 1.0


class TestCli:
    def test_check_exit_codes(self, capsys, tmp_path):
        assert main(["check", str(bundled_scenario("hire.bel"))]) == 0
        assert "CHECK feasible" in capsys.readouterr().out
        bad = tmp_path / "bad.bel"
        bad.write_text("[variables]\nA: Yes, No\n[constraints]\nBel(A) = 0\nBel(A) = 1\n")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "CHECK infeasible" in out and "CONFLICT" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "broken.bel"
        bad.write_text("[variables]\nA Yes No\n")
        assert main(["check", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bounds_named_queries(self, capsys):
        assert main(["bounds", str(bundled_scenario("window.bel"))]) == 0
        out = capsys.readouterr().out
        assert "QUERY trio = [0.6, 0.6]" in out

    def test_bounds_ad_hoc_query(self, capsys):
        assert main(["bounds", str(bundled_scenario("hire.bel")), "Bel(HIRE)"]) == 0
        assert "[0, 0]" in capsys.readouterr().out

    def test_json_lines_format(self, capsys):
        assert main(["bounds", str(bundled_scenario("hire.bel")), "--format", "json-lines"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines:
            record = json.loads(line)
            assert record["kind"] == "interval"
            assert 0.0 <= record["lo"] <= record["hi"] <= 1.0

    def test_mincommit_window(self, capsys):
        assert main(["mincommit", str(bundled_scenario("window.bel"))]) == 0
        out = capsys.readouterr().out
        assert "MASS" in out and "0.6" in out and "0.4" in out

    def test_classify_window(self, capsys):
        assert main(["classify", str(bundled_scenario("window.bel"))]) == 0
        out = capsys.readouterr().out
        assert "CLASSIFY vacuous = false" in out
        assert "CLASSIFY consonant = true" in out
        assert "CLASSIFY conjunctive = true" in out

    def test_surprise_bird(self, capsys):
        assert main(["surprise", str(bundled_scenario("bird.bel")),
                     "not FLY", "--given", "BIRD"]) == 0
        assert "[0.4, 0.4]" in capsys.readouterr().out

    def test_condition_window(self, capsys):
        assert main(["condition", str(bundled_scenario("window.bel")),
                     "not X=T and not X=J"]) == 0
        out = capsys.readouterr().out
        assert "MASS {(X=P)} = 0.6" in out

    def test_calibrate(self, capsys, tmp_path):
        f = tmp_path / "cal.bel"
        f.write_text("[variables]\nA: Yes, No\n\n[calibration]\n51 vs 43 -> 4\n")
        assert main(["calibrate", str(f), "51", "43"]) == 0
        assert "0.4" in capsys.readouterr().out

    def test_calibrate_rejects_a_non_positive_ratio(self, capsys, tmp_path):
        f = tmp_path / "cal.bel"
        f.write_text("[variables]\nA: Yes, No\n\n[calibration]\n51 vs 43 -> 4\n")
        for x, y in (("0", "5"), ("51", "-43")):
            assert main(["calibrate", str(f), x, y]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["check", "--set", "max_theta=abc"],
        ["check", "--set", "max_parameters=x"],
        ["bounds", "Bel(FIRE)"],
        ["bounds", "Bel(HIRE) junk"],
        ["surprise", "HIRE or"],
        ["condition", "HIRE or"],
    ])
    def test_bad_argument_is_a_usage_error(self, capsys, args):
        command, *rest = args
        assert main([command, str(bundled_scenario("hire.bel")), *rest]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_set_override(self, capsys):
        assert main(["bounds", str(bundled_scenario("bunker.bel")), "Bel(M | P)",
                     "--set", "independence=off"]) == 0
        assert "[0.6, 0.6]" in capsys.readouterr().out

    def test_runs_as_a_module(self, capsys):
        bird = str(bundled_scenario("bird.bel"))
        env = dict(os.environ, PYTHONPATH=str(Path(surprise_engine.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "surprise_engine", "bounds", bird],
                              capture_output=True, text=True, env=env, timeout=60)
        assert main(["bounds", bird]) == done.returncode == EXIT_OK
        assert done.stdout == capsys.readouterr().out != ""
        assert done.stderr == ""

    def test_repl_that_does_not_compile_exits_2(self, tmp_path):
        path = tmp_path / "three.bel"
        path.write_text(RAIN_SCENARIO + "\n[constraints]\n" + "\n".join(THREE_EQUALITIES) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(surprise_engine.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "surprise_engine", "repl", str(path)],
                              capture_output=True, text=True, env=env, timeout=60,
                              stdin=subprocess.DEVNULL)
        assert done.returncode == EXIT_USAGE
        assert done.stderr == "error: constraint set needs more than 2 parameters\n"

    def test_constraint_error_names_its_column(self, capsys):
        assert main(["bounds", str(bundled_scenario("hire.bel")), "Bel(HIRE"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: expected ')' to close Bel(...) (at column 9)\n"

    @pytest.mark.parametrize("command, args", [
        ("bounds", ["Bel(" + "(" * 2000 + "HIRE" + ")" * 2000 + ")"]),
        ("surprise", ["(" * 2000 + "HIRE" + ")" * 2000]),
        ("surprise", ["not " * 2000 + "HIRE"]),
        ("surprise", [" => ".join(["HIRE"] * 2000)]),
    ])
    def test_deep_nesting_is_a_usage_error(self, capsys, command, args):
        assert main([command, str(bundled_scenario("hire.bel")), *args]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nests more than 100 deep" in err
        assert err.count("\n") == 1
        # the parenthesis, negation or implication past the cap
        column = {"bounds": 4 + 100, "(": 100, "n": 4 * 100, "H": 5 + 8 * 100}
        key = command if command == "bounds" else args[0][0]
        assert err.endswith(f"(at column {column[key] + 1})\n")

    def test_flat_chain_over_the_operator_cap_is_a_usage_error(self, capsys):
        chain = " and ".join(["HIRE"] * 2000)
        assert main(["bounds", str(bundled_scenario("hire.bel")), f"Bel({chain})"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: inside Bel(...): formula has more than 256 binary "
                                f"operators (at column {_CHAIN_COLUMN})\n")

    def test_flat_chain_at_the_operator_cap_answers(self, capsys):
        chain = " and ".join(["HIRE"] * 257)
        assert main(["bounds", str(bundled_scenario("hire.bel")), f"Bel({chain})"]) == EXIT_OK
        assert capsys.readouterr().out == f"QUERY Bel({chain}) = [0, 0]\n"

    def test_thirty_two_points_answer_without_the_subset_lattice(self, tmp_path):
        """Five booleans, 32 points, under ``max_theta = 32``: ``check``,
        ``bounds`` and ``surprise`` answer over the column basis, and
        ``mincommit``, which needs every subset, refuses at its cap.  Each
        command runs in a process whose address space is capped at 2 GiB,
        so a mass vector 2^32 entries wide fails at once."""
        path = tmp_path / "five.bel"
        path.write_text(FIVE_BOOLEANS)
        env = dict(os.environ, PYTHONPATH=str(Path(surprise_engine.__file__).parents[1]))

        def run(command, *args):
            return subprocess.run(
                [sys.executable, "-c", "import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                 "from surprise_engine.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))", command, str(path), *args],
                capture_output=True, text=True, env=env, timeout=120)

        done = run("check")
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "CHECK feasible\n", "")
        done = run("bounds")
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout == "QUERY c = [0, 1)\nQUERY e_given_a = [0, 1]\n"
        done = run("surprise", "not C", "--given", "A")
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout == "QUERY surprise(not C | A) = [0, 1)\n"
        done = run("mincommit")
        assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
        assert done.stderr == "error: lower envelope covers 2^32 subsets; cap is theta_size <= 12\n"

    def test_output_is_stable(self, capsys):
        main(["bounds", str(bundled_scenario("window.bel"))])
        first = capsys.readouterr().out
        main(["bounds", str(bundled_scenario("window.bel"))])
        assert capsys.readouterr().out == first


# the column, counted from 1, of the 257th 'and' in ``Bel(HIRE and HIRE
# and ...)``: it follows ``Bel(``, 257 operands of four letters, 256
# separators `` and `` and one space
_CHAIN_COLUMN = 4 + 257 * 4 + 256 * 5 + 1 + 1


# -- numbers that are not finite -------------------------------------------------

_TWO_BOOLEANS = "[variables]\nA: Yes, No\nB: Yes, No\n"
_OVERFLOWING_ROW = "1e308*Bel(A) + 1e308*Bel(B) <= 1e308"


@pytest.mark.parametrize("body, args, message", [
    ("[constraints]\nBel(A) <= 1e999\n", [],
     "line 5: number '1e999' is not finite (at column 11)"),
    ("[constants]\nc = nan\n[constraints]\nBel(A) <= c\n", [],
     "line 5: constant 'c' is not finite (at column 5)"),
    ("[constants]\nc = -inf\n[constraints]\nBel(A) <= c\n", [],
     "line 5: constant 'c' is not finite (at column 5)"),
    ("[constants]\nc = 0.5\n[constraints]\nBel(A) <= c\n", ["--set", "c=inf"],
     "--set c=inf: not a finite number"),
    ("[constraints]\n1e308*Bel(A) + 1e308*Bel(A) <= 1\n", [],
     "line 5: the coefficients of Bel(A) add up to a number that is not finite (at column 16)"),
    ("[constraints]\n1e308 + 1e308 <= Bel(A)\n", [],
     "line 5: the constants add up to a number that is not finite (at column 9)"),
    ("[constraints]\n1e308 <= -1e308 + Bel(A)\n", [],
     "line 5: the constants add up to a number that is not finite (at column 7)"),
    (f"[constraints]\n{_OVERFLOWING_ROW}\n", [],
     f"constraint {_OVERFLOWING_ROW!r} overflows: its row holds a number that is not finite"),
])
def test_a_number_that_is_not_finite_is_a_usage_error(capsys, tmp_path, body, args, message):
    path = tmp_path / "huge.bel"
    path.write_text(_TWO_BOOLEANS + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings too
        assert main(["check", str(path), *args]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


class TestOverCommittedBunker:
    """Bunker copies whose added row contradicts the fused confidence
    c + d - c*d: ``check`` must name a conflict, not fail in the solver."""

    @pytest.mark.parametrize("c, d, b", [(0.6, 0.7, 0.8), (0.3, 0.5, 0.575),
                                         (0.25, 0.65, 0.694)])
    def test_check_prints_an_irreducible_core(self, capsys, tmp_path, c, d, b):
        text = bundled_scenario("bunker.bel").read_text()
        text = text.replace("c = 0.6", f"c = {c}").replace("d = 0.7", f"d = {d}")
        added = f"Bel(M | P /\\ E) <= {b}"
        text = text.replace("[queries]", f"{added}\n\n[queries]")
        path = tmp_path / "over.bel"
        path.write_text(text)

        assert main(["check", str(path)]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert "error:" not in captured.out + captured.err
        lines = captured.out.splitlines()
        assert "CHECK infeasible" in lines
        core = [line.split(": ", 1)[1] for line in lines if line.startswith("CONFLICT")]
        assert added in core

        sc = load_scenario(path)
        by_text = {con.render(sc.frame): con for con in sc.constraints}
        for dropped in core:
            rest = [by_text[t] for t in core if t != dropped]
            assert feasible(compile_constraints(rest, sc.frame)).feasible


def test_bunker_conflict_comes_from_the_root_certificate(monkeypatch):
    # the static rows Bel(not M) = 0 and Bel(not M) >= 0.5 clash at the
    # root relaxation, whose certificate seeds the core
    sc = load_scenario(bundled_scenario("bunker.bel"))
    lps, out = _lps_per_command(monkeypatch, sc, ["assume Bel(not M) >= 0.5"])
    assert lps[1] <= 10
    core = [line.split(": ", 1)[1] for line in _replies(out)[1].splitlines()
            if line.startswith("CONFLICT")]
    assert core == ["Bel(not M) = 0", "Bel(not M) >= 0.5"]
    by_text = {con.render(sc.frame): con for con in sc.constraints}
    assert not feasible(compile_constraints([by_text[t] for t in core], sc.frame)).feasible
    for dropped in core:
        rest = [by_text[t] for t in core if t != dropped]
        assert feasible(compile_constraints(rest, sc.frame)).feasible


def test_refused_mincommit_computes_the_envelope_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "refuse.bel"
    path.write_text("[variables]\nX: a, b, c\n\n[constraints]\n"
                    "Bel(X=a or X=b) = 1\nBel(X=a) + Bel(X=b) = 1\n")
    solves = counting_solves(monkeypatch)
    assert main(["mincommit", str(path)]) == EXIT_INFEASIBLE
    once = len(solves)
    solves.clear()
    constraints.lower_envelope(load_scenario(path).system())
    assert once == len(solves)
    assert capsys.readouterr().out.splitlines() == [
        "DIAGNOSTIC no minimum-committed belief function; lower envelope is not a "
        "belief function",
        "MASS {(X=a), (X=b)} = 1",
        "MASS {(X=a), (X=b), (X=c)} = 1",
    ]


def test_bunker_bounds_lp_budget(capsys, monkeypatch):
    solves = counting_solves(monkeypatch)
    assert main(["bounds", str(bundled_scenario("bunker.bel"))]) == EXIT_OK
    assert capsys.readouterr().out == "QUERY military_given_both = [0.88, 0.88]\n"
    assert len(solves) <= 40


@pytest.mark.parametrize("command, budget", [("check", 25), ("mincommit", 40)])
def test_bunker_lp_budget(command, budget, monkeypatch):
    # tightening the root box pins both parameters, so no cell is split
    solves = counting_solves(monkeypatch)
    assert main([command, str(bundled_scenario("bunker.bel"))]) == EXIT_OK
    assert len(solves) <= budget


# LPs of each corpus command, measured once the calls on one compiled system
# came to share its box; a rise must be deliberate
CORPUS_LPS = {
    "bird.bel": {"check": 1, "bounds": 3, "mincommit": 2},
    "bunker.bel": {"check": 12, "bounds": 14, "mincommit": 18},
    "hire.bel": {"check": 1, "bounds": 5, "mincommit": 1},
    "nixon.bel": {"check": 1, "bounds": 9, "mincommit": 2},
    "temperature.bel": {"check": 2, "bounds": 9, "mincommit": 3},
    "window.bel": {"check": 1, "bounds": 7, "mincommit": 2},
}


@pytest.mark.parametrize("name, command", [(name, command) for name in CORPUS
                                           for command in ("check", "bounds", "mincommit")])
def test_corpus_lp_counts(capsys, monkeypatch, name, command):
    solves = counting_solves(monkeypatch)
    main([command, str(bundled_scenario(name))])
    capsys.readouterr()
    assert len(solves) <= CORPUS_LPS[name][command]


# simplex pivots of each corpus command, phase 1's included, measured once a
# parameter-free system's root program started each solve from the last
# optimal basis; a rise must be deliberate
CORPUS_PIVOTS = {
    "bird.bel": {"check": 3, "bounds": 3, "mincommit": 3},
    "bunker.bel": {"check": 120, "bounds": 141, "mincommit": 172},
    "hire.bel": {"check": 3, "bounds": 3, "mincommit": 3},
    "nixon.bel": {"check": 3, "bounds": 33, "mincommit": 4},
    "temperature.bel": {"check": 3, "bounds": 20, "mincommit": 4},
    "window.bel": {"check": 9, "bounds": 10, "mincommit": 9},
}


@pytest.mark.parametrize("name, command", [(name, command) for name in CORPUS
                                           for command in ("check", "bounds", "mincommit")])
def test_corpus_pivot_counts(capsys, monkeypatch, name, command):
    pivots = []
    solve = constraints.solve

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(constraints, "solve", counting)
    main([command, str(bundled_scenario(name))])
    capsys.readouterr()
    assert sum(pivots) <= CORPUS_PIVOTS[name][command]


def test_window_envelope_answers_most_subsets_without_an_lp(monkeypatch):
    # the witnesses and the subsets' values settle 13 of the 14 proper
    # subsets, so fewer LPs run than one per subset
    system = load_scenario(bundled_scenario("window.bel")).system()
    solves = counting_solves(monkeypatch)
    env = constraints.lower_envelope(system)
    assert len(solves) < 2 ** 4 - 1
    assert env.tolist() == pytest.approx([0.0] * 7 + [0.6] + [0.0] * 7 + [1.0], abs=1e-9)


FIVE_BOOLEANS = """
[config]
max_theta = 32

[variables]
A: Yes, No
B: Yes, No
C: Yes, No
D: Yes, No
E: Yes, No

[constraints]
Bel(A) >= 0.3
Bel(A => B) >= 0.6
Bel(C | A and B) = 0.7
Bel(not D or E) <= 0.8
Bel(E) = Bel(E | C)

[queries]
c: Bel(C)
e_given_a: Bel(E | A)
"""


TAUTOLOGY_BELOW_ONE = ("[variables]\nV0: v0, v1, v2\n\n[constraints]\n"
                       "Bel(V0=v1) > 0\nBel(V0=v1 | V0=v1) < 1\n")


def test_strict_conditional_row_is_a_conflict(capsys, tmp_path):
    # Bel(A | A) is 1 wherever it is defined, so the second row alone
    # is unsatisfiable
    path = tmp_path / "strict.bel"
    path.write_text(TAUTOLOGY_BELOW_ONE)
    assert main(["check", str(path)]) == EXIT_INFEASIBLE
    lines = capsys.readouterr().out.splitlines()
    assert "CHECK infeasible" in lines
    assert [line for line in lines if line.startswith("CONFLICT")] == [
        "CONFLICT 1: Bel(V0=v1 | V0=v1) < 1"]
    assert main(["bounds", str(path), "Bel(V0=v0)"]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "error: the constraint system is infeasible\n"


GOLDEN = Path(__file__).with_name("corpus_output.txt")


def _corpus_output(capsys) -> str:
    """Text output and exit code of every bundled scenario under check,
    bounds, mincommit and classify."""
    parts = []
    for name in sorted(CORPUS):
        for command in ("check", "bounds", "mincommit", "classify"):
            code = main([command, str(bundled_scenario(name))])
            parts.append(f"== {command} {name}: exit {code}\n{capsys.readouterr().out}")
    return "".join(parts)


def test_corpus_output_matches_golden_file(capsys):
    # after an intended change of output, rewrite the file from _corpus_output
    assert _corpus_output(capsys).splitlines() == GOLDEN.read_text().splitlines()


SIX_VALUES = "[variables]\nV0: v0, v1, v2, v3, v4, v5\n\n[constraints]\n"


def _json_bounds(capsys, tmp_path, rows, query):
    path = tmp_path / "six.bel"
    path.write_text(SIX_VALUES + "\n".join(rows) + "\n")
    assert main(["bounds", str(path), query, "--format", "json-lines"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_upper_end_reaches_one(capsys, tmp_path):
    out = _json_bounds(capsys, tmp_path, [
        "Bel(V0 = v0 or V0 = v1 or V0 = v2 or V0 = v3 or V0 = v4 | V0 = v1 or V0 = v4 or V0 = v5)"
        " <= 0.008862572203884112",
        "Bel(V0 = v1 or V0 = v2) >= 0.0",
    ], "Bel(V0 = v2 or V0 = v3 | V0 = v0 or V0 = v2 or V0 = v4 or V0 = v5)")
    assert out["hi"] >= 1 - 1e-8


def test_upper_end_stays_at_zero(capsys, tmp_path):
    out = _json_bounds(capsys, tmp_path, [
        "Bel(V0 = v3 or V0 = v4 or V0 = v5) = 1.0",
        "Bel(V0 = v0 or V0 = v4 or V0 = v5) = 1.0",
    ], "Bel(V0 = v1 or V0 = v2 or V0 = v3 | V0 = v0 or V0 = v3 or V0 = v4)")
    assert out["hi"] <= 1e-9


def _run_repl(scenario_text, commands):
    sc = parse_scenario(scenario_text)
    out = io.StringIO()
    code = Repl(sc, stdin=io.StringIO("\n".join(commands) + "\n"), stdout=out).run()
    return code, out.getvalue()


RAIN_SCENARIO = """
[variables]
RAIN: Yes, No
WET: Yes, No
"""

# each equality takes a parameter, and two are allowed
THREE_EQUALITIES = ["Bel(RAIN | WET) = Bel(WET)", "Bel(WET | RAIN) = Bel(RAIN)",
                    "Bel(not WET | RAIN) = Bel(not RAIN)"]


def _replies(out: str) -> list[str]:
    """The REPL's output split at its prompts: what the start printed,
    then what each command printed."""
    return out.split("bel> ")


class _CountingStdin:
    """Feeds commands to the REPL and notes, at each read, how many LPs
    ``constraints`` has solved so far."""

    def __init__(self, commands, solves):
        self._lines = iter(commands)
        self._solves = solves
        self.marks = []

    def readline(self):
        self.marks.append(len(self._solves))
        return next(self._lines, "quit") + "\n"


def _lps_per_command(monkeypatch, scenario, commands):
    """The LPs of the start and of each command of a REPL session, in the
    order of :func:`_replies`, and its output."""
    solves = counting_solves(monkeypatch)
    stdin, out = _CountingStdin(commands, solves), io.StringIO()
    Repl(scenario, stdin=stdin, stdout=out).run()
    marks = [0] + stdin.marks
    return [b - a for a, b in zip(marks, marks[1:])], out.getvalue()


class TestRepl:
    def test_assume_feasible_pair(self):
        code, out = _run_repl(RAIN_SCENARIO, [
            "assume Bel(RAIN | WET) = 0.4",
            "assume Bel(not RAIN | WET) = 0",
            "quit",
        ])
        assert code == 0
        assert out.count("ASSUMED") == 2
        assert "infeasible" not in out

    def test_contradiction_names_both_rows(self):
        code, out = _run_repl(RAIN_SCENARIO, [
            "assume Bel(RAIN) = 0.6",
            "assume Bel(RAIN) = 0.3",
            "quit",
        ])
        assert "CHECK infeasible" in out
        assert "CONFLICT 1: Bel(RAIN) = 0.6" in out
        assert "CONFLICT 2: Bel(RAIN) = 0.3" in out

    def test_retract_restores_feasibility(self):
        code, out = _run_repl(RAIN_SCENARIO, [
            "assume Bel(RAIN) = 0.6",
            "assume Bel(RAIN) = 0.3",
            "retract 2",
            "quit",
        ])
        assert "RETRACTED 2" in out
        assert out.rindex("CHECK feasible") > out.index("CHECK infeasible")

    def test_bounds_narrowing_report(self):
        code, out = _run_repl(RAIN_SCENARIO, [
            "bounds Bel(RAIN)",
            "assume Bel(RAIN) = 0.25",
            "quit",
        ])
        assert "QUERY Bel(RAIN) = [0, 1]" in out
        assert "NARROWED Bel(RAIN): [0, 1] -> [0.25, 0.25]" in out

    def test_assume_compiles_once(self, monkeypatch):
        compiles = []
        compile_ = scenario_module.compile_constraints

        def counting(*args, **kwargs):
            compiles.append(args)
            return compile_(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "compile_constraints", counting)
        code, out = _run_repl(RAIN_SCENARIO, [
            "bounds Bel(RAIN)",
            "assume Bel(RAIN) >= 0.25",
            "assume Bel(RAIN) = 0.1",
            "quit",
        ])
        # one compile, the start's: each assume lowers only its constraint
        # onto the kept system, and bounds and the conflict core reuse it
        assert len(compiles) == 1
        assert "NARROWED Bel(RAIN): [0, 1] -> [0.25, 1]" in out
        assert "CONFLICT 1: Bel(RAIN) >= 0.25" in out
        assert "CONFLICT 2: Bel(RAIN) = 0.1" in out

    def test_assume_with_two_tracked_queries_runs_one_phase1(self, monkeypatch):
        # the check and both queries' bounds share the extended system's box
        phase1 = solver._phase1
        runs = []

        def counting(*args, **kwargs):
            runs.append(args[0])
            return phase1(*args, **kwargs)

        monkeypatch.setattr(solver, "_phase1", counting)
        stdin, out = _CountingStdin([
            "bounds Bel(RAIN)",
            "bounds Bel(WET | RAIN)",
            "assume Bel(RAIN) >= 0.25",
        ], runs), io.StringIO()
        Repl(parse_scenario(RAIN_SCENARIO), stdin=stdin, stdout=out).run()
        assert "NARROWED Bel(RAIN): [0, 1] -> [0.25, 1]" in out.getvalue()
        assert stdin.marks[3] - stdin.marks[2] == 1

    def test_assume_that_does_not_compile_keeps_the_state(self):
        repl = Repl(parse_scenario(RAIN_SCENARIO + "[constraints]\n"
                                   + "\n".join(THREE_EQUALITIES[:2]) + "\n"),
                    stdin=io.StringIO("bounds Bel(RAIN)\nassume Bel(RAIN) = 0.1\n"),
                    stdout=io.StringIO())
        repl.run()
        state = (repl.system, repl.core, list(repl.scenario.constraints), dict(repl.queries))
        # a third parameter, and a nonlinear mix of terms
        for text in (THREE_EQUALITIES[2], "Bel(RAIN | WET) + Bel(WET) <= 0.5"):
            with pytest.raises(CompileError):
                repl.do_assume(text)
            assert (repl.system, repl.core, repl.scenario.constraints, repl.queries) == state

    def test_flat_chains(self, tmp_path):
        long_chain = " and ".join(["RAIN"] * 2000)
        chain = " or ".join(["WET"] * 257)
        path = tmp_path / "chain.bel"
        code, out = _run_repl(RAIN_SCENARIO, [
            f"bounds Bel({long_chain})",
            f"assume Bel({chain}) >= 0.25",
            f"bounds Bel(RAIN | {chain})",
            f"save {path}",
            "quit",
        ])
        replies = _replies(out)
        assert replies[1] == ("ERROR inside Bel(...): formula has more than 256 binary "
                              f"operators (at column {_CHAIN_COLUMN})\n")
        assert replies[2] == f"ASSUMED 1: Bel({chain}) >= 0.25\n"
        assert replies[3] == f"QUERY Bel(RAIN | {chain}) = [0, 1]\n"
        assert replies[4] == f"SAVED {path}\n"
        saved = load_scenario(path)
        assert [c.render(saved.frame) for c in saved.constraints] == [f"Bel({chain}) >= 0.25"]
        assert [t.render(saved.frame) for _, t in saved.queries] == [f"Bel(RAIN | {chain})"]
        assert code == 0

    def test_numbers_that_are_not_finite_keep_the_state(self):
        overflowing = "1e308*Bel(RAIN) + 1e308*Bel(WET) <= 1e308"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run_repl(RAIN_SCENARIO, [
                "assume Bel(RAIN) <= 1e999",
                "assume 1e308*Bel(RAIN) + 1e308*Bel(RAIN) <= 1",
                "assume 1e308 <= -1e308 + Bel(RAIN)",
                f"assume {overflowing}",
                "list",
                "quit",
            ])
        assert _replies(out)[1:6] == [
            "ERROR number '1e999' is not finite (at column 14)\n",
            "ERROR the coefficients of Bel(RAIN) add up to a number that is not finite "
            "(at column 19)\n",
            "ERROR the constants add up to a number that is not finite (at column 7)\n",
            f"ERROR constraint {overflowing!r} overflows: its row holds a number that is not "
            "finite\n",
            "",
        ]
        assert code == 0

    def test_malformed_input_keeps_state(self):
        code, out = _run_repl(RAIN_SCENARIO, [
            "assume Bel(RAIN = 1",
            "list",
            "quit",
        ])
        replies = _replies(out)
        assert replies[1].startswith("ERROR")
        assert replies[2] == ""
        assert code == 0

    def test_malformed_arguments_print_errors(self):
        commands = ["assume Bel(RAIN) = = 1", "assume Bel(FIRE) = 1", "bounds Bel(FIRE)",
                    "bounds Bel(RAIN) junk", "bounds RAIN or"]
        code, out = _run_repl(RAIN_SCENARIO, commands + ["list", "quit"])
        replies = _replies(out)
        assert all(reply.startswith("ERROR ") and reply.count("\n") == 1
                   for reply in replies[1:len(commands) + 1])
        assert replies[len(commands) + 1] == ""
        assert code == 0

    def test_save_to_an_unwritable_path_keeps_the_session(self):
        code, out = _run_repl(RAIN_SCENARIO, [
            "assume Bel(RAIN) >= 0.25",
            "save /nonexistent/dir/x.bel",
            "list",
            "quit",
        ])
        replies = _replies(out)
        assert replies[2] == "ERROR cannot write /nonexistent/dir/x.bel: No such file or directory\n"
        assert replies[3] == "1: Bel(RAIN) >= 0.25\n"
        assert code == 0

    def test_deep_nesting_is_an_error_line(self):
        code, out = _run_repl(RAIN_SCENARIO, [
            "assume Bel(" + "(" * 2000 + "RAIN" + ")" * 2000 + ") >= 0.25",
            "bounds Bel(" + "not " * 2000 + "RAIN)",
            "list",
            "quit",
        ])
        replies = _replies(out)
        assert replies[1] == ("ERROR inside Bel(...): formula nests more than 100 deep "
                              "(at column 105)\n")
        assert replies[2] == ("ERROR inside Bel(...): formula nests more than 100 deep "
                              "(at column 405)\n")
        assert replies[3] == ""
        assert code == 0

    def test_assume_that_does_not_compile_changes_nothing(self):
        code, out = _run_repl(RAIN_SCENARIO, [f"assume {c}" for c in THREE_EQUALITIES] + [
            "list",
            "bounds Bel(RAIN)",
            "quit",
        ])
        replies = _replies(out)
        assert replies[3] == "ERROR constraint set needs more than 2 parameters\n"
        assert replies[4] == f"1: {THREE_EQUALITIES[0]}\n2: {THREE_EQUALITIES[1]}\n"
        assert replies[5] == "QUERY Bel(RAIN) = [0, 1]\n"
        assert code == 0

    def test_conflict_is_found_once_and_kept(self, monkeypatch):
        commands = ["assume Bel(RAIN) >= 0.25", "assume Bel(RAIN) = 0.1", "why-infeasible"]
        lps, out = _lps_per_command(monkeypatch, parse_scenario(RAIN_SCENARIO), commands)
        # the infeasible assume costs what its conflict core costs alone,
        # and why-infeasible prints that core again without an LP
        solves = counting_solves(monkeypatch)
        both = parse_scenario(RAIN_SCENARIO + "[constraints]\nBel(RAIN) >= 0.25\nBel(RAIN) = 0.1\n")
        assert constraints.conflict_core(both.system()) == [0, 1]
        assert lps[2] == len(solves) and lps[3] == 0
        conflict = "CONFLICT 1: Bel(RAIN) >= 0.25\nCONFLICT 2: Bel(RAIN) = 0.1\n"
        assert _replies(out)[2].endswith(conflict) and _replies(out)[3].endswith(conflict)

    def test_batch_repl_equivalence(self, tmp_path):
        save_path = tmp_path / "session.bel"
        code, out = _run_repl(RAIN_SCENARIO, [
            "assume Bel(RAIN | WET) = 0.4",
            "assume Bel(not RAIN | WET) = 0",
            "bounds Bel(RAIN | WET)",
            "bounds Bel(not WET)",
            f"save {save_path}",
            "quit",
        ])
        saved = load_scenario(save_path)
        system = saved.system()
        repl_lines = [l for l in out.splitlines() if l.startswith("QUERY")]
        for (name, term), line in zip(saved.queries, repl_lines):
            res = bounds(system, term)
            value = f"[{res.lo:.9g}, {res.hi:.9g}]"
            assert line.endswith(value)
