"""Constraint parsing, compilation, feasibility, bounds, minimum
commitment, and surprise reports."""

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surprise_engine import solver as solver_module
from surprise_engine import (
    And,
    Atom,
    BelTerm,
    CompileError,
    ConstraintError,
    EngineError,
    Implies,
    InfeasibleSystem,
    MassFunction,
    Not,
    Or,
    ProductFrame,
    QueryUndefinedEverywhere,
    SolverError,
    bounds,
    compile_constraints,
    conflict_core,
    constraint_satisfied,
    constraints,
    evaluate_term,
    extension,
    feasible,
    leq_committed,
    lower_envelope,
    mincommit,
    parse_constraint,
    parse_formula,
    solve,
    surprise_report,
)
from surprise_engine.errors import (
    ConditioningUndefined,
    FormulaError,
    FormulaSyntaxError,
    ScenarioError,
)
from surprise_engine.scenario import parse_query_term
from conftest import (
    column_masses,
    counting_solves,
    dense_bel,
    dense_coeffs,
    dense_program,
    dense_rows,
    random_frame,
    random_mass,
    random_subset,
    subset_formula,
)
from test_frames import _FRAME, formulas


@pytest.fixture
def hire_frame():
    return ProductFrame([("HIRE", ("Yes", "No"))])


@pytest.fixture
def hire_system(hire_frame):
    cons = [parse_constraint("Bel(HIRE) = 0", hire_frame),
            parse_constraint("Bel(not HIRE) = 0", hire_frame)]
    return compile_constraints(cons, hire_frame)


def term(frame, target, evidence=None):
    return BelTerm(parse_formula(target, frame),
                   None if evidence is None else parse_formula(evidence, frame))


class TestParsing:
    def test_simple_equality(self, hire_frame):
        con = parse_constraint("Bel(not HIRE) = 0.3", hire_frame)
        assert con.relop == "=" and con.const == 0.3
        assert len(con.terms) == 1 and con.terms[0][0] == 1.0

    def test_conditional_with_constant(self):
        frame = ProductFrame([("M", ("Yes", "No")), ("P", ("Yes", "No"))])
        con = parse_constraint("Bel(M | P) = c", frame, {"c": 0.6})
        assert con.const == 0.6
        assert con.terms[0][1].evidence is not None

    def test_unresolved_constant(self):
        frame = ProductFrame([("M", ("Yes", "No"))])
        with pytest.raises(ConstraintError, match="has no value"):
            parse_constraint("Bel(M) = c", frame)

    def test_linear_combination(self):
        frame = ProductFrame([("TEMP", ("low", "med", "high"))])
        con = parse_constraint(
            "Bel(TEMP=med or TEMP=low) > Bel(TEMP=med) + Bel(TEMP=low)", frame)
        assert con.relop == ">" and con.const == 0.0
        assert sorted(c for c, _ in con.terms) == [-1.0, -1.0, 1.0]

    def test_equality_between_terms(self):
        frame = ProductFrame([("PARTY", ("Yes", "No")), ("RAIN", ("Yes", "No"))])
        con = parse_constraint("Bel(PARTY) = Bel(PARTY | RAIN)", frame)
        assert con.const == 0.0
        assert sorted(c for c, _ in con.terms) == [-1.0, 1.0]

    def test_coefficients(self, hire_frame):
        con = parse_constraint("0.5 * Bel(HIRE) + 0.25 <= 1", hire_frame)
        assert con.terms[0][0] == 0.5
        assert con.const == 0.75

    def test_rejects_missing_relop(self, hire_frame):
        with pytest.raises(ConstraintError, match="exactly one relational"):
            parse_constraint("Bel(HIRE) + 0.2", hire_frame)

    def test_rejects_no_term(self, hire_frame):
        with pytest.raises(ConstraintError):
            parse_constraint("0.3 = 0.3", hire_frame)

    def test_double_bar_rejected(self, hire_frame):
        with pytest.raises(ConstraintError, match="more than one"):
            parse_constraint("Bel(HIRE | HIRE | HIRE) = 1", hire_frame)

    def test_formula_errors_surface(self, hire_frame):
        with pytest.raises(ConstraintError, match="unknown variable"):
            parse_constraint("Bel(FIRE) = 1", hire_frame)

    def test_coefficient_without_star(self, hire_frame):
        con = parse_constraint("0.5 Bel(HIRE) <= 1", hire_frame)
        assert con.terms == ((0.5, term(hire_frame, "HIRE")),)
        assert (con.relop, con.const) == ("<=", 1.0)
        frame = ProductFrame([("M", ("Yes", "No"))])
        con = parse_constraint("c Bel(M) = 0.3", frame, {"c": 0.6})
        assert con.terms == ((0.6, term(frame, "M")),)
        assert con.const == 0.3


def test_a_constant_that_is_not_finite_is_named(hire_frame):
    with pytest.raises(ConstraintError) as err:
        parse_constraint("Bel(HIRE) <= 0.5 + c Bel(HIRE)", hire_frame, {"c": float("nan")})
    assert str(err.value) == "constant 'c' is not finite (at column 20)"


# each malformed text, the class of its error and the error's position in
# the text; ScenarioError carries none
MALFORMED_CONSTRAINTS = [
    ("Bel(FIRE) = 1", ConstraintError, 4),  # unknown variable inside Bel
    ("Bel(HIRE | HIRE | HIRE) = 1", ConstraintError, 16),  # a second '|'
    ("Bel(HIRE <= 1", ConstraintError, 9),  # unclosed Bel(
    ("Bel(HIRE) <= 0.5 * 0.3", ConstraintError, 19),  # '*' without Bel
    ("* Bel(HIRE) <= 0.5", ConstraintError, 0),  # '*' without a coefficient
    ("Bel(HIRE) <= 1 +", ConstraintError, 16),  # dangling '+'
    ("Bel(HIRE) + 0.2", ConstraintError, 15),  # no relational operator
    ("Bel(HIRE) = 0.2 = 0.3", ConstraintError, 16),  # two relational operators
    ("Bel(HIRE) = 0.2 & 0.3", ConstraintError, 16),  # a character outside the language
]
MALFORMED_QUERIES = [
    ("Bel(FIRE)", ConstraintError, 4),
    ("Bel(HIRE | HIRE | HIRE)", ConstraintError, 16),
    ("Bel(HIRE", ConstraintError, 8),
    ("Bel HIRE", ConstraintError, 4),
    ("Bel(HIRE) junk", ScenarioError, None),
    ("BelHIRE)", ScenarioError, None),
    ("HIRE", ScenarioError, None),
]


@pytest.mark.parametrize("text, error, position", MALFORMED_CONSTRAINTS)
def test_malformed_constraint(hire_frame, text, error, position):
    with pytest.raises(error) as err:
        parse_constraint(text, hire_frame)
    assert type(err.value) is error
    assert err.value.position == position


@pytest.mark.parametrize("text, error, position", MALFORMED_QUERIES)
def test_malformed_query(hire_frame, text, error, position):
    with pytest.raises(error) as err:
        parse_query_term(text, hire_frame)
    assert type(err.value) is error
    assert getattr(err.value, "position", None) == position


def test_formula_error_column_counts_from_the_constraint(hire_frame):
    with pytest.raises(ConstraintError, match=r"unknown variable 'FIRE' \(at column 17\)"):
        parse_constraint("Bel(HIRE) = Bel(FIRE)", hire_frame)


# -- every parse error's message and column -------------------------------------

_ERROR_FRAME = ProductFrame([("HIRE", ("Yes", "No")), ("TEMP", ("low", "med", "high"))])
_PARSE = {
    "formula": lambda text: parse_formula(text, _ERROR_FRAME),
    "constraint": lambda text: parse_constraint(text, _ERROR_FRAME, {"k": 0.5}),
    "query": lambda text: parse_query_term(text, _ERROR_FRAME),
}

# each text, what reads it, and the class and exact text of its error; the
# messages were recorded from the finditer tokenizer and the precedence-
# climbing parser, before the lexer and the looped parser replaced them
PARSE_ERRORS = [
    # frames._operand
    ("formula", "FIRE", FormulaError, "unknown variable 'FIRE' (at column 1)"),
    ("formula", "HIRE or TEMP = hot", FormulaError,
     "variable 'TEMP' has no value 'hot' (at column 16)"),
    ("formula", "not TEMP", FormulaError,
     "bare 'TEMP' is shorthand for TEMP = Yes, but 'TEMP' is not boolean (at column 5)"),
    ("formula", "TEMP = (low)", FormulaSyntaxError, "expected a value after '=' (at column 8)"),
    ("formula", "TEMP =", FormulaSyntaxError, "expected a value after '=' (at column 7)"),
    ("formula", "(HIRE", FormulaSyntaxError, "expected ')' (at column 6)"),
    ("formula", "(HIRE HIRE)", FormulaSyntaxError, "expected ')', found 'HIRE' (at column 7)"),
    ("formula", "HIRE and", FormulaSyntaxError, "unexpected end of formula (at column 9)"),
    ("formula", "HIRE and )", FormulaSyntaxError, "expected a formula, found ')' (at column 10)"),
    ("formula", "=> HIRE", FormulaSyntaxError, "expected a formula, found '=>' (at column 1)"),
    # frames._nested
    ("formula", "not " * 101 + "HIRE", FormulaSyntaxError,
     "formula nests more than 100 deep (at column 401)"),
    ("formula", "(" * 101 + "HIRE" + ")" * 101, FormulaSyntaxError,
     "formula nests more than 100 deep (at column 101)"),
    ("formula", "HIRE => " * 101 + "HIRE", FormulaSyntaxError,
     "formula nests more than 100 deep (at column 806)"),
    # frames.formula_at
    ("formula", " or ".join(["HIRE"] * 258), FormulaSyntaxError,
     "formula has more than 256 binary operators (at column 2054)"),
    ("formula", " and ".join(["HIRE"] * 200) + " or " + " and ".join(["HIRE"] * 100),
     FormulaSyntaxError, "formula has more than 256 binary operators (at column 2309)"),
    # frames.parse_formula
    ("formula", "", FormulaSyntaxError, "empty formula (at column 1)"),
    ("formula", "  \t ", FormulaSyntaxError, "empty formula (at column 1)"),
    ("formula", "HIRE & HIRE", FormulaSyntaxError, "unexpected character '&' (at column 6)"),
    ("formula", "FIRE & HIRE", FormulaSyntaxError, "unexpected character '&' (at column 6)"),
    ("formula", "HIRE <= TEMP", FormulaSyntaxError, "unexpected character '<' (at column 6)"),
    ("formula", "HIRE 1.5", FormulaSyntaxError, "unexpected character '1' (at column 6)"),
    ("formula", "HIRE | TEMP = low", FormulaSyntaxError,
     "unexpected character '|' (at column 6)"),
    ("formula", "HIRE \u00e9", FormulaSyntaxError, "unexpected character '\u00e9' (at column 6)"),
    ("formula", "HIRE HIRE", FormulaSyntaxError, "unexpected 'HIRE' (at column 6)"),
    ("formula", "HIRE = Yes = No", FormulaSyntaxError, "unexpected '=' (at column 12)"),
    ("formula", "(HIRE))", FormulaSyntaxError, "unexpected ')' (at column 7)"),
    # constraints.bel_term_at, and the formula errors it wraps
    ("constraint", "Bel(FIRE) = 1", ConstraintError,
     "inside Bel(...): unknown variable 'FIRE' (at column 5)"),
    ("constraint", "Bel(HIRE) = Bel(FIRE)", ConstraintError,
     "inside Bel(...): unknown variable 'FIRE' (at column 17)"),
    ("constraint", "Bel(TEMP) = 1", ConstraintError,
     "inside Bel(...): bare 'TEMP' is shorthand for TEMP = Yes, but 'TEMP' is not boolean "
     "(at column 5)"),
    ("constraint", "Bel(TEMP = hot) = 1", ConstraintError,
     "inside Bel(...): variable 'TEMP' has no value 'hot' (at column 12)"),
    ("constraint", "Bel(HIRE | ) = 1", ConstraintError,
     "inside Bel(...): expected a formula, found ')' (at column 12)"),
    ("constraint", "Bel(" + "not " * 101 + "HIRE) = 1", ConstraintError,
     "inside Bel(...): formula nests more than 100 deep (at column 405)"),
    ("constraint", "Bel(" + " or ".join(["HIRE"] * 300) + ") = 1", ConstraintError,
     "inside Bel(...): formula has more than 256 binary operators (at column 2058)"),
    ("constraint", "Bel(HIRE | HIRE | HIRE) = 1", ConstraintError,
     "more than one '|' inside Bel(...) (at column 17)"),
    ("constraint", "Bel(HIRE <= 1", ConstraintError,
     "expected ')' to close Bel(...), found '<=' (at column 10)"),
    ("constraint", "Bel(HIRE", ConstraintError, "expected ')' to close Bel(...) (at column 9)"),
    ("constraint", "Bel(HIRE and (TEMP = low) = 1", ConstraintError,
     "expected ')' to close Bel(...), found '=' (at column 27)"),
    # constraints._expected
    ("constraint", "Bel HIRE = 1", ConstraintError,
     "expected '(' after Bel, found 'HIRE' (at column 5)"),
    ("constraint", "Bel", ConstraintError, "expected '(' after Bel (at column 4)"),
    ("constraint", "Bel(HIRE) = 0.2 & 0.3", ConstraintError,
     "unexpected character '&' (at column 17)"),
    ("constraint", "Bel(HIRE & TEMP = low) = 0.2", ConstraintError,
     "unexpected character '&' (at column 10)"),
    ("constraint", "Bel(HIRE) = 1 .", ConstraintError, "unexpected character '.' (at column 15)"),
    ("constraint", "Bel(HIRE) = 1 \\", ConstraintError,
     "unexpected character '\\\\' (at column 15)"),
    ("constraint", "Bel(HIRE)\u3000=\u3000\u00e9", ConstraintError,
     "unexpected character '\u00e9' (at column 13)"),
    ("constraint", "Bel(HIRE) = 2 * c", ConstraintError,
     "expected Bel(...) after '*', found 'c' (at column 17)"),
    ("constraint", "0.5 * 0.3 <= Bel(HIRE)", ConstraintError,
     "expected Bel(...) after '*', found '0.3' (at column 7)"),
    ("constraint", "k * * Bel(HIRE) <= 0.5", ConstraintError,
     "expected Bel(...) after '*', found '*' (at column 5)"),
    ("constraint", "* Bel(HIRE) <= 0.5", ConstraintError,
     "expected a term, found '*' (at column 1)"),
    ("constraint", "Bel(HIRE) <= 1 +", ConstraintError, "expected a term (at column 17)"),
    ("constraint", "Bel(HIRE) = -", ConstraintError, "expected a term (at column 14)"),
    ("constraint", "", ConstraintError, "expected a term (at column 1)"),
    ("constraint", "   ", ConstraintError, "expected a term (at column 4)"),
    ("constraint", "Bel(HIRE) = 0.2 )", ConstraintError,
     "expected '+' or '-', found ')' (at column 17)"),
    ("constraint", "Bel(HIRE) = 1 extra", ConstraintError,
     "expected '+' or '-', found 'extra' (at column 15)"),
    ("constraint", "Bel(HIRE) = 1 =>", ConstraintError,
     "expected '+' or '-', found '=>' (at column 15)"),
    ("constraint", "Bel(HIRE) ) = 1", ConstraintError,
     "expected '+', '-' or a relational operator, found ')' (at column 11)"),
    ("constraint", "Bel(HIRE) /\\ 1", ConstraintError,
     "expected '+', '-' or a relational operator, found '/\\\\' (at column 11)"),
    # constraints.parse_constraint
    ("constraint", "c Bel(HIRE) = 1", ConstraintError, "constant 'c' has no value (at column 1)"),
    ("constraint", "Bel(HIRE) + 0.2", ConstraintError,
     "a constraint needs exactly one relational operator, found none (at column 16)"),
    ("constraint", "Bel(HIRE) = 0.2 = 0.3", ConstraintError,
     "a constraint needs exactly one relational operator, found a second '=' (at column 17)"),
    ("constraint", "Bel(HIRE) < 0.2 >= 0.3", ConstraintError,
     "a constraint needs exactly one relational operator, found a second '>=' (at column 17)"),
    ("constraint", "0.5 <= 0.7", ConstraintError, "constraint has no belief term"),
    ("constraint", "Bel(HIRE) - Bel(HIRE = Yes) = 0", ConstraintError,
     "constraint has no belief term"),
    # scenario.parse_query_term, and the errors of bel_term_at it passes on
    ("query", "HIRE", ScenarioError, "a query must be a single Bel(...) term, got 'HIRE'"),
    ("query", "BelHIRE)", ScenarioError,
     "a query must be a single Bel(...) term, got 'BelHIRE)'"),
    ("query", "", ScenarioError, "a query must be a single Bel(...) term, got ''"),
    ("query", "Bel(HIRE) junk", ScenarioError, "trailing input after Bel(...): 'junk'"),
    ("query", "Bel(HIRE) )  ", ScenarioError, "trailing input after Bel(...): ')'"),
    ("query", "Bel(HIRE) = 1", ScenarioError, "trailing input after Bel(...): '= 1'"),
    ("query", "Bel(FIRE)", ConstraintError,
     "inside Bel(...): unknown variable 'FIRE' (at column 5)"),
    ("query", "  Bel(HIRE | FIRE)", ConstraintError,
     "inside Bel(...): unknown variable 'FIRE' (at column 14)"),
    ("query", "Bel HIRE", ConstraintError, "expected '(' after Bel, found 'HIRE' (at column 5)"),
    ("query", "Bel(HIRE", ConstraintError, "expected ')' to close Bel(...) (at column 9)"),
    ("query", "Bel(HIRE | HIRE | HIRE)", ConstraintError,
     "more than one '|' inside Bel(...) (at column 17)"),
]


@pytest.mark.parametrize("reader, text, error, message", PARSE_ERRORS)
def test_parse_error_message_and_column(reader, text, error, message):
    with pytest.raises(error) as err:
        _PARSE[reader](text)
    assert type(err.value) is error
    assert str(err.value) == message


# -- rendering a random constraint and parsing it back -------------------------

_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5}
_SPELLINGS = {Implies: ("=>",), Or: ("or", "\\/"), And: ("and", "/\\"), Not: ("not", "~")}
_CONSTANTS = {"k": 0.75}
_FORMULAS = formulas(_FRAME)


def _pad(rng, word=""):
    """Spaces around a token; a keyword needs one to part it from a name."""
    return " " * rng.randint(word.isalpha(), 2)


def _render(f, rng, limit=0):
    """The formula in random spacing and spellings, parenthesized where
    its operator binds less tightly than ``limit`` and at random."""
    if isinstance(f, Atom):
        if f.value == "Yes" and _FRAME.is_boolean(f.var) and rng.random() < 0.5:
            text = f.var
        else:
            text = f"{f.var}{_pad(rng)}={_pad(rng)}{f.value}"
    elif isinstance(f, Not):
        word = rng.choice(_SPELLINGS[Not])
        text = word + _pad(rng, word) + _render(f.child, rng, 4)
    else:
        prec = _PRECEDENCE[type(f)]
        right_assoc = isinstance(f, Implies)
        word = rng.choice(_SPELLINGS[type(f)])
        text = (_render(f.left, rng, prec + right_assoc) + _pad(rng, word) + word
                + _pad(rng, word) + _render(f.right, rng, prec + (not right_assoc)))
    if _PRECEDENCE[type(f)] < limit or rng.random() < 0.1:
        text = f"({_pad(rng)}{text}{_pad(rng)})"
    return text


@st.composite
def _rendered_constraints(draw):
    """A random constraint's text with the terms, relop and constant it
    stands for.  Coefficients are dyadic, so every sum is exact."""
    rng = draw(st.randoms(use_true_random=False))
    sides = []
    for _ in range(2):
        items = []
        for n in range(draw(st.integers(1, 3))):
            signs = draw(st.lists(st.sampled_from("+-"), min_size=n > 0, max_size=2))
            sign = (-1.0) ** signs.count("-")
            text = "".join(_pad(rng) + s for s in signs) + _pad(rng)
            coef = draw(st.sampled_from([None, "k", 0.25, 0.5, 1.0, 1.5, 3.0]))
            if draw(st.booleans()):
                target = draw(_FORMULAS)
                evidence = draw(st.none() | _FORMULAS)
                if coef is not None:
                    text += (coef if coef == "k" else repr(coef)) + rng.choice([" ", "*", " * "])
                text += f"Bel{_pad(rng)}({_pad(rng)}{_render(target, rng)}"
                if evidence is not None:
                    text += f"{_pad(rng)}|{_pad(rng)}{_render(evidence, rng)}"
                text += f"{_pad(rng)})"
                term = BelTerm(target, evidence)
            else:
                coef = 0.75 if coef is None else coef
                text += coef if coef == "k" else repr(coef)
                term = None
            items.append((sign * _CONSTANTS.get(coef, 1.0 if coef is None else coef), term, text))
        sides.append(items)
    relop = draw(st.sampled_from(["=", "<=", ">=", "<", ">"]))
    merged, consts = {}, [0.0, 0.0]
    for side, weight in ((0, 1.0), (1, -1.0)):
        for coef, term, _ in sides[side]:
            if term is None:
                consts[side] += coef
            else:
                merged[term] = merged.get(term, 0.0) + weight * coef
    text = ("".join(t for _, _, t in sides[0]) + _pad(rng) + relop
            + "".join(t for _, _, t in sides[1]) + _pad(rng))
    terms = tuple((coef, term) for term, coef in merged.items() if coef != 0.0)
    return text, terms, relop, consts[1] - consts[0]


@given(_rendered_constraints())
@settings(max_examples=100)
def test_rendered_constraint_parses_back(case):
    text, terms, relop, const = case
    if not terms:
        with pytest.raises(ConstraintError, match="no belief term"):
            parse_constraint(text, _FRAME, _CONSTANTS)
        return
    con = parse_constraint(text, _FRAME, _CONSTANTS)
    assert (con.terms, con.relop, con.const) == (terms, relop, const)


class TestCompile:
    def test_unconditional_single_row(self, hire_frame):
        con = parse_constraint("Bel(not HIRE) = 0.3", hire_frame)
        system = compile_constraints([con], hire_frame)
        assert len(system.static_rows) == 1 and not system.param_rows
        row = system.static_rows[0]
        # the basis: the closure of {No} and the frame
        assert system.columns == (0b10, 0b11)
        # Bel(not HIRE) sums masses of subsets of {No}: index 0b10
        expected = np.zeros(4)
        expected[0] = expected[2] = 1.0
        assert np.array_equal(row.coeffs, expected[list(system.columns)])
        assert row.relop == "=" and row.const == 0.3

    def test_bel_vector_indicates_the_subsets(self):
        # reference: walk the sub-bitmasks of each subset one by one, over
        # the basis refined to every nonempty subset
        frame = ProductFrame([("A", ("a", "b", "c")), ("B", ("Yes", "No"))])
        system = constraints.refine(compile_constraints([], frame),
                                    range(1, frame.full_bits + 1))
        assert system.columns == tuple(range(1, frame.full_bits + 1))
        for bits in range(frame.full_bits + 1):
            expected = np.zeros(frame.full_bits + 1)
            sub = bits
            while True:
                expected[sub] = 1.0
                if sub == 0:
                    break
                sub = (sub - 1) & bits
            assert np.array_equal(system.bel_vector(bits), expected[1:])

    def test_conditional_cleared_row_matches_oracle(self, rng):
        # Row satisfaction must coincide with condition()+belief() values.
        frame = ProductFrame([("M", ("Yes", "No")), ("P", ("Yes", "No"))])
        for _ in range(50):
            m = random_mass(frame, rng)
            evidence = extension(frame, parse_formula("P", frame))
            try:
                c = m.condition(evidence).belief(extension(frame, parse_formula("M", frame)))
            except ConditioningUndefined:
                continue
            con = parse_constraint(f"Bel(M | P) = {c!r}", frame)
            system = compile_constraints([con], frame)
            vec = column_masses(system, m)
            row = system.static_rows[0]
            assert abs(float(row.coeffs @ vec) - row.const) <= 1e-9

    def test_parameter_introduced_for_term_equality(self):
        frame = ProductFrame([("PARTY", ("Yes", "No")), ("RAIN", ("Yes", "No"))])
        con = parse_constraint("Bel(PARTY) = Bel(PARTY | RAIN)", frame)
        system = compile_constraints([con], frame)
        assert system.num_params == 1
        assert len(system.param_rows) == 2

    def test_parameter_budget(self):
        frame = ProductFrame([(v, ("Yes", "No")) for v in ("A", "B", "C")])
        cons = [parse_constraint(f"Bel(A | {v}) = Bel(A)", frame) for v in ("A", "B", "C")]
        with pytest.raises(CompileError, match="parameters"):
            compile_constraints(cons, frame, max_parameters=2)

    def test_nonlinear_mixture_rejected(self):
        frame = ProductFrame([("A", ("Yes", "No")), ("B", ("Yes", "No"))])
        con = parse_constraint("Bel(A | B) + Bel(A) <= 0.9", frame)
        with pytest.raises(CompileError, match="nonlinear"):
            compile_constraints([con], frame)

    def test_guard_rows_present(self):
        frame = ProductFrame([("M", ("Yes", "No")), ("P", ("Yes", "No"))])
        con = parse_constraint("Bel(M | P) = 0.6", frame)
        system = compile_constraints([con], frame)
        guards = [r for r in system.static_rows if isinstance(r.origin, str)]
        assert len(guards) == 1
        # Bel(not P) < 1, kept exact: the constant is 1 and the row is strict
        assert guards[0].relop == "<=" and guards[0].const == 1.0 and guards[0].strict
        program = constraints._program(system)
        assert program.num_vars == len(system.columns) + 1
        assert program.row_coeffs[-2, -1] == 1.0  # the guard's slack column

    def test_strict_rows_get_slack(self, hire_frame):
        con = parse_constraint("Bel(HIRE) > 0", hire_frame)
        system = compile_constraints([con], hire_frame)
        row = system.static_rows[0]
        assert row.relop == ">=" and row.const == 0.0 and row.strict
        # one shared column delta: Bel(HIRE) - delta >= 0, and 0 on the mass row
        program = constraints._program(system)
        assert program.num_vars == len(system.columns) + 1
        assert list(program.row_coeffs[:, -1]) == [-1.0, 0.0]
        assert list(program.relops) == [">=", "="]
        # a system without strict rows or guards gets no slack column
        plain = compile_constraints([parse_constraint("Bel(HIRE) >= 0.5", hire_frame)],
                                    hire_frame)
        assert constraints._program(plain).num_vars == len(plain.columns)

    def test_theta_cap(self):
        frame = ProductFrame([(f"V{i}", ("Yes", "No")) for i in range(13)])
        with pytest.raises(Exception, match="cap"):
            compile_constraints([], frame)


class TestFeasibility:
    def test_hire_feasible_with_vacuous_witness(self, hire_system):
        res = feasible(hire_system)
        assert res.feasible and res.witness.is_vacuous()

    def test_nixon_strict_positives(self):
        frame = ProductFrame([("PAC", ("Yes", "No"))])
        cons = [parse_constraint("Bel(PAC) > 0", frame),
                parse_constraint("Bel(not PAC) > 0", frame)]
        res = feasible(compile_constraints(cons, frame))
        assert res.feasible
        pac = extension(frame, parse_formula("PAC", frame))
        assert res.witness.belief(pac) > 0
        assert res.witness.belief(~pac) > 0

    def test_additivity_breaks_hire(self, hire_frame):
        cons = [parse_constraint("Bel(HIRE) = 0", hire_frame),
                parse_constraint("Bel(not HIRE) = 0", hire_frame),
                parse_constraint("Bel(HIRE) + Bel(not HIRE) = 1", hire_frame)]
        assert not feasible(compile_constraints(cons, hire_frame)).feasible

    def test_tautological_conditional_below_one_is_infeasible(self):
        # Bel(A | A) is 1 wherever it is defined, so no belief function
        # meets the second row, and that row alone is the conflict
        frame = ProductFrame([("V0", ("v0", "v1", "v2"))])
        cons = [parse_constraint("Bel(V0=v1) > 0", frame),
                parse_constraint("Bel(V0=v1 | V0=v1) < 1", frame)]
        system = compile_constraints(cons, frame)
        assert not feasible(system).feasible
        assert conflict_core(system) == [1]
        assert feasible(compile_constraints(cons[:1], frame)).feasible
        with pytest.raises(InfeasibleSystem):
            bounds(system, term(frame, "V0=v0"))

    def test_witness_satisfies_all_constraints(self, rng):
        for _ in range(20):
            frame = random_frame(rng, max_points=6)
            anchor = random_mass(frame, rng)
            cons = []
            for _ in range(rng.randint(1, 4)):
                s = random_subset(frame, rng)
                value = anchor.belief(s)
                text_op = rng.choice(["=", "<=", ">="])
                cons.append(parse_constraint(
                    f"Bel({subset_formula(frame, s)}) {text_op} {value!r}", frame))
            system = compile_constraints(cons, frame)
            res = feasible(system)
            assert res.feasible  # anchor itself satisfies everything
            for con in cons:
                assert constraint_satisfied(res.witness, con)


class TestBounds:
    def test_empty_system_unit_interval(self, hire_frame):
        system = compile_constraints([], hire_frame)
        res = bounds(system, term(hire_frame, "HIRE"))
        assert res.lo == pytest.approx(0.0, abs=1e-9)
        assert res.hi == pytest.approx(1.0, abs=1e-9)

    def test_tautology_pinned_to_one(self, hire_system):
        res = bounds(hire_system, term(hire_system.frame, "HIRE or not HIRE"))
        assert res.lo == pytest.approx(1.0, abs=1e-9) and res.hi == pytest.approx(1.0, abs=1e-9)

    def test_contradiction_pinned_to_zero(self, hire_system):
        res = bounds(hire_system, term(hire_system.frame, "HIRE and not HIRE"))
        assert res.lo == pytest.approx(0.0, abs=1e-9) and res.hi == pytest.approx(0.0, abs=1e-9)

    def test_witnesses_attain_reported_bounds(self, rng):
        for _ in range(15):
            frame = random_frame(rng, max_points=6)
            anchor = random_mass(frame, rng)
            cons = []
            for _ in range(rng.randint(1, 3)):
                s = random_subset(frame, rng)
                cons.append(parse_constraint(
                    f"Bel({subset_formula(frame, s)}) <= {anchor.belief(s)!r}", frame))
            system = compile_constraints(cons, frame)
            q = term(frame, subset_formula(frame, random_subset(frame, rng, nonempty=True)))
            res = bounds(system, q)
            assert evaluate_term(res.witness_lo, q) == pytest.approx(res.lo, abs=1e-6)
            assert evaluate_term(res.witness_hi, q) == pytest.approx(res.hi, abs=1e-6)
            assert res.lo <= res.hi + 1e-12

    def test_adding_constraints_never_widens(self, rng):
        for _ in range(10):
            frame = random_frame(rng, max_points=6)
            anchor = random_mass(frame, rng)
            q = term(frame, subset_formula(frame, random_subset(frame, rng, nonempty=True)))
            cons = []
            prev = None
            for _ in range(3):
                s = random_subset(frame, rng)
                op = rng.choice(["<=", ">="])
                cons.append(parse_constraint(
                    f"Bel({subset_formula(frame, s)}) {op} {anchor.belief(s)!r}", frame))
                res = bounds(compile_constraints(cons, frame), q)
                if prev is not None:
                    assert res.lo >= prev.lo - 1e-6
                    assert res.hi <= prev.hi + 1e-6
                prev = res

    def test_tautology_rows_preserved_alongside_other_constraints(self):
        # systems carrying the canonical tautology/contradiction rows keep
        # them pinned no matter what else is asserted
        frame = ProductFrame([("HIRE", ("Yes", "No"))])
        cons = [parse_constraint("Bel(HIRE or not HIRE) = 1", frame),
                parse_constraint("Bel(HIRE and not HIRE) = 0", frame),
                parse_constraint("Bel(HIRE) <= 0.3", frame)]
        system = compile_constraints(cons, frame)
        assert feasible(system).feasible
        taut = bounds(system, term(frame, "HIRE or not HIRE"))
        contra = bounds(system, term(frame, "HIRE and not HIRE"))
        assert (taut.lo, taut.hi) == (pytest.approx(1.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))
        assert (contra.lo, contra.hi) == (pytest.approx(0.0, abs=1e-9), pytest.approx(0.0, abs=1e-9))

    def test_conditional_query_by_bisection(self):
        frame = ProductFrame([("M", ("Yes", "No")), ("P", ("Yes", "No"))])
        cons = [parse_constraint("Bel(M | P) = 0.6", frame)]
        system = compile_constraints(cons, frame)
        res = bounds(system, term(frame, "M", "P"))
        assert res.lo == pytest.approx(0.6, abs=1e-4)
        assert res.hi == pytest.approx(0.6, abs=1e-4)

    def test_query_undefined_everywhere(self):
        frame = ProductFrame([("A", ("Yes", "No"))])
        cons = [parse_constraint("Bel(not A) = 1", frame)]
        system = compile_constraints(cons, frame)
        with pytest.raises(QueryUndefinedEverywhere):
            bounds(system, term(frame, "A", "A"))

    def test_strict_bound_marks_open_endpoint(self):
        frame = ProductFrame([("A", ("Yes", "No"))])
        cons = [parse_constraint("Bel(A) < 0.5", frame)]
        system = compile_constraints(cons, frame)
        res = bounds(system, term(frame, "A"))
        assert res.hi == pytest.approx(0.5, abs=1e-5)
        assert res.hi_open

    def test_adding_a_row_never_raises_the_upper_end(self):
        # The three-row witness of the upper end must not stop at the query
        # guard Bel(not B) <= 1 - 1e-6 when a better point exists: the
        # four-row witness also meets the three rows.
        frame = ProductFrame([(v, ("Yes", "No")) for v in ("R", "W", "C")])
        rows = ["Bel(not (C and (R or not W))) = 0.23241762031923574",
                "Bel(not (not W and (R or not C))) = 0.6174807781386977",
                "Bel(not (not W and not (R and C)) | not R and not (W and C)) "
                "= 0.44111563080845473"]
        fourth = "Bel(not (R and W and not C)) = 0.15010160154206656"
        q = term(frame, "R and W or not R and C", "W and not C or R and not W and C")
        three = bounds(compile_constraints([parse_constraint(t, frame) for t in rows], frame), q)
        four = bounds(compile_constraints([parse_constraint(t, frame) for t in rows + [fourth]],
                                          frame), q)
        assert three.hi >= four.hi - 1e-9
        assert three.lo <= four.lo + 1e-9

    def test_solver_error_propagates(self, monkeypatch):
        frame = ProductFrame([("M", ("Yes", "No")), ("P", ("Yes", "No"))])
        system = compile_constraints([parse_constraint("Bel(M | P) >= 0.3", frame)], frame)
        calls = []
        solve = constraints.solve

        def failing_third(lp, *args, **kwargs):
            calls.append(lp)
            if len(calls) == 3:
                raise SolverError("injected failure")
            return solve(lp, *args, **kwargs)

        monkeypatch.setattr(constraints, "solve", failing_third)
        with pytest.raises(SolverError, match="injected failure"):
            bounds(system, term(frame, "M", "P"))

    def test_unconditional_query_costs_three_solves(self, hire_system, monkeypatch):
        # one search serves both ends: the root cell's phase 1, then one
        # Dinkelbach step per end over the same program
        assert hire_system.num_params == 0
        calls = []
        solve = constraints.solve

        def counting(lp, *args, **kwargs):
            calls.append(lp)
            return solve(lp, *args, **kwargs)

        monkeypatch.setattr(constraints, "solve", counting)
        bounds(hire_system, term(hire_system.frame, "HIRE"))
        assert len(calls) == 3

    def test_infeasible_system_is_told_from_the_searched_cells(self, monkeypatch):
        # with no strictly feasible leaf, telling "infeasible" from
        # "undefined everywhere" reuses the programs the search probed: the
        # root's phase 1 and its largest delta
        frame = ProductFrame([("V0", ("v0", "v1", "v2"))])
        system = compile_constraints([parse_constraint("Bel(V0=v1) > 0", frame),
                                      parse_constraint("Bel(V0=v1 | V0=v1) < 1", frame)], frame)
        calls = []
        solve = constraints.solve

        def counting(lp, *args, **kwargs):
            calls.append(lp)
            return solve(lp, *args, **kwargs)

        monkeypatch.setattr(constraints, "solve", counting)
        with pytest.raises(InfeasibleSystem):
            bounds(system, term(frame, "V0=v0"))
        assert len(calls) == 2

    def test_interval_parameter_matches_a_fixed_parameter_sweep(self):
        """A parameter whose feasible values form an interval, so that the
        search splits cells: bounds and the lower envelope equal the best
        optimum of LPs with the parameter fixed on a grid of step 1e-3,
        solved by an independent LP solver."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        frame = ProductFrame([("A", ("Yes", "No")), ("B", ("Yes", "No"))])
        system = compile_constraints([parse_constraint(t, frame) for t in (
            "Bel(A) = Bel(A | B)", "Bel(A) >= 0.4", "Bel(A) <= 0.45",
            "Bel(A) + Bel(not A) >= 0.9", "Bel(B) >= 0.3")], frame)
        assert system.num_params == 1
        ts = [t for t in np.linspace(0.0, 1.0, 1001)
              if _charnes_cooper(linprog, system, 0, None, True, params=(t,)) is not None]
        assert min(ts) == pytest.approx(0.4) and max(ts) == pytest.approx(0.45)

        def sweep(f_bits, evidence, maximize):
            values = [_charnes_cooper(linprog, system, f_bits, evidence, maximize, params=(t,))
                      for t in ts]
            return (max if maximize else min)(v for v in values if v is not None)

        for target, evidence, expected in (("A", None, (0.4, 0.45)),
                                           ("not A", None, (0.45, 0.6)),
                                           ("B", "A", None)):
            q = term(frame, target, evidence)
            res = bounds(system, q)
            f_bits = extension(frame, q.target).bits
            g = None if evidence is None else extension(frame, q.evidence)
            assert res.lo == pytest.approx(sweep(f_bits, g, False), abs=1e-6)
            assert res.hi == pytest.approx(sweep(f_bits, g, True), abs=1e-6)
            if expected is not None:
                assert (res.lo, res.hi) == pytest.approx(expected, abs=1e-6)
        env = lower_envelope(system)
        for s in range(1, frame.full_bits):
            assert env[s] == pytest.approx(sweep(s, None, False), abs=1e-6)

    def test_matches_charnes_cooper_lp_solved_by_highs(self):
        """On random parameter-free systems whose rows hold at an anchor
        mass function, both ends equal the optimum of the Charnes-Cooper
        form of the query, solved by an independent LP solver; the query
        is undefined everywhere exactly when that LP is infeasible."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(1)
        compared = 0
        for _ in range(150):
            frame = random_frame(rng, max_points=6)
            anchor = random_mass(frame, rng)
            cons = []
            for _ in range(rng.randint(1, 5)):
                s = random_subset(frame, rng)
                g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.4 else None
                try:
                    value = (anchor if g is None else anchor.condition(g)).belief(s)
                except EngineError:
                    continue
                given = "" if g is None else f" | {subset_formula(frame, g)}"
                op = rng.choice(["=", "<=", ">="])
                cons.append(parse_constraint(
                    f"Bel({subset_formula(frame, s)}{given}) {op} {value!r}", frame))
            system = compile_constraints(cons, frame)
            f = random_subset(frame, rng)
            g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.7 else None
            q = BelTerm(parse_formula(subset_formula(frame, f), frame),
                        None if g is None else parse_formula(subset_formula(frame, g), frame))
            theirs = [_charnes_cooper(linprog, system, f.bits, g, maximize)
                      for maximize in (False, True)]
            try:
                res = bounds(system, q)
            except (InfeasibleSystem, QueryUndefinedEverywhere):
                assert theirs == [None, None]
                continue
            assert res.lo == pytest.approx(theirs[0], abs=1e-7)
            assert res.hi == pytest.approx(theirs[1], abs=1e-7)
            compared += 1
        assert compared >= 140


    def test_column_basis_matches_a_dense_highs_lp_up_to_twelve_points(self, monkeypatch):
        """On random parameter-free systems on frames of up to 12 points,
        conditional rows and queries included, each end equals the optimum
        of the Charnes-Cooper LP over the dense mass vector, solved by an
        independent LP solver; and no program is wider than the basis
        refined by the query's sets, plus the slack column."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(12)
        solves = counting_solves(monkeypatch)
        compared = 0
        for _ in range(30):
            frame = random_frame(rng, max_points=12)
            anchor = random_mass(frame, rng, max_focals=6)
            cons = []
            for _ in range(rng.randint(1, 6)):
                s = random_subset(frame, rng)
                g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.4 else None
                try:
                    value = (anchor if g is None else anchor.condition(g)).belief(s)
                except EngineError:
                    continue
                given = "" if g is None else f" | {subset_formula(frame, g)}"
                cons.append(parse_constraint(
                    f"Bel({subset_formula(frame, s)}{given}) {rng.choice(['=', '<=', '>='])} "
                    f"{value!r}", frame))
            system = compile_constraints(cons, frame)
            f = random_subset(frame, rng)
            g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.5 else None
            q = BelTerm(parse_formula(subset_formula(frame, f), frame),
                        None if g is None else parse_formula(subset_formula(frame, g), frame))
            not_g = 0 if g is None else frame.full_bits ^ g.bits
            width = len(constraints.refine(system, (f.bits | not_g, not_g)).columns)
            assert width < 1 << frame.theta_size
            solves.clear()
            res = bounds(system, q)
            assert all(lp.num_vars <= width + 1 for lp in solves)
            theirs = [_charnes_cooper(linprog, system, f.bits, g, maximize)
                      for maximize in (False, True)]
            assert res.lo == pytest.approx(theirs[0], abs=1e-9)
            assert res.hi == pytest.approx(theirs[1], abs=1e-9)
            compared += 1
        assert compared == 30

    def test_two_parameters_near_the_box_corner(self):
        """Both parameters' feasible values reach 1, where the search
        splits cells down to its width limit and phase 1 can round a basic
        value just below zero.  Both ends lie within the range of LPs with
        the parameters fixed on a grid, solved by an independent solver."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        frame = ProductFrame([("V0", ("Yes", "No")), ("V1", ("Yes", "No"))])
        system = compile_constraints([parse_constraint(t, frame) for t in (
            "Bel(V0 or V1) = Bel(V0 and V1 | V0 and V1 or not V0 and not V1)",
            "Bel(not V0) = Bel(V0 and V1 or not V0 | V0 or not V0)")], frame)
        assert system.num_params == 2
        q = term(frame, "not V0 and V1")
        res = bounds(system, q)
        f_bits = extension(frame, q.target).bits
        grid = np.linspace(0.0, 1.0, 21)
        sweep = [[_charnes_cooper(linprog, system, f_bits, None, maximize, params=(t0, t1))
                  for t0 in grid for t1 in grid] for maximize in (False, True)]
        lo = min(v for v in sweep[0] if v is not None)
        hi = max(v for v in sweep[1] if v is not None)
        assert (lo, hi) == (pytest.approx(0.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))
        assert res.lo == pytest.approx(lo, abs=1e-6)
        assert res.hi == pytest.approx(hi, abs=1e-6)


def _charnes_cooper(linprog, system, f_bits, evidence, maximize, params=()):
    """Optimum of Bel(f | g) = num(m) / den(m) over the closure of the
    system's rows, with each parameter fixed at its value in ``params``,
    as one LP in y = t*m and t = 1/den(m)."""
    frame = system.frame
    not_g = 0 if evidence is None else frame.full_bits ^ evidence.bits
    bel_not_g = dense_bel(frame, not_g)
    num = dense_bel(frame, f_bits | not_g) - bel_not_g
    rows = dense_rows(system.constraints, frame, params)
    width = 1 << frame.theta_size
    a_ub, b_ub = [], []
    a_eq = [np.append(np.ones(width), -1.0), np.append(1.0 - bel_not_g, 0.0)]
    b_eq = [0.0, 1.0]
    for coeffs, op, const in rows:
        homogeneous = np.append(coeffs, -const)
        if op == "=":
            a_eq.append(homogeneous)
            b_eq.append(0.0)
        else:
            a_ub.append(homogeneous if op == "<=" else -homogeneous)
            b_ub.append(0.0)
    objective = np.append(num, 0.0)
    out = linprog(-objective if maximize else objective,
                  A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                  A_eq=np.array(a_eq), b_eq=b_eq,
                  bounds=[(0, 0)] + [(0, None)] * width, method="highs")
    if out.status != 0:
        return None
    return -out.fun if maximize else out.fun


class TestSubsystem:
    def test_rows_equal_a_compile_of_the_subset(self):
        """On random systems with strict, conditional and parameterized
        rows, the subsystem of a random subset, in random order, has the
        rows that compiling that subset gives: coefficients, relation,
        constant, strictness and owner of every row, guards in the same
        order, and the parameters numbered the same."""
        rng = random.Random(7)
        for _ in range(60):
            frame = random_frame(rng, max_points=6)
            cons = _random_constraints(rng, frame, rng.randint(0, 6), params=rng.randint(0, 2))
            system = compile_constraints(cons, frame)
            keep = rng.sample(range(len(cons)), rng.randint(0, len(cons)))
            ours = constraints.subsystem(system, keep)
            theirs = compile_constraints([cons[i] for i in keep], frame)
            assert ours.constraints == theirs.constraints
            assert ours.num_params == theirs.num_params
            assert ours.strict == theirs.strict
            assert len(ours.static_rows) == len(theirs.static_rows)
            # the subsystem keeps its parent's basis: compare rows on every subset
            assert ours.columns == system.columns
            for a, b in zip(ours.static_rows, theirs.static_rows):
                assert (a.relop, a.const, a.strict, a.origin) == (b.relop, b.const, b.strict, b.origin)
                assert np.array_equal(dense_coeffs(ours, a.coeffs), dense_coeffs(theirs, b.coeffs))
            assert len(ours.param_rows) == len(theirs.param_rows)
            for a, b in zip(ours.param_rows, theirs.param_rows):
                assert (a.l_const, a.r_const, a.param, a.origin) == (b.l_const, b.r_const, b.param, b.origin)
                assert np.array_equal(dense_coeffs(ours, a.l_coeffs),
                                      dense_coeffs(theirs, b.l_coeffs))
                assert np.array_equal(dense_coeffs(ours, a.r_coeffs),
                                      dense_coeffs(theirs, b.r_coeffs))


def _same_rows(ours, theirs):
    """Two compiled systems are equal bit for bit: constraints, columns,
    parameters, conditions, and every field of every row, in order."""
    assert ours.constraints == theirs.constraints
    assert ours.columns == theirs.columns
    assert ours.num_params == theirs.num_params
    assert ours.conditions == theirs.conditions
    assert len(ours.static_rows) == len(theirs.static_rows)
    for a, b in zip(ours.static_rows, theirs.static_rows):
        assert (a.relop, a.const, a.strict, a.origin) == (b.relop, b.const, b.strict, b.origin)
        assert np.array_equal(a.coeffs, b.coeffs)
    assert len(ours.param_rows) == len(theirs.param_rows)
    for a, b in zip(ours.param_rows, theirs.param_rows):
        assert (a.l_const, a.r_const, a.param, a.origin) == (b.l_const, b.r_const, b.param, b.origin)
        assert np.array_equal(a.l_coeffs, b.l_coeffs) and np.array_equal(a.r_coeffs, b.r_coeffs)


class TestExtend:
    def test_one_constraint_at_a_time_equals_a_compile(self):
        """On random sequences of strict, conditional and parameterized
        constraints, extending the empty system by one constraint at a
        time gives, after each step, what compiling the prefix gives."""
        rng = random.Random(16)
        for _ in range(60):
            frame = random_frame(rng, max_points=8)
            cons = _random_constraints(rng, frame, rng.randint(0, 6), params=rng.randint(0, 2))
            rng.shuffle(cons)
            system = compile_constraints([], frame)
            for k, con in enumerate(cons, start=1):
                system = constraints.extend(system, [con])
                _same_rows(system, compile_constraints(cons[:k], frame))

    def test_a_constraint_that_does_not_compile_raises_as_a_compile_does(self):
        frame = ProductFrame([("RAIN", ("Yes", "No")), ("WET", ("Yes", "No"))])
        equalities = [parse_constraint(t, frame) for t in (
            "Bel(RAIN | WET) = Bel(WET)", "Bel(WET | RAIN) = Bel(RAIN)",
            "Bel(not WET | RAIN) = Bel(not RAIN)")]
        nonlinear = parse_constraint("Bel(RAIN | WET) + Bel(WET) <= 0.5", frame)
        system = compile_constraints(equalities[:2], frame)
        for con in (equalities[2], nonlinear):
            with pytest.raises(CompileError) as compiled:
                compile_constraints(equalities[:2] + [con], frame)
            with pytest.raises(CompileError) as extended:
                constraints.extend(system, [con])
            assert str(extended.value) == str(compiled.value)
        assert len(system.constraints) == 2 and system.num_params == 2

    def test_keeps_a_refined_basis(self):
        # the columns a query's sets added stay, and every row reads as a
        # compile of the longer set does on every subset
        frame = ProductFrame([("A", ("a", "b", "c")), ("B", ("Yes", "No"))])
        first = parse_constraint("Bel(A=a or B) >= 0.3", frame)
        second = parse_constraint("Bel(A=b | B) <= 0.6", frame)
        query = term(frame, "A=c", "not B")
        refined = constraints.refine(compile_constraints([first], frame),
                                     constraints.query_sets(frame, query))
        ours = constraints.extend(refined, [second])
        theirs = compile_constraints([first, second], frame)
        assert set(refined.columns) <= set(ours.columns)
        assert constraints.refine(ours, constraints.query_sets(frame, query)) is ours
        for a, b in zip(ours.static_rows, theirs.static_rows):
            assert np.array_equal(dense_coeffs(ours, a.coeffs), dense_coeffs(theirs, b.coeffs))
        assert bounds(ours, query).hi == pytest.approx(bounds(theirs, query).hi, abs=1e-9)


def _counting_phase1(monkeypatch) -> list:
    """The programs of every phase 1 the LP kernel runs from now on."""
    programs = []
    phase1 = solver_module._phase1

    def counting(lp, *args, **kwargs):
        programs.append(lp)
        return phase1(lp, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_phase1", counting)
    return programs


class TestOneBoxPerSystem:
    def test_conflict_core_after_feasible_runs_the_root_phase1_once(self, monkeypatch):
        # the planted check of the benchmark's lattice: feasible, then the
        # core, on one parameter-free infeasible system
        frame = ProductFrame([("V0", ("v0", "v1", "v2"))])
        cons = [parse_constraint(t, frame) for t in (
            "Bel(V0=v0 or V0=v1) >= 0.7", "Bel(V0=v2) >= 0.2", "Bel(V0=v0) <= 0.9",
            "Bel(not V0=v2) <= 0.5")]
        programs = _counting_phase1(monkeypatch)
        alone = conflict_core(compile_constraints(cons, frame))
        once = len(programs)
        programs.clear()
        system = compile_constraints(cons, frame)
        assert not feasible(system).feasible
        assert conflict_core(system) == alone == [0, 3]
        assert programs.count(system.box.relaxation) == 1
        assert len(programs) == once

    def test_queries_on_one_system_share_its_phase1(self, monkeypatch):
        system = compile_constraints([parse_constraint(t, _HIRE_FRAME) for t in (
            "Bel(HIRE) >= 0.2", "Bel(not HIRE) >= 0.3")], _HIRE_FRAME)
        programs = _counting_phase1(monkeypatch)
        assert constraints.subsystem(system, [0, 1]) is system
        assert conflict_core(system) == []
        for target in ("HIRE", "not HIRE"):
            query = term(_HIRE_FRAME, target)
            assert constraints.refine(system, constraints.query_sets(_HIRE_FRAME, query)) is system
            bounds(system, query)
        assert programs == [system.box.relaxation]

    def test_probe_budget_is_per_call(self, monkeypatch):
        """A call may probe up to ``_PROBE_CAP`` cells that no earlier call
        on the system probed.  Here ``feasible`` probes 28 cells and
        ``bounds`` 51 more."""
        frame = ProductFrame([("A", ("Yes", "No")), ("B", ("Yes", "No"))])
        cons = [parse_constraint(t, frame) for t in (
            "Bel(A) = Bel(A | B)", "Bel(A) >= 0.4", "Bel(A) <= 0.45",
            "Bel(A) + Bel(not A) >= 0.9", "Bel(B) >= 0.3")]
        query = term(frame, "A")
        monkeypatch.setattr(constraints, "_PROBE_CAP", 60)
        system = compile_constraints(cons, frame)
        assert constraints.refine(system, constraints.query_sets(frame, query)) is system
        assert feasible(system).feasible
        assert bounds(system, query).hi == pytest.approx(0.45)
        assert len(system.box.probed) > 60
        monkeypatch.setattr(constraints, "_PROBE_CAP", 50)
        system = compile_constraints(cons, frame)
        assert feasible(system).feasible
        with pytest.raises(CompileError, match="probe budget"):
            bounds(system, query)

    def test_only_a_parameter_free_root_program_starts_warm(self):
        """An objective solved twice: on a parameter-free system's root
        program the second solve starts at the first one's optimum and
        takes no pivot; on each cell program of a parameterized system's
        box it starts from phase 1's tableau again and takes the first
        solve's pivots."""
        frame = ProductFrame([("A", ("Yes", "No")), ("B", ("Yes", "No"))])
        rows = ("Bel(A) >= 0.4", "Bel(A) <= 0.45", "Bel(A) + Bel(not A) >= 0.9",
                "Bel(B) >= 0.3")
        free = compile_constraints([parse_constraint(t, frame) for t in rows], frame)
        param = compile_constraints([parse_constraint(t, frame)
                                     for t in ("Bel(A) = Bel(A | B)",) + rows], frame)
        assert (free.num_params, param.num_params) == (0, 1)
        assert bounds(param, term(frame, "A")).hi == pytest.approx(0.45)
        cells = [found[0] for found in param.box.probed.values() if found is not None]
        programs = [(constraints._box(free).relaxation, True)] + [(p, False) for p in cells]
        assert len(programs) > 2
        moved = 0
        for program, warm in programs:
            system = free if warm else param
            for bits in system.column_bits.tolist():
                for sign in (1.0, -1.0):
                    objective = sign * constraints._objective(system, system.bel_vector(bits))
                    first = solver_module.solve(program, objective)
                    again = solver_module.solve(program, objective)
                    assert again.value == first.value
                    assert again.pivots == (0 if warm else first.pivots)
                    moved += first.pivots > 0
        assert moved > len(programs)

    def test_no_reference_cycle(self):
        # the box holds no reference to its system, so dropping the last
        # reference frees the system, its box and their tableaux at once
        system = compile_constraints([parse_constraint("Bel(HIRE) >= 0.2", _HIRE_FRAME)],
                                     _HIRE_FRAME)
        bounds(system, term(_HIRE_FRAME, "HIRE"))
        gone = weakref.ref(system)
        gc.disable()
        try:
            del system
            assert gone() is None
        finally:
            gc.enable()


_HIRE_FRAME = ProductFrame([("HIRE", ("Yes", "No"))])

_SEED_FRAME = ProductFrame([("A", ("a", "b", "c")), ("B", ("Yes", "No"))])


@st.composite
def _seed_rows(draw):
    """A constraint of the six-point frame: ``Bel(S) relop c`` or, with a
    new guard when its evidence is new, ``Bel(S | E) relop c``."""
    frame = _SEED_FRAME
    text = subset_formula(frame, frame.subset(draw(st.integers(1, frame.full_bits))))
    if draw(st.booleans()):
        evidence = frame.subset(draw(st.integers(1, frame.full_bits)))
        text += f" | {subset_formula(frame, evidence)}"
    relop = draw(st.sampled_from(["=", "<=", ">=", "<", ">"]))
    value = draw(st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0]))
    return parse_constraint(f"Bel({text}) {relop} {value}", frame)


def _ends(system, query):
    try:
        res = bounds(system, query)
    except QueryUndefinedEverywhere:
        return None
    return res.lo, res.hi, res.lo_open, res.hi_open


class TestSeededChild:
    @given(st.lists(_seed_rows(), max_size=3), st.lists(_seed_rows(), min_size=1, max_size=4),
           _seed_rows())
    @settings(max_examples=200)
    def test_a_seeded_child_answers_as_a_cold_one(self, base, added, probe):
        """A system, feasible and bounded by a query so that its box exists,
        extended by one row at a time: each child, which starts from its
        parent's basis, answers as a copy that runs phase 1 from scratch
        and as a fresh compile of its constraints.  A query whose sets are
        new refines the child, and that child starts warm too."""
        frame = _SEED_FRAME
        (_, query), = probe.terms
        system = compile_constraints(base, frame)
        for con in added:
            if not feasible(system).feasible:
                break
            system = constraints.refine(system, constraints.query_sets(frame, query))
            _ends(system, query)  # moves the root program's basis to an end's optimum
            child, cold = constraints.extend(system, [con]), constraints.extend(system, [con])
            assert child.seed is not None
            cold.seed = None
            verdict = feasible(child).feasible
            assert verdict == feasible(cold).feasible
            if not verdict:
                seeded, plain = child.box.relaxation.farkas, cold.box.relaxation.farkas
                assert (seeded is None) == (plain is None)
                assert seeded is None or np.array_equal(seeded, plain)
                assert conflict_core(child) == conflict_core(cold)
                break
            ends = _ends(child, query)
            fresh = _ends(compile_constraints(child.constraints, frame), query)
            assert (ends is None) == (fresh is None)
            if ends is not None:
                assert ends[:2] == pytest.approx(fresh[:2], abs=1e-9)
                assert ends[2:] == fresh[2:]
            system = child

    def test_the_seed_is_a_copy(self):
        # the child holds none of its parent's arrays, and its first solve
        # takes the seed, so a session keeps no history alive
        frame = _SEED_FRAME
        system = compile_constraints([parse_constraint("Bel(A=a) >= 0.2", frame)], frame)
        assert feasible(system).feasible
        child = constraints.extend(system, [parse_constraint("Bel(A=b | B) <= 0.5", frame)])
        _, tableau, basis, _ = system.box.relaxation._phase1
        assert not np.shares_memory(child.seed.tableau, tableau)
        assert not np.shares_memory(child.seed.basis, basis)
        assert feasible(child).feasible
        assert child.seed is None and child.box.relaxation._seed is None

    def test_a_parameterized_child_starts_cold(self):
        frame = _SEED_FRAME
        system = compile_constraints([parse_constraint("Bel(A=a) >= 0.2", frame)], frame)
        assert feasible(system).feasible
        child = constraints.extend(system, [parse_constraint("Bel(A=a) = Bel(A=a | B)", frame)])
        assert child.num_params == 1 and child.seed is None


class TestCompilerOracleEquivalence:
    def test_rows_agree_with_conditioning_oracle(self, rng):
        agree = violate = 0
        while agree < 120 or violate < 120:
            frame = random_frame(rng, max_points=5)
            m = random_mass(frame, rng, max_focals=4)
            g = random_subset(frame, rng, nonempty=True)
            try:
                conditioned = m.condition(g)
            except ConditioningUndefined:
                continue
            if m.belief(~g) > 0.95:
                continue  # keep the normalizer comfortably positive
            f = random_subset(frame, rng)
            value = conditioned.belief(f)
            con = parse_constraint(
                f"Bel({subset_formula(frame, f)} | {subset_formula(frame, g)}) = {value!r}",
                frame)
            system = compile_constraints([con], frame)
            vec = column_masses(system, m)
            row = [r for r in system.static_rows if not isinstance(r.origin, str)][0]
            assert abs(float(row.coeffs @ vec) - row.const) <= 1e-7
            agree += 1
            # now a perturbed target value must violate the row
            wrong = value + (0.2 if value <= 0.5 else -0.2)
            con2 = parse_constraint(
                f"Bel({subset_formula(frame, f)} | {subset_formula(frame, g)}) = {wrong!r}",
                frame)
            system2 = compile_constraints([con2], frame)
            row2 = [r for r in system2.static_rows if not isinstance(r.origin, str)][0]
            assert abs(float(row2.coeffs @ column_masses(system2, m)) - row2.const) > 1e-7
            violate += 1


class TestMincommit:
    def test_hire_returns_vacuous(self, hire_system):
        assert mincommit(hire_system).is_vacuous()

    @pytest.mark.parametrize("rows, named, value", [
        (["Bel(B) = Bel(B | C and A)", "Bel(not A) = Bel(not A | B)",
          "Bel(not A and C) > 0.861"], "not A and C", 0.861),
        (["Bel(B or not A) = Bel(B or not A | not C)", "Bel(C and A) = Bel(C and A | B)",
          "Bel(not C and not A) > 0.117"], "not C and not A", 0.117),
    ])
    def test_two_parameter_envelopes_answer(self, monkeypatch, rows, named, value):
        """Two systems on which the envelope taken over the closure basis
        alone, with no refinement to every subset, fails: the first runs
        out of its probe budget and the second raises a ``SolverError``.
        Over every subset both answer within 2,000 LPs."""
        frame = ProductFrame([(name, ("Yes", "No")) for name in "ABC"])
        system = compile_constraints([parse_constraint(r, frame) for r in rows], frame)
        assert system.num_params == 2
        solves = counting_solves(monkeypatch)
        env = lower_envelope(system)
        assert len(solves) <= 2000
        assert env[extension(frame, parse_formula(named, frame)).bits] == pytest.approx(value, abs=1e-9)
        assert env[frame.full_bits] == pytest.approx(1.0, abs=1e-9)

    def test_window_masses(self):
        frame = ProductFrame([("X", ("T", "J", "P", "O"))])
        lines = [
            "Bel(X=T or X=J or X=P or X=O) = 1",
            "Bel(X=T or X=J or X=P) = 0.6",
            "Bel(X=T or X=J) = 0", "Bel(X=T or X=P) = 0", "Bel(X=J or X=P) = 0",
            "Bel(X=T) = 0", "Bel(X=J) = 0", "Bel(X=P) = 0",
        ]
        system = compile_constraints([parse_constraint(t, frame) for t in lines], frame)
        result = mincommit(system)
        tjp = extension(frame, parse_formula("X=T or X=J or X=P", frame))
        assert result.mass(tjp) == pytest.approx(0.6, abs=1e-7)
        assert result.mass(frame.full()) == pytest.approx(0.4, abs=1e-7)
        assert len(result) == 2

    def test_split_pair(self):
        frame = ProductFrame([("A", ("Yes", "No"))])
        cons = [parse_constraint("Bel(A) >= 0.5", frame),
                parse_constraint("Bel(not A) >= 0.5", frame)]
        system = compile_constraints(cons, frame)
        result = mincommit(system)
        a = extension(frame, parse_formula("A", frame))
        assert result.mass(a) == pytest.approx(0.5, abs=1e-7)
        assert result.mass(~a) == pytest.approx(0.5, abs=1e-7)
        # dominated by every feasible witness under the commitment order
        rng = random.Random(99)
        for _ in range(100):
            w = _random_feasible_witness(system, rng)
            assert leq_committed(result, w)

    def test_absent_when_no_minimum_exists(self):
        # Bel(A) + Bel(not A) = 0.9 admits a segment of incomparable
        # solutions; the lower envelope is vacuous, which violates the
        # constraint, so there is no minimum-committed element.
        frame = ProductFrame([("A", ("Yes", "No"))])
        cons = [parse_constraint("Bel(A) + Bel(not A) = 0.9", frame)]
        system = compile_constraints(cons, frame)
        assert feasible(system).feasible
        assert mincommit(system) is None
        env = lower_envelope(system)
        # the envelope itself is still reported: zero on both singletons
        assert env[1] == pytest.approx(0.0, abs=1e-9)
        assert env[2] == pytest.approx(0.0, abs=1e-9)
        assert env[frame.full_bits] == pytest.approx(1.0)

    def test_envelope_matches_a_highs_lp_per_subset(self):
        """On random parameter-free systems whose rows, strict ones and
        guards included, hold strictly at an anchor mass function, the
        envelope at each subset S is the least Bel(S) over the closure,
        one LP per subset solved by an independent solver, and it is
        monotone over the subset lattice."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(3)
        for _ in range(40):
            frame = random_frame(rng, max_points=6)
            anchor = random_mass(frame, rng)
            cons = []
            for _ in range(rng.randint(1, 5)):
                s = random_subset(frame, rng)
                g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.4 else None
                try:
                    value = (anchor if g is None else anchor.condition(g)).belief(s)
                except EngineError:
                    continue
                op = rng.choice(["=", "<=", ">=", "<", ">"])
                value += {"<": 0.05, ">": -0.05}.get(op, 0.0)
                given = "" if g is None else f" | {subset_formula(frame, g)}"
                cons.append(parse_constraint(
                    f"Bel({subset_formula(frame, s)}{given}) {op} {value!r}", frame))
            system = compile_constraints(cons, frame)
            full = frame.full_bits
            env = lower_envelope(system)
            theirs = [_charnes_cooper(linprog, system, s, None, False) for s in range(1, full)]
            assert env[1:full] == pytest.approx(theirs, abs=1e-8)
            for s in range(1, full + 1):
                for x in range(frame.theta_size):
                    assert env[s & ~(1 << x)] <= env[s] + 1e-8

    def test_closure_basis_envelope_matches_every_subset(self, monkeypatch):
        """On random parameter-free systems, the envelope over the system's
        own basis equals the one over every nonempty subset within 1e-9, in
        fewer LPs in total, and a second envelope on the same system runs
        no phase 1: both share the system's box."""
        rng = random.Random(23)
        solves = counting_solves(monkeypatch)
        programs = _counting_phase1(monkeypatch)
        own = every = 0
        for _ in range(40):
            frame = random_frame(rng, max_points=8)
            anchor = random_mass(frame, rng)
            cons = []
            for _ in range(rng.randint(1, 6)):
                s = random_subset(frame, rng)
                g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.3 else None
                try:
                    value = (anchor if g is None else anchor.condition(g)).belief(s)
                except EngineError:
                    continue
                op = rng.choice(["=", "<=", ">=", "<", ">"])
                value += {"<": 0.05, ">": -0.05}.get(op, 0.0)
                given = "" if g is None else f" | {subset_formula(frame, g)}"
                cons.append(parse_constraint(
                    f"Bel({subset_formula(frame, s)}{given}) {op} {value!r}", frame))
            system = compile_constraints(cons, frame)
            assert system.num_params == 0
            solves.clear()
            env = lower_envelope(system)
            own += len(solves)
            programs.clear()
            assert lower_envelope(system) == pytest.approx(env, abs=1e-9)
            assert programs == []
            solves.clear()
            dense = constraints._rebase(system, tuple(range(1, frame.full_bits + 1)))
            assert lower_envelope(dense) == pytest.approx(env, abs=1e-9)
            every += len(solves)
        assert own < every


def _random_feasible_witness(system, rng):
    """A vertex of the closure of a parameter-free system over the dense
    mass vector."""
    objective = np.array([rng.uniform(-1, 1) for _ in range(1 << system.frame.theta_size)])
    if rng.random() >= 0.5:  # minimize: maximize the negation
        objective = -objective
    res = solve(dense_program(system.constraints, system.frame), objective)
    return MassFunction.from_vector(system.frame, res.point)


class TestSurpriseReport:
    def test_bird_pinned(self):
        frame = ProductFrame([("BIRD", ("Yes", "No")), ("FLY", ("Yes", "No"))])
        cons = [parse_constraint("Bel(FLY | BIRD) = 0.4", frame),
                parse_constraint("Bel(not FLY | BIRD) = 0", frame)]
        system = compile_constraints(cons, frame)
        res = surprise_report(system, parse_formula("not FLY", frame),
                              parse_formula("BIRD", frame))
        assert res.lo == pytest.approx(0.4, abs=1e-4)
        assert res.hi == pytest.approx(0.4, abs=1e-4)

    def test_unconstrained_event_full_range(self, hire_frame):
        system = compile_constraints([], hire_frame)
        res = surprise_report(system, parse_formula("HIRE", hire_frame), None)
        assert res.lo == pytest.approx(0.0, abs=1e-9)
        assert res.hi == pytest.approx(1.0, abs=1e-9)

    def test_hire_never_surprised(self, hire_system):
        res = surprise_report(hire_system, parse_formula("HIRE", hire_system.frame), None)
        assert res.lo == pytest.approx(0.0, abs=1e-9)
        assert res.hi == pytest.approx(0.0, abs=1e-9)
        res2 = surprise_report(hire_system, parse_formula("not HIRE", hire_system.frame), None)
        assert res2.hi == pytest.approx(0.0, abs=1e-9)


class TestDiagnostics:
    def test_conflict_core_names_the_clash(self, hire_frame):
        cons = [parse_constraint("Bel(HIRE) = 0", hire_frame),
                parse_constraint("Bel(HIRE) <= 0.4", hire_frame),
                parse_constraint("Bel(HIRE) = 0.6", hire_frame)]
        system = compile_constraints(cons, hire_frame)
        assert not feasible(system).feasible
        core = conflict_core(system)
        assert 2 in core
        assert 0 in core or 1 in core
        # the core is irreducible: every proper subset is feasible
        for drop in core:
            rest = [cons[i] for i in core if i != drop]
            assert feasible(compile_constraints(rest, hire_frame)).feasible

    def test_conflict_core_of_a_feasible_system_is_empty(self, hire_frame, hire_system):
        assert conflict_core(hire_system) == []
        assert conflict_core(compile_constraints([], hire_frame)) == []

    def test_core_is_irreducible_and_costs_no_more_lps_than_recompiling(self, monkeypatch):
        """On random infeasible systems, closure-infeasible, infeasible
        only through strict rows, and with one parameter, whose root
        relaxation is infeasible or not, the core is infeasible and
        dropping any of its constraints leaves a feasible set, each checked
        by a fresh compile; and finding it takes no more LPs than the
        deletion that compiles every subset."""
        rng = random.Random(11)
        solves = counting_solves(monkeypatch)
        kinds = {"closure": 0, "strict": 0, "param": 0, "param_closure": 0}
        while min(kinds.values()) < 8:
            frame = random_frame(rng, max_points=4)
            cons = _random_constraints(rng, frame, rng.randint(2, 6),
                                       params=int(rng.random() < 0.3))
            system = compile_constraints(cons, frame)
            if feasible(system).feasible:
                continue
            root = constraints._program(system, [(0.0, 1.0)] * system.num_params)
            closure = solve(root).status == "infeasible"
            kinds[("param_" * bool(system.num_params) + "closure") if closure
                  else "param" if system.num_params else "strict"] += 1
            solves.clear()
            core = conflict_core(system)
            ours = len(solves)
            solves.clear()
            assert _core_by_recompiling(system)
            assert ours <= len(solves)
            assert core and not feasible(compile_constraints([cons[i] for i in core], frame)).feasible
            for drop in core:
                rest = [cons[i] for i in core if i != drop]
                assert feasible(compile_constraints(rest, frame)).feasible


def _core_by_recompiling(system) -> list[int]:
    """The deletion filter ``conflict_core`` ran before it read Farkas
    certificates: every test compiles its subset afresh and searches it.
    It checks the whole set first, as ``conflict_core`` does, so both
    return ``[]`` on a feasible system."""
    def is_feasible(subset):
        sub = compile_constraints([system.constraints[i] for i in subset], system.frame)
        return feasible(sub).feasible

    core = list(range(len(system.constraints)))
    if is_feasible(core):
        return []
    for idx in list(core):
        trial = [i for i in core if i != idx]
        if trial and not is_feasible(trial):
            core = trial
    return core


def _random_constraints(rng, frame, count, params=0):
    """Random constraints over the frame, with every relation, strict ones
    included, and conditional terms: their values are an anchor mass
    function's, moved off it now and then, so that a set of them is often
    infeasible, sometimes only through a strict row.  ``params`` more are
    equalities between a conditional term and another term."""
    anchor = random_mass(frame, rng)

    def term():
        s = random_subset(frame, rng)
        g = random_subset(frame, rng, nonempty=True) if rng.random() < 0.4 else None
        given = "" if g is None else f" | {subset_formula(frame, g)}"
        try:
            value = (anchor if g is None else anchor.condition(g)).belief(s)
        except EngineError:
            value = rng.random()
        return f"Bel({subset_formula(frame, s)}{given})", value

    out = []
    while len(out) < count:
        text, value = term()
        if rng.random() < 0.3:
            value = rng.choice((0.0, 1.0, rng.random()))
        out.append(parse_constraint(
            f"{text} {rng.choice(['=', '<=', '>=', '<', '>'])} {value!r}", frame))
    while len(out) < count + params:
        (left, _), (right, _) = term(), term()
        g = subset_formula(frame, random_subset(frame, rng, nonempty=True))
        try:
            out.append(parse_constraint(f"{left[:-1]} | {g}) = {right}"
                                        if "|" not in left else f"{left} = {right}", frame))
        except ConstraintError:  # the two terms cancel
            continue
    return out
