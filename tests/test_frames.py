"""Frames, formula parsing, satisfaction, and extension semantics."""

import gc
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surprise_engine import (
    And,
    Atom,
    Formula,
    FormulaError,
    FormulaSyntaxError,
    FrameTooLarge,
    Implies,
    Not,
    Or,
    ProductFrame,
    extension,
    parse_formula,
    pretty,
)
from surprise_engine.frames import MAX_OPERATORS, extension_bits, tokenize


def satisfies(frame: ProductFrame, point: int, formula: Formula) -> bool:
    """Does the point satisfy the formula?  The tests' oracle for
    :func:`extension_bits`, walking the formula at one point.

    Conjunction and implication are evaluated through their rewrites
    ``not (not g or not h)`` and ``not g or h``, one call per node.
    """
    if isinstance(formula, Atom):
        return frame.value_at(point, formula.var) == formula.value
    if isinstance(formula, Not):
        return not satisfies(frame, point, formula.child)
    if isinstance(formula, Or):
        return satisfies(frame, point, formula.left) or satisfies(frame, point, formula.right)
    if isinstance(formula, And):
        return not ((not satisfies(frame, point, formula.left))
                    or (not satisfies(frame, point, formula.right)))
    if isinstance(formula, Implies):
        return (not satisfies(frame, point, formula.left)) or satisfies(frame, point, formula.right)
    raise TypeError(f"not a formula: {formula!r}")


@pytest.fixture
def booleans():
    return ProductFrame([("M", ("Yes", "No")), ("P", ("Yes", "No"))])


@pytest.fixture
def mpe():
    return ProductFrame([(v, ("Yes", "No")) for v in ("M", "P", "E")])


@pytest.fixture
def temp_frame():
    return ProductFrame([("TEMP", ("low", "med", "high"))])


class TestProductFrame:
    def test_indexing_is_mixed_radix(self):
        frame = ProductFrame([("A", ("a0", "a1")), ("B", ("b0", "b1", "b2"))])
        assert frame.theta_size == 6
        # first variable slowest: index = a*3 + b
        assert frame.point(A="a0", B="b0") == 0
        assert frame.point(A="a0", B="b2") == 2
        assert frame.point(A="a1", B="b0") == 3
        assert frame.point_values(5) == ("a1", "b2")
        seen = {frame.point_values(i) for i in frame.points()}
        assert len(seen) == 6

    def test_duplicate_names_rejected(self):
        with pytest.raises(FormulaError):
            ProductFrame([("X", ("Yes", "No")), ("X", ("a", "b"))])
        with pytest.raises(FormulaError):
            ProductFrame([("X", ("a", "a"))])

    def test_theta_cap(self):
        with pytest.raises(FrameTooLarge):
            ProductFrame([(f"V{i}", ("Yes", "No")) for i in range(17)])
        # configurable
        ProductFrame([(f"V{i}", ("Yes", "No")) for i in range(17)], max_theta=1 << 17)

    def test_atom_masks_match_point_values(self):
        frame = ProductFrame([("A", ("a0", "a1", "a2")),
                              ("B", tuple(f"b{i}" for i in range(5))),
                              ("C", tuple(f"c{i}" for i in range(7)))])
        for name in frame.names:
            for value in frame.values(name):
                expected = sum(1 << p for p in frame.points() if frame.value_at(p, name) == value)
                assert frame.atom_bits(name, value) == expected

    def test_subset_algebra(self, booleans):
        s = booleans.subset(0b0011)
        t = booleans.subset(0b0110)
        assert (s | t).bits == 0b0111
        assert (s & t).bits == 0b0010
        assert (~(~s)).bits == s.bits
        assert (s - t).bits == 0b0001
        assert s.cardinality == 2
        assert 0 in s and 3 not in s


class TestParsing:
    def test_implies_on_booleans(self, booleans):
        f = parse_formula("M => P", booleans)
        assert f == Implies(Atom("M", "Yes"), Atom("P", "Yes"))

    def test_multivalue_disjunction(self, temp_frame):
        f = parse_formula("TEMP=med or TEMP=low", temp_frame)
        assert f == Or(Atom("TEMP", "med"), Atom("TEMP", "low"))

    def test_double_negation_structure(self, booleans):
        assert parse_formula("not not M", booleans) == Not(Not(Atom("M", "Yes")))

    def test_precedence(self, mpe):
        # not > and > or > implies
        f = parse_formula("not M and P or E => M", mpe)
        assert f == Implies(Or(And(Not(Atom("M", "Yes")), Atom("P", "Yes")), Atom("E", "Yes")),
                            Atom("M", "Yes"))

    def test_implies_right_associative(self, mpe):
        f = parse_formula("M => P => E", mpe)
        assert f == Implies(Atom("M", "Yes"), Implies(Atom("P", "Yes"), Atom("E", "Yes")))

    def test_ascii_symbol_forms(self, mpe):
        assert parse_formula(r"M /\ P", mpe) == parse_formula("M and P", mpe)
        assert parse_formula(r"M \/ P", mpe) == parse_formula("M or P", mpe)
        assert parse_formula("~M", mpe) == parse_formula("not M", mpe)

    def test_syntax_error_reports_position(self, booleans):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("M or or P", booleans)
        assert err.value.position == 5

    def test_unknown_variable_and_value(self, booleans):
        with pytest.raises(FormulaError, match="unknown variable"):
            parse_formula("Q", booleans)
        with pytest.raises(FormulaError, match="no value"):
            parse_formula("M = Maybe", booleans)

    def test_shorthand_rejected_on_non_boolean(self, temp_frame):
        with pytest.raises(FormulaError, match="not boolean"):
            parse_formula("TEMP", temp_frame)

    def test_empty_formula(self, booleans):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   ", booleans)

    def test_unbalanced_parens(self, booleans):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(M or P", booleans)


class TestSatisfies:
    def test_implies_false_case(self, booleans):
        f = parse_formula("M => P", booleans)
        point = booleans.point(M="Yes", P="No")
        assert satisfies(booleans, point, f) is False

    def test_disjunction_case(self):
        frame = ProductFrame([("X", ("T", "J", "P", "O"))])
        f = parse_formula("X=T or X=J", frame)
        assert satisfies(frame, frame.point(X="T"), f) is True
        assert satisfies(frame, frame.point(X="P"), f) is False

    def test_tautology(self, booleans):
        f = parse_formula("M or not M", booleans)
        assert all(satisfies(booleans, p, f) for p in booleans.points())

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_chain_at_the_operator_cap(self, op):
        """A formula at the cap evaluates in one call per node, so it
        agrees with its extension at every point with no RecursionError."""
        operands = ["A", "not B", "C = c1"] * 86
        f = parse_formula(f" {op} ".join(operands[:MAX_OPERATORS + 1]), _FRAME)
        bits = extension_bits(_FRAME, f)
        assert 0 < bits < _FRAME.full_bits
        for p in _FRAME.points():
            assert satisfies(_FRAME, p, f) == bool(bits >> p & 1)


def test_pretty_leaves_no_reference_cycle(mpe):
    f = parse_formula("not (M and P) or E => (M => P)", mpe)
    gc.collect()
    gc.disable()
    try:
        assert pretty(f, mpe) == "not (M and P) or E => M => P"
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestExtension:
    def test_tautology_is_full(self):
        frame = ProductFrame([("HIRE", ("Yes", "No"))])
        ext = extension(frame, parse_formula("HIRE or not HIRE", frame))
        assert ext.is_full() and ext.cardinality == 2

    def test_contradiction_is_empty(self):
        frame = ProductFrame([("HIRE", ("Yes", "No"))])
        ext = extension(frame, parse_formula("HIRE and not HIRE", frame))
        assert ext.is_empty()

    def test_implication_over_three_booleans(self, mpe):
        # Expected set computed by enumerating all 8 points through satisfies().
        f = parse_formula("M => P", mpe)
        expected = mpe.subset_of_points(p for p in mpe.points() if satisfies(mpe, p, f))
        assert extension(mpe, f) == expected
        assert expected.cardinality == 6
        assert expected.bits == 0b11110011


# -- randomized structural properties ----------------------------------------

_FRAME = ProductFrame([
    ("A", ("Yes", "No")), ("B", ("Yes", "No")), ("C", ("c0", "c1", "c2")),
    ("D", ("d0", "d1", "d2", "d3")),
])  # 48 points <= 64


def formulas(frame):
    atoms = st.sampled_from([
        Atom(name, value) for name in frame.names for value in frame.values(name)
    ])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Or, sub, sub),
            st.builds(And, sub, sub),
            st.builds(Implies, sub, sub),
        ),
        max_leaves=12,
    )


@given(formulas(_FRAME))
@settings(max_examples=300)
def test_extension_agrees_with_pointwise_satisfaction(f):
    ext = extension(_FRAME, f)
    for p in _FRAME.points():
        assert (p in ext) == satisfies(_FRAME, p, f)


@given(formulas(_FRAME), formulas(_FRAME))
@settings(max_examples=200)
def test_extension_homomorphism(g, h):
    full = _FRAME.full()
    assert extension(_FRAME, Not(g)) == full - extension(_FRAME, g)
    assert extension(_FRAME, Or(g, h)) == extension(_FRAME, g) | extension(_FRAME, h)
    assert extension(_FRAME, And(g, h)) == extension(_FRAME, g) & extension(_FRAME, h)
    assert extension(_FRAME, Implies(g, h)) == extension(_FRAME, Or(Not(g), h))


@given(formulas(_FRAME))
@settings(max_examples=300)
def test_pretty_print_round_trip(f):
    assert parse_formula(pretty(f, _FRAME), _FRAME) == f
    assert parse_formula(pretty(f), _FRAME) == f


# -- the lexer against the finditer tokenizer it replaced ----------------------

# the tokenizer the lexer replaced, kept as its reference: one match per
# token, the token's kind read off the group that matched
_REFERENCE_TOKEN_RE = re.compile(
    r"""\s*(?:(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
         | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
         | (?P<symbol>=>|<=|>=|/\\|\\/|[()|=<>~+\-*])
         | (?P<bad>.)
         | (?P<end>\Z))""",
    re.VERBOSE | re.DOTALL,
)
_REFERENCE_KINDS = {"not": "not", "~": "not", "and": "and", "/\\": "and", "or": "or", "\\/": "or"}


def _reference_tokens(text):
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        group = m.lastgroup
        value = m.group(group)
        kind = _REFERENCE_KINDS.get(value, group if group != "symbol" else value)
        tokens.append((kind, value, m.start(group)))
    # after a text that ends in white space, the reference matches the end
    # twice: once with the white space, once empty
    if len(tokens) > 1 and tokens[-2][0] == "end":
        tokens.pop()
    return tokens


def _triples(text):
    tokens = tokenize(text)
    return [(kind, value, tokens.offset(i))
            for i, (kind, value) in enumerate(zip(tokens.kinds, tokens.values))]


# pieces of the constraint language and characters outside it
_PIECES = st.sampled_from([
    "not", "and", "or", "Bel", "M", "x_1", "Yes", "notM", "or2",
    "=>", "<=", ">=", "/\\", "\\/", "(", ")", "|", "=", "<", ">", "~", "+", "-", "*",
    ".", "&", "/", "\\", "!", "#", "\u00e9", "\u0663", "\u0663.5",
    " ", "  ", "\t", "\n", "\r", "\u3000", "\x1c",
    "0", "12", "1.5", ".5", "1e3", "2E-7", "1.", "3e", "e", "E", "+7", "1e999",
])


@given(st.lists(_PIECES | st.characters(), max_size=40).map("".join))
@settings(max_examples=500)
def test_lexer_matches_the_reference_tokenizer(text):
    assert _triples(text) == _reference_tokens(text)


@pytest.mark.parametrize("text", ["M ", "M\t\n", "   ", ""])
def test_one_end_token(text):
    tokens = tokenize(text)
    assert tokens.kinds.count("end") == 1
    assert (tokens.kinds[-1], tokens.values[-1], tokens.offset(len(tokens.kinds) - 1)) == (
        "end", "", len(text))
