"""Variables with finite frames, the product space they span, and the
propositional formula language used to name its subsets.

A :class:`ProductFrame` fixes an ordered list of variables, each with a
finite frame of mutually exclusive values.  Points of the product space
are indexed by mixed-radix encoding over the declared variable order
(first variable slowest, last fastest), so subsets can be carried around
as plain bitmasks.  Formulas are small ASTs; ``extension`` translates a
formula into the subset of points satisfying it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod
from typing import Iterator, Sequence

from .errors import FormulaError, FormulaSyntaxError, FrameMismatch, FrameTooLarge

#: Default cap on the number of points of the product space.
DEFAULT_MAX_THETA = 1 << 16
#: Cap on the nesting of parentheses, negations and implications in a
#: formula, which the parser and every walk of a formula tree recurse on.
MAX_NESTING = 100
#: Cap on the binary operators of one formula: a flat chain of them builds
#: a tree as deep as the chain is long.
MAX_OPERATORS = 256

BOOLEAN_FRAME = ("Yes", "No")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ProductFrame:
    """Ordered variables and the product space of their value frames.

    Immutable after construction; safe to share between threads.
    """

    __slots__ = ("_names", "_values", "_positions", "_strides", "theta_size", "_atom_bits")

    def __init__(self, variables: Sequence[tuple[str, Sequence[str]]], *,
                 max_theta: int = DEFAULT_MAX_THETA):
        names: list[str] = []
        values: list[tuple[str, ...]] = []
        for name, frame in variables:
            if not _IDENT_RE.match(name):
                raise FormulaError(f"variable name {name!r} is not a valid identifier")
            if name in names:
                raise FormulaError(f"duplicate variable name {name!r}")
            vals = tuple(frame)
            if not vals:
                raise FormulaError(f"variable {name!r} has an empty frame")
            if len(set(vals)) != len(vals):
                raise FormulaError(f"variable {name!r} repeats a value")
            for v in vals:
                if not _IDENT_RE.match(v):
                    raise FormulaError(f"value {v!r} of variable {name!r} is not a valid identifier")
            names.append(name)
            values.append(vals)
        if not names:
            raise FormulaError("a frame needs at least one variable")
        self._names = tuple(names)
        self._values = tuple(values)
        self._positions = {n: i for i, n in enumerate(names)}
        size = prod(len(v) for v in values)
        if size > max_theta:
            raise FrameTooLarge(f"product space has {size} points, cap is {max_theta}")
        self.theta_size = size
        # stride of variable i: product of the frame sizes to its right
        strides = [1] * len(names)
        for i in range(len(names) - 2, -1, -1):
            strides[i] = strides[i + 1] * len(values[i + 1])
        self._strides = tuple(strides)
        # precomputed so instances stay strictly immutable after construction;
        # the points where variable ``pos`` takes its value ``digit`` form a
        # block of ``stride`` ones, repeated every ``stride * width`` points
        atom_bits: dict[tuple[int, int], int] = {}
        for pos, frame_values in enumerate(values):
            stride, width = strides[pos], len(frame_values)
            repeat = ((1 << size) - 1) // ((1 << stride * width) - 1)
            for digit in range(width):
                atom_bits[(pos, digit)] = (((1 << stride) - 1) << (digit * stride)) * repeat
        self._atom_bits = atom_bits

    # -- variable/value lookup -------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def values(self, name: str) -> tuple[str, ...]:
        return self._values[self.position(name)]

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise FormulaError(f"unknown variable {name!r}") from None

    def is_boolean(self, name: str) -> bool:
        return set(self._values[self.position(name)]) == set(BOOLEAN_FRAME)

    def value_index(self, name: str, value: str) -> int:
        pos = self.position(name)
        try:
            return self._values[pos].index(value)
        except ValueError:
            raise FormulaError(f"variable {name!r} has no value {value!r}") from None

    # -- points ----------------------------------------------------------

    def point(self, **assignment: str) -> int:
        """Index of the point assigning each variable the given value."""
        if set(assignment) != set(self._names):
            missing = set(self._names) - set(assignment)
            extra = set(assignment) - set(self._names)
            detail = []
            if missing:
                detail.append(f"missing {sorted(missing)}")
            if extra:
                detail.append(f"unknown {sorted(extra)}")
            raise FormulaError("point assignment " + ", ".join(detail))
        idx = 0
        for name, value in assignment.items():
            pos = self.position(name)
            idx += self.value_index(name, value) * self._strides[pos]
        return idx

    def points(self) -> range:
        return range(self.theta_size)

    def point_values(self, index: int) -> tuple[str, ...]:
        out = []
        for pos in range(len(self._names)):
            digit = (index // self._strides[pos]) % len(self._values[pos])
            out.append(self._values[pos][digit])
        return tuple(out)

    def value_at(self, index: int, name: str) -> str:
        pos = self.position(name)
        digit = (index // self._strides[pos]) % len(self._values[pos])
        return self._values[pos][digit]

    def point_label(self, index: int) -> str:
        pairs = ",".join(f"{n}={v}" for n, v in zip(self._names, self.point_values(index)))
        return f"({pairs})"

    # -- subsets ---------------------------------------------------------

    @property
    def full_bits(self) -> int:
        return (1 << self.theta_size) - 1

    def subset(self, bits: int) -> "SubsetOfTheta":
        return SubsetOfTheta(self, bits)

    def empty(self) -> "SubsetOfTheta":
        return SubsetOfTheta(self, 0)

    def full(self) -> "SubsetOfTheta":
        return SubsetOfTheta(self, self.full_bits)

    def subset_of_points(self, indices) -> "SubsetOfTheta":
        bits = 0
        for i in indices:
            bits |= 1 << i
        return SubsetOfTheta(self, bits)

    def atom_bits(self, name: str, value: str) -> int:
        """Bitmask of the points whose ``name``-value is ``value``."""
        return self._atom_bits[(self.position(name), self.value_index(name, value))]

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ProductFrame):
            return NotImplemented
        return self._names == other._names and self._values == other._values

    def __hash__(self):
        return hash((self._names, self._values))

    def __repr__(self):
        inner = ", ".join(f"{n}:{'/'.join(v)}" for n, v in zip(self._names, self._values))
        return f"ProductFrame({inner})"


@dataclass(frozen=True)
class SubsetOfTheta:
    """A subset of the product space, held as a bitmask over point indices."""

    frame: ProductFrame
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= self.frame.full_bits:
            raise ValueError(f"bitmask {self.bits:#x} out of range for {self.frame!r}")

    def _check(self, other: "SubsetOfTheta") -> None:
        if self.frame != other.frame:
            raise FrameMismatch("subsets belong to different frames")

    def __or__(self, other: "SubsetOfTheta") -> "SubsetOfTheta":
        self._check(other)
        return SubsetOfTheta(self.frame, self.bits | other.bits)

    def __and__(self, other: "SubsetOfTheta") -> "SubsetOfTheta":
        self._check(other)
        return SubsetOfTheta(self.frame, self.bits & other.bits)

    def __sub__(self, other: "SubsetOfTheta") -> "SubsetOfTheta":
        self._check(other)
        return SubsetOfTheta(self.frame, self.bits & ~other.bits)

    def __invert__(self) -> "SubsetOfTheta":
        return SubsetOfTheta(self.frame, self.frame.full_bits ^ self.bits)

    def __contains__(self, point: int) -> bool:
        return bool((self.bits >> point) & 1)

    def is_subset_of(self, other: "SubsetOfTheta") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == self.frame.full_bits

    def points(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def label(self) -> str:
        if self.is_empty():
            return "{}"
        return "{" + ", ".join(self.frame.point_label(p) for p in self.points()) + "}"

    def __repr__(self):
        return f"SubsetOfTheta({self.label()})"


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class of the propositional AST over variable-value atoms."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    var: str
    value: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


def satisfies(frame: ProductFrame, point: int, formula: Formula) -> bool:
    """Does the point satisfy the formula?

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


def extension(frame: ProductFrame, formula: Formula) -> SubsetOfTheta:
    """The subset of points satisfying the formula."""
    return SubsetOfTheta(frame, extension_bits(frame, formula))


def extension_bits(frame: ProductFrame, formula: Formula) -> int:
    if isinstance(formula, Atom):
        return frame.atom_bits(formula.var, formula.value)
    if isinstance(formula, Not):
        return frame.full_bits ^ extension_bits(frame, formula.child)
    if isinstance(formula, Or):
        return extension_bits(frame, formula.left) | extension_bits(frame, formula.right)
    if isinstance(formula, And):
        return extension_bits(frame, formula.left) & extension_bits(frame, formula.right)
    if isinstance(formula, Implies):
        return (frame.full_bits ^ extension_bits(frame, formula.left)) | extension_bits(frame, formula.right)
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Concrete syntax
#
# One tokenizer reads the whole constraint language; a formula uses part
# of its tokens.  ``constraints`` reads belief terms and constraints from
# the same token list.
#
#   constraint := side relop side              relop: = <= >= < >
#   side       := sign* item (sign+ item)*     sign: + -, the item's sign is their product
#   item       := coef | coef? '*'? bel        '*' only after a coef
#   coef       := NUMBER | NAME                NAME: a symbolic constant
#   bel        := 'Bel' '(' formula ('|' formula)? ')'
#   formula    := or_expr ('=>' formula)?      implies, right-associative
#   or_expr    := and_expr (('or' | '\/') and_expr)*
#   and_expr   := unary (('and' | '/\') unary)*
#   unary      := ('not' | '~') unary | primary
#   primary    := '(' formula ')' | NAME ('=' NAME)?
#
# A bare name over a boolean frame {Yes, No} is shorthand for
# ``NAME = Yes``.  A coefficient may precede ``Bel(...)`` without ``*``.

_TOKEN_RE = re.compile(
    r"""\s*(?:(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
         | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
         | (?P<symbol>=>|<=|>=|/\\|\\/|[()|=<>~+\-*])
         | (?P<bad>.)
         | (?P<end>\Z))""",
    re.VERBOSE | re.DOTALL,
)

# the kind of each keyword and of its symbol form; another name has kind
# "name" and another symbol is its own kind
_KINDS = {"not": "not", "~": "not", "and": "and", "/\\": "and", "or": "or", "\\/": "or"}

Token = tuple[str, str, int]


def tokenize(text: str) -> list[Token]:
    """The ``(kind, text, position)`` tokens of constraint-language text,
    ending with an ``end`` token.  A kind is ``number``, ``name``, the
    operator of a keyword or symbol, ``end``, or ``bad`` for a character
    no token starts with, so tokenizing never raises."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        value = m.group(group)
        kind = _KINDS.get(value, group if group != "symbol" else value)
        tokens.append((kind, value, m.start(group)))
    return tokens


_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5}

# the node of each binary operator's token kind
_BINARY = {"=>": Implies, "or": Or, "and": And}


def formula_at(tokens: list[Token], i: int, frame: ProductFrame) -> tuple[Formula, int]:
    """The longest formula starting at token ``i``, and the index of the
    token after it.  It nests at most ``MAX_NESTING`` deep and holds at
    most ``MAX_OPERATORS`` binary operators.

    Raises :class:`FormulaSyntaxError` and :class:`FormulaError` at the
    offending token's position."""
    formula, end = _climb(tokens, i, frame)
    # an operand follows each binary operator, so a formula of at most
    # 2 * MAX_OPERATORS tokens is under the cap
    if end - i > 2 * MAX_OPERATORS:
        operators = [pos for kind, _, pos in tokens[i:end] if kind in _BINARY]
        if len(operators) > MAX_OPERATORS:
            raise FormulaSyntaxError(f"formula has more than {MAX_OPERATORS} binary operators",
                                     operators[MAX_OPERATORS])
    return formula, end


def _climb(tokens: list[Token], i: int, frame: ProductFrame,
           min_prec: int = 1, depth: int = 0) -> tuple[Formula, int]:
    """The longest formula starting at token ``i`` whose operators bind
    at least as tightly as ``min_prec``, and the index of the token after
    it (precedence climbing); ``depth`` counts the parentheses, negations
    and implications it lies within."""
    left, i = _operand(tokens, i, frame, depth)
    while True:
        node = _BINARY.get(tokens[i][0])
        if node is None or _PRECEDENCE[node] < min_prec:
            return left, i
        # the right operand of '=>' may hold another '=>': right-associative
        right, i = _climb(tokens, i + 1, frame, _PRECEDENCE[node] + (node is not Implies),
                          _nested(tokens[i], depth) if node is Implies else depth)
        left = node(left, right)


def _nested(token: Token, depth: int) -> int:
    """The depth inside the parenthesis, negation or implication
    ``token``, which may nest at most ``MAX_NESTING`` deep."""
    if depth >= MAX_NESTING:
        raise FormulaSyntaxError(f"formula nests more than {MAX_NESTING} deep", token[2])
    return depth + 1


def _operand(tokens: list[Token], i: int, frame: ProductFrame,
             depth: int) -> tuple[Formula, int]:
    """A negation, a parenthesized formula or an atom at token ``i``."""
    kind, value, pos = tokens[i]
    if kind == "not":
        child, i = _operand(tokens, i + 1, frame, _nested(tokens[i], depth))
        return Not(child), i
    if kind == "(":
        f, i = _climb(tokens, i + 1, frame, depth=_nested(tokens[i], depth))
        kind, value, pos = tokens[i]
        if kind != ")":
            raise FormulaSyntaxError(f"expected ')', found {value!r}" if value else "expected ')'", pos)
        return f, i + 1
    if kind == "name":
        if value not in frame.names:
            raise FormulaError(f"unknown variable {value!r}", pos)
        if tokens[i + 1][0] == "=":
            vkind, vval, vpos = tokens[i + 2]
            if vkind != "name":
                raise FormulaSyntaxError("expected a value after '='", vpos)
            if vval not in frame.values(value):
                raise FormulaError(f"variable {value!r} has no value {vval!r}", vpos)
            return Atom(value, vval), i + 3
        if not frame.is_boolean(value):
            raise FormulaError(
                f"bare {value!r} is shorthand for {value} = Yes, but {value!r} is not boolean", pos)
        return Atom(value, "Yes"), i + 1
    raise FormulaSyntaxError(f"expected a formula, found {value!r}" if value else "unexpected end of formula", pos)


# the token kinds a formula is made of
_FORMULA_KINDS = frozenset(("name", "(", ")", "=", "=>", "not", "and", "or", "end"))


def parse_formula(text: str, frame: ProductFrame) -> Formula:
    """Parse concrete formula syntax against a declared frame.

    Raises :class:`FormulaSyntaxError` (with character position) on bad
    syntax and :class:`FormulaError` on undeclared variables or values.
    A character outside the formula language is reported before any
    other error.
    """
    if not text.strip():
        raise FormulaSyntaxError("empty formula", 0)
    tokens = tokenize(text)
    for kind, _, pos in tokens:
        if kind not in _FORMULA_KINDS:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
    formula, i = formula_at(tokens, 0, frame)
    kind, value, pos = tokens[i]
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected {value!r}", pos)
    return formula


def pretty(formula: Formula, frame: ProductFrame | None = None) -> str:
    """Render a formula; ``parse_formula(pretty(f), frame)`` rebuilds ``f``.

    With a frame supplied, boolean ``X = Yes`` atoms print as bare ``X``.
    """
    return _render(formula, frame, 0)


def _render(f: Formula, frame: ProductFrame | None, limit: int) -> str:
    """The formula rendered, in parentheses when its operator binds less
    tightly than ``limit``."""
    if isinstance(f, Atom):
        bare = frame is not None and f.value == "Yes" and frame.is_boolean(f.var)
        return f.var if bare else f"{f.var} = {f.value}"
    if isinstance(f, Not):
        s = "not " + _render(f.child, frame, 4)
    elif isinstance(f, And):
        s = f"{_render(f.left, frame, 3)} and {_render(f.right, frame, 4)}"
    elif isinstance(f, Or):
        s = f"{_render(f.left, frame, 2)} or {_render(f.right, frame, 3)}"
    elif isinstance(f, Implies):
        s = f"{_render(f.left, frame, 2)} => {_render(f.right, frame, 1)}"
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if _PRECEDENCE[type(f)] < limit else s
