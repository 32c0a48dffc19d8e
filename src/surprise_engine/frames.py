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
from itertools import islice
from math import prod
from operator import itemgetter
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
        # block of ``stride`` ones, repeated every ``stride * width`` points.
        # Keyed by ``(name, value)``, and by the bare name of a boolean
        # variable for ``name = Yes``, so that the parser checks an atom and
        # ``extension_bits`` resolves it with one lookup.
        atom_bits: dict[tuple[str, str] | str, int] = {}
        for pos, (name, frame_values) in enumerate(zip(names, values)):
            stride, width = strides[pos], len(frame_values)
            repeat = ((1 << size) - 1) // ((1 << stride * width) - 1)
            for digit, value in enumerate(frame_values):
                atom_bits[name, value] = (((1 << stride) - 1) << (digit * stride)) * repeat
            if set(frame_values) == set(BOOLEAN_FRAME):
                atom_bits[name] = atom_bits[name, "Yes"]
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
        if (name, value) not in self._atom_bits:
            self.value_index(name, value)  # raises, naming the unknown variable or value
        return self._atom_bits[name, value]

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


def extension(frame: ProductFrame, formula: Formula) -> SubsetOfTheta:
    """The subset of points satisfying the formula."""
    return SubsetOfTheta(frame, extension_bits(frame, formula))


def extension_bits(frame: ProductFrame, formula: Formula) -> int:
    # dispatched on the exact node type, the commonest first
    kind = type(formula)
    if kind is Atom:
        try:
            return frame._atom_bits[formula.var, formula.value]
        except KeyError:
            return frame.atom_bits(formula.var, formula.value)  # raises, naming what is unknown
    if kind is Or:
        return extension_bits(frame, formula.left) | extension_bits(frame, formula.right)
    if kind is And:
        return extension_bits(frame, formula.left) & extension_bits(frame, formula.right)
    if kind is Not:
        return frame.full_bits ^ extension_bits(frame, formula.child)
    if kind is Implies:
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

# One token after any white space: a name, a two-character symbol, a
# number, or any other single character.  The findall over the text runs
# in C; a token's offset is found again only for an error message.
_NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(rf"\s*([A-Za-z_][A-Za-z0-9_]*|=>|<=|>=|/\\|\\/|{_NUMBER}|\S)")
_NUMBER_RE = re.compile(_NUMBER + r"\Z")

# the kind of each keyword and of its symbol form, and of every other
# symbol, which is its own kind; "." alone starts no number
_KINDS = {"not": "not", "~": "not", "and": "and", "/\\": "and", "or": "or", "\\/": "or",
          ".": "bad"}
_KINDS.update((s, s) for s in ("=>", "<=", ">=", "(", ")", "|", "=", "<", ">", "+", "-", "*"))
# the kind of any other token by its first character; a token that starts
# with another character is a number of non-ASCII digits or a bad character
_FIRST = (dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name")
          | dict.fromkeys("0123456789.", "number"))


class Tokens:
    """The tokens of constraint-language text as parallel lists of
    ``kinds`` and ``values``, ending with one ``end`` token (see
    :func:`tokenize`); :meth:`offset` gives a token's position in
    ``text``."""

    __slots__ = ("text", "kinds", "values")

    def __init__(self, text: str, kinds: list[str], values: list[str]):
        self.text, self.kinds, self.values = text, kinds, values

    def offset(self, i: int) -> int:
        """The offset of token ``i`` in the text; the ``end`` token lies
        at its end."""
        if i >= len(self.kinds) - 1:
            return len(self.text)
        return next(islice(_TOKEN_RE.finditer(self.text), i, None)).start(1)


def tokenize(text: str) -> Tokens:
    """The tokens of constraint-language text.  A kind is ``number``,
    ``name``, the operator of a keyword or symbol, ``end``, or ``bad`` for
    a character no token starts with, so tokenizing never raises."""
    values = _TOKEN_RE.findall(text)
    kinds = list(map(_KINDS.get, values, map(_FIRST.get, map(itemgetter(0), values))))
    if None in kinds:
        kinds = [kind or ("number" if _NUMBER_RE.match(value) else "bad")
                 for kind, value in zip(kinds, values)]
    kinds.append("end")
    values.append("")
    return Tokens(text, kinds, values)


def formula_at(tokens: Tokens, i: int, frame: ProductFrame) -> tuple[Formula, int]:
    """The longest formula starting at token ``i``, and the index of the
    token after it.  It nests at most ``MAX_NESTING`` deep and holds at
    most ``MAX_OPERATORS`` binary operators.

    Raises :class:`FormulaSyntaxError` and :class:`FormulaError` at the
    offending token's position."""
    formula, end = _implication(tokens, i, frame, 0)
    # an operand follows each binary operator, so a formula of at most
    # 2 * MAX_OPERATORS tokens is under the cap
    if end - i > 2 * MAX_OPERATORS:
        operators = [j for j in range(i, end) if tokens.kinds[j] in _BINARY]
        if len(operators) > MAX_OPERATORS:
            raise FormulaSyntaxError(f"formula has more than {MAX_OPERATORS} binary operators",
                                     tokens.offset(operators[MAX_OPERATORS]))
    return formula, end


def _implication(tokens: Tokens, i: int, frame: ProductFrame,
                 depth: int) -> tuple[Formula, int]:
    """The longest formula starting at token ``i``, and the index of the
    token after it; ``depth`` counts the parentheses, negations and
    implications it lies within.  ``or`` and ``and`` chains are read
    left-associative in loops; the right operand of ``=>`` is a whole
    formula, which may hold another ``=>``."""
    kinds = tokens.kinds
    left = None
    while True:
        conjunction, i = _operand(tokens, i, frame, depth)
        while kinds[i] == "and":
            right, i = _operand(tokens, i + 1, frame, depth)
            conjunction = And(conjunction, right)
        left = conjunction if left is None else Or(left, conjunction)
        if kinds[i] != "or":
            break
        i += 1
    if kinds[i] == "=>":
        right, i = _implication(tokens, i + 1, frame, _nested(tokens, i, depth))
        left = Implies(left, right)
    return left, i


def _nested(tokens: Tokens, i: int, depth: int) -> int:
    """The depth inside the parenthesis, negation or implication at token
    ``i``, which may nest at most ``MAX_NESTING`` deep."""
    if depth >= MAX_NESTING:
        raise FormulaSyntaxError(f"formula nests more than {MAX_NESTING} deep", tokens.offset(i))
    return depth + 1


def _operand(tokens: Tokens, i: int, frame: ProductFrame,
             depth: int) -> tuple[Formula, int]:
    """A negation, a parenthesized formula or an atom at token ``i``."""
    kind, value = tokens.kinds[i], tokens.values[i]
    if kind == "name":
        atoms = frame._atom_bits
        if tokens.kinds[i + 1] == "=":
            if tokens.kinds[i + 2] == "name" and (value, tokens.values[i + 2]) in atoms:
                return Atom(value, tokens.values[i + 2]), i + 3
        elif value in atoms:  # a bare boolean name
            return Atom(value, "Yes"), i + 1
        raise _atom_error(tokens, i, frame)
    if kind == "not":
        child, i = _operand(tokens, i + 1, frame, _nested(tokens, i, depth))
        return Not(child), i
    if kind == "(":
        f, i = _implication(tokens, i + 1, frame, _nested(tokens, i, depth))
        if tokens.kinds[i] != ")":
            value = tokens.values[i]
            raise FormulaSyntaxError(f"expected ')', found {value!r}" if value else "expected ')'",
                                     tokens.offset(i))
        return f, i + 1
    raise FormulaSyntaxError(f"expected a formula, found {value!r}" if value
                             else "unexpected end of formula", tokens.offset(i))


def _atom_error(tokens: Tokens, i: int, frame: ProductFrame) -> FormulaError:
    """The error of the name at token ``i``, which starts no atom of the
    frame."""
    name = tokens.values[i]
    if name not in frame.names:
        return FormulaError(f"unknown variable {name!r}", tokens.offset(i))
    if tokens.kinds[i + 1] != "=":
        return FormulaError(
            f"bare {name!r} is shorthand for {name} = Yes, but {name!r} is not boolean",
            tokens.offset(i))
    if tokens.kinds[i + 2] != "name":
        return FormulaSyntaxError("expected a value after '='", tokens.offset(i + 2))
    return FormulaError(f"variable {name!r} has no value {tokens.values[i + 2]!r}",
                        tokens.offset(i + 2))


# the token kinds of the binary operators, and of all the tokens a formula
# is made of
_BINARY = frozenset(("=>", "or", "and"))
_FORMULA_KINDS = frozenset(("name", "(", ")", "=", "=>", "not", "and", "or", "end"))

_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5}


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
    for i, kind in enumerate(tokens.kinds):
        if kind not in _FORMULA_KINDS:
            pos = tokens.offset(i)
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
    formula, i = formula_at(tokens, 0, frame)
    if tokens.kinds[i] != "end":
        raise FormulaSyntaxError(f"unexpected {tokens.values[i]!r}", tokens.offset(i))
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
