"""Polynomial/rational expression parser and system descriptions.

Expressions use variables x1..xn, the operators + - * / ^ and parentheses.
Exponents must be non-negative integer literals so that evaluation stays
exact under dual-number arithmetic.  The module also loads JSON system
descriptions into a SystemSpec of parsed expression trees.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    """Parse failure; carries the character offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    pass


# precedence levels, low to high
_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 30
_PREC_POW = 40


class ExprAst:
    """Base class for expression nodes."""

    precedence = 100

    def evaluate(self, env):
        """Value of the tree under a variable binding.  Scalars in env may
        be floats, dual numbers or 1-D float arrays (one entry per point);
        the arithmetic is generic."""
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def variables(self) -> set[str]:
        """Names of all variables appearing in the subtree."""
        out: set[str] = set()
        self._collect(out)
        return out

    def _collect(self, out: set[str]) -> None:
        pass

    def __str__(self) -> str:
        return self.to_text()


def _wrap(node: ExprAst, limit: int) -> str:
    text = node.to_text()
    if node.precedence < limit:
        return "(" + text + ")"
    return text


@dataclass(frozen=True)
class Num(ExprAst):
    value: float

    precedence = 100

    def evaluate(self, env):
        return self.value

    def to_text(self) -> str:
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Var(ExprAst):
    name: str

    precedence = 100

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {self.name}") from None

    def to_text(self) -> str:
        return self.name

    def _collect(self, out: set[str]) -> None:
        out.add(self.name)


@dataclass(frozen=True)
class Neg(ExprAst):
    operand: ExprAst

    precedence = _PREC_NEG

    def evaluate(self, env):
        return -self.operand.evaluate(env)

    def to_text(self) -> str:
        return "-" + _wrap(self.operand, _PREC_NEG)

    def _collect(self, out: set[str]) -> None:
        self.operand._collect(out)


@dataclass(frozen=True)
class BinOp(ExprAst):
    op: str  # one of + - * /
    left: ExprAst
    right: ExprAst

    def __post_init__(self):
        if self.op not in "+-*/":
            raise ValueError(f"unsupported operator {self.op!r}")

    @property
    def precedence(self) -> int:  # type: ignore[override]
        return _PREC_ADD if self.op in "+-" else _PREC_MUL

    def evaluate(self, env):
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        # numpy would divide an array by zero to inf with only a warning
        if isinstance(b, (np.ndarray, np.generic)) and not np.all(b):
            raise ExprEvalError(f"division by zero in {self.to_text()!r}")
        try:
            return a / b
        except ZeroDivisionError:
            raise ExprEvalError(f"division by zero in {self.to_text()!r}") from None

    def to_text(self) -> str:
        prec = self.precedence
        # left-associative: the right operand needs parens at equal precedence
        return f"{_wrap(self.left, prec)} {self.op} {_wrap(self.right, prec + 1)}"

    def _collect(self, out: set[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)


@dataclass(frozen=True)
class Pow(ExprAst):
    base: ExprAst
    exponent: int

    precedence = _PREC_POW

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("exponent must be a non-negative integer")

    def evaluate(self, env):
        return self.base.evaluate(env) ** self.exponent

    def to_text(self) -> str:
        # pow chains are left-associative, so an equal-precedence base is fine
        return f"{_wrap(self.base, _PREC_POW)}^{self.exponent}"

    def _collect(self, out: set[str]) -> None:
        self.base._collect(out)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VAR_RE = re.compile(r"x[1-9][0-9]*\Z")


@dataclass
class _Token:
    kind: str  # number | name | op | end
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        pos = m.end()
        for kind in ("number", "name", "op"):
            got = m.group(kind)
            if got is not None:
                tokens.append(_Token(kind, got, m.start(kind)))
                break
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Precedence-climbing parser over the token list."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.offset)

    def parse(self) -> ExprAst:
        node = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing token {tok.text!r}", tok.offset)
        return node

    def expression(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self.exponent_literal())
        return node

    def exponent_literal(self) -> int:
        tok = self.advance()
        if tok.kind != "number":
            raise ExprSyntaxError(
                f"exponent must be an integer literal, found {tok.text!r}", tok.offset
            )
        value = float(tok.text)
        if value != int(value):
            raise ExprSyntaxError(f"exponent must be an integer, found {tok.text!r}", tok.offset)
        return int(value)

    def atom(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "number":
            return Num(float(tok.text))
        if tok.kind == "name":
            if _VAR_RE.match(tok.text) is None:
                raise ExprSyntaxError(
                    f"unknown name {tok.text!r}; variables are x1, x2, ...", tok.offset
                )
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)


def parse_expression(text: str) -> ExprAst:
    """Parse a polynomial/rational expression in variables x1..xn."""
    return _Parser(_tokenize(text)).parse()


def max_var_index(asts) -> int:
    """Largest variable index appearing in any of the given trees (0 if none)."""
    top = 0
    for ast in asts:
        for name in ast.variables():
            top = max(top, int(name[1:]))
    return top


@dataclass
class SystemSpec:
    """Parsed system description: dimensions plus expression trees.

    g is stored row-major, n rows of m entries each.  Optional matrix
    fields (certificates) live in `fields` keyed by P, Q, or R.
    """

    n: int
    m: int
    p: int
    f: list[ExprAst]
    g: list[list[ExprAst]]
    h: list[ExprAst]
    k: list[ExprAst] | None = None
    fields: dict[str, list[list[ExprAst]]] = field(default_factory=dict)
    name: str = "spec"


def _parse_grid(rows, n_rows: int, n_cols: int, label: str) -> list[list[ExprAst]]:
    if not isinstance(rows, list) or len(rows) != n_rows:
        raise ExprError(f"{label} must be a list of {n_rows} rows")
    grid = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_cols:
            raise ExprError(f"{label}[{i}] must be a list of {n_cols} expressions")
        grid.append([_parse_entry(e, f"{label}[{i}][{j}]") for j, e in enumerate(row)])
    return grid


def _parse_vector(entries, length: int, label: str) -> list[ExprAst]:
    if not isinstance(entries, list) or len(entries) != length:
        raise ExprError(f"{label} must be a list of {length} expressions")
    return [_parse_entry(e, f"{label}[{i}]") for i, e in enumerate(entries)]


def _parse_entry(text, label: str) -> ExprAst:
    if not isinstance(text, str):
        raise ExprError(f"{label} must be a string expression")
    try:
        return parse_expression(text)
    except ExprSyntaxError as err:
        raise ExprError(f"{label}: {err}") from err


_ALLOWED_KEYS = {"n", "m", "p", "f", "g", "h", "k", "fields", "name"}
_ALLOWED_FIELDS = {"P", "Q", "R"}


def parse_system_spec(document) -> SystemSpec:
    """Load a JSON system description (text, dict, or parsed mapping).

    Validates dimensions, parses every expression, and rejects references
    to variables beyond the declared state dimension.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as err:
            raise ExprError(f"invalid JSON: {err}") from err
    if not isinstance(document, dict):
        raise ExprError("system description must be a JSON object")
    unknown = set(document) - _ALLOWED_KEYS
    if unknown:
        raise ExprError(f"unknown keys in system description: {sorted(unknown)}")
    for key in ("n", "m", "p"):
        if not isinstance(document.get(key), int) or document[key] < 1:
            raise ExprError(f"{key!r} must be a positive integer")
    n, m, p = document["n"], document["m"], document["p"]

    f = _parse_vector(document.get("f"), n, "f")
    g = _parse_grid(document.get("g"), n, m, "g")
    h = _parse_vector(document.get("h"), p, "h")
    k = None
    if document.get("k") is not None:
        k = _parse_vector(document["k"], m, "k")

    fields: dict[str, list[list[ExprAst]]] = {}
    raw_fields = document.get("fields", {})
    if not isinstance(raw_fields, dict):
        raise ExprError("'fields' must be an object")
    for key, grid in raw_fields.items():
        if key not in _ALLOWED_FIELDS:
            raise ExprError(f"unknown field {key!r}; expected one of {sorted(_ALLOWED_FIELDS)}")
        fields[key] = _parse_grid(grid, n, n, f"fields.{key}")

    everything = list(f) + [e for row in g for e in row] + list(h)
    if k is not None:
        everything += list(k)
    for grid in fields.values():
        everything += [e for row in grid for e in row]
    top = max_var_index(everything)
    if top > n:
        raise ExprError(f"expression references x{top} but the state dimension is {n}")

    return SystemSpec(
        n=n, m=m, p=p, f=f, g=g, h=h, k=k, fields=fields,
        name=str(document.get("name", "spec")),
    )
