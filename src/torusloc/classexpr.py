"""A small expression language for equivariant characteristic classes.

Expressions are built from Chern classes c1, c2, ..., the Euler class e,
and nonnegative integer literals, combined with +, -, *, ^ and parentheses.
At a fixed point they evaluate into the equivariant coefficient ring by
sending c_k to the k-th elementary symmetric polynomial of the tangent
weights and e to the equivariant Euler class.

Grammar (whitespace-insensitive, left-associative):

    expr   := term (('+' | '-') term)*
    term   := factor ('*'? factor)*        # juxtaposition multiplies
    factor := atom ('^' uint)?
    atom   := 'c' uint | 'e' | uint | '(' expr ')'
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .action import equivariant_euler
from .exact import Polynomial, _elementary_symmetric


@dataclass(frozen=True)
class IntegerLiteral:
    value: int


@dataclass(frozen=True)
class ChernClass:
    index: int  # k >= 1; cohomological degree 2k


@dataclass(frozen=True)
class EulerClass:
    pass


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Difference:
    left: object
    right: object


@dataclass(frozen=True)
class Product:
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int  # >= 0


@dataclass(frozen=True)
class ParseDiagnostic:
    """Where and why parsing failed: byte offset, message, expected-token hint."""

    offset: int
    message: str
    expected: str


class ParseError(Exception):
    def __init__(self, diagnostic):
        self.diagnostic = diagnostic
        super().__init__(
            f"at offset {diagnostic.offset}: {diagnostic.message} "
            f"(expected {diagnostic.expected})"
        )


class InhomogeneousExpression(Exception):
    """Additive terms of different cohomological degrees."""

    def __init__(self, degrees):
        self.degrees = tuple(degrees)
        super().__init__(
            f"inhomogeneous expression: term degrees {self.degrees[0]} vs {self.degrees[1]}"
        )


_ATOM_START = "terms must start with 'c<k>', 'e', an unsigned integer, or '('"


class _Parser:
    """Single-error recursive-descent parser; reentrant, no global state."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, message, expected, offset=None):
        pos = self.pos if offset is None else offset
        byte_offset = len(self.text[:pos].encode("utf-8"))
        raise ParseError(ParseDiagnostic(byte_offset, message, expected))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def found(self):
        c = self.peek()
        return "end of input" if not c else f"character {c!r}"

    def uint(self, expected="unsigned integer"):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(f"unexpected {self.found()}", expected)
        return int(self.text[start:self.pos])

    def atom(self):
        self.skip_ws()
        c = self.peek()
        if c == "c":
            self.pos += 1
            if not self.peek().isdigit():
                self.fail(
                    f"unexpected {self.found()}",
                    "unsigned integer immediately after 'c'",
                )
            start = self.pos
            index = self.uint()
            if index < 1:
                self.fail("Chern class index must be >= 1", "positive integer", offset=start)
            return ChernClass(index)
        if c == "e":
            self.pos += 1
            return EulerClass()
        if c.isdigit():
            return IntegerLiteral(self.uint())
        if c == "(":
            self.pos += 1
            inner = self.expr()
            self.skip_ws()
            if self.peek() != ")":
                self.fail(f"unexpected {self.found()}", "')'")
            self.pos += 1
            return inner
        self.fail(f"unexpected {self.found()}", _ATOM_START)

    def factor(self):
        base = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            exponent = self.uint()
            return Power(base, exponent)
        return base

    def term(self):
        node = self.factor()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "*":
                self.pos += 1
                node = Product(node, self.factor())
            elif c == "c" or c == "e" or c == "(" or c.isdigit():
                node = Product(node, self.factor())
            else:
                return node

    def expr(self):
        node = self.term()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "+":
                self.pos += 1
                node = Sum(node, self.term())
            elif c == "-":
                self.pos += 1
                node = Difference(node, self.term())
            else:
                return node


def parse(text):
    """Parse a class expression, raising ParseError at the first failure."""
    parser = _Parser(text)
    node = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.fail(
            f"unexpected {parser.found()}",
            "'+', '-', '*', '^', or end of input",
        )
    return node


# precedence levels for the canonical printer
_SUM, _PRODUCT, _POWER = 0, 1, 2


def _level(node):
    if isinstance(node, (Sum, Difference)):
        return _SUM
    if isinstance(node, Product):
        return _PRODUCT
    return _POWER


def render(node):
    """Canonical text for an expression; parse(render(x)) reproduces x.

    Always emits explicit '*', minimal parentheses consistent with left
    associativity.
    """
    return _render(node, _SUM)


def _render(node, context):
    if isinstance(node, IntegerLiteral):
        text, level = str(node.value), _POWER
    elif isinstance(node, ChernClass):
        text, level = f"c{node.index}", _POWER
    elif isinstance(node, EulerClass):
        text, level = "e", _POWER
    elif isinstance(node, Sum):
        text = f"{_render(node.left, _SUM)} + {_render(node.right, _SUM + 1)}"
        level = _SUM
    elif isinstance(node, Difference):
        text = f"{_render(node.left, _SUM)} - {_render(node.right, _SUM + 1)}"
        level = _SUM
    elif isinstance(node, Product):
        text = f"{_render(node.left, _PRODUCT)}*{_render(node.right, _PRODUCT + 1)}"
        level = _PRODUCT
    elif isinstance(node, Power):
        base = _render(node.base, _SUM)
        if not isinstance(node.base, (IntegerLiteral, ChernClass, EulerClass)):
            base = f"({base})"
        text, level = f"{base}^{node.exponent}", _POWER
    else:
        raise TypeError(f"not a class expression node: {node!r}")
    if level < context:
        return f"({text})"
    return text


def degree(node, half_dim):
    """Cohomological degree of a homogeneous expression.

    deg c_k = 2k, deg e = 2*half_dim, literals have degree 0; products add,
    powers multiply.  Raises InhomogeneousExpression when additive terms
    disagree.
    """
    half_dim = operator.index(half_dim)
    if isinstance(node, IntegerLiteral):
        return 0
    if isinstance(node, ChernClass):
        return 2 * node.index
    if isinstance(node, EulerClass):
        return 2 * half_dim
    if isinstance(node, (Sum, Difference)):
        left = degree(node.left, half_dim)
        right = degree(node.right, half_dim)
        if left != right:
            raise InhomogeneousExpression((left, right))
        return left
    if isinstance(node, Product):
        return degree(node.left, half_dim) + degree(node.right, half_dim)
    if isinstance(node, Power):
        return degree(node.base, half_dim) * node.exponent
    raise TypeError(f"not a class expression node: {node!r}")


def restrict(node, point, rank=None):
    """Evaluate an expression at a fixed point, into the coefficient ring.

    c_k becomes the k-th elementary symmetric polynomial of the tangent
    weights (0 for k above the number of weights), e becomes the point's
    equivariant Euler class, literals become constants.  Evaluation is a
    ring homomorphism.
    """
    if rank is None:
        if not point.weights:
            raise ValueError("rank is required for a point with no weights")
        rank = point.weights[0].rank
    for weight in point.weights:
        if weight.is_zero:
            raise ValueError(f"zero weight at point {point.label!r}")
    symmetric = _elementary_symmetric([w.components for w in point.weights], rank)

    def evaluate(n):
        if isinstance(n, IntegerLiteral):
            return Polynomial.constant(rank, n.value)
        if isinstance(n, ChernClass):
            if n.index >= len(symmetric):
                return Polynomial.zero(rank)
            return symmetric[n.index]
        if isinstance(n, EulerClass):
            return equivariant_euler(point, rank)
        if isinstance(n, Sum):
            return evaluate(n.left) + evaluate(n.right)
        if isinstance(n, Difference):
            return evaluate(n.left) - evaluate(n.right)
        if isinstance(n, Product):
            return evaluate(n.left) * evaluate(n.right)
        if isinstance(n, Power):
            return evaluate(n.base) ** n.exponent
        raise TypeError(f"not a class expression node: {n!r}")

    return evaluate(node)
