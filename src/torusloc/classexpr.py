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

from .action import _check_nonzero_weights, equivariant_euler
from .exact import Polynomial, _elementary_symmetric, _Record


class IntegerLiteral(_Record):
    __slots__ = ("value",)


class ChernClass(_Record):
    __slots__ = ("index",)  # k >= 1; cohomological degree 2k


class EulerClass(_Record):
    __slots__ = ()


class Sum(_Record):
    __slots__ = ("left", "right")


class Difference(_Record):
    __slots__ = ("left", "right")


class Product(_Record):
    __slots__ = ("left", "right")


class Power(_Record):
    __slots__ = ("base", "exponent")  # exponent >= 0


class ParseDiagnostic(_Record):
    """Where and why parsing failed: byte offset, message, expected-token hint."""

    __slots__ = ("offset", "message", "expected")


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

# Deepest expression `parse` accepts.  Each operator application and each
# pair of parentheses is one level, so `degree`, `restrict` and `render`,
# which recurse once per level, stay well inside Python's recursion limit.
MAX_DEPTH = 600


class _Parser:
    """Single-error parser; reentrant, no global state.

    Recursive descent in spirit, but the enclosing parenthesized groups are
    kept on an explicit stack, so nesting costs no Python recursion.  Every
    node is carried with its depth, and a node or group deeper than
    MAX_DEPTH is a ParseError.
    """

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

    def uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(f"unexpected {self.found()}", "unsigned integer")
        literal = self.text[start:self.pos]
        try:
            if literal.isascii():  # int() would also read other scripts' digits
                return int(literal)
        except ValueError:  # more digits than int() reads, or a digit it refuses
            pass
        self.fail("integer literal cannot be read", "unsigned integer", offset=start)

    def checked(self, depth):
        if depth > MAX_DEPTH:
            self.fail(
                f"expression nests deeper than {MAX_DEPTH} levels",
                f"at most {MAX_DEPTH} levels of operators and parentheses",
            )
        return depth

    def join(self, kind, left, right):
        return kind(left[0], right[0]), self.checked(1 + max(left[1], right[1]))

    def leaf(self):
        # an atom other than a parenthesized group
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
            return ChernClass(index), 1
        if c == "e":
            self.pos += 1
            return EulerClass(), 1
        if c.isdigit():
            return IntegerLiteral(self.uint()), 1
        self.fail(f"unexpected {self.found()}", _ATOM_START)

    def expr(self):
        """expr := term (('+' | '-') term)*, with the grammar's atoms and
        factors inlined; returns at the first character that cannot continue
        the outermost expression."""
        groups = []  # (total, operator, product) of each enclosing group
        total = operator_ = product = None  # total, product: (node, depth)
        while True:
            # a factor starts here
            self.skip_ws()
            if self.peek() == "(":
                self.checked(len(groups) + 2)  # this group and its content
                self.pos += 1
                groups.append((total, operator_, product))
                total = operator_ = product = None
                continue
            factor = self.leaf()
            while True:
                # a factor ends here: an optional exponent, then whatever
                # continues the product, the sum or the enclosing group
                self.skip_ws()
                if self.peek() == "^":
                    self.pos += 1
                    factor = Power(factor[0], self.uint()), self.checked(factor[1] + 1)
                product = factor if product is None else self.join(Product, product, factor)
                self.skip_ws()
                c = self.peek()
                if c == "*":
                    self.pos += 1
                    break
                if c == "c" or c == "e" or c == "(" or c.isdigit():
                    break
                total = product if operator_ is None else self.join(operator_, total, product)
                product = None
                if c == "+" or c == "-":
                    self.pos += 1
                    operator_ = Sum if c == "+" else Difference
                    break
                if not groups:
                    return total[0]
                if c != ")":
                    self.fail(f"unexpected {self.found()}", "')'")
                factor = total[0], self.checked(total[1] + 1)
                self.pos += 1
                total, operator_, product = groups.pop()


def parse(text):
    """Parse a class expression, raising ParseError at the first failure.

    Expressions deeper than MAX_DEPTH levels are refused with ParseError.
    """
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


def restrict(node, point, rank):
    """Evaluate an expression at a fixed point, into the coefficient ring.

    c_k becomes the k-th elementary symmetric polynomial of the tangent
    weights (0 for k above the number of weights), e becomes the point's
    equivariant Euler class, literals become constants.  Evaluation is a
    ring homomorphism into the rank-`rank` polynomial ring.
    """
    _check_nonzero_weights(point)
    # only the Chern classes the expression names are built: c_0 .. c_top
    top, stack = 0, [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ChernClass):
            top = max(top, n.index)
        elif isinstance(n, Power):
            stack.append(n.base)
        elif isinstance(n, (Sum, Difference, Product)):
            stack += (n.left, n.right)
    symmetric = _elementary_symmetric([w.components for w in point.weights], rank, top)

    def evaluate(n):
        if isinstance(n, IntegerLiteral):
            return Polynomial.constant(rank, n.value)
        if isinstance(n, ChernClass):
            return symmetric[n.index] if n.index < len(symmetric) else Polynomial.zero(rank)
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
