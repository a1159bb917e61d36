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

`degree` and `restrict` run an expression compiled by one iterative walk:
its largest Chern index and its nodes in postorder, evaluated by a
straight-line loop over a value stack, with no recursion.  Either takes the
node or the compiled form; `localize` compiles once per call and hands the
compiled form to every fixed point, so no point walks the tree again.

`restrict` runs that one loop with leaves chosen per point.  At rank 1 a
homogeneous expression's value at every step is v*u^d, d fixed by the step,
so the loop runs over the integers v: c_k is the elementary symmetric
number E_k of the weights (kept with the point, see `_point_record`), e the
Euler class's coefficient, a literal itself, and the result one monomial.
The degrees come from the walk that `degree` makes, once per compiled form
and half-dimension.  At higher rank, for an inhomogeneous expression, or
past MAX_EXPONENT at some step (where the polynomial steps raise the
exponent overflow unless the value is 0), the leaves are polynomials.
"""

from __future__ import annotations

import operator
from math import prod

from .action import _check_nonzero_weights, equivariant_euler
from .exact import (
    MAX_EXPONENT,
    Polynomial,
    _Cached,
    _check_vector,
    _circle_monomial,
    _elementary_symmetric,
    _primitive,
    _Record,
    _symmetric_numbers,
)


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
# pair of parentheses is one level, so `render`, which recurses once per
# level, stays well inside Python's recursion limit (`degree` and `restrict`
# run the compiled steps, with no recursion).
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


# The opcodes of a compiled step: a leaf's or a power's node type, which a pickle
# keeps by reference; a Sum, Difference or Product step holds its operator instead.
_LITERAL, _CHERN, _EULER, _POW = IntegerLiteral, ChernClass, EulerClass, Power
_BINARY = {Sum: operator.add, Difference: operator.sub, Product: operator.mul}


class _Program(_Cached):
    """An expression compiled by one walk, for `degree` and `restrict`.

    `top` is its largest Chern index (0 when it names none) and `steps` its
    nodes in postorder, each an (opcode, argument) pair, so evaluating it is
    one straight-line loop over a value stack.  Its cache holds `_graded`
    per half-dimension, so `degree` and every point's `restrict` share one
    walk of the steps.
    """

    __slots__ = ("top", "steps")


def _compile(expr):
    # the _Program of an expression node by one iterative walk; a _Program
    # passes through.  The walk visits a node, its right operand and then its
    # left one, which is the postorder reversed.
    if isinstance(expr, _Program):
        return expr
    steps, top, pending = [], 0, [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, ChernClass):
            top = max(top, node.index)
            steps.append((_CHERN, node.index))
        elif isinstance(node, IntegerLiteral):
            steps.append((_LITERAL, node.value))
        elif isinstance(node, EulerClass):
            steps.append((_EULER, None))
        elif isinstance(node, Power):
            steps.append((_POW, node.exponent))
            pending.append(node.base)
        elif type(node) in _BINARY:
            steps.append((_BINARY[type(node)], None))
            pending += (node.left, node.right)
        else:
            raise TypeError(f"not a class expression node: {node!r}")
    steps.reverse()
    return _Program._raw(top, tuple(steps))


def _graded(program, half_dim):
    # (degree, largest degree of any step's value) of a compiled program, or
    # (the first two unequal degrees of a sum, None) when it is inhomogeneous;
    # computed once per program and half-dimension
    grades = program._cached().get(half_dim)
    if grades is None:
        degrees, largest = [], 0
        for op, argument in program.steps:
            if op is _CHERN:
                degrees.append(2 * argument)
            elif op is _POW:
                degrees[-1] *= argument
            elif op is _LITERAL:
                degrees.append(0)
            elif op is _EULER:
                degrees.append(2 * half_dim)
            else:
                right = degrees.pop()
                if op is operator.mul:
                    degrees[-1] += right
                elif degrees[-1] != right:
                    grades = (degrees[-1], right), None
                    break
            largest = max(largest, degrees[-1])
        else:
            grades = degrees[0], largest
        program._cached()[half_dim] = grades
    return grades


def degree(node, half_dim):
    """Cohomological degree of a homogeneous expression.

    deg c_k = 2k, deg e = 2*half_dim, literals have degree 0; products add,
    powers multiply.  Raises InhomogeneousExpression when additive terms
    disagree.
    """
    found, largest = _graded(_compile(node), operator.index(half_dim))
    if largest is None:
        raise InhomogeneousExpression(found)
    return found


def _evaluate(steps, chern, constant, euler):
    # the value of compiled steps, with c_k -> chern[k] (constant(0) for k
    # past the table), a literal a -> constant(a) and e -> euler()
    values = []
    for op, argument in steps:
        if op is _CHERN:
            values.append(chern[argument] if argument < len(chern) else constant(0))
        elif op is _POW:
            values[-1] = values[-1] ** argument
        elif op is _LITERAL:
            values.append(constant(argument))
        elif op is _EULER:
            values.append(euler())
        else:
            right = values.pop()
            values[-1] = op(values[-1], right)
    return values[0]


def _point_record(point, rank, top):
    # (primitive forms {form: multiplicity}, sign * the contents' product, Chern
    # table [c_0, ..., c_m]: integers E_k at rank 1, polynomials above) of a
    # point, kept in its cache per rank; made again only for a top past m < n.
    # A zero weight or one of another length raises, and nothing is kept.
    cache, n = point._cached(), len(point.weights)
    record = cache.get(rank)
    if record is None or top >= len(record[2]) <= n:
        _check_nonzero_weights(point)
        vectors = [w.components for w in point.weights]
        for vector in vectors:
            _check_vector(vector, rank)
        if rank == 1:  # every form is u, and the contents are the entries
            entries = [a for (a,) in vectors]
            chern = _symmetric_numbers(entries, top)
            record = {(1,): n} if n else {}, point.sign * prod(entries), chern
        else:
            denominator, scalar = {}, point.sign
            for vector in vectors:
                form, content = _primitive(vector)
                scalar *= content
                denominator[form] = denominator.get(form, 0) + 1
            record = denominator, scalar, _elementary_symmetric(vectors, rank, top)
        cache[rank] = record
    return record


def restrict(node, point, rank):
    """Evaluate an expression at a fixed point, into the coefficient ring.

    c_k becomes the k-th elementary symmetric polynomial of the tangent
    weights (0 for k above the number of weights), e becomes the point's
    equivariant Euler class, literals become constants.  Evaluation is a
    ring homomorphism into the rank-`rank` polynomial ring.  `node` may also
    be the compiled form that `localize` builds once and hands to every point.

    At rank 1 a homogeneous expression whose steps all stay within
    MAX_EXPONENT runs on integers (see the module docstring); it raises the
    exponent overflow, or finds 0, exactly where the polynomial steps do.
    """
    program = _compile(node)
    _, _, chern = _point_record(point, rank, program.top)
    if rank == 1:
        found, largest = _graded(program, len(point.weights))
        if largest is not None and largest <= 2 * MAX_EXPONENT:
            value = _evaluate(
                program.steps,
                chern,
                int,
                lambda: next(iter(equivariant_euler(point, 1).terms.values())),
            )
            return _circle_monomial(found // 2, value)
        chern = [_circle_monomial(k, number) for k, number in enumerate(chern)]
    return _evaluate(
        program.steps,
        chern,
        lambda value: Polynomial.constant(rank, value),
        lambda: equivariant_euler(point, rank),
    )
