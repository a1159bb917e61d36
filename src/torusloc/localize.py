"""The fixed-point localization engine.

For a validated problem and a homogeneous class expression, the equivariant
integral over the manifold equals the sum over fixed points of
restrict(expr, p) / euler(p).  Each term is a rational function; the sum is
guaranteed to cancel to a polynomial in u1, ..., ul whenever the input data
comes from a genuine action and class.  Non-cancellation is therefore the
primary diagnostic that the fixed-point data is geometrically inconsistent,
and is reported with every per-point term attached.

The sum runs over the effective torus.  When an integer kernel vector k of
the weights has k_f = 1, as k = (1, ..., 1) has for CP^n, the coordinate u_f
is a fixed combination of the others on every weight; `localize` drops each
such coordinate, builds every point term and the whole sum in the r
coordinates it keeps, and maps the value back to Q[u1, ..., ul] by the
substitution v_j -> u_j - sum_f k_j*u_f.  The substitution is injective and
linear, so cancellation, reduced terms and the degree law are the same in
either ring, and every output is the one the full-rank sum gives.  The
per-point terms and a NotPolynomialError's residual and terms are mapped back
on their first read; at r = 1 by the binomial theorem, above it by Horner.

A problem is prepared once: its first `localize` validates it, finds the
effective torus and builds the reduced points, and keeps them in the
problem's cache (a failure is never kept).  Each point keeps one record per
ring rank, its primitive forms, scalar sign * (product of the weights'
contents) and Chern table (`classexpr._point_record`).  A point term
restricts the expression, compiled once per call, and divides by the scalar
(skipped at 1, a negation at -1); a copy of the forms goes to
FactoredRational's trusted path, which cancels without checking them: at
rank 1 the one form u cancels by a single key shift of the monomial.
`circle_reduce` keeps its last reduced problem, so circle questions along
one direction share that problem's preparation.

The rules built on the sum live here once, not in the command line:
the degree gates (== dim M for `localize_top`, < dim M for
`check_vanishing`), checked before any point term is evaluated; the
degree law, checked by `localize` on every value; and the check that the Euler
characteristic equals the fixed-point count (`localize_euler`).  A gate
hands its degree to `localize` with the compiled expression, so the degree
is computed once per call.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .action import FixedPoint, validate
from .classexpr import EulerClass, _compile, _point_record, degree, parse, restrict
from .exact import (
    FactoredRational,
    NotPolynomialError,
    _effective_coordinates,
    _mapped_back,
    _Record,
    _substitute,
)


class DegreeMismatch(Exception):
    """Expression degree incompatible with the manifold dimension."""

    def __init__(self, expr_degree, dimension, requirement):
        self.expr_degree = expr_degree
        self.dimension = dimension
        super().__init__(
            f"expression degree {expr_degree} must be {requirement} manifold "
            f"dimension {dimension}"
        )


class LocalizationResult(_Record):
    """Outcome of a localization sum.

    `value` is the exact sum of `per_point_terms` (already certified to be a
    polynomial); `class_degree` is the expression's cohomological degree and
    `dimension` = 2n.  By the degree law, the value is homogeneous of degree
    (class_degree - dimension)/2: 0 below top degree, a constant at top.
    Both the value and the per-point terms have the problem's rank l.
    """

    # _terms are over the coordinates _images keeps ({}: all of them) until
    # per_point_terms maps them back
    __slots__ = ("value", "_terms", "class_degree", "dimension", "_images")
    _fields = ("value", "per_point_terms", "class_degree", "dimension")

    @property
    def per_point_terms(self):
        """(label, FactoredRational) per fixed point, mapped back on the first read."""
        return _mapped_back(self, "_terms")


class _Gated(_Record):
    # a compiled expression and its degree, as the degree gate hands them to
    # localize, which then does not compute the degree again
    __slots__ = ("program", "class_degree")


def _compiled(expr):
    return _compile(parse(expr) if isinstance(expr, str) else expr)


def point_term(point, expr, rank):
    """restrict(expr, point) / euler(point) as a cancelled FactoredRational."""
    numerator = restrict(expr, point, rank)
    denominator, scalar, _ = _point_record(point, rank, 0)  # as restrict left it
    if scalar == -1:
        numerator = -numerator
    elif scalar != 1:
        numerator = numerator * Fraction(1, scalar)
    return FactoredRational(numerator, dict(denominator), _trusted=True)


def localize(problem, expr):
    """Evaluate the localization sum and certify that it is a polynomial.

    `expr` may be a ClassExpr or expression text.  Terms are added pairwise
    in input order, over the effective torus (see the module docstring).
    Raises NotPolynomialError with per-point terms attached (mapped back on
    the first read) when the denominators fail to cancel, and
    InhomogeneousExpression for an expression without a single degree.  It
    alone checks the degree law, and raises AssertionError for a term not of
    degree (class_degree - dimension)/2.
    """
    cache = problem._cached()
    if "prepared" not in cache:  # the first call; a ValidationError is never kept
        validate(problem)
        rank, points, images = problem.rank, problem.points, {}
        if rank > 1 and problem.half_dim:
            vectors = {w.components for point in points for w in point.weights}
            images = _effective_coordinates(vectors, rank)
        if images:
            rank = len(images)
            points = [
                FixedPoint(p.label, [[w.components[j] for j in images] for w in p.weights], p.sign)
                for p in points
            ]
        cache["prepared"] = rank, points, images
    rank, points, images = cache["prepared"]
    if isinstance(expr, _Gated):
        expr, class_degree = expr.program, expr.class_degree
    else:
        expr = _compiled(expr)
        class_degree = degree(expr, problem.half_dim)
    terms = tuple((point.label, point_term(point, expr, rank)) for point in points)
    total = FactoredRational.zero(rank)
    for _, term in terms:
        total = total + term
    try:
        value = total.as_polynomial()
    except NotPolynomialError:
        raise NotPolynomialError(total, terms, images) from None
    d = (class_degree - problem.dimension) // 2
    homogeneous = all(sum(exponents) == d for exponents in value.terms)
    value = _substitute(value, images)
    if not homogeneous:
        raise AssertionError(f"localization value {value} is not homogeneous of degree {d}")
    return LocalizationResult(value, terms, class_degree, problem.dimension, images)


_REQUIREMENTS = {"==": operator.eq, "<": operator.lt}


def _require_degree(problem, expr, requirement):
    # the degree gate: runs before any point term is evaluated
    program = _compiled(expr)
    class_degree = degree(program, problem.half_dim)
    if not _REQUIREMENTS[requirement](class_degree, problem.dimension):
        raise DegreeMismatch(class_degree, problem.dimension, requirement)
    return _Gated(program, class_degree)


def localize_top(problem, expr):
    """localize() for a top-degree class; the value is a constant polynomial.

    Raises DegreeMismatch unless degree(expr) == dim M, before any point
    term is evaluated.  The degree law makes the value constant.
    """
    return localize(problem, _require_degree(problem, expr, "=="))


def integrate_top(problem, expr):
    """The ordinary integral of a top-degree class, as an exact rational.

    The constant value of localize_top(problem, expr).
    """
    return localize_top(problem, expr).value.constant_coefficient()


def localize_euler(problem):
    """localize_top() of the Euler class, checked against the fixed points.

    Each fixed point contributes euler(p)/euler(p) = 1, so the value equals
    the number of fixed points; a mismatch is an internal consistency
    failure and raises RuntimeError.
    """
    result = localize_top(problem, EulerClass())
    chi = result.value.constant_coefficient()
    if chi != len(problem.points):
        raise RuntimeError(
            f"Euler characteristic {chi} does not match fixed point count "
            f"{len(problem.points)}"
        )
    return result


def euler_characteristic(problem):
    """Euler characteristic as the localization integral of the Euler class."""
    return int(localize_euler(problem).value.constant_coefficient())


def check_vanishing(problem, expr):
    """Certify that a below-top-degree class localizes to zero.

    Raises DegreeMismatch unless degree(expr) < dim M, before any point term
    is evaluated.  Returns None: by the degree law the value is 0, and
    `localize` raises AssertionError for any other value.
    """
    localize(problem, _require_degree(problem, expr, "<"))
