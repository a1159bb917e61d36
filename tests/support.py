"""Seeded random generators and reference implementations shared by the tests."""

from __future__ import annotations

from fractions import Fraction

from torusloc import (
    ChernClass,
    Difference,
    EulerClass,
    FactoredRational,
    FixedPoint,
    IntegerLiteral,
    NotPolynomialError,
    Polynomial,
    Power,
    Product,
    RankMismatch,
    Sum,
    Weight,
    degree,
    validate,
)
from torusloc.cli import DOCUMENT_FORMAT
from torusloc.localize import point_term


def variable(rank, index):
    """The generator u_{index+1} (0-based index) of the rank-`rank` ring."""
    return Polynomial(rank, {tuple(int(i == index) for i in range(rank)): 1})


def linear_polynomial(form):
    """The Polynomial a1*u1 + ... + al*ul of a coefficient tuple (a1, ..., al)."""
    rank = len(form)
    return sum((c * variable(rank, i) for i, c in enumerate(form)), Polynomial.zero(rank))


def random_exponents(rng, rank, max_degree):
    exponents = [0] * rank
    for _ in range(rng.randint(0, max_degree)):
        exponents[rng.randrange(rank)] += 1
    return tuple(exponents)


def random_polynomial(rng, rank, max_degree=4, max_terms=4, bound=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exponents = random_exponents(rng, rank, max_degree)
        terms[exponents] = terms.get(exponents, 0) + rng.randint(-bound, bound)
    return Polynomial(rank, terms)


def random_vector(rng, rank, bound=3):
    while True:
        vector = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if any(vector):
            return vector


def random_linear_form(rng, rank, bound=3):
    form, _ = Weight(random_vector(rng, rank, bound)).primitive()
    return form


def random_fraction(rng, rank, max_forms=2, max_multiplicity=2):
    numerator = random_polynomial(rng, rank, max_degree=3, max_terms=3)
    denominator = {}
    for _ in range(rng.randint(0, max_forms)):
        form = random_linear_form(rng, rank)
        denominator[form] = rng.randint(1, max_multiplicity)
    return FactoredRational(numerator, denominator)


def random_weight(rng, rank, bound=3):
    return Weight(random_vector(rng, rank, bound))


def random_point(rng, rank, half_dim, label="p", bound=3):
    weights = tuple(random_weight(rng, rank, bound) for _ in range(half_dim))
    return FixedPoint(label, weights, rng.choice((1, -1)))


def random_expr(rng, depth=3, max_chern=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return IntegerLiteral(rng.randint(0, 5))
        if kind == 1:
            return ChernClass(rng.randint(1, max_chern))
        return EulerClass()
    kind = rng.randrange(4)
    if kind == 0:
        return Sum(random_expr(rng, depth - 1, max_chern), random_expr(rng, depth - 1, max_chern))
    if kind == 1:
        return Difference(
            random_expr(rng, depth - 1, max_chern), random_expr(rng, depth - 1, max_chern)
        )
    if kind == 2:
        return Product(
            random_expr(rng, depth - 1, max_chern), random_expr(rng, depth - 1, max_chern)
        )
    return Power(random_expr(rng, depth - 1, max_chern), rng.randint(0, 2))


def random_homogeneous_expr(rng, half_dim, weight):
    """Random expression that is homogeneous of cohomological degree 2*weight.

    Sums and differences of 1-3 scaled monomials in c_1..c_{half_dim}
    (plus e when the weight matches half_dim exactly).
    """

    def monomial(remaining):
        if remaining == half_dim and half_dim > 0 and rng.random() < 0.2:
            return EulerClass()
        node = IntegerLiteral(rng.randint(1, 4))
        while remaining > 0:
            k = rng.randint(1, min(half_dim, remaining)) if half_dim else 0
            if k == 0:
                break
            power = rng.randint(1, remaining // k)
            factor = ChernClass(k) if power == 1 else Power(ChernClass(k), power)
            node = Product(node, factor)
            remaining -= k * power
        return node

    node = monomial(weight)
    for _ in range(rng.randint(0, 2)):
        combine = Sum if rng.random() < 0.5 else Difference
        node = combine(node, monomial(weight))
    return node


# Tuple-keyed reference arithmetic on {exponent tuple: coefficient} dicts,
# written independently of the packed keys in torusloc.exact.

def reference_add(a, b):
    total = dict(a)
    for exponents, coefficient in b.items():
        total[exponents] = total.get(exponents, 0) + coefficient
    return {e: c for e, c in total.items() if c}


def reference_mul(a, b):
    product = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exponents = tuple(x + y for x, y in zip(ea, eb))
            product[exponents] = product.get(exponents, 0) + ca * cb
    return {e: c for e, c in product.items() if c}


def reference_linear_divide(terms, coefficients):
    """The quotient of `terms` by the linear form, or None if it does not divide.

    Plain division by leading terms in lexicographic order (u1 > u2 > ...):
    the form's leading monomial is its first variable x, so the form divides
    exactly when every leading term met on the way is divisible by x.
    """
    pivot = next(i for i, c in enumerate(coefficients) if c)
    lead = coefficients[pivot]
    remainder = dict(terms)
    quotient = {}
    while remainder:
        exponents = max(remainder)
        if exponents[pivot] == 0:
            return None
        factor = Fraction(remainder[exponents], lead)
        monomial = exponents[:pivot] + (exponents[pivot] - 1,) + exponents[pivot + 1 :]
        quotient[monomial] = factor
        for j, c in enumerate(coefficients):
            if c:
                target = monomial[:j] + (monomial[j] + 1,) + monomial[j + 1 :]
                remainder[target] = remainder.get(target, 0) - factor * c
                if not remainder[target]:
                    del remainder[target]
    return quotient


def specialize(value, xi):
    """A Polynomial or FactoredRational restricted to the circle along xi.

    Substitutes u_i -> xi_i * u, a ring homomorphism onto Q[u]; a fraction's
    denominator becomes a power of u.  A reference for `circle_reduce`,
    computed from the torus value instead of the reduced fixed-point data.
    """
    xi = tuple(xi)
    if len(xi) != value.rank:
        raise RankMismatch(f"direction of length {len(xi)} vs rank {value.rank}")
    if isinstance(value, FactoredRational):
        scale, power = 1, 0
        for form, multiplicity in value.denominator.items():
            pairing = sum(c * x for c, x in zip(form, xi))
            if pairing == 0:
                raise ZeroDivisionError(f"direction {xi} annihilates denominator form {form}")
            scale *= pairing**multiplicity
            power += multiplicity
        numerator = specialize(value.numerator, xi) * Fraction(1, scale)
        return FactoredRational(numerator, {(1,): power})
    terms = {}
    for exponents, coefficient in value.terms.items():
        for e, x in zip(exponents, xi):
            coefficient *= x**e
        key = (sum(exponents),)
        terms[key] = terms.get(key, 0) + coefficient
    return Polynomial(1, terms)


def reference_restrict(expr, point, rank):
    """restrict(expr, point, rank) from the expansion of prod(1 + t*w) over the
    point's weights w, in plain Polynomial arithmetic: c_k is the coefficient
    of t^k (0 above the weight count), e is sign * prod(w), literals constants.
    """
    zero = Polynomial.zero(rank)
    forms = [linear_polynomial(w.components) for w in point.weights]
    chern = [Polynomial.constant(rank, 1)]
    for form in forms:  # multiply the series by 1 + t*form
        chern = [a + form * b for a, b in zip(chern + [zero], [zero] + chern)]
    euler = Polynomial.constant(rank, point.sign)
    for form in forms:
        euler = euler * form

    def evaluate(node):
        if isinstance(node, IntegerLiteral):
            return Polynomial.constant(rank, node.value)
        if isinstance(node, ChernClass):
            return chern[node.index] if node.index < len(chern) else zero
        if isinstance(node, EulerClass):
            return euler
        if isinstance(node, Power):
            return evaluate(node.base) ** node.exponent
        left, right = evaluate(node.left), evaluate(node.right)
        if isinstance(node, Sum):
            return left + right
        if isinstance(node, Difference):
            return left - right
        return left * right

    return evaluate(expr)


def reference_localize(problem, expr):
    """(value, per-point terms) of the localization sum at the full torus rank.

    The sum of point_term(p, expr, rank) over the points in order, with no
    coordinate eliminated.  Raises NotPolynomialError with the residual and
    the terms when it does not cancel, as `localize` does.
    """
    validate(problem)
    degree(expr, problem.half_dim)
    terms = tuple((point.label, point_term(point, expr, problem.rank)) for point in problem.points)
    total = FactoredRational.zero(problem.rank)
    for _, term in terms:
        total = total + term
    try:
        return total.as_polynomial(), terms
    except NotPolynomialError:
        raise NotPolynomialError(total, per_point=terms) from None


def cohomological_degrees(p):
    """The set of cohomological degrees 2*(e1 + ... + el) of p's terms."""
    return {2 * sum(exponents) for exponents in p.terms}


def problem_to_document(problem):
    """The problem file document of a LocalizationProblem (inverse of the CLI's reader)."""
    return {
        "format": DOCUMENT_FORMAT,
        "torus_rank": problem.rank,
        "half_dim": problem.half_dim,
        "fixed_points": [
            {
                "name": point.label,
                "weights": [list(w.components) for w in point.weights],
                "sign": point.sign,
            }
            for point in problem.points
        ],
    }
