"""Acceptance suite: every criterion is exact, no tolerances.

Run under pytest (`pytest tests/test_acceptance.py -v`) for one pass/fail
line per criterion, or standalone (`python tests/test_acceptance.py`) for a
PASS/FAIL summary.  Expected values come from oracles independent of the
engine: a triangulation count and vector-field indices for the sphere, cell
counts and binomial coefficients for projective spaces, multiplicativity
for products, and hand-computed two-point sums.
"""

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

from torusloc import (
    FactoredRational,
    Polynomial,
    Product,
    Sum,
    circle_reduce,
    euler_characteristic,
    integrate_top,
    linear_divide,
    localize,
    restrict,
)
from torusloc.cli import main
from torusloc.spaces import projective_space, product, sphere_rotation

from support import (
    cohomological_degrees,
    linear_polynomial,
    random_expr,
    random_fraction,
    random_homogeneous_expr,
    random_linear_form,
    random_point,
    random_polynomial,
    specialize,
)
from test_spaces_oracle import chern_number_oracle, degree_n_monomials


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def monomial_expr(exponents):
    text = "*".join(
        f"c{k}" if a == 1 else f"c{k}^{a}"
        for k, a in enumerate(exponents, start=1)
        if a
    )
    return text or "1"


def test_criterion_1_sphere_euler_characteristic():
    # oracle A: triangulation of S^2 by the boundary of a tetrahedron
    vertices = range(4)
    edges = list(combinations(vertices, 2))
    faces = list(combinations(vertices, 3))
    chi_triangulated = len(list(vertices)) - len(edges) + len(faces)
    assert chi_triangulated == 2
    # oracle B: the rotation field has two zeros, each of index +1
    chi_hopf = sum([1, 1])
    code, out = run_cli("euler", "--space", "sphere")
    assert code == 0
    assert out == f"{chi_triangulated}\n" == f"{chi_hopf}\n"


def test_criterion_2_projective_space_euler_characteristics():
    for n in range(1, 6):
        # oracle: one cell in each even dimension 0, 2, ..., 2n
        chi_cells = len(range(0, 2 * n + 1, 2))
        problem = projective_space(n)
        chi = euler_characteristic(problem)
        assert chi == chi_cells == n + 1
        assert chi == len(problem.points)


def test_criterion_3_chern_numbers_binomial_oracle():
    # frozen values, computed from C(n+1,k) products before running the engine
    frozen = {
        (1, "c1"): 2,
        (2, "c1^2"): 9,
        (2, "c2"): 3,
        (3, "c1^3"): 64,
        (3, "c1*c2"): 24,
        (3, "c3"): 4,
        (4, "c1^4"): 625,
        (4, "c1^2*c2"): 250,
        (4, "c2^2"): 100,
        (4, "c1*c3"): 50,
        (4, "c4"): 5,
    }
    seen = set()
    for n in range(1, 5):
        problem = projective_space(n)
        for exponents in degree_n_monomials(n):
            expr = monomial_expr(exponents)
            value = integrate_top(problem, expr)
            assert value == chern_number_oracle(n, exponents), (n, expr)
            if (n, expr) in frozen:
                assert value == frozen[n, expr], (n, expr)
                seen.add((n, expr))
    assert seen == set(frozen)


def monomials_below_top(n):
    """Exponent tuples (a_1..a_n) with 0 <= sum k*a_k <= n-1."""

    def rec(k, budget):
        if k > n:
            yield ()
            return
        for a in range(budget // k + 1):
            for rest in rec(k + 1, budget - k * a):
                yield (a,) + rest

    yield from rec(1, n - 1)


def test_criterion_4_cancellation_below_top_degree():
    # the explicit two-term instance: 1/u + 1/(-u) = 0, exactly
    one = Polynomial.constant(1, 1)
    u_form = (1,)
    total = FactoredRational(one, {u_form: 1}) + FactoredRational(-one, {u_form: 1})
    assert total.as_polynomial() == Polynomial.zero(1)

    cp1 = projective_space(1)
    cp2 = projective_space(2)
    spaces = [
        sphere_rotation(),
        cp1,
        cp2,
        projective_space(3),
        product(sphere_rotation(), sphere_rotation()),
        product(cp1, cp1),
        product(cp1, cp2),
    ]
    checked = 0
    for problem in spaces:
        n = problem.half_dim
        assert n <= 3
        for exponents in monomials_below_top(n):
            expr = monomial_expr(exponents)
            result = localize(problem, expr)  # raises if not a polynomial
            assert not result.value, (n, expr)
            checked += 1
    # 1 + 1 + 2 + 4 monomials for the sphere and CP^1..3, plus 2 + 2 + 4
    # for the three product spaces
    assert checked == 16


def test_criterion_5_degree_overflow_polynomial():
    # hand-computed over the two fixed points of CP^1 with weights +-(u1-u2):
    # (u2-u1)^3/(u2-u1) + (u1-u2)^3/(u1-u2) = 2*(u1-u2)^2
    result = localize(projective_space(1), "c1^3")
    hand_sum = Polynomial(2, {(2, 0): 2, (1, 1): -4, (0, 2): 2})
    assert result.class_degree == 6 > result.dimension == 2
    assert result.value == hand_sum
    assert result.value
    assert cohomological_degrees(result.value) == {4}


def test_criterion_6_specialization_consistency():
    rng = random.Random(1789)
    for n in (1, 2, 3):
        problem = projective_space(n)
        xi = tuple(range(n + 1))
        reduced = circle_reduce(problem, xi)
        for _ in range(20):
            expr = random_homogeneous_expr(rng, n, rng.randint(0, n + 2))
            torus = localize(problem, expr)
            circle = localize(reduced, expr)
            assert specialize(torus.value, xi) == circle.value
            # term-for-term: each fixed point's fraction specializes to the
            # reduced problem's fraction
            for (label_t, term_t), (label_c, term_c) in zip(
                torus.per_point_terms, circle.per_point_terms
            ):
                assert label_t == label_c
                assert specialize(term_t, xi) == term_c


def test_criterion_7_arithmetic_property_suite():
    cases = 1000

    rng = random.Random(271828)
    for _ in range(cases):
        rank = rng.randint(1, 3)
        a = random_polynomial(rng, rank)
        b = random_polynomial(rng, rank)
        c = random_polynomial(rng, rank)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    rng = random.Random(314159)
    for _ in range(cases):
        rank = rng.randint(2, 3)
        quotient = random_polynomial(rng, rank, max_degree=3, max_terms=3)
        form = random_linear_form(rng, rank)
        scalar = rng.choice([s for s in range(-4, 5) if s])
        p = quotient * linear_polynomial(form) * scalar
        recovered = linear_divide(p, form)
        assert recovered is not None
        assert recovered * linear_polynomial(form) == p
        assert recovered == quotient * scalar

    rng = random.Random(161803)
    for _ in range(cases):
        rank = rng.randint(1, 2)
        a = random_fraction(rng, rank)
        b = random_fraction(rng, rank)
        c = random_fraction(rng, rank)
        ab = a + b
        assert ab == b + a
        assert ab + c == a + (b + c)

    rng = random.Random(577215)
    for _ in range(cases):
        rank = rng.randint(1, 2)
        point = random_point(rng, rank, rng.randint(1, 3))
        a = random_expr(rng, depth=2)
        b = random_expr(rng, depth=2)
        assert restrict(Sum(a, b), point, rank) == restrict(a, point, rank) + restrict(b, point, rank)
        assert restrict(Product(a, b), point, rank) == restrict(a, point, rank) * restrict(b, point, rank)


def test_criterion_8_products():
    cp1 = projective_space(1)
    cp2 = projective_space(2)
    # oracle: Euler characteristics multiply
    assert euler_characteristic(product(cp1, cp1)) == 2 * 2
    assert integrate_top(product(cp1, cp1), "e") == 4
    assert euler_characteristic(product(cp1, cp2)) == 2 * 3


CRITERIA = [
    ("1 sphere Euler characteristic (triangulation + index oracles)", test_criterion_1_sphere_euler_characteristic),
    ("2 chi(CP^n) = n+1 = |F| for n = 1..5", test_criterion_2_projective_space_euler_characteristics),
    ("3 Chern numbers of CP^n (n <= 4) vs binomial oracle", test_criterion_3_chern_numbers_binomial_oracle),
    ("4 cancellation to 0 below top degree, all built-in spaces", test_criterion_4_cancellation_below_top_degree),
    ("5 degree-6 class on CP^1 gives a degree-4 polynomial", test_criterion_5_degree_overflow_polynomial),
    ("6 torus-vs-circle specialization, term for term", test_criterion_6_specialization_consistency),
    ("7 arithmetic property suite, 1000 cases per family", test_criterion_7_arithmetic_property_suite),
    ("8 product spaces: chi and integral of e", test_criterion_8_products),
]


if __name__ == "__main__":
    failures = 0
    for description, criterion in CRITERIA:
        try:
            criterion()
        except Exception as error:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL criterion {description}: {error!r}")
        else:
            print(f"PASS criterion {description}")
    sys.exit(1 if failures else 0)
