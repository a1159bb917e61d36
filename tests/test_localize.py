"""Localization sums: polynomiality, integrals, Euler characteristics."""

import importlib
import random
from fractions import Fraction
from math import comb

import pytest

from torusloc import (
    DegreeMismatch,
    EulerClass,
    FactoredRational,
    FixedPoint,
    InhomogeneousExpression,
    LocalizationProblem,
    NotPolynomialError,
    Polynomial,
    ValidationError,
    Weight,
    check_vanishing,
    circle_reduce,
    euler_characteristic,
    integrate_top,
    localize,
    parse,
)
from torusloc.localize import point_term
from torusloc.spaces import projective_space, product, sphere_rotation

from support import cohomological_degrees, random_homogeneous_expr, specialize, variable


def hopf_index_sum(indices):
    # independent oracle: sum of vector-field indices at isolated zeros
    return sum(indices)


def test_sphere_euler_class_integral():
    # the rotation field on the sphere has two zeros of index +1
    result = localize(sphere_rotation(), "e")
    assert result.value == Polynomial.constant(1, 2)
    assert euler_characteristic(sphere_rotation()) == hopf_index_sum([1, 1])


def test_cp1_first_chern_number():
    # oracle: total Chern class (1+H)^2 gives integral of c1 = 2
    assert integrate_top(projective_space(1), "c1") == comb(2, 1)


def test_cp1_degree_overflow_is_polynomial():
    # degree 6 on a dimension-2 manifold: a polynomial of cohomological
    # degree 4, computed by hand over the two fixed points as
    # (u2-u1)^3/(u2-u1) + (u1-u2)^3/(u1-u2) = 2*(u1-u2)^2
    result = localize(projective_space(1), "c1^3")
    expected = Polynomial(2, {(2, 0): 2, (1, 1): -4, (0, 2): 2})
    assert result.value == expected
    assert cohomological_degrees(result.value) == {4}
    assert result.class_degree == 6
    assert result.dimension == 2


def test_integrate_top_cp2():
    assert integrate_top(projective_space(2), "c1^2") == comb(3, 1) ** 2
    assert integrate_top(projective_space(2), "c2") == comb(3, 2)


def test_integrate_top_cp3():
    assert integrate_top(projective_space(3), "c1*c2") == comb(4, 1) * comb(4, 2)


def test_integrate_top_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        integrate_top(projective_space(2), "c1")
    with pytest.raises(DegreeMismatch):
        integrate_top(projective_space(2), "c1^3")


def test_inhomogeneous_rejected():
    with pytest.raises(InhomogeneousExpression):
        localize(projective_space(2), "c1 + c2")


def test_euler_characteristics():
    assert euler_characteristic(sphere_rotation()) == 2
    for n in range(1, 5):
        # oracle: one cell in each even degree 0, 2, ..., 2n
        cells = len(range(0, 2 * n + 1, 2))
        assert euler_characteristic(projective_space(n)) == cells == n + 1
    assert euler_characteristic(product(projective_space(1), projective_space(1))) == 4


def test_check_vanishing():
    assert check_vanishing(sphere_rotation(), "1") is None
    assert check_vanishing(projective_space(2), "c1") is None
    assert check_vanishing(projective_space(3), "c1^2") is None
    with pytest.raises(DegreeMismatch):
        check_vanishing(projective_space(2), "c2")


def test_check_vanishing_raises_on_a_nonzero_value(monkeypatch):
    localize_module = importlib.import_module("torusloc.localize")

    def plus_u1(point, expr, rank):
        return point_term(point, expr, rank) + FactoredRational(variable(rank, 0))

    monkeypatch.setattr(localize_module, "point_term", plus_u1)
    with pytest.raises(AssertionError, match=r"3\*u1 is not homogeneous of degree -1"):
        check_vanishing(projective_space(2), "c1")


def test_degree_gate_runs_before_evaluation(monkeypatch):
    def refuse(point, expr, rank):
        raise AssertionError("a point term was evaluated")

    monkeypatch.setattr(importlib.import_module("torusloc.localize"), "point_term", refuse)
    with pytest.raises(DegreeMismatch):
        integrate_top(projective_space(2), "c1^599")
    with pytest.raises(DegreeMismatch):
        check_vanishing(projective_space(2), "c2")


def test_localize_validates_problem():
    bad = LocalizationProblem(1, 1, (FixedPoint("p", (Weight((0,)),), 1),))
    with pytest.raises(ValidationError):
        localize(bad, "1")


def test_permutation_invariance():
    problem = projective_space(2)
    reordered = LocalizationProblem(
        problem.rank, problem.half_dim, tuple(reversed(problem.points))
    )
    for text in ("c1^2", "c1^3", "c2"):
        assert localize(problem, text).value == localize(reordered, text).value


def test_linearity():
    problem = projective_space(2)
    a, b = parse("c1^2"), parse("3*c2")
    combined = localize(problem, "c1^2 + 3*c2").value
    assert combined == localize(problem, a).value + localize(problem, b).value


def test_specialization_consistency():
    problem = projective_space(2)
    xi = (0, 1, 2)
    reduced = circle_reduce(problem, xi)
    for text in ("c1", "c1^2", "c2", "c1^3", "c1*c2"):
        torus = localize(problem, text).value
        circle = localize(reduced, text).value
        assert specialize(torus, xi) == circle


def test_not_polynomial_reports_terms():
    lone = LocalizationProblem(1, 1, (FixedPoint("only", (Weight((1,)),), 1),))
    with pytest.raises(NotPolynomialError) as info:
        localize(lone, "1")
    error = info.value
    assert error.per_point is not None and len(error.per_point) == 1
    label, term = error.per_point[0]
    assert label == "only"
    assert str(error.fraction) == "(1) / (u1)"


def test_half_dim_zero_problem():
    points = (FixedPoint("a", (), 1), FixedPoint("b", (), -1))
    problem = LocalizationProblem(1, 0, points)
    result = localize(problem, "5")
    assert result.value == Polynomial.constant(1, 0)
    lone = LocalizationProblem(1, 0, (FixedPoint("a", (), -1),))
    assert localize(lone, "5").value == Polynomial.constant(1, -5)
    assert euler_characteristic(lone) == 1


def test_value_is_sum_of_per_point_terms():
    result = localize(projective_space(2), "c1^3")
    total = None
    for _, term in result.per_point_terms:
        total = term if total is None else total + term
    assert total.as_polynomial() == result.value


def test_cross_check_tree_reduction():
    # summing the terms in reverse order gives the same exact value
    for n in (1, 2, 3):
        result = localize(projective_space(n), "c1^2")
        total = FactoredRational.zero(result.value.rank)
        for _, term in reversed(result.per_point_terms):
            total = total + term
        assert total.as_polynomial() == result.value


def test_accepts_parsed_and_text_expressions():
    assert localize(sphere_rotation(), EulerClass()).value == localize(
        sphere_rotation(), "e"
    ).value


def test_degree_law_randomized():
    # homogeneous degree d on a 2n-problem localizes to 0 or degree d - 2n
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 3)
        problem = projective_space(n)
        d = rng.randint(0, n + 2)
        expr = random_homogeneous_expr(rng, n, d)
        value = localize(problem, expr).value
        if 2 * d < problem.dimension:
            assert not value
        elif value:
            assert cohomological_degrees(value) == {2 * d - problem.dimension}


def test_integral_values_are_exact_fractions():
    value = integrate_top(projective_space(2), "c1^2")
    assert isinstance(value, Fraction)
    assert value.denominator == 1


def test_point_term_scalar_six_gives_fraction_coefficients():
    # after xi = (0, 2, 3) the first point of CP^2 has weights 2 and 3, so
    # c1^2 / e restricts to (5u)^2 / (6u^2) = 25/6
    point = circle_reduce(projective_space(2), (0, 2, 3)).points[0]
    assert [w.components for w in point.weights] == [(2,), (3,)]
    term = point_term(point, parse("c1^2"), 1)
    assert not term.denominator
    assert term.numerator.terms == {(0,): Fraction(25, 6)}
    assert type(term.numerator.terms[(0,)]) is Fraction
