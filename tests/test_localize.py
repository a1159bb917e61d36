"""Localization sums: polynomiality, integrals, Euler characteristics."""

import copy
import importlib
import operator
import pickle
import random
import sys
import threading
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloc import (
    DegreeMismatch,
    ChernClass,
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
    degree,
    euler_characteristic,
    integrate_top,
    localize,
    parse,
    restrict,
)
from torusloc.classexpr import Sum
from torusloc.cli import _terms_text, parse_space
from torusloc.exact import _effective_coordinates
from torusloc.localize import point_term
from torusloc.spaces import projective_space, product, sphere_rotation

from support import (
    cohomological_degrees,
    random_homogeneous_expr,
    reference_localize,
    specialize,
    variable,
)

LOCALIZE = importlib.import_module("torusloc.localize")
EXACT = importlib.import_module("torusloc.exact")


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
    # the sum runs in u1 - u3, u2 - u3 (u3 is eliminated); the message shows the full rank
    with pytest.raises(AssertionError, match=r"3\*u1 - 3\*u3 is not homogeneous of degree -1"):
        check_vanishing(projective_space(2), "c1")


def test_degree_gate_runs_before_evaluation(monkeypatch):
    def refuse(point, expr, rank):
        raise AssertionError("a point term was evaluated")

    monkeypatch.setattr(importlib.import_module("torusloc.localize"), "point_term", refuse)
    with pytest.raises(DegreeMismatch):
        integrate_top(projective_space(2), "c1^599")
    with pytest.raises(DegreeMismatch):
        check_vanishing(projective_space(2), "c2")


@pytest.mark.parametrize(
    "call",
    [
        lambda problem: integrate_top(problem, "c1*c2"),
        lambda problem: check_vanishing(problem, "c1^2"),
        euler_characteristic,
        lambda problem: localize(problem, "c1^4"),
    ],
    ids=["integrate_top", "check_vanishing", "euler_characteristic", "localize"],
)
def test_each_call_computes_the_degree_once(monkeypatch, call):
    # a degree gate hands its degree to localize with the compiled expression
    counted = []

    def counting_degree(expr, half_dim):
        counted.append(expr)
        return degree(expr, half_dim)

    monkeypatch.setattr(LOCALIZE, "degree", counting_degree)
    call(projective_space(3))
    assert len(counted) == 1


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


# the restricted value has degree d against n = 3 weights: d < n leaves
# u^(n - d) in the denominator, d = n a constant, d > n a polynomial; c4
# restricts to 0, and so do c1 and c1^5 at weights (1, 2, -3), where E_1 = 0
@pytest.mark.parametrize("text", ["c1", "c2", "c3", "e", "c1^3 - c3", "c1^5", "c2^2*c1", "c4"])
@pytest.mark.parametrize("entries", [(2, -3, 4), (1, 2, -3)])
def test_rank_one_point_term_is_what_the_checked_constructor_builds(text, entries):
    point = FixedPoint("p", tuple(Weight((a,)) for a in entries), -1)
    expr = parse(text)
    scalar = -reduce(operator.mul, entries)
    expected = FactoredRational(restrict(expr, point, 1) * Fraction(1, scalar), {(1,): 3})
    assert point_term(point, expr, 1) == expected


# ---------------------------------------------------------------------------
# the effective torus: the sum runs in the coordinates the weights use


def with_weights(problem, transform, signs=None):
    """The problem with every weight vector replaced by transform(vector), and
    the point signs replaced by `signs` when given."""
    signs = signs or [point.sign for point in problem.points]
    points = tuple(
        FixedPoint(point.label, [transform(w.components) for w in point.weights], sign)
        for point, sign in zip(problem.points, signs)
    )
    return LocalizationProblem(problem.rank, problem.half_dim, points)


FACTORS = {
    "sphere": sphere_rotation,
    "cpn:1": lambda: projective_space(1),
    "cpn:2": lambda: projective_space(2),
    "cpn:3": lambda: projective_space(3),
}


@st.composite
def built_in_factors(draw):
    """Up to three built-in spaces whose product has dimension <= 8."""
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3))
    factors = [FACTORS[names[0]]()]
    for name in names[1:]:
        factor = FACTORS[name]()
        if sum(f.half_dim for f in factors) + factor.half_dim <= 4:
            factors.append(factor)
    return factors


def built_in_spaces():
    """A built-in space or a product of up to three of them, of dimension <= 8."""
    return built_in_factors().map(lambda factors: reduce(product, factors))


@st.composite
def unimodular(draw, rank):
    """A random integer matrix of determinant +-1, as a list of rows."""
    matrix = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        if i == j:
            matrix[i] = [-x for x in matrix[i]]
        else:
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            matrix[i] = [x + c * y for x, y in zip(matrix[i], matrix[j])]
    return matrix


def outcome(evaluate, problem, expr):
    try:
        value, terms = evaluate(problem, expr)
    except NotPolynomialError as error:
        return "NotPolynomialError", str(error.fraction), error.per_point
    except Exception as error:  # the class is what is compared
        return type(error).__name__, None, None
    return "value", value, terms


def localized(problem, expr):
    result = localize(problem, expr)
    return result.value, result.per_point_terms


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_effective_torus_sum_equals_the_full_rank_sum(data):
    problem = data.draw(built_in_spaces())
    rank = problem.rank
    change = data.draw(st.sampled_from(("none", "unimodular", "permute")))
    if change == "unimodular":
        # kernels whose vectors may have no entry +-1
        columns = list(zip(*data.draw(unimodular(rank))))
        problem = with_weights(problem, lambda w: [sum(map(operator.mul, w, c)) for c in columns])
    elif change == "permute":
        order = data.draw(st.permutations(range(rank)))
        problem = with_weights(problem, lambda w: [w[i] for i in order])
    if data.draw(st.booleans()):
        count = len(problem.points)
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=count, max_size=count))
        problem = with_weights(problem, lambda w: w, signs)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    expr = random_homogeneous_expr(rng, problem.half_dim, rng.randint(0, problem.half_dim + 1))
    if data.draw(st.integers(0, 9)) == 0:
        expr = Sum(expr, Sum(ChernClass(1), ChernClass(2)))  # inhomogeneous
    expected = outcome(reference_localize, problem, expr)
    assert outcome(localized, problem, expr) == expected
    if change == "permute" and expected[0] == "value":
        # permuting the coordinates of the weights permutes the variables of the value
        inverse = [order.index(i) for i in range(rank)]
        unpermuted = localize(with_weights(problem, lambda w: [w[i] for i in inverse]), expr)
        assert expected[1].terms == {
            tuple(e[i] for i in order): c for e, c in unpermuted.value.terms.items()
        }


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_effective_torus_sum_with_no_weights(rank):
    points = (FixedPoint("a", (), 1), FixedPoint("b", (), -1), FixedPoint("c", (), 1))
    problem = LocalizationProblem(rank, 0, points)
    for text in ("3", "2^2 - 1"):
        assert outcome(localized, problem, parse(text)) == outcome(
            reference_localize, problem, parse(text)
        )


# CP^1 along the circle whose weights are multiples of (3, -2): the kernel is
# spanned by (2, 3), which has no entry +-1, so no coordinate can be dropped
KERNEL_2_3 = LocalizationProblem(
    2, 1, (FixedPoint("p", ((3, -2),), 1), FixedPoint("q", ((-3, 2),), 1))
)


# CP^1 x CP^2 after a unimodular change of coordinates, of lattice rank 3: the
# point (i, j) has the CP^1 weight at i and the CP^2 weights at j.  Its kernel
# vectors (2, 2, 1, 0, -2) and (-1, -1, 0, 1, 3) drop u3 and u4 together.
_W, _A, _B, _C = (-1, 1, 0, 0, 0), (-1, 0, 0, 2, -1), (0, 1, -2, 1, 0), (1, 1, -2, -1, 1)


def _negated(vector):
    return tuple(-x for x in vector)


CP1_CP2_CHANGED = LocalizationProblem(
    5,
    3,
    tuple(
        FixedPoint(f"({i},{j})", (cp1, *cp2), 1)
        for i, cp1 in enumerate((_W, _negated(_W)))
        for j, cp2 in enumerate(((_A, _B), (_negated(_A), _C), (_negated(_B), _negated(_C))))
    ),
)


@pytest.mark.parametrize(
    "problem, summed_rank",
    [
        (projective_space(1), 1),
        (projective_space(2), 2),
        (projective_space(4), 4),
        (product(projective_space(2), projective_space(3)), 5),
        (product(projective_space(1), product(projective_space(1), projective_space(1))), 3),
        (product(sphere_rotation(), sphere_rotation()), 2),
        (KERNEL_2_3, 2),
        (product(KERNEL_2_3, projective_space(1)), 3),
        (CP1_CP2_CHANGED, 3),
    ],
)
def test_summed_rank_is_the_effective_rank(monkeypatch, problem, summed_rank):
    ranks = []

    def spy(point, expr, rank):
        ranks.append(rank)
        return point_term(point, expr, rank)

    monkeypatch.setattr(LOCALIZE, "point_term", spy)
    result = localize(problem, EulerClass())
    assert set(ranks) == {summed_rank}
    assert result.value == Polynomial.constant(problem.rank, len(problem.points))


@pytest.mark.parametrize("text", ["c1^3", "c1*c2", "c3", "e", "c1^4"])
def test_changed_cp1_cp2_sum_equals_the_full_rank_sum(text):
    result = localize(CP1_CP2_CHANGED, text)
    expected = reference_localize(CP1_CP2_CHANGED, parse(text))
    assert (result.value, result.per_point_terms) == expected


def rational_rank(vectors):
    """The rank over Q of a list of integer vectors, by Gaussian elimination."""
    rows, rank = [list(map(Fraction, v)) for v in vectors], 0
    while rows:
        pivot = rows.pop()
        if any(pivot):
            c = next(i for i, x in enumerate(pivot) if x)
            rows = [[x - r[c] / pivot[c] * y for x, y in zip(r, pivot)] for r in rows]
            rank += 1
    return rank


@st.composite
def kernel_inputs(draw):
    """(vectors, rank, dropped): the weight vectors of a built-in space or a
    product, maybe under a unimodular or permutation change, or a random set of
    small integer vectors; `dropped` is the set of coordinates a built-in space
    left unchanged drops (the last one of each CP^n factor), else None."""
    if draw(st.booleans()):
        rank = draw(st.integers(1, 5))
        vector = st.tuples(*[st.integers(-3, 3)] * rank)
        return draw(st.lists(vector, max_size=6)), rank, None
    factors = draw(built_in_factors())
    problem = reduce(product, factors)
    rank = problem.rank
    vectors = {w.components for point in problem.points for w in point.weights}
    change = draw(st.sampled_from(("none", "unimodular", "permute")))
    if change == "unimodular":
        columns = list(zip(*draw(unimodular(rank))))
        vectors = {tuple(sum(map(operator.mul, v, c)) for c in columns) for v in vectors}
    elif change == "permute":
        order = draw(st.permutations(range(rank)))
        vectors = {tuple(v[i] for i in order) for v in vectors}
    if change != "none":
        return vectors, rank, None
    ends, dropped = 0, set()
    for factor in factors:
        ends += factor.rank
        if factor.rank > factor.half_dim:  # CP^n: rank n + 1
            dropped.add(ends - 1)
    return vectors, rank, dropped


@given(kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_effective_coordinates_map_every_vector_back(case):
    vectors, rank, dropped = case
    images = _effective_coordinates(vectors, rank) or {
        j: tuple(int(i == j) for i in range(rank)) for j in range(rank)
    }
    for j, image in images.items():
        assert [image[i] for i in images] == [int(i == j) for i in images]
    for v in vectors:
        assert list(v) == [sum(v[j] * image[i] for j, image in images.items()) for i in range(rank)]
    assert len(images) >= rational_rank(vectors)
    if dropped is not None:
        assert set(range(rank)) - set(images) == dropped
        assert len(images) == rational_rank(vectors)


def test_rank_one_and_weightless_problems_run_no_elimination(monkeypatch):
    def refuse(vectors, rank):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(LOCALIZE, "_effective_coordinates", refuse)
    assert euler_characteristic(sphere_rotation()) == 2
    assert integrate_top(circle_reduce(projective_space(3), (0, 1, 2, 3)), "c1^3") == 64
    weightless = LocalizationProblem(3, 0, (FixedPoint("a", (), 1),))
    assert localize(weightless, "5").value == Polynomial.constant(3, 5)


def count_map_backs(monkeypatch):
    # the list of fractions that the engine maps back to the full rank
    substitute = EXACT._substitute_fraction
    calls = []

    def counted(fraction, images):
        calls.append(fraction)
        return substitute(fraction, images)

    monkeypatch.setattr(EXACT, "_substitute_fraction", counted)
    return calls


def test_per_point_terms_are_mapped_back_on_the_first_read_only(monkeypatch):
    calls = count_map_backs(monkeypatch)
    assert integrate_top(projective_space(3), "c1^3") == 64
    assert calls == []
    result = localize(projective_space(2), "c1^3")
    assert calls == []
    terms = result.per_point_terms
    assert len(calls) == 3 and result.per_point_terms is terms
    assert terms == reference_localize(projective_space(2), parse("c1^3"))[1]
    assert all(term.rank == 3 for _, term in terms)


@pytest.mark.parametrize("first", ["fraction", "per_point"])
@pytest.mark.parametrize(
    "space",
    [projective_space(3), product(projective_space(2), projective_space(2))],
    ids=["cpn:3", "cpn:2xcpn:2"],
)
def test_not_polynomial_error_is_mapped_back_on_the_first_read_only(monkeypatch, space, first):
    flipped = with_weights(space, lambda w: w, [-1] + [1] * (len(space.points) - 1))
    expr = parse(f"c1^{space.half_dim}")
    with pytest.raises(NotPolynomialError) as reference:
        reference_localize(flipped, expr)
    calls = count_map_backs(monkeypatch)
    with pytest.raises(NotPolynomialError) as info:
        localize(flipped, expr)
    error, expected = info.value, reference.value
    assert calls == []
    getattr(error, first)
    once = 1 + len(flipped.points)  # the residual and each term
    assert len(calls) == once
    reads = (
        operator.attrgetter("fraction"),
        operator.attrgetter("per_point"),
        operator.attrgetter("args"),
        str,
        repr,
    )
    for read in reads:
        assert read(error) == read(expected)
        assert read(pickle.loads(pickle.dumps(error))) == read(expected)
    assert len(calls) == once
    assert error.fraction.rank == space.rank


def test_coordinates_dropped_together_map_back_together():
    # CP^1 x CP^1 after a change of coordinates, where u2 and u3 are dropped
    # with the kernel vectors (-1, 1, 0, 2) and (-1, 0, 1, 2): the first basis
    # vector found must be cleared at the coordinate the second one drops
    columns = [(1, 0, 0, 1), (1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1)]
    problem = with_weights(
        product(projective_space(1), projective_space(1)),
        lambda w: [sum(map(operator.mul, w, c)) for c in columns],
    )
    for text in ("c1^2", "c1^3", "c1^2*c2", "c2^2 - e*c1^2"):
        result = localize(problem, text)
        expected = reference_localize(problem, parse(text))
        assert (result.value, result.per_point_terms) == expected


# weights along (2, -1): the kernel (1, 2) drops u1, before the kept u2
KERNEL_1_2 = LocalizationProblem(
    2, 1, (FixedPoint("p", ((2, -1),), 1), FixedPoint("q", ((-2, 1),), 1))
)


@pytest.mark.parametrize(
    "problem, summed_rank",
    [
        (KERNEL_1_2, 1),
        # each point carries its form twice: an even power keeps the numerator's sign
        (
            LocalizationProblem(
                2,
                2,
                (FixedPoint("p", ((2, -1), (2, -1)), 1), FixedPoint("q", ((-2, 1), (-2, 1)), 1)),
            ),
            1,
        ),
        (product(KERNEL_1_2, projective_space(2)), 3),
    ],
)
def test_mapped_back_forms_take_the_canonical_sign(monkeypatch, problem, summed_rank):
    # the sum runs in v = u2 - 2*u1 (u1 is dropped), where the form v is
    # canonical; its image -2*u1 + u2 is not, so it is negated, and so is the
    # numerator once per odd power
    ranks = set()
    monkeypatch.setattr(
        LOCALIZE, "point_term", lambda p, e, r: ranks.add(r) or point_term(p, e, r)
    )
    flipped = with_weights(problem, lambda w: w, [-1] + [1] * (len(problem.points) - 1))
    raised = set()
    for data in (problem, flipped):
        for text in ("1", "c1", "c1^2", "c1^3", "c2*c1", "e"):
            expected = outcome(reference_localize, data, parse(text))
            assert outcome(localized, data, parse(text)) == expected
            raised.add(expected[0])
    assert raised == {"value", "NotPolynomialError"}
    assert ranks == {summed_rank}


# ---------------------------------------------------------------------------
# what the first call on a problem prepares, and what its points keep

CHERN_SPACES = (
    "cpn:3",
    "cpn:4",
    "product:cpn:2,cpn:2",
    "product:cpn:1,cpn:2",
    "product:cpn:1,product:cpn:1,cpn:1",
)
CLASSEXPR = importlib.import_module("torusloc.classexpr")


def partitions(n, largest=None):
    """Every partition of n, parts in non-increasing order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def chern_monomial(partition):
    return "*".join(f"c{part}" for part in partition) or "1"


def observed(result):
    """What a caller can read of a localization: value, terms and --terms text."""
    return result.value, result.per_point_terms, _terms_text(result.per_point_terms)


@st.composite
def call_orders(draw, space):
    """Every Chern number of a space, interleaved with below-top classes
    checked for vanishing, in a drawn order."""
    n = parse_space(space).half_dim
    tops = [chern_monomial(p) for p in partitions(n)]
    below = [chern_monomial(p) for k in range(n) for p in partitions(k)]
    vanishing = draw(st.lists(st.sampled_from(below), max_size=4))
    calls = [("localize", text) for text in tops] + [("check", text) for text in vanishing]
    return draw(st.permutations(calls))


@pytest.mark.parametrize("space", CHERN_SPACES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_call_order_on_one_problem_never_changes_what_it_reads(space, data):
    # tops rise and fall in a drawn order, so a point's Chern table is made
    # again at a larger top and then read at smaller ones
    problem = parse_space(space)
    for call, text in data.draw(call_orders(space)):
        if call == "check":
            check_vanishing(problem, text)
            assert localize(problem, text).value == localize(parse_space(space), text).value
        else:
            fresh = localize(parse_space(space), text)
            assert observed(localize(problem, text)) == observed(fresh)


CIRCLE_SPACES = ("cpn:3", "cpn:4", "product:cpn:1,cpn:2")


@st.composite
def circle_call_orders(draw, space):
    """Two generic directions, each asked every Chern number and the Euler
    class, the calls of both interleaved in a drawn order."""
    problem = parse_space(space)
    # distinct entries pair to zero with no weight u_j - u_i of a factor
    entries = st.lists(
        st.integers(-9, 9), min_size=problem.rank, max_size=problem.rank, unique=True
    )
    first = tuple(draw(entries))
    second = tuple(draw(entries.filter(lambda xi: tuple(xi) != first)))
    texts = [chern_monomial(p) for p in partitions(problem.half_dim)] + ["e"]
    return draw(st.permutations([(xi, text) for xi in (first, second) for text in texts]))


@pytest.mark.parametrize("space", CIRCLE_SPACES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_circle_calls_in_any_order_read_what_a_fresh_reduction_gives(space, data):
    # the problem keeps one reduction: every change of direction replaces it,
    # and a repeat reads the reduced problem's prepared records
    problem = parse_space(space)
    calls = data.draw(circle_call_orders(space))
    full_rank = {text: integrate_top(parse_space(space), text) for _, text in calls}
    for xi, text in calls:
        result = localize(circle_reduce(problem, xi), text)
        fresh = localize(circle_reduce(parse_space(space), xi), text)
        assert observed(result) == observed(fresh)
        assert result.value == Polynomial.constant(1, full_rank[text])


@pytest.mark.parametrize(
    "build, text, top",
    [
        (lambda: projective_space(4), "c1^4", 1),
        (lambda: projective_space(4), "c2^2", 2),
        (lambda: projective_space(4), "3*c1*c3 - e", 3),
        (lambda: circle_reduce(projective_space(6), (1, 2, 3, 4, 5, 6, 7)), "c2^2*c1^2", 2),
        (lambda: parse_space("product:cpn:1,product:cpn:1,cpn:1"), "c1^2*c1", 1),
    ],
    ids=["cpn:4 c1^4", "cpn:4 c2^2", "cpn:4 e", "cpn:6 circle", "cpn:1^3"],
)
def test_a_first_call_builds_no_chern_entry_above_its_top(monkeypatch, build, text, top):
    built = []
    for name in ("_elementary_symmetric", "_symmetric_numbers"):

        def spy(*args, original=getattr(CLASSEXPR, name)):
            table = original(*args)
            built.append(len(table) - 1)
            return table

        monkeypatch.setattr(CLASSEXPR, name, spy)
    problem = build()
    localize(problem, text)
    assert built and max(built) == top
    # a smaller top reads the tables as they are; a larger one makes them again
    built.clear()
    localize(problem, "1" if top == 1 else "c1^2")
    assert built == []
    if top < problem.half_dim:
        localize(problem, f"c{problem.half_dim}")
        assert built == [problem.half_dim] * len(problem.points)


def test_repeated_calls_on_inconsistent_data_raise_the_same_residual():
    flipped = with_weights(projective_space(3), lambda w: w, [-1, 1, 1, 1])
    seen = []
    for text in ("c1^3", "c1*c2", "c1^3", "2*c1^3 + c1*c2", "c1^3"):
        with pytest.raises(NotPolynomialError) as info:
            integrate_top(flipped, text)
        seen.append((text, info.value.fraction, info.value.per_point))
    for text, fraction, per_point in seen:
        with pytest.raises(NotPolynomialError) as fresh:
            integrate_top(with_weights(projective_space(3), lambda w: w, [-1, 1, 1, 1]), text)
        assert (fraction, per_point) == (fresh.value.fraction, fresh.value.per_point)
    assert seen[0][1:] == seen[2][1:] == seen[4][1:]


def test_an_invalid_problem_raises_on_every_call():
    bad = LocalizationProblem(1, 1, (FixedPoint("p", (Weight((0,)),), 1),))
    for _ in range(3):
        with pytest.raises(ValidationError):
            localize(bad, "c1")


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_records_copy_and_pickle_with_their_caches_empty(clone):
    problem = projective_space(2)
    program = LOCALIZE._compiled("c1^2")
    result = localize(problem, program)  # fills the problem's, points' and program's caches
    circle = circle_reduce(problem, (0, 1, 2))
    integrate_top(circle, "c2")
    records = [problem, problem.points[0], problem.points[0].weights[0], parse("c2"), program]
    records += [result, circle, circle.points[1], sphere_rotation()]
    for record in records:
        copied = clone(record)
        assert type(copied) is type(record)
        assert copied == record and repr(copied) == repr(record)
        assert not hasattr(copied, "_cache")
    assert localize(clone(problem), "c1^2").value == result.value
    assert localize(problem, clone(program)).value == result.value
    assert integrate_top(clone(circle), "c2") == 3
    copied = clone(result)
    assert observed(copied) == observed(result)


def test_threads_sharing_one_problem_read_what_a_fresh_problem_gives():
    # caches fill by check-then-store with no lock: a lost or repeated store
    # only makes work again, so every thread must still read the fresh values
    problem_id = "product:cpn:1,cpn:2"
    problem = parse_space(problem_id)
    texts = [chern_monomial(p) for p in partitions(3)] + ["c1^4", "c2*c1^2"]
    expected = {text: observed(localize(parse_space(problem_id), text)) for text in texts}
    mismatches, interval = [], sys.getswitchinterval()

    def work(seed):
        for text in random.Random(seed).choices(texts, k=20):
            if observed(localize(problem, text)) != expected[text]:
                mismatches.append(text)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_threads_alternating_two_directions_read_what_a_fresh_reduction_gives():
    # each thread switches the problem's kept reduction between two
    # directions while the others read it
    problem_id = "product:cpn:1,cpn:2"
    problem = parse_space(problem_id)
    directions = [(1, 2, 3, 4, 5), (5, 1, 4, 2, 3)]
    texts = [chern_monomial(p) for p in partitions(3)] + ["e", "c1^4"]
    expected = {
        (xi, text): observed(localize(circle_reduce(parse_space(problem_id), xi), text))
        for xi in directions
        for text in texts
    }
    mismatches, interval = [], sys.getswitchinterval()

    def work(seed):
        rng = random.Random(seed)
        for _ in range(20):
            key = rng.choice(directions), rng.choice(texts)
            if observed(localize(circle_reduce(problem, key[0]), key[1])) != expected[key]:
                mismatches.append(key)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
