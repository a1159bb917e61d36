"""Fixed-point data model: validation, Euler classes, circle reduction."""

import copy
import pickle
import random

import pytest

from torusloc import (
    FixedPoint,
    LocalizationProblem,
    NonGenericDirection,
    Polynomial,
    ValidationError,
    Weight,
    circle_reduce,
    equivariant_euler,
    validate,
)
from torusloc.spaces import projective_space, sphere_rotation

from support import cohomological_degrees, random_point, specialize, variable

u = variable(1, 0)


def test_records_coerce_their_fields_and_are_immutable():
    weight = Weight([1, -1])
    point = FixedPoint("p", [[1, -1]], True)
    problem = LocalizationProblem(2, True, [point])
    assert weight.components == (1, -1) and type(weight.components) is tuple
    assert point.weights == (weight,) and type(point.sign) is int and point.sign == 1
    assert problem.points == (point,) and type(problem.half_dim) is int
    assert problem == LocalizationProblem(2, 1, (FixedPoint("p", (Weight((1, -1)),), 1),))
    assert hash(problem) == hash(LocalizationProblem(2, 1, (FixedPoint("p", ((1, -1),), 1),)))
    assert weight != FixedPoint("p", (), 1) and Weight((1,)) != Weight((-1,))
    assert repr(weight) == "Weight(components=(1, -1))"
    for record, name in ((weight, "components"), (point, "sign"), (problem, "rank")):
        with pytest.raises(AttributeError):
            setattr(record, name, 2)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert point.sign == 1 and problem.rank == 2


def test_validate_sphere_ok():
    validate(sphere_rotation())


def test_validate_zero_weight():
    point = FixedPoint("p0", (Weight((0, 0)),), 1)
    with pytest.raises(ValidationError) as info:
        validate(LocalizationProblem(2, 1, (point,)))
    assert "zero weight" in str(info.value)
    assert "p0" in str(info.value)


def test_validate_duplicate_labels():
    a = FixedPoint("p0", (Weight((1,)),), 1)
    b = FixedPoint("p0", (Weight((-1,)),), 1)
    with pytest.raises(ValidationError) as info:
        validate(LocalizationProblem(1, 1, (a, b)))
    assert "duplicate label" in str(info.value)


def test_validate_reports_every_violation():
    bad = LocalizationProblem(
        2,
        2,
        (
            FixedPoint("q", (Weight((0, 0)), Weight((1,))), 3),
            FixedPoint("q", (Weight((1, 0)),), 1),
        ),
    )
    with pytest.raises(ValidationError) as info:
        validate(bad)
    problems = info.value.problems
    assert any("zero weight" in p for p in problems)
    assert any("length" in p for p in problems)
    assert any("duplicate" in p for p in problems)
    assert any("sign" in p for p in problems)
    assert any("weights, expected 2" in p for p in problems)


def test_euler_class_is_weight_product():
    point = FixedPoint("p", (Weight((1,)), Weight((2,)), Weight((3,))), 1)
    assert equivariant_euler(point, 1) == 6 * u ** 3


def test_euler_class_south_pole():
    south = sphere_rotation().points[1]
    assert equivariant_euler(south, 1) == -u


def test_euler_class_rank2():
    point = FixedPoint("p", (Weight((1, 0)), Weight((0, 1))), 1)
    u1 = variable(2, 0)
    u2 = variable(2, 1)
    assert equivariant_euler(point, 2) == u1 * u2


def test_euler_class_half_dim_zero_needs_rank():
    point = FixedPoint("p", (), -1)
    assert equivariant_euler(point, 2) == Polynomial.constant(2, -1)


def test_euler_degree_and_weight_sign_flips():
    # flipping one weight together with the point's sign preserves the class
    rng = random.Random(7)
    for _ in range(100):
        rank = rng.randint(1, 3)
        n = rng.randint(1, 3)
        point = random_point(rng, rank, n)
        euler = equivariant_euler(point, rank)
        assert euler
        assert cohomological_degrees(euler) == {2 * n}
        k = rng.randrange(n)
        flipped_weights = tuple(
            w.negated() if i == k else w for i, w in enumerate(point.weights)
        )
        flipped = FixedPoint(point.label, flipped_weights, -point.sign)
        assert equivariant_euler(flipped, rank) == euler


def pairing(weight, direction):
    return sum(a * x for a, x in zip(weight.components, direction, strict=True))


def test_euler_commutes_with_reduction():
    rng = random.Random(11)
    for _ in range(100):
        rank = rng.randint(2, 3)
        n = rng.randint(1, 3)
        point = random_point(rng, rank, n)
        problem = LocalizationProblem(rank, n, (point,))
        xi = None
        while xi is None:
            candidate = tuple(rng.randint(-4, 4) for _ in range(rank))
            if all(pairing(w, candidate) != 0 for w in point.weights):
                xi = candidate
        reduced = circle_reduce(problem, xi)
        assert specialize(equivariant_euler(point, rank), xi) == equivariant_euler(reduced.points[0], 1)


def test_circle_reduce_cp1():
    reduced = circle_reduce(projective_space(1), (0, 1))
    assert reduced.rank == 1
    exponents = [w.components[0] for pt in reduced.points for w in pt.weights]
    assert sorted(exponents) == [-1, 1]
    assert [pt.label for pt in reduced.points] == ["p0", "p1"]
    assert [pt.sign for pt in reduced.points] == [1, 1]


def test_circle_reduce_zero_direction():
    with pytest.raises(NonGenericDirection):
        circle_reduce(projective_space(1), (0, 0))


def test_circle_reduce_annihilated_weight():
    point = FixedPoint("p", (Weight((1, -1)),), 1)
    problem = LocalizationProblem(2, 1, (point,))
    with pytest.raises(NonGenericDirection) as info:
        circle_reduce(problem, (1, 1))
    assert info.value.label == "p"
    assert info.value.weight.components == (1, -1)


def test_circle_reduce_length_check():
    with pytest.raises(ValueError):
        circle_reduce(sphere_rotation(), (1, 2))


def test_circle_reduce_checks_every_weight_length():
    # an unvalidated problem of rank 2 with a weight of length 3: the pairing
    # must not be cut to the direction's length
    point = FixedPoint("p", (Weight((1, 2)), Weight((1, 2, 3))), 1)
    problem = LocalizationProblem(2, 2, (point,))
    with pytest.raises(ValueError, match="direction has length 2, weight has rank 3"):
        circle_reduce(problem, (1, 1))


def test_circle_reduce_builds_the_records_the_constructors_build():
    reduced = circle_reduce(projective_space(2), (1, 3, 7))
    expected = LocalizationProblem(
        1,
        2,
        (
            FixedPoint("p0", ((2,), (6,)), 1),
            FixedPoint("p1", ((-2,), (4,)), 1),
            FixedPoint("p2", ((-6,), (-4,)), 1),
        ),
    )
    assert reduced == expected and hash(reduced) == hash(expected)
    assert all(type(w.components[0]) is int for p in reduced.points for w in p.weights)


# ---------------------------------------------------------------------------
# the last reduction a problem keeps


def test_an_equal_direction_returns_the_same_reduced_problem():
    problem = projective_space(2)
    reduced = circle_reduce(problem, (1, 3, 7))
    assert circle_reduce(problem, [1, 3, 7]) is reduced
    assert circle_reduce(problem, (1, 3, 7)) is reduced
    other = projective_space(2)
    assert circle_reduce(other, (True, 3, 7)) is circle_reduce(other, (1, 3, 7))
    assert circle_reduce(other, (1, 3, 7)) == reduced


def test_another_direction_builds_anew_and_replaces_the_kept_reduction():
    problem = projective_space(2)
    a, b = (1, 3, 7), (2, 5, 1)
    built = [circle_reduce(problem, a), circle_reduce(problem, b), circle_reduce(problem, a)]
    assert len({id(reduced) for reduced in built}) == 3
    assert built[0] == built[2] != built[1]
    assert circle_reduce(problem, a) is built[2]
    assert circle_reduce(problem, b) == built[1] and circle_reduce(problem, b) is not built[1]


@pytest.mark.parametrize(
    "direction, error",
    [((1, 1, 1), NonGenericDirection), ((1, 2), ValueError), ((1, 2, 3, 4), ValueError)],
    ids=["non-generic", "short", "long"],
)
def test_a_failed_reduction_raises_on_every_call_and_is_never_kept(direction, error):
    problem = projective_space(2)
    for _ in range(3):
        with pytest.raises(error):
            circle_reduce(problem, direction)
    assert "circle" not in problem._cached()
    reduced = circle_reduce(problem, (1, 3, 7))
    with pytest.raises(error):
        circle_reduce(problem, direction)
    assert circle_reduce(problem, (1, 3, 7)) is reduced


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_reduced_problem_copies_with_its_cache_empty(clone):
    problem = projective_space(3)
    reduced = circle_reduce(problem, (1, 2, 3, 4))
    copied = clone(problem)
    assert copied == problem and not hasattr(copied, "_cache")
    again = circle_reduce(copied, (1, 2, 3, 4))
    assert again == reduced and again is not reduced
    assert circle_reduce(problem, (1, 2, 3, 4)) is reduced
