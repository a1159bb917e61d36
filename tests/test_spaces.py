"""Built-in spaces: structure, oracles, products."""

import pytest

from torusloc import (
    FixedPoint,
    LocalizationProblem,
    Weight,
    circle_reduce,
    equivariant_euler,
    euler_characteristic,
    integrate_top,
    localize,
    validate,
)
from torusloc.spaces import projective_space, product, sphere_rotation

from support import variable
from test_spaces_oracle import (
    c1_power_on_projective_line,
    chern_number_oracle,
    degree_n_monomials,
)


def test_sphere_structure():
    sphere = sphere_rotation()
    validate(sphere)
    assert sphere.rank == 1 and sphere.half_dim == 1
    north, south = sphere.points
    u = variable(1, 0)
    assert equivariant_euler(north, 1) == u
    assert equivariant_euler(south, 1) == -u


def test_sphere_vanishing_and_euler():
    assert euler_characteristic(sphere_rotation()) == 2
    assert not localize(sphere_rotation(), "1").value


def test_projective_space_structure():
    for n in (1, 2, 3):
        problem = projective_space(n)
        validate(problem)
        assert problem.rank == n + 1
        assert problem.half_dim == n
        assert [pt.label for pt in problem.points] == [f"p{i}" for i in range(n + 1)]
        assert all(pt.sign == 1 for pt in problem.points)
    cp2 = projective_space(2)
    assert cp2.points[0].weights == (Weight((-1, 1, 0)), Weight((-1, 0, 1)))


def test_projective_space_rejects_bad_n():
    with pytest.raises(ValueError):
        projective_space(0)


def test_chern_numbers_match_binomial_oracle():
    for n in range(1, 5):
        problem = projective_space(n)
        for exponents in degree_n_monomials(n):
            expr = "*".join(
                f"c{k}" if a == 1 else f"c{k}^{a}"
                for k, a in enumerate(exponents, start=1)
                if a
            )
            assert integrate_top(problem, expr) == chern_number_oracle(n, exponents), (
                n,
                expr,
            )


def test_cp5_full_rank_chern_numbers():
    # rank 6, 6 points: c1^5 drives the largest cancelling numerators
    cp5 = projective_space(5)
    assert integrate_top(cp5, "c1^5") == chern_number_oracle(5, (5, 0, 0, 0, 0)) == 7776
    assert integrate_top(cp5, "c5") == chern_number_oracle(5, (0, 0, 0, 0, 1)) == 6


def test_reduction_direction_is_generic():
    for n in (1, 2, 3):
        problem = projective_space(n)
        xi = tuple(range(n + 1))
        reduced = circle_reduce(problem, xi)
        for point in reduced.points:
            exponents = [w.components[0] for w in point.weights]
            assert len(set(exponents)) == len(exponents)
        for exponents in degree_n_monomials(n):
            expr = "*".join(
                f"c{k}" if a == 1 else f"c{k}^{a}"
                for k, a in enumerate(exponents, start=1)
                if a
            )
            assert integrate_top(reduced, expr) == integrate_top(problem, expr)


def test_product_structure():
    pair = product(sphere_rotation(), sphere_rotation())
    validate(pair)
    assert pair.rank == 2 and pair.half_dim == 2
    assert len(pair.points) == 4
    signs = {pt.label: pt.sign for pt in pair.points}
    assert signs["(north,north)"] == 1
    assert signs["(north,south)"] == -1
    assert signs["(south,south)"] == 1
    weights = {pt.label: [w.components for w in pt.weights] for pt in pair.points}
    assert weights["(north,south)"] == [(1, 0), (0, 1)]


def test_product_euler_characteristics():
    assert euler_characteristic(product(sphere_rotation(), sphere_rotation())) == 4
    cp1 = projective_space(1)
    assert euler_characteristic(product(cp1, cp1)) == 4
    assert integrate_top(product(cp1, cp1), "e") == 4


def test_product_with_point_is_identity():
    point_problem = LocalizationProblem(1, 0, (FixedPoint("pt", (), 1),))
    base = projective_space(1)
    padded = product(base, point_problem)
    validate(padded)
    assert padded.half_dim == base.half_dim
    assert len(padded.points) == len(base.points)
    for before, after in zip(base.points, padded.points):
        assert after.sign == before.sign
        assert [w.components for w in after.weights] == [
            w.components + (0,) for w in before.weights
        ]
    assert euler_characteristic(padded) == euler_characteristic(base)


def test_c1_powers_on_the_projective_line_match_the_binomial_oracle():
    # CP^1 sums at effective rank 1, so each value c*v^(k-1) is mapped back
    # to c*(u1 - u2)^(k-1) by the binomial theorem
    line = projective_space(1)
    for k in range(1, 162):
        assert localize(line, f"c1^{k}").value.terms == c1_power_on_projective_line(k), k


def checked_projective_space(n):
    """CP^n built through the checked constructors, one entry at a time."""
    rank = n + 1
    points = []
    for i in range(rank):
        weights = [
            Weight([(1 if k == j else 0) - (1 if k == i else 0) for k in range(rank)])
            for j in range(rank)
            if j != i
        ]
        points.append(FixedPoint(f"p{i}", weights, 1))
    return LocalizationProblem(rank, n, points)


def checked_product(a, b):
    """The product of two problems built through the checked constructors."""
    points = [
        FixedPoint(
            f"({pa.label},{pb.label})",
            [list(w.components) + [0] * b.rank for w in pa.weights]
            + [[0] * a.rank + list(w.components) for w in pb.weights],
            pa.sign * pb.sign,
        )
        for pa in a.points
        for pb in b.points
    ]
    return LocalizationProblem(a.rank + b.rank, a.half_dim + b.half_dim, points)


NESTED_PRODUCTS = {
    "cpn:1 x cpn:2": lambda times, cp: times(cp(1), cp(2)),
    "cpn:1 x (cpn:1 x cpn:1)": lambda times, cp: times(cp(1), times(cp(1), cp(1))),
    "(cpn:2 x sphere) x cpn:3": lambda times, cp: times(times(cp(2), sphere_rotation()), cp(3)),
    "(cpn:1 x cpn:2) x (sphere x cpn:1)": lambda times, cp: times(
        times(cp(1), cp(2)), times(sphere_rotation(), cp(1))
    ),
}


def built_in_and_checked():
    """(name, built-in space, the same data through the checked constructors)."""
    for n in range(1, 9):
        yield f"cpn:{n}", projective_space(n), checked_projective_space(n)
    for name, build in NESTED_PRODUCTS.items():
        checked = build(checked_product, checked_projective_space)
        yield name, build(product, projective_space), checked


@pytest.mark.parametrize(
    "built, checked",
    [pytest.param(built, checked, id=name) for name, built, checked in built_in_and_checked()],
)
def test_built_in_spaces_equal_the_checked_constructors_build(built, checked):
    # the module builds its records by _raw, with no check of its own
    assert built == checked
    assert repr(built) == repr(checked)
    validate(built)
