"""Class expression language: parser, printer, degree, restriction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloc import (
    ChernClass,
    Difference,
    EulerClass,
    FixedPoint,
    InhomogeneousExpression,
    IntegerLiteral,
    ParseError,
    Polynomial,
    Power,
    Product,
    RankMismatch,
    Sum,
    Weight,
    degree,
    equivariant_euler,
    parse,
    render,
    restrict,
)
from torusloc.classexpr import MAX_DEPTH

from support import (
    cohomological_degrees,
    linear_polynomial,
    random_expr,
    random_point,
    reference_restrict,
    variable,
)

u = variable(1, 0)


# ---------------------------------------------------------------------------
# parsing

def test_nodes_compare_by_type_and_fields():
    assert ChernClass(1) != IntegerLiteral(1)
    assert Sum(ChernClass(1), ChernClass(2)) != Product(ChernClass(1), ChernClass(2))
    assert parse("c1 + e") == Sum(ChernClass(1), EulerClass())
    assert parse("c1^2 + 3*c2") == parse("c1 ^ 2 + 3 c2")
    assert hash(parse("c1^2 + 3*c2")) == hash(parse("c1 ^ 2 + 3 c2"))
    assert hash(EulerClass()) == hash(EulerClass())
    assert len({ChernClass(1), IntegerLiteral(1), ChernClass(1)}) == 2
    assert repr(Power(ChernClass(1), 2)) == "Power(base=ChernClass(index=1), exponent=2)"
    assert repr(EulerClass()) == "EulerClass()"


def test_nodes_are_immutable():
    node = Product(ChernClass(1), IntegerLiteral(2))
    for name in ("left", "right", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, ChernClass(3))
    with pytest.raises(AttributeError):
        del node.left
    assert node == Product(ChernClass(1), IntegerLiteral(2))
    with pytest.raises(TypeError):
        ChernClass(1, 2)


def test_parse_sum_of_power_and_product():
    assert parse("c1^2 + 3*c2") == Sum(
        Power(ChernClass(1), 2), Product(IntegerLiteral(3), ChernClass(2))
    )


def test_parse_euler():
    assert parse("e") == EulerClass()


def test_parse_missing_exponent():
    with pytest.raises(ParseError) as info:
        parse("c1 ^")
    diagnostic = info.value.diagnostic
    assert diagnostic.offset == 4
    assert "unsigned integer" in diagnostic.expected


def test_parse_implicit_multiplication():
    expected = Product(ChernClass(1), ChernClass(2))
    assert parse("c1 c2") == expected
    assert parse("c1c2") == expected
    assert parse("c1*c2") == expected


def test_parse_whitespace_insensitive():
    assert parse(" c1 ^ 2 +  3 * c2 ") == parse("c1^2+3*c2")


def test_parse_left_associative():
    assert parse("c1 - c2 - c3") == Difference(
        Difference(ChernClass(1), ChernClass(2)), ChernClass(3)
    )
    assert parse("c1*c2*c3") == Product(
        Product(ChernClass(1), ChernClass(2)), ChernClass(3)
    )


def test_parse_parentheses():
    assert parse("c1 - (c2 - c3)") == Difference(
        ChernClass(1), Difference(ChernClass(2), ChernClass(3))
    )
    assert parse("(c1 + c2)^2") == Power(Sum(ChernClass(1), ChernClass(2)), 2)


def test_parse_diagnostics():
    with pytest.raises(ParseError) as info:
        parse("")
    assert info.value.diagnostic.offset == 0

    with pytest.raises(ParseError) as info:
        parse("c")
    assert info.value.diagnostic.offset == 1
    assert "after 'c'" in info.value.diagnostic.expected

    with pytest.raises(ParseError) as info:
        parse("c0 + c1")
    assert info.value.diagnostic.offset == 1
    assert "positive" in info.value.diagnostic.expected

    with pytest.raises(ParseError) as info:
        parse("(c1 + c2")
    assert info.value.diagnostic.offset == 8

    with pytest.raises(ParseError) as info:
        parse("c1 ) c2")
    assert info.value.diagnostic.offset == 3

    with pytest.raises(ParseError) as info:
        parse("c1 + $")
    assert info.value.diagnostic.offset == 5


def test_diagnostic_offsets_are_bytes():
    with pytest.raises(ParseError) as info:
        parse("c1 + é")
    assert info.value.diagnostic.offset == 5


def test_parse_refuses_deep_nesting():
    # 3000 nested parentheses and a flat sum of 3000 terms, whose left-nested
    # tree `degree` and `restrict` would recurse down
    for text in ("(" * 3000 + "c1" + ")" * 3000, " + ".join(["c2"] * 3000)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert f"deeper than {MAX_DEPTH} levels" in info.value.diagnostic.message
    with pytest.raises(ParseError) as info:
        parse("(" * 3000 + "c1" + ")" * 3000)
    assert info.value.diagnostic.offset == MAX_DEPTH - 1  # the first '(' too many


def test_parse_depth_limit_is_exact():
    # a flat sum of n terms is n levels deep; each group and exponent adds one
    assert parse("+".join(["c1"] * MAX_DEPTH)) is not None
    with pytest.raises(ParseError):
        parse("+".join(["c1"] * (MAX_DEPTH + 1)))
    inner = MAX_DEPTH - 2
    assert parse("(" * inner + "c1^2" + ")" * inner) == Power(ChernClass(1), 2)
    with pytest.raises(ParseError) as info:
        parse("(" * (inner + 1) + "c1^2" + ")" * (inner + 1))
    assert info.value.diagnostic.offset == 2 * inner + 5  # the last ')'


def test_long_sum_evaluates():
    expr = parse(" + ".join(["c2"] * 500))
    point = FixedPoint("p", (Weight((1, 0)), Weight((0, 1)), Weight((1, 1))), 1)
    assert degree(expr, 3) == 4
    assert restrict(expr, point, 2) == 500 * restrict(ChernClass(2), point, 2)
    assert render(expr) == " + ".join(["c2"] * 500)


# ---------------------------------------------------------------------------
# canonical printing

def test_render_examples():
    assert render(parse("c1^2 + 3*c2")) == "c1^2 + 3*c2"
    assert render(parse("c1 c2")) == "c1*c2"
    assert render(parse("c1 - (c2 - c3)")) == "c1 - (c2 - c3)"
    assert render(parse("(c1 + c2)^2")) == "(c1 + c2)^2"
    assert render(parse("(c1*c2)^0")) == "(c1*c2)^0"
    assert render(parse("2 e")) == "2*e"


def test_parse_render_parse_identity():
    for text in [
        "c1^2 + 3*c2",
        "e",
        "c1*c2*c3 - 4",
        "(c1 + c2)*(c1 - c2)",
        "c1^2^3",  # parses as (c1^2)^3 via implicit product? no: ^ cannot chain
    ]:
        if text == "c1^2^3":
            with pytest.raises(ParseError):
                parse(text)
            continue
        tree = parse(text)
        assert parse(render(tree)) == tree


@given(st.integers(0, 2 ** 32))
def test_render_round_trip_random_trees(seed):
    tree = random_expr(random.Random(seed))
    assert parse(render(tree)) == tree


# ---------------------------------------------------------------------------
# degree

def test_degree_examples():
    assert degree(parse("c1^2"), 1) == 4
    assert degree(parse("e"), 3) == 6
    with pytest.raises(InhomogeneousExpression) as info:
        degree(parse("c1 + c2"), 2)
    assert info.value.degrees == (2, 4)


def test_degree_products_add_powers_multiply():
    assert degree(parse("c1*c2"), 2) == 6
    assert degree(parse("c2^3"), 2) == 12
    assert degree(parse("c1^0"), 2) == 0
    assert degree(parse("7"), 2) == 0
    assert degree(parse("3*c1*e"), 2) == 6


# ---------------------------------------------------------------------------
# restriction to a fixed point

POINT_123 = FixedPoint("p", (Weight((1,)), Weight((2,)), Weight((3,))), 1)


def test_restrict_c1_is_weight_sum():
    assert restrict(parse("c1"), POINT_123, 1) == 6 * u


def test_restrict_c2_elementary_symmetric():
    # e2(u, 2u, 3u) = (1*2 + 1*3 + 2*3) u^2 = 11 u^2
    assert restrict(parse("c2"), POINT_123, 1) == 11 * u ** 2


def test_restrict_euler_matches_equivariant_euler():
    point = FixedPoint("p", (Weight((1, 0)), Weight((0, 1))), 1)
    u1 = variable(2, 0)
    u2 = variable(2, 1)
    assert restrict(parse("e"), point, 2) == u1 * u2
    rng = random.Random(23)
    for _ in range(50):
        rank = rng.randint(1, 3)
        point = random_point(rng, rank, rng.randint(1, 3))
        assert restrict(EulerClass(), point, rank) == equivariant_euler(point, rank)


def test_restrict_chern_above_rank_vanishes():
    assert not restrict(parse("c4"), POINT_123, 1)
    # but its degree is still 2k, so inhomogeneity is caught
    with pytest.raises(InhomogeneousExpression):
        degree(parse("c4 + c1"), 3)


def test_restrict_rejects_zero_weight():
    point = FixedPoint("z", (Weight((1, 0)), Weight((0, 0))), 1)
    for text in ("c1", "e", "1"):
        with pytest.raises(ValueError, match="zero weight at point 'z'"):
            restrict(parse(text), point, 2)


@pytest.mark.parametrize("text", ["c1", "c1 + c2", "e"])  # the integer and polynomial steps
def test_restrict_rejects_a_weight_of_another_length(text):
    point = FixedPoint("p", (Weight((1,)), Weight((2, 1))), 1)
    with pytest.raises(RankMismatch, match="vector of length 2 vs rank 1"):
        restrict(parse(text), point, 1)


@st.composite
def mixed_points(draw):
    """(rank, point) whose weights mix multiples of one coordinate u_k (repeated,
    negative, several on one k) with general vectors."""
    rank = draw(st.integers(1, 4))
    entry = st.integers(-3, 3).filter(bool)
    coordinate = st.tuples(st.integers(0, rank - 1), entry).map(
        lambda ka: tuple(ka[1] if i == ka[0] else 0 for i in range(rank))
    )
    general = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    vectors = draw(st.lists(st.one_of(coordinate, general), max_size=5))
    return rank, FixedPoint("p", tuple(map(Weight, vectors)), draw(st.sampled_from((1, -1))))


def class_expressions(max_chern):
    """Expressions over literals, e and c_1..c_max_chern, powers only of atoms."""
    atoms = st.one_of(
        st.builds(IntegerLiteral, st.integers(0, 4)),
        st.builds(ChernClass, st.integers(1, max_chern)),
        st.just(EulerClass()),
    )
    factors = st.one_of(atoms, st.builds(Power, atoms, st.integers(0, 2)))
    return st.recursive(
        factors,
        lambda inner: st.one_of(
            st.builds(Sum, inner, inner),
            st.builds(Difference, inner, inner),
            st.builds(Product, inner, inner),
        ),
        max_leaves=3,
    )


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_restrict_matches_the_product_expansion(data):
    # Chern indices run from below the weight count to two above it
    rank, point = data.draw(mixed_points())
    expr = data.draw(class_expressions(len(point.weights) + 2))
    assert restrict(expr, point, rank) == reference_restrict(expr, point, rank)


@st.composite
def circle_points(draw):
    """A rank-1 point, as after circle_reduce; half of them also carry a weight
    and its negative, so that E_1, E_3 or the whole table can vanish."""
    entries = draw(st.lists(st.integers(-4, 4).filter(bool), max_size=4))
    if entries and draw(st.booleans()):
        entries.append(-entries[0])
    return FixedPoint("p", tuple(Weight((a,)) for a in entries), draw(st.sampled_from((1, -1))))


@st.composite
def homogeneous_expressions(draw, half_dim, max_chern):
    """A sum or difference of up to three monomials (products of the atoms and
    their powers), each brought to the largest of their degrees by a power of c1."""
    monomial = st.recursive(
        class_expressions(max_chern).filter(lambda node: not isinstance(node, (Sum, Difference))),
        lambda inner: st.builds(Product, inner, inner),
        max_leaves=3,
    ).filter(lambda node: _has_one_degree(node, half_dim))
    monomials = draw(st.lists(monomial, min_size=1, max_size=3))
    degrees = [degree(node, half_dim) for node in monomials]
    expr = None
    for node, d in zip(monomials, degrees):
        if d < max(degrees):
            node = Product(node, Power(ChernClass(1), (max(degrees) - d) // 2))
        expr = node if expr is None else draw(st.sampled_from((Sum, Difference)))(expr, node)
    return expr


def _has_one_degree(node, half_dim):
    try:
        degree(node, half_dim)
    except InhomogeneousExpression:
        return False
    return True


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_rank_one_restrict_matches_the_product_expansion(data):
    # homogeneous expressions run on integers, the others on polynomials;
    # Chern indices run from below the weight count to two above it
    point = data.draw(circle_points())
    n = len(point.weights)
    expr = data.draw(st.one_of(homogeneous_expressions(n, n + 2), class_expressions(n + 2)))
    assert restrict(expr, point, 1) == reference_restrict(expr, point, 1)


def outcome(evaluate, expr, point):
    try:
        return evaluate(expr, point, 1)
    except ValueError as error:
        return str(error)


# at rank 1 the exponent overflow is raised where the polynomial steps raise
# it: at a nonzero value whose degree passes 2**31 - 1, never at a zero one.
# At weights (2, -1), E_1 = 1, E_2 = -2 and e = -2u^2; at (1, -1), E_1 = 0.
@pytest.mark.parametrize(
    "text, entries, raises",
    [
        ("c1^2147483648", (2, -1), True),
        ("c1^2147483648", (1, -1), False),
        ("(c1*c2)^715827883", (2, -1), True),  # degree 3 * 715827883 = 2**31 + 1
        ("(c1*c2)^715827883", (1, -1), False),
        ("c1^2147483647*c1", (2, -1), True),  # the product passes the limit
        ("c1^2147483647*c1", (1, -1), False),
        ("(c1^2147483648)^0", (2, -1), True),
        ("e^1073741824", (1, -1), True),
        ("c3^2147483648", (2, -1), False),  # c3 is 0 at a point with two weights
        ("c1^2147483647", (2, -1), False),  # u^(2**31 - 1): at the limit
    ],
)
def test_rank_one_exponent_overflow_matches_the_polynomial_steps(text, entries, raises):
    point = FixedPoint("p", tuple(Weight((a,)) for a in entries), 1)
    expr = parse(text)
    found = outcome(restrict, expr, point)
    assert found == outcome(reference_restrict, expr, point)
    assert (found == "exponent overflow: an exponent exceeds 2147483647") == raises


# the circle path: weights along u1, as at a point after circle_reduce.  The
# first point has twelve, as on CP^12, some repeated and some negative; at the
# second, a and -a cancel in E_1 and E_3, so its table has zero entries
COORDINATE_POINTS = (
    FixedPoint("p", tuple(Weight((a,)) for a in (1, 2, -3, 4, 5, -1, 2, 7, -8, 9, 1, 3)), -1),
    FixedPoint("q", tuple(Weight((a,)) for a in (3, -3, 2, -2)), 1),
)


@pytest.mark.parametrize(
    "text",
    ["c1^12", "c12", "c13", "c5*c7 - 2*c12", "e", "e - c12", "7", "3^2 + 1", "c1", "c3*c2", "c4"],
)
def test_restrict_on_many_coordinate_weights(text):
    expr = parse(text)
    for point in COORDINATE_POINTS:
        assert restrict(expr, point, 1) == reference_restrict(expr, point, 1)


@pytest.mark.parametrize("point", COORDINATE_POINTS, ids=("twelve", "cancelling"))
def test_restrict_runs_maximally_deep_expressions(point):
    # a left-deep sum of MAX_DEPTH levels, and a right-deep product that keeps
    # (MAX_DEPTH - 1)/2 values waiting on the stack of the compiled steps
    flat = parse("+".join(["c1"] * MAX_DEPTH))
    assert restrict(flat, point, 1) == MAX_DEPTH * reference_restrict(ChernClass(1), point, 1)
    k = (MAX_DEPTH - 1) // 2
    nested = parse("c2*(" * k + "c1" + ")" * k)
    expected = reference_restrict(parse(f"c2^{k}*c1"), point, 1)
    assert restrict(nested, point, 1) == expected
    assert degree(nested, 12) == 4 * k + 2


def test_restrict_is_ring_homomorphism():
    rng = random.Random(31)
    for _ in range(100):
        rank = rng.randint(1, 2)
        point = random_point(rng, rank, rng.randint(1, 3))
        a = random_expr(rng, depth=2)
        b = random_expr(rng, depth=2)
        assert restrict(Sum(a, b), point, rank) == restrict(a, point, rank) + restrict(b, point, rank)
        assert restrict(Product(a, b), point, rank) == restrict(a, point, rank) * restrict(b, point, rank)


def test_restrict_homogeneous_degree():
    rng = random.Random(37)
    for _ in range(80):
        n = rng.randint(1, 3)
        rank = rng.randint(1, 2)
        point = random_point(rng, rank, n)
        expr = random_expr(rng, depth=2)
        try:
            d = degree(expr, n)
        except InhomogeneousExpression:
            continue
        value = restrict(expr, point, rank)
        if value:
            assert cohomological_degrees(value) == {d}


def test_newton_identity_power_sum():
    # e1^2 - 2 e2 equals the power sum of the weights
    rng = random.Random(41)
    for _ in range(60):
        rank = rng.randint(1, 3)
        n = rng.randint(2, 4)
        point = random_point(rng, rank, n)
        power_sum = Polynomial.zero(rank)
        for w in point.weights:
            form, scalar = w.primitive()
            power_sum = power_sum + (scalar * linear_polynomial(form)) ** 2
        assert restrict(parse("c1^2 - 2*c2"), point, rank) == power_sum
