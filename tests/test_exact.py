"""Polynomial and factored-rational arithmetic."""

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torusloc import FactoredRational, NotPolynomialError, Polynomial, RankMismatch, Weight, linear_divide
from torusloc.exact import (
    MAX_EXPONENT,
    _effective_coordinates,
    _elementary_symmetric,
    _substitute,
    _times_form,
)

from support import (
    linear_polynomial,
    random_fraction,
    reference_add,
    reference_linear_divide,
    reference_mul,
    specialize,
    variable,
)

u = variable(1, 0)
u1 = variable(2, 0)
u2 = variable(2, 1)
U = (1,)


def form2(a, b):
    return Weight((a, b)).primitive()


# ---------------------------------------------------------------------------
# addition / multiplication / substitution

def test_add_additive_inverse():
    assert not u1 + (-u1)


def test_add_collects_like_terms():
    assert u ** 2 + 3 * u ** 2 == 4 * u ** 2


def test_add_mixed_terms():
    assert (u1 * u2 + 1) + u1 * u2 == 2 * u1 * u2 + 1


def test_add_rank_mismatch():
    with pytest.raises(RankMismatch):
        u + u1


def test_mul_difference_of_squares():
    assert (u1 - u2) * (u1 + u2) == u1 ** 2 - u2 ** 2


def test_mul_by_zero_annihilates():
    p = 2 * u1 ** 2 - u2 + 7
    assert not p * Polynomial.zero(2)


def test_mul_power():
    assert u * u * u == u ** 3


# `specialize` is the tests' reference for circle restriction (criterion 6)

def test_substitute_direct():
    assert specialize(u1 - u2, (2, 1)) == u


def test_substitute_product():
    assert specialize(u1 * u2, (1, 1)) == u ** 2


def test_substitute_kernel():
    assert not specialize(u1 + u2, (1, -1))


def test_substitute_length_check():
    with pytest.raises(RankMismatch):
        specialize(u1, (1,))


# ---------------------------------------------------------------------------
# linear forms

def test_normalize_extracts_content_and_sign():
    form, scalar = form2(-2, 4)
    assert form == (1, -2)
    assert scalar == -2


def test_normalize_rejects_zero_vector():
    for vector in ((0, 0), (0,)):
        with pytest.raises(ValueError):
            Weight(vector).primitive()


@pytest.mark.parametrize(
    "form, error",
    [
        ((0, 0), ValueError),
        ((2, 4), ValueError),
        ((-1, 2), ValueError),
        ((1.0, 2), TypeError),
        ((1, 0, 0), RankMismatch),
    ],
    ids=["zero", "content", "sign", "float", "length"],
)
def test_forms_from_outside_must_be_primitive_int_tuples(form, error):
    p = u1 + u2
    with pytest.raises(error):
        FactoredRational(p, {form: 1})
    with pytest.raises(error):
        linear_divide(p, form)
    # True == 1 with an equal hash, so (True, 0) is accepted; the stored key
    # is the checked tuple of ints, never the caller's
    (key,) = FactoredRational(p, {(True, 0): 1}).denominator
    assert key == (1, 0) and all(type(c) is int for c in key)


def test_proportional_vectors_share_a_form():
    assert form2(1, -1)[0] == form2(-3, 3)[0]


# ---------------------------------------------------------------------------
# exact division by a linear form

def test_linear_divide_factorization():
    form, _ = form2(1, -1)
    assert linear_divide(u1 ** 2 - u2 ** 2, form) == u1 + u2


def test_linear_divide_irreducible():
    form, _ = form2(1, -1)
    assert linear_divide(u1 ** 2 + u2 ** 2, form) is None


def test_linear_divide_zero_dividend():
    form, _ = form2(1, -1)
    assert linear_divide(Polynomial.zero(2), form) == Polynomial.zero(2)


def test_linear_divide_rank_mismatch():
    with pytest.raises(RankMismatch):
        linear_divide(u, form2(1, -1)[0])


# ---------------------------------------------------------------------------
# factored rationals

def test_frac_add_sphere_cancellation():
    # 1/u + 1/(-u) = 0: the two-fixed-point sum with exponents +-1
    plus = FactoredRational(Polynomial.constant(1, 1), {U: 1})
    minus = FactoredRational(Polynomial.constant(1, -1), {U: 1})
    total = plus + minus
    assert total.as_polynomial() == Polynomial.zero(1)


def test_frac_add_like_denominators():
    plus = FactoredRational(Polynomial.constant(1, 1), {U: 1})
    assert plus + plus == FactoredRational(Polynomial.constant(1, 2), {U: 1})


def test_frac_add_rank2_hand_check():
    # u1/(u1-u2) + u2/(u2-u1) over the common denominator (u1-u2) is
    # (u1-u2)/(u1-u2) = 1
    f, _ = form2(1, -1)
    g, gs = form2(-1, 1)
    assert g == f and gs == -1
    left = FactoredRational(u1, {f: 1})
    right = FactoredRational(u2 * Fraction(1, gs), {g: 1})
    assert (left + right).as_polynomial() == Polynomial.constant(2, 1)


def test_as_polynomial_plain():
    assert FactoredRational(2 * u ** 2).as_polynomial() == 2 * u ** 2


def test_as_polynomial_rejects_surviving_denominator():
    fraction = FactoredRational(Polynomial.constant(1, 1), {U: 1})
    with pytest.raises(NotPolynomialError):
        fraction.as_polynomial()


def test_constructor_cancels():
    f, _ = form2(1, -1)
    fraction = FactoredRational((u1 ** 2 - u2 ** 2) * u1, {f: 1})
    assert not fraction.denominator
    assert fraction.numerator == (u1 + u2) * u1


def test_zero_numerator_clears_denominator():
    f, _ = form2(1, -1)
    assert FactoredRational(Polynomial.zero(2), {f: 3}) == FactoredRational.zero(2)


def test_fraction_substitute():
    f, _ = form2(1, -1)
    fraction = FactoredRational(u1 * u2, {f: 1})
    assert specialize(fraction, (2, 1)) == FactoredRational(2 * u)


# ---------------------------------------------------------------------------
# canonical rendering

def test_render_graded_lex():
    assert str(2 * u1 ** 2 * u2 - u2 ** 3 + 5) == "2*u1^2*u2 - u2^3 + 5"


def test_render_zero_and_constants():
    assert str(Polynomial.zero(3)) == "0"
    assert str(Polynomial.constant(2, Fraction(-3, 4))) == "-3/4"


def test_render_unit_coefficients():
    assert str(u1 - u2) == "u1 - u2"
    assert str(-u1) == "-u1"
    assert str(Fraction(1, 2) * u) == "1/2*u1"


def test_normalization_canonicity():
    # same expression assembled in different operation orders
    direct = Polynomial(2, {(2, 0): 1, (0, 2): -1})
    assembled = (u1 - u2) * (u1 + u2)
    other = u1 * u1 - u2 * u2
    assert direct.terms == assembled.terms == other.terms


# ---------------------------------------------------------------------------
# algebraic properties (randomized)

coefficients = st.integers(-9, 9)


def exponent_vectors(rank):
    return st.tuples(*[st.integers(0, 4)] * rank).filter(lambda e: sum(e) <= 4)


def polynomials(rank):
    return st.dictionaries(exponent_vectors(rank), coefficients, max_size=4).map(
        lambda terms: Polynomial(rank, terms)
    )


def poly_triples():
    return st.integers(1, 3).flatmap(
        lambda rank: st.tuples(polynomials(rank), polynomials(rank), polynomials(rank))
    )


def linear_forms(rank, bound=3):
    return (
        st.tuples(*[st.integers(-bound, bound)] * rank)
        .filter(any)
        .map(lambda v: Weight(v).primitive()[0])
    )


def fractions_(rank):
    return st.tuples(
        polynomials(rank),
        st.dictionaries(linear_forms(rank), st.integers(1, 2), max_size=2),
    ).map(lambda pair: FactoredRational(*pair))


@given(poly_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def gapped_polynomials(rank):
    # exponents from a sparse set, so quotients skip pivot degrees
    return st.dictionaries(
        st.tuples(*[st.sampled_from((0, 1, 3, 6))] * rank), coefficients, max_size=4
    ).map(lambda terms: Polynomial(rank, terms))


def quotients(rank):
    return st.one_of(polynomials(rank), gapped_polynomials(rank))


def pivot_free_polynomials(form):
    pivot = next(i for i, c in enumerate(form) if c)
    return polynomials(len(form)).map(
        lambda p: Polynomial(
            p.rank, {e[:pivot] + (0,) + e[pivot + 1 :]: c for e, c in p.terms.items()}
        )
    )


@given(
    st.integers(1, 4).flatmap(
        lambda rank: st.tuples(quotients(rank), linear_forms(rank, 5), st.integers(-4, 4))
    )
)
@example((Polynomial(1, {(9,): 2, (0,): 1}), U, 1))
@example((Polynomial(3, {(6, 1, 0): 1, (1, 0, 3): -2, (0, 0, 0): 5}), (0, 3, -2), 1))
@example((Polynomial(2, {(6, 0): 1, (0, 6): 1}), (5, -3), -2))
def test_linear_divide_round_trip(data):
    quotient, form, scalar = data
    p = quotient * linear_polynomial(form) * scalar
    recovered = linear_divide(p, form)
    assert recovered is not None
    assert recovered * linear_polynomial(form) == p
    assert recovered == quotient * scalar


@given(
    st.integers(1, 4)
    .flatmap(lambda rank: st.tuples(quotients(rank), linear_forms(rank, 5)))
    .flatmap(
        lambda pair: st.tuples(st.just(pair[0]), st.just(pair[1]), pivot_free_polynomials(pair[1]))
    )
    .filter(lambda data: data[2])
)
@example((u ** 4, U, Polynomial.constant(1, 3)))
def test_linear_divide_rejects_pivot_free_remainder(data):
    # q*L + r with r nonzero and free of L's pivot variable is never divisible by L
    quotient, form, remainder = data
    assert linear_divide(quotient * linear_polynomial(form) + remainder, form) is None


@given(st.integers(1, 4).flatmap(lambda rank: st.tuples(quotients(rank), linear_forms(rank, 5))))
def test_times_form_matches_product(data):
    p, form = data
    assert _times_form(p, form) == p * linear_polynomial(form)


@given(st.integers(1, 2).flatmap(lambda rank: st.tuples(fractions_(rank), fractions_(rank))))
@settings(max_examples=60, deadline=None)
def test_frac_add_commutative(pair):
    a, b = pair
    assert a + b == b + a


@given(
    st.integers(1, 2).flatmap(
        lambda rank: st.tuples(fractions_(rank), fractions_(rank), fractions_(rank))
    )
)
@settings(max_examples=40, deadline=None)
def test_frac_add_associative(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)


@given(
    st.integers(1, 3).flatmap(
        lambda rank: st.tuples(
            polynomials(rank),
            polynomials(rank),
            polynomials(rank),
            st.tuples(*[st.integers(-3, 3)] * rank),
        )
    )
)
def test_substitute_is_ring_homomorphism(data):
    a, b, c, xi = data
    assert specialize(a * b + c, xi) == specialize(a, xi) * specialize(b, xi) + specialize(c, xi)


@given(
    st.integers(1, 3).flatmap(
        lambda rank: st.tuples(rational_polynomials(rank), rational_polynomials(rank))
    )
)
def test_render_parse_round_trip(pair):
    # the rendering is faithful: equal text exactly for equal polynomials
    a, b = pair
    for other in (b, a + b - b):
        assert (str(a) == str(other)) == (a == other)


# ---------------------------------------------------------------------------
# canonical coefficients: an int when integral, else a Fraction with
# denominator > 1

def assert_canonical(p):
    for coefficient in p.terms.values():
        assert coefficient != 0
        assert type(coefficient) is int or (
            type(coefficient) is Fraction and coefficient.denominator > 1
        ), repr(coefficient)


rationals = st.one_of(coefficients, st.fractions(-9, 9, max_denominator=6))


def rational_polynomials(rank):
    return st.dictionaries(exponent_vectors(rank), rationals, max_size=4).map(
        lambda terms: Polynomial(rank, terms)
    )


def rational_fractions(rank):
    return st.tuples(
        rational_polynomials(rank),
        st.dictionaries(linear_forms(rank, 5), st.integers(1, 2), max_size=2),
    ).map(lambda pair: FactoredRational(*pair))


@st.composite
def rank_one_images(draw):
    """{j: image} with one kept coordinate j, as `_effective_coordinates`
    returns it: drawn directly (1 at j, anything elsewhere), or from the
    integer kernel of one weight +-w with w primitive in Z^3, whose rank 2
    drops two coordinates."""
    if draw(st.booleans()):
        rank = draw(st.integers(1, 4))
        j = draw(st.integers(0, rank - 1))
        image = [draw(st.integers(-3, 3)) for _ in range(rank)]
        image[j] = 1
        return {j: tuple(image)}
    w = draw(st.tuples(*[st.integers(-4, 4)] * 3).filter(lambda v: gcd(*v) == 1))
    sign = draw(st.sampled_from((1, -1)))
    images = _effective_coordinates({tuple(sign * a for a in w)}, 3)
    assume(len(images) == 1)
    return images


@given(st.dictionaries(st.integers(0, 12), rationals, max_size=5), rank_one_images())
@example({7: 5, 2: -1, 0: Fraction(3, 2)}, {1: (2, 1, -3)})
@example({4: 1}, _effective_coordinates({(2, -1, 3)}, 3))
@settings(deadline=None)
def test_rank_one_substitute_is_each_power_of_the_image(terms, images):
    # the binomial expansion at rank 1 against Polynomial arithmetic
    p = Polynomial(1, {(d,): c for d, c in terms.items()})
    ((_, image),) = images.items()
    v = linear_polynomial(image)
    expected = sum((c * v**d for (d,), c in p.terms.items()), Polynomial.zero(len(image)))
    assert _substitute(p, images) == expected


class TwinIndex:
    # an exponent that dict keys tell apart while Polynomial reads its int
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@given(
    st.integers(1, 3).flatmap(
        lambda rank: st.tuples(
            st.one_of(polynomials(rank), rational_polynomials(rank)),
            rational_polynomials(rank),
            linear_forms(rank, 5),
            st.tuples(*[st.integers(-5, 5)] * rank),
            st.integers(0, 3),
            st.one_of(fractions_(rank), rational_fractions(rank)),
            rational_fractions(rank),
        )
    )
)
@example(
    (
        Polynomial(2, {(1, 0): Fraction(3, 2), (0, 1): Fraction(1, 2)}),
        Polynomial(2, {(1, 0): Fraction(-3, 2)}),
        (3, -2),
        (2, 3),
        2,
        FactoredRational(Polynomial(2, {(0, 0): Fraction(1, 2)}), {(3, -2): 1}),
        FactoredRational(Polynomial(2, {(0, 0): Fraction(5, 2)}), {(3, -2): 1}),
    )
)
@settings(max_examples=80, deadline=None)
def test_arithmetic_keeps_coefficients_canonical(data):
    # no stored coefficient is zero, also where sums cancel to zero on the way
    p, q, form, vector, power, a, b = data
    rank = p.rank
    with_zeros = Polynomial(rank, {**{e: Fraction(0) for e in q.terms}, **p.terms})
    # twin exponent vectors meet in one monomial, where p - q cancels
    twins = {tuple(map(TwinIndex, e)): c for e, c in p.terms.items()}
    twins.update({tuple(map(TwinIndex, e)): -c for e, c in q.terms.items()})
    cancelled = Polynomial(rank, twins)
    assert with_zeros == p and cancelled == p - q
    negated = tuple(-x for x in vector)
    results = [
        with_zeros,
        cancelled,
        Polynomial(rank, {e: c - c for e, c in q.terms.items()}),
        linear_polynomial(form),
        *_elementary_symmetric([vector, form, negated, form], rank, 4),
        p + q,
        p - q,
        p * q,
        -p,
        p ** power,
        specialize(p, vector),
        _times_form(p, vector),
        _times_form(p, form),
        linear_divide(p * linear_polynomial(form), form),
        (a + b).numerator,
    ]
    divided = linear_divide(p, form)
    if divided is not None:
        results.append(divided)
    if all(sum(c * x for c, x in zip(f, vector)) for f in a.denominator):
        results.append(specialize(a, vector).numerator)
    for result in results:
        assert_canonical(result)


def test_integral_fraction_stored_as_int():
    p = Polynomial(2, {(1, 0): Fraction(4, 2)})
    assert type(p.terms[(1, 0)]) is int and p.terms[(1, 0)] == 2
    assert p == Polynomial(2, {(1, 0): 2}) == 2 * u1
    assert hash(p) == hash(2 * u1)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_are_immutable_and_copy_equal(clone):
    p = 2 * u1 ** 2 - Fraction(1, 3) * u2
    f = FactoredRational(p, {(1, -1): 2, (0, 1): 1})
    for value, fields in ((p, ("rank", "_terms")), (f, ("numerator", "denominator"))):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        copied = clone(value)
        assert copied == value and type(copied) is type(value)
    assert hash(clone(p)) == hash(p)


def test_no_float_or_bool_coefficients():
    p = Polynomial(1, {(0,): True})
    assert type(p.terms[(0,)]) is int
    # arithmetic with a bare constant stores it the same way
    for q in (u1 + True, True * u1, u1 - Fraction(4, 2)):
        assert all(type(c) is int for c in q.terms.values())
    assert (u1 + Fraction(1, 2)).terms == {(1, 0): 1, (0, 0): Fraction(1, 2)}
    assert u1 * 0 == Polynomial.zero(2) and not (u1 * 0).terms
    with pytest.raises(TypeError):
        Polynomial(1, {(1,): 0.5})


@pytest.mark.parametrize("coefficient", [0.1, "1/2", Decimal("0.5")])
def test_constructor_takes_what_arithmetic_takes(coefficient):
    # a float, a string or a Decimal is refused by the constructor, as it is
    # by arithmetic, instead of being read through Fraction()
    with pytest.raises(TypeError):
        Polynomial(1, {(1,): coefficient})
    with pytest.raises(TypeError):
        u * coefficient


def test_halves_sum_to_an_int():
    half = Fraction(1, 2) * u
    assert type((half + half).terms[(1,)]) is int


def test_constant_coefficient_is_a_fraction():
    assert type(Polynomial.zero(3).constant_coefficient()) is Fraction
    assert Polynomial.zero(3).constant_coefficient() == 0
    assert type(Polynomial.constant(2, 5).constant_coefficient()) is Fraction


# ---------------------------------------------------------------------------
# packed monomial keys: results decode to what tuple-keyed arithmetic gives

def wide_polynomials(rank):
    # exponents up to 2**30 - 1 in every field, so that products stay valid
    return st.dictionaries(
        st.tuples(*[st.sampled_from((0, 1, 2, 5, 2**30 - 1))] * rank), coefficients, max_size=4
    ).map(lambda terms: Polynomial(rank, terms))


@given(
    st.integers(1, 4).flatmap(
        lambda rank: st.tuples(
            st.one_of(quotients(rank), wide_polynomials(rank)),
            st.one_of(quotients(rank), wide_polynomials(rank)),
            quotients(rank),
            st.one_of(polynomials(rank), rational_polynomials(rank)),
            linear_forms(rank, 5),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_packed_arithmetic_matches_tuple_reference(data):
    a, b, quotient, p, form = data
    assert (a + b).terms == reference_add(a.terms, b.terms)
    assert (a * b).terms == reference_mul(a.terms, b.terms)
    for dividend in (p, quotient * linear_polynomial(form), quotient * linear_polynomial(form) + p):
        expected = reference_linear_divide(dividend.terms, form)
        divided = linear_divide(dividend, form)
        if expected is None:
            assert divided is None
        else:
            assert divided.terms == expected


def test_terms_is_a_decoded_read_only_view():
    p = Polynomial(3, {(2**31 - 1, 0, 4): 3, (0, 0, 0): -1})
    assert p.terms == {(2**31 - 1, 0, 4): 3, (0, 0, 0): -1}
    p.terms[(1, 1, 1)] = 5  # a fresh dict each time: the polynomial is unchanged
    assert (1, 1, 1) not in p.terms
    with pytest.raises(AttributeError):
        p.terms = {}


def test_exponent_limit_in_constructor():
    with pytest.raises(ValueError):
        Polynomial(1, {(2**31,): 1})
    with pytest.raises(ValueError):
        Polynomial(3, {(0, 2**31, 0): 1})
    assert Polynomial(1, {(2**31 - 1,): 1}).terms == {(2**31 - 1,): 1}


def test_crossing_the_exponent_guard_raises():
    top = Polynomial(2, {(2**31 - 1, 0): 1})
    low = Polynomial(2, {(0, 2**31 - 1): 1})
    with pytest.raises(ValueError):
        top * u1
    with pytest.raises(ValueError):
        low * u2  # does not carry into the u1 field
    with pytest.raises(ValueError):
        _times_form(low, (0, 1))
    with pytest.raises(ValueError):
        Polynomial(1, {(2**30,): 1}) ** 2
    with pytest.raises(ValueError):
        specialize(Polynomial(2, {(2**30, 2**30): 1}), (1, 1))
    # raising another variable's exponent is fine
    assert (low * u1).terms == {(1, 2**31 - 1): 1}


@given(st.integers(1, 3).flatmap(polynomials), st.integers(0, 12))
@example(Polynomial.zero(2), 0)
@example(Polynomial.zero(2), 5)
@example(Polynomial.constant(1, Fraction(-2, 3)), 12)
@example(Polynomial.constant(3, 7), 11)
@settings(deadline=None)
def test_power_by_squaring_is_the_repeated_product(p, k):
    product = Polynomial.constant(p.rank, 1)
    for _ in range(k):
        product = product * p
    assert p ** k == product


def test_power_overflow_raises_before_multiplying(monkeypatch):
    # p ** k has the degree k*m in each variable of degree m in p
    assert (u1 ** MAX_EXPONENT).terms == {(MAX_EXPONENT, 0): 1}

    cases = ((u1, MAX_EXPONENT + 1), (u1 + u2, 2**31), (u1 ** 2 - u2, 2**30))

    def refuse(self, other):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    for base, exponent in cases:
        with pytest.raises(ValueError, match="exponent overflow"):
            base ** exponent


# ---------------------------------------------------------------------------
# cancellation of coordinate forms u_j by one key shift

def test_coordinate_form_partial_cancellation():
    fraction = FactoredRational(u ** 5 + 3 * u ** 3, {U: 5})
    assert fraction.numerator == u ** 2 + 3
    assert fraction.denominator == {U: 2}


def test_coordinate_form_full_cancellation():
    fraction = FactoredRational(u ** 7 - 2 * u ** 4, {U: 3})
    assert not fraction.denominator
    assert fraction.numerator == u ** 4 - 2 * u


def test_coordinate_form_zero_numerator_clears_denominator():
    fraction = FactoredRational(Polynomial.zero(3), {(0, 1, 0): 4})
    assert not fraction.numerator and fraction.denominator == {}


def test_coordinate_form_inside_rank3_fraction():
    v1, v2, v3 = (variable(3, i) for i in range(3))
    numerator = v1 * v2 ** 2 * v3 + v2 ** 3 * v3 ** 2 - v1 ** 2 * v2 ** 4 * v3
    u2_form, u3_form, other = (0, 1, 0), (0, 0, 1), (1, 1, 0)
    fraction = FactoredRational(numerator, {u2_form: 3, u3_form: 1, other: 1})
    assert fraction.denominator == {u2_form: 1, other: 1}
    assert fraction.numerator == v1 + v2 * v3 - v1 ** 2 * v2 ** 2
    # the same value as dividing by u2 one power at a time
    expected = numerator.terms
    for form in (u2_form, u2_form, u3_form):
        expected = reference_linear_divide(expected, form)
    assert fraction.numerator.terms == expected
    assert reference_linear_divide(expected, u2_form) is None


def test_coordinate_forms_need_no_linear_divide(monkeypatch):
    def refuse(p, form):
        raise AssertionError(f"linear_divide called for {form}")

    monkeypatch.setattr("torusloc.exact.linear_divide", refuse)
    fraction = FactoredRational(u ** 5 + 3 * u ** 3, {U: 5})
    assert fraction.denominator == {U: 2}


def test_normalize_builds_a_valid_form():
    for vector in ((2, -4), (-3, 0, 6), (0, 0, -7), (5,), (-5,)):
        form, scalar = Weight(vector).primitive()
        assert tuple(scalar * c for c in form) == vector
        # a proportional vector gives an equal key with an equal hash
        twin, _ = Weight(tuple(-3 * c for c in vector)).primitive()
        assert twin == form and hash(twin) == hash(form)
        # the form passes the constructor's full validation unchanged
        one = Polynomial.constant(len(form), 1)
        assert FactoredRational(one, {form: 1}).denominator == {form: 1}


def test_frac_add_randomized_batch():
    rng = random.Random(20240311)
    for _ in range(200):
        rank = rng.randint(1, 3)
        a = random_fraction(rng, rank)
        b = random_fraction(rng, rank)
        assert a + b == b + a


# ---------------------------------------------------------------------------
# a sum divides only by the forms of equal multiplicity in both operands

def lift(p, multiset):
    # p times every form of the multiset, through Polynomial multiplication
    for form, multiplicity in multiset.items():
        p = p * linear_polynomial(form) ** multiplicity
    return p


def sum_cancelled_everywhere(a, b):
    # the reference: lift both numerators to the LCM and let the constructor
    # try every form of it
    lcm = dict(a.denominator)
    for form, multiplicity in b.denominator.items():
        lcm[form] = max(lcm.get(form, 0), multiplicity)
    left = lift(a.numerator, {f: m - a.denominator.get(f, 0) for f, m in lcm.items()})
    right = lift(b.numerator, {f: m - b.denominator.get(f, 0) for f, m in lcm.items()})
    return FactoredRational(left + right, lcm)


def denominator_forms(rank):
    coordinates = st.integers(0, rank - 1).map(
        lambda j: tuple(int(i == j) for i in range(rank))
    )
    return st.one_of(linear_forms(rank), coordinates)


def denominators(rank):
    return st.dictionaries(denominator_forms(rank), st.integers(1, 2), max_size=2)


def cancelling_pairs(rank):
    # (a, b, a + b) with b = (q*(D/D_q) - a's numerator lifted to D) / D for
    # D containing a's denominator, so the sum q/D_q cancels forms of D the
    # operands share; q = 0 makes a zero sum
    def build(data):
        a, extra, q, kept = data
        big = dict(a.denominator)
        for form, multiplicity in extra.items():
            big[form] = big.get(form, 0) + multiplicity
        small = {f: min(m, kept.get(f, 0)) for f, m in big.items()}
        numerator = lift(q, {f: m - small[f] for f, m in big.items()}) - lift(
            a.numerator, {f: m - a.denominator.get(f, 0) for f, m in big.items()}
        )
        return a, FactoredRational(numerator, big), FactoredRational(q, small)

    return st.tuples(
        fractions_(rank), denominators(rank), polynomials(rank), denominators(rank)
    ).map(build)


def frac_pairs(rank):
    independent = st.tuples(fractions_(rank), fractions_(rank)).map(lambda p: (*p, None))
    return st.one_of(independent, cancelling_pairs(rank))


ZERO_SUM_OPERAND = FactoredRational(
    u1 + 3 * u2, {(1, -1): 2, (2, 1): 1, (0, 1): 1}
)


@given(st.integers(1, 3).flatmap(frac_pairs))
@example((ZERO_SUM_OPERAND, -ZERO_SUM_OPERAND, FactoredRational.zero(2)))
@settings(max_examples=150, deadline=None)
def test_frac_add_matches_full_cancellation(data):
    a, b, expected = data
    total = a + b
    assert total == sum_cancelled_everywhere(a, b)
    if expected is not None:
        assert total == expected


def test_frac_add_divides_by_no_form_of_unequal_multiplicity(monkeypatch):
    # L occurs twice in a and once in b, M only in a, N only in b: none of
    # them can divide the sum, so no division is tried
    L, M, N = (1, 1), (1, -1), (1, 2)
    a = FactoredRational(u1 + 3, {L: 2, M: 1})
    b = FactoredRational(u2 - 1, {L: 1, N: 1})
    expected = sum_cancelled_everywhere(a, b)
    calls = []

    def counting(p, form):
        calls.append(form)
        return linear_divide(p, form)

    monkeypatch.setattr("torusloc.exact.linear_divide", counting)
    assert a + b == expected
    assert calls == []


def test_not_polynomial_error_renders_its_message_when_read():
    class Counted:
        renders = 0

        def __str__(self):
            Counted.renders += 1
            return "(1) / (u1)"

    error = NotPolynomialError(Counted())
    assert Counted.renders == 0
    assert str(error) == "denominator factors survive cancellation: (1) / (u1)"
    assert Counted.renders == 1
    fraction = FactoredRational(
        Polynomial(2, {(1, 0): 3}), {(1, -1): 2, (0, 1): 1}
    )
    with pytest.raises(NotPolynomialError) as info:
        fraction.as_polynomial()
    assert info.value.fraction is fraction and info.value.per_point is None
    assert str(info.value) == (
        "denominator factors survive cancellation: (3*u1) / (u2)*(u1 - u2)^2"
    )
