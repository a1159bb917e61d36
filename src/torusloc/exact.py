"""Exact arithmetic for multivariate polynomials and factored rational functions.

Polynomials live in Q[u1, ..., ul] where l is the rank of the acting torus.
A coefficient is stored as an `int` when it is integral and as a
`fractions.Fraction` with denominator > 1 otherwise, so all arithmetic is
exact, equality is decidable, and the common all-integer case never pays
for rational arithmetic.  Rational functions are kept with their denominators
factored into primitive integer linear forms (the only denominators that
arise from fixed-point data), which reduces simplification to repeated exact
division by linear forms -- no general multivariate GCD is ever needed.  The
form a1*u1 + ... + al*ul is the tuple (a1, ..., al) of coprime ints whose
first nonzero entry is positive, so proportional weights share one key.  A
sum a/D1 + b/D2 of reduced fractions is divided only by the forms of equal
multiplicity in D1 and D2: a form L with more powers in D1 divides the lifted b
but not the lifted a (L is prime and coprime to the other forms), so not the sum.

Monomials are keyed by one packed int (the packed exponent vectors of
Monagan and Pearce): the exponent of u_i sits in its own 32-bit field, u1 in
the most significant one, so key order is lexicographic order, the product
of two monomials is the sum of their keys and multiplying by u_i adds a
constant.  The top bit of each field is a guard: exponents are at most
2**31 - 1, and an operation whose result crosses a guard raises ValueError
instead of carrying into the next variable.  The packed keys never leave
this module; `Polynomial.terms` decodes them to exponent tuples.  Every sum
of term dicts, from addition to synthetic division, runs through one kernel,
`_accumulate`: it adds a scaled, shifted copy of one dict into another and
deletes a sum as soon as it reaches zero, so no stored term dict ever holds a
zero coefficient.

A localization sum can run in fewer variables than the torus rank: unimodular
column operations give a Z-basis of the weights' integer kernel, and each
basis vector k with an entry k_f = 1 drops the coordinate u_f
(`_effective_coordinates`; a kernel with no entry +-1, such as the span of
(3, -2), drops nothing, as that needs a Hermite-form change of basis).  A
result over the kept coordinates v maps back by the integer substitution
v_j -> u_j - sum_f k_j*u_f (`_substitute`: binomial at one kept coordinate,
Horner above; `_substitute_fraction` keeps a reduced fraction reduced and its
forms canonical).  A localization's terms and its NotPolynomialError's data
are mapped back on their first read only (`_mapped_back`).

Conventions: monomial u1^e1 * ... * ul^el has cohomological degree
2*(e1 + ... + el), and the canonical term order is graded lexicographic with
u1 > u2 > ... > ul.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

_FIELD = 32  # bits per exponent field of a packed key
_FIELD_MASK = (1 << _FIELD) - 1
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1  # the field's top bit is the guard


class RankMismatch(ValueError):
    """Operands built over different torus ranks."""


class NotPolynomialError(Exception):
    """A factored rational that should have cancelled to a polynomial did not.

    Carries the offending fraction in `fraction`, and the per-fixed-point
    terms in `per_point` when raised from a localization sum, over the kept
    coordinates of `images` until the first read of `fraction`, `per_point`,
    `args`, `str`, `repr` or a pickle maps both back to the full rank, once.
    """

    def __init__(self, fraction, per_point=None, images={}):  # read, never mutated
        self._args, self._images = (fraction, per_point), images

    @property
    def args(self):
        return _mapped_back(self, "_args")

    fraction = property(lambda self: self.args[0])
    per_point = property(lambda self: self.args[1])

    def __str__(self):  # rendered on demand: an error replaced unread costs nothing
        return f"denominator factors survive cancellation: {self.fraction}"

    def __repr__(self):
        return f"{type(self).__name__}{self.args!r}"

    def __reduce__(self):
        return type(self), self.args


def _shift(rank, index):
    # bit offset of the field of u_{index+1}; 1 << _shift(...) is its key
    return _FIELD * (rank - 1 - index)


@lru_cache(maxsize=None)
def _invalid_bits(rank):
    # every bit that a valid key of this rank leaves clear: the guard bit of
    # each field and everything above the u1 field
    return ~(MAX_EXPONENT * (((1 << (_FIELD * rank)) - 1) // _FIELD_MASK))


def _encode(exponents):
    key = 0
    for e in exponents:
        key = (key << _FIELD) | e
    return key


def _decode(key, rank):
    # the exponents of u1, ..., ul, field by field from the most significant one
    return tuple((key >> shift) & _FIELD_MASK for shift in range(_shift(rank, 0), -1, -_FIELD))


def _accumulate(result, terms, shift, scale):
    # result += scale * x^shift * terms on packed-key term dicts, in place,
    # where `shift` is the key of the monomial x and `scale` is nonzero; a sum
    # that reaches zero is deleted at once, so `result` stays zero-free
    for key, coefficient in terms.items():
        target = key + shift
        previous = result.get(target)
        if previous is None:
            result[target] = scale * coefficient
        elif total := previous + scale * coefficient:
            result[target] = total
        else:
            del result[target]
    return result


def _canonical(terms, rank):
    # turn integral Fractions into ints, in place; a key past a guard bit is
    # an exponent overflow.  `terms` holds no zero (see _accumulate).
    invalid = _invalid_bits(rank)
    for key, coefficient in terms.items():
        if type(coefficient) is not int and coefficient.denominator == 1:
            terms[key] = coefficient.numerator
        if key & invalid:
            raise ValueError(f"exponent overflow: an exponent exceeds {MAX_EXPONENT}")
    return terms


def _grlex(exponents):
    # graded lexicographic sort key, u1 > u2 > ... > ul
    return (sum(exponents), exponents)


def _check_same_rank(a, b):
    if a.rank != b.rank:
        raise RankMismatch(f"rank {a.rank} vs rank {b.rank}")


class _Record:
    """Base of the package's immutable records.

    The fields are the `__slots__`, set once by position.  `==` and `hash`
    compare the type and the fields named by `_fields` (the slots unless a
    subclass names others), so records of different types never compare
    equal, and `repr` shows those fields.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _raw(cls, *values):
        # internal fast path: the fields are already checked and converted, so
        # the subclass's __init__ is skipped
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    @property
    def _fields(self):
        return self.__slots__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # rebuilt by _raw, so a _Cached cache travels empty
        return type(self)._raw, tuple(getattr(self, name) for name in self.__slots__)


class _Cached(_Record):
    """A record with a cache dict, made on first use; `==`, `repr` and copies skip it."""

    __slots__ = ("_cache",)

    def _cached(self):
        if not hasattr(self, "_cache"):
            object.__setattr__(self, "_cache", {})
        return self._cache


class Polynomial(_Record):
    """Multivariate polynomial over Q in normalized form (no zero terms stored).

    Each term is stored under its packed monomial key (see the module
    docstring), so every exponent is at most MAX_EXPONENT = 2**31 - 1.
    `terms` is a decoded view: a fresh dict mapping exponent tuples of length
    `rank` to nonzero coefficients, each an `int` when integral and otherwise
    a `Fraction` with denominator > 1 (never a float or a bool); the zero
    polynomial is the empty map.  Instances are immutable.
    """

    __slots__ = ("rank", "_terms")

    def __init__(self, rank, terms):
        rank = operator.index(rank)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        clean = {}
        for exponents, coefficient in terms.items():
            exponents = tuple(operator.index(e) for e in exponents)
            if len(exponents) != rank:
                raise ValueError(
                    f"exponent vector {exponents} has length {len(exponents)}, expected {rank}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            if any(e > MAX_EXPONENT for e in exponents):
                raise ValueError(f"exponent above {MAX_EXPONENT} in {exponents}")
            if not isinstance(coefficient, (int, Fraction)):
                raise TypeError(f"coefficient {coefficient!r} is not an int or a Fraction")
            if type(coefficient) is not int:
                coefficient = Fraction(coefficient)
            if coefficient:
                _accumulate(clean, {_encode(exponents): coefficient}, 0, 1)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", _canonical(clean, rank))

    @classmethod
    def _raw(cls, rank, terms):
        # internal fast path: `terms` is a fresh, zero-free dict keyed by packed
        # keys that the new polynomial takes over; it is canonicalized in place.
        # Hot, so it sets the two fields itself rather than by _Record._raw
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", _canonical(terms, rank))
        return self

    @classmethod
    def zero(cls, rank):
        return cls(rank, {})

    @classmethod
    def constant(cls, rank, value):
        return cls(rank, {(0,) * rank: value})

    @property
    def terms(self):
        """{exponent tuple: coefficient}, decoded afresh on every access."""
        rank = self.rank
        return {_decode(key, rank): c for key, c in self._terms.items()}

    def __bool__(self):
        return bool(self._terms)

    def __hash__(self):  # _Record's hash would hash the unhashable term dict
        return hash((self.rank, frozenset(self._terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_same_rank(self, other)
        return Polynomial._raw(self.rank, _accumulate(dict(self._terms), other._terms, 0, 1))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.rank, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a scalar scales each coefficient
            return Polynomial._raw(
                self.rank, {k: other * c for k, c in self._terms.items()} if other else {}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_same_rank(self, other)
        result = {}
        for key, coefficient in other._terms.items():
            _accumulate(result, self._terms, key, coefficient)
        return Polynomial._raw(self.rank, result)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        # by repeated squaring.  p^k has the degree k*m in every variable in
        # which p has the degree m (the leading slice of a power in an integral
        # domain never cancels), so an overflow is known before any product
        exponent = operator.index(exponent)
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        fields = range(0, _FIELD * self.rank, _FIELD)
        largest = max(((key >> f) & _FIELD_MASK for key in self._terms for f in fields), default=0)
        if exponent * largest > MAX_EXPONENT:
            raise ValueError(f"exponent overflow: an exponent exceeds {MAX_EXPONENT}")
        result, base = None, self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return Polynomial._raw(self.rank, {0: 1}) if result is None else result
            base = base * base

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):  # _canonical stores True as the int 1
            return Polynomial._raw(self.rank, {0: other} if other else {})
        return NotImplemented

    def constant_coefficient(self):
        """The coefficient of 1, always as a Fraction."""
        return Fraction(self._terms.get(0, 0))

    def sorted_terms(self):
        """Terms in descending graded-lex order, as (exponents, coefficient)."""
        return sorted(self.terms.items(), key=lambda term: _grlex(term[0]), reverse=True)

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for exponents, coefficient in self.sorted_terms():
            monomial = "*".join(
                f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}"
                for i, e in enumerate(exponents)
                if e
            )
            magnitude = abs(coefficient)
            if not monomial:
                body = str(magnitude)
            elif magnitude == 1:
                body = monomial
            else:
                body = f"{magnitude}*{monomial}"
            pieces.append(("-" if coefficient < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial(rank={self.rank}, {self})"


def _circle_monomial(degree, coefficient):
    # coefficient * u^degree in the rank-1 ring, whose packed key is the exponent
    return Polynomial._raw(1, {degree: coefficient} if coefficient else {})


def _primitive(vector):
    # (form, scalar) for a nonzero integer vector: `form` is the primitive int
    # tuple (coprime entries, the first nonzero one positive) with
    # scalar * form == vector, so proportional vectors share one form
    vector = tuple(map(operator.index, vector))
    if not any(vector):
        raise ValueError("cannot normalize the zero vector")
    content = gcd(*vector)
    scalar = content if next(filter(None, vector)) > 0 else -content
    if scalar != 1:
        vector = tuple(c // scalar for c in vector)
    return vector, scalar


def _checked_form(vector, rank):
    # the primitive int tuple of a form passed in from outside; raises unless
    # `vector` is already primitive and of length `rank`
    form, scalar = _primitive(vector)
    if scalar != 1:
        raise ValueError(f"{vector} is not a primitive linear form")
    if len(form) != rank:
        raise RankMismatch(f"form of length {len(form)} vs rank {rank}")
    return form


def _form_text(form):
    # a1*u1 + ... + al*ul in the canonical polynomial text
    return str(Polynomial._raw(len(form), _add_times({}, {0: 1}, form)))


def _add_times(result, terms, vector):
    # result += terms * (a1*u1 + ... + al*ul) on packed-key term dicts, in
    # place, for an integer vector a
    for j, fj in enumerate(vector):
        if fj:
            _accumulate(result, terms, 1 << _shift(len(vector), j), fj)
    return result


def _check_vector(vector, rank):
    if len(vector) != rank:
        raise RankMismatch(f"vector of length {len(vector)} vs rank {rank}")


def _times_form(p, vector):
    # p * (a1*u1 + ... + al*ul) for an integer vector a of length p.rank
    _check_vector(vector, p.rank)
    return Polynomial._raw(p.rank, _add_times({}, p._terms, vector))


def _symmetric_numbers(entries, top):
    # [E_0, ..., E_m], m = min(top, number of entries): the elementary symmetric
    # numbers of the integers a, by the recurrence E_i += a * E_{i-1} in place
    numbers = [1]
    for a in entries:
        if len(numbers) <= top:
            numbers.append(0)
        for i in range(len(numbers) - 1, 0, -1):
            numbers[i] += a * numbers[i - 1]
    return numbers


def _elementary_symmetric(vectors, rank, top):
    # [e_0, ..., e_m], m = min(top, number of vectors), of the linear forms a.u
    # for the integer vectors a, by the recurrence e_j += e_{j-1} * (a.u) on term
    # dicts in place.  Each point builds its table once (classexpr._point_record,
    # which checks the vectors' length and takes the integer _symmetric_numbers
    # at rank 1 instead)
    table = [{0: 1}]
    for vector in vectors:
        if len(table) <= top:
            table.append({})
        for j in range(len(table) - 1, 0, -1):
            _add_times(table[j], table[j - 1], vector)
    return [Polynomial._raw(rank, terms) for terms in table]


def linear_divide(p, form):
    """Exact division of `p` by a primitive linear form.

    `form` is a primitive coefficient tuple, as `Weight.primitive` returns
    it.  Returns q with q * form == p when the form divides p, and None
    otherwise (a normal outcome, not an error).

    Synthetic division in the form's pivot variable x (its first variable
    with a nonzero coefficient a): write form = a*x + r, where r uses only
    the variables after the pivot, and split p = sum_d p_d x^d and
    q = sum_d q_d x^d into pivot-free slices.  Comparing x^d coefficients of
    p = q * form gives the top-down recurrence

        q_{d-1} = (p_d - r*q_d) / a    for d = D, D-1, ..., 1,

    starting from q_D = 0 at the top pivot degree D of p, and the form
    divides p exactly when the remainder p_0 - r*q_0 is zero.  Where a
    carried slice p_d - r*q_d is zero, every q_e between it and the next
    lower nonzero slice of p is zero, so the recurrence jumps there.  Each
    term of q is produced once and multiplied once by each nonzero
    coefficient of r, so the cost is O(terms(p) + terms(q) * nnz(form)); no
    step rescans the remainder.
    """
    if not isinstance(p, Polynomial):
        raise TypeError(f"expected Polynomial, got {type(p).__name__}")
    coefficients = _checked_form(form, p.rank)
    if not p:
        return p
    pivot = next(i for i, c in enumerate(coefficients) if c)
    lead = coefficients[pivot]
    shift = _shift(p.rank, pivot)
    scale = 1 if lead == 1 else Fraction(1, lead)
    # minus r, so that the carry p_d - r*q_d is one _add_times
    rest = tuple(-c if j != pivot else 0 for j, c in enumerate(coefficients))
    # slices[d]: the terms of p of pivot degree d, keys unchanged
    slices = {}
    for key, coefficient in p._terms.items():
        slices.setdefault((key >> shift) & _FIELD_MASK, {})[key] = coefficient
    lower = iter(sorted(slices, reverse=True))
    degree = next(lower)
    carried = slices[degree]  # p_d - r*q_d at d = degree, where q_d = 0
    quotient = {}
    while degree > 0:
        degree -= 1
        step = _accumulate({}, carried, -(1 << shift), scale)  # q_{degree}
        quotient.update(step)
        carried = _add_times(dict(slices.get(degree, ())), step, rest)
        if not carried:
            degree = next((d for d in lower if d < degree), None)
            if degree is None:
                return Polynomial._raw(p.rank, quotient)
            carried = slices[degree]
    # the remainder p_0 - r*q_0 is nonzero
    return None


def _cancel_coordinate(p, index, multiplicity):
    # (p / u_j^k, k) for u_j = u_{index+1} and the largest k <= multiplicity
    # such that u_j^k divides p: the lowest u_j exponent over p's keys.  Every
    # power of u_j divides the zero polynomial.
    if not p:
        return p, multiplicity
    shift = _shift(p.rank, index)
    k = min(multiplicity, min((key >> shift) & _FIELD_MASK for key in p._terms))
    if not k:
        return p, 0
    drop = k << shift
    return Polynomial._raw(p.rank, {key - drop: c for key, c in p._terms.items()}), k


def _cancel(numerator, multiset, forms):
    # divide each of `forms` out of numerator / multiset (in place) as often as
    # it divides; forms are prime, so any order gives the unique reduced result
    for form in forms:
        if form.count(0) == len(form) - 1:
            # the form is a coordinate u_j: one key shift cancels it
            numerator, cancelled = _cancel_coordinate(numerator, form.index(1), multiset[form])
            multiset[form] -= cancelled
        else:
            while multiset[form] > 0:
                divided = linear_divide(numerator, form)
                if divided is None:
                    break
                numerator = divided
                multiset[form] -= 1
        if multiset[form] == 0:
            del multiset[form]
    return numerator


class FactoredRational(_Record):
    """Rational function numerator / product of linear-form powers.

    Always stored fully cancelled: no denominator form divides the
    numerator.  The denominator is a multiset {form: positive multiplicity}
    keyed by primitive coefficient tuples, as `Weight.primitive` returns
    them; the constructor rejects any other key passed in from outside.
    Content and sign scalars belong in the numerator's coefficients.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator={}, *, _trusted=False):  # {} is never mutated
        if not isinstance(numerator, Polynomial):
            raise TypeError(f"numerator must be a Polynomial, got {type(numerator).__name__}")
        if _trusted:
            # internal path: `denominator` is a fresh {form: multiplicity >= 1} of
            # primitive forms of the numerator's rank, as `Weight.primitive`
            # returns them, and is taken over and cancelled in place
            multiset = denominator
        else:
            multiset = {}
            for form, multiplicity in denominator.items():
                form = _checked_form(form, numerator.rank)
                multiplicity = operator.index(multiplicity)
                if multiplicity < 0:
                    raise ValueError(f"negative multiplicity for {_form_text(form)}")
                if multiplicity:
                    multiset[form] = multiplicity
        object.__setattr__(self, "numerator", _cancel(numerator, multiset, list(multiset)))
        object.__setattr__(self, "denominator", multiset)

    @classmethod
    def _raw(cls, numerator, denominator):
        # internal fast path: numerator / denominator is already fully cancelled.
        # Hot, so it sets the two fields itself rather than by _Record._raw
        self = object.__new__(cls)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        return self

    @classmethod
    def zero(cls, rank):
        return cls(Polynomial.zero(rank))

    @property
    def rank(self):
        return self.numerator.rank

    def as_polynomial(self):
        """The numerator when the denominator is empty; raises otherwise."""
        if self.denominator:
            raise NotPolynomialError(self)
        return self.numerator

    def __add__(self, other):
        if not isinstance(other, FactoredRational):
            return NotImplemented
        _check_same_rank(self, other)
        lcm = dict(self.denominator)
        for form, multiplicity in other.denominator.items():
            lcm[form] = max(lcm.get(form, 0), multiplicity)
        left = self.numerator
        right = other.numerator
        for form, multiplicity in lcm.items():
            for _ in range(multiplicity - self.denominator.get(form, 0)):
                left = _times_form(left, form)
            for _ in range(multiplicity - other.denominator.get(form, 0)):
                right = _times_form(right, form)
        # a form of unequal multiplicities divides one lifted numerator but not
        # the other (operands are reduced), so not the sum: only `shared` can cancel
        shared = [f for f, m in self.denominator.items() if other.denominator.get(f) == m]
        return FactoredRational._raw(_cancel(left + right, lcm, shared), lcm)

    def __neg__(self):
        return FactoredRational._raw(-self.numerator, dict(self.denominator))

    def __sub__(self, other):
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self + (-other)

    __hash__ = None  # the denominator is a dict

    def sorted_denominator(self):
        return sorted(self.denominator.items())

    def __str__(self):
        if not self.denominator:
            return str(self.numerator)
        factors = "*".join(
            f"({_form_text(form)})" + ("" if multiplicity == 1 else f"^{multiplicity}")
            for form, multiplicity in self.sorted_denominator()
        )
        return f"({self.numerator}) / {factors}"

    def __repr__(self):
        return f"FactoredRational({self})"


def _effective_coordinates(vectors, rank):
    # The coordinates a sum over these integer vectors can do without.
    # Coordinate f can be dropped when an integer kernel vector k of the
    # vectors has k[f] == 1 and is 0 at every other dropped coordinate: then
    # v[f] = -sum(k[j]*v[j]) over the kept coordinates j, for every vector v.
    # Returns {j: image_j} over the kept j, in order, where image_j is 1 at j
    # and -k[j] at each dropped f, so that v_j -> image_j . u sends the form
    # of a vector over the kept coordinates to its form over all of them; {}
    # when no coordinate can be dropped.  Euclid on each vector's pairings
    # with the identity columns (subtract multiples of the column pairing
    # least) leaves one column pairing nonzero, which is deleted: the rest
    # are a Z-basis of the kernel.  Each basis vector in turn, cleared at the
    # coordinates already dropped, then drops its last entry +-1.
    kernel = [[int(i == j) for i in range(rank)] for j in range(rank)]
    for vector in vectors:
        pairings = [sum(map(operator.mul, vector, k)) for k in kernel]
        live = [i for i, p in enumerate(pairings) if p]
        while len(live) > 1:
            least = min(live, key=lambda i: abs(pairings[i]))
            for i in live:
                if i != least:
                    q = pairings[i] // pairings[least]
                    kernel[i] = [x - q * y for x, y in zip(kernel[i], kernel[least])]
                    pairings[i] -= q * pairings[least]
            live = [i for i in live if pairings[i]]
        if live:
            del kernel[live[0]]
    dropped = {}  # f -> k, with k[f] == 1 and k[g] == 0 at every other dropped g
    for k in kernel:
        for f, other in dropped.items():
            m = k[f]
            k = [x - m * y for x, y in zip(k, other)]
        f = next((j for j in reversed(range(rank)) if k[j] in (1, -1)), None)
        if f is not None:
            k = [c * k[f] for c in k]
            for g, other in dropped.items():
                m = other[f]
                dropped[g] = [x - m * y for x, y in zip(other, k)]
            dropped[f] = k
    if not dropped:
        return {}
    images = {}
    for j in range(rank):
        if j not in dropped:
            image = [0] * rank
            image[j] = 1
            for f, k in dropped.items():
                image[f] = -k[j]
            images[j] = tuple(image)
    return images


def _substitute(p, images):
    # p(v_1, ..., v_r) at v_i = image . u for the i-th (kept coordinate j,
    # image) of `images` (see _effective_coordinates), a polynomial of the
    # full rank; p itself when `images` is {}.  image = u_j + b, b over dropped
    # coordinates only.  At r = 1, c_d*(u_j + b)^d expands by the binomial
    # theorem over b's powers, built once.  Above it, where that costs more,
    # v_i moves to the field of u_j, then u_j -> image . u by Horner's rule.
    if not images:
        return p
    rank = len(next(iter(images.values())))
    if p.rank == 1:
        ((j, image),) = images.items()
        b = tuple(0 if i == j else a for i, a in enumerate(image))
        powers = [{0: 1}]  # b^i; a rank-1 key is its exponent
        for _ in range(max(p._terms, default=0)):
            powers.append(_add_times({}, powers[-1], b))
        terms, shift = {}, _shift(rank, j)
        for d, coefficient in p._terms.items():
            for i in range(d + 1):
                _accumulate(terms, powers[i], (d - i) << shift, coefficient * comb(d, i))
        return Polynomial._raw(rank, terms)
    moves = [(_shift(p.rank, i), _shift(rank, j)) for i, j in enumerate(images)]
    terms = {}
    for key, coefficient in p._terms.items():
        terms[sum(((key >> old) & _FIELD_MASK) << new for old, new in moves)] = coefficient
    for j, image in images.items():
        shift = _shift(rank, j)
        slices = {}  # exponent d of u_j -> the terms with u_j^d, u_j^d removed
        for key, coefficient in terms.items():
            d = (key >> shift) & _FIELD_MASK
            slices.setdefault(d, {})[key - (d << shift)] = coefficient
        terms = {}
        for d in range(max(slices, default=0), -1, -1):
            terms = _accumulate(_add_times({}, terms, image), slices.get(d, {}), 0, 1)
    return Polynomial._raw(rank, terms)


def _substitute_fraction(fraction, images):
    # _substitute on a reduced fraction, which stays reduced: each form maps to
    # a primitive vector (its kept entries are the old ones), so `_primitive`
    # only fixes its sign, and the numerator changes sign once for each form
    # negated at an odd multiplicity
    if not images:
        return fraction
    numerator = _substitute(fraction.numerator, images)
    denominator = {}
    negate = False
    for form, multiplicity in fraction.denominator.items():
        full = [0] * numerator.rank
        for a, image in zip(form, images.values()):
            if a:
                full = [x + a * y for x, y in zip(full, image)]
        full, sign = _primitive(full)
        negate ^= sign < 0 and multiplicity % 2 == 1
        denominator[full] = multiplicity
    return FactoredRational._raw(-numerator if negate else numerator, denominator)


def _substitute_all(value, images):
    # _substitute_fraction on each fraction in a tuple tree; labels and None pass
    if isinstance(value, tuple):
        return tuple(_substitute_all(item, images) for item in value)
    return _substitute_fraction(value, images) if isinstance(value, FactoredRational) else value


def _mapped_back(owner, name):
    # owner.<name>, held over the coordinates that owner._images keeps ({}:
    # all of them) until this first read maps it back to the full rank, once
    if owner._images:
        object.__setattr__(owner, name, _substitute_all(getattr(owner, name), owner._images))
        object.__setattr__(owner, "_images", {})
    return getattr(owner, name)
