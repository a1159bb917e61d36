"""Torus actions with isolated fixed points: weights, signs, validation.

A fixed point of a rank-l torus action on a 2n-manifold carries n nonzero
integer weight vectors (the characters of the tangent representation) and an
orientation sign.  The weights are individually defined only up to sign;
the sign field pins down the orientation relative to the listed
representatives, so that sign * product(weights) -- the equivariant Euler
class of the point's tangent space -- is well defined.
"""

from __future__ import annotations

import operator

from .exact import Polynomial, _Cached, _primitive, _Record, _times_form


class ValidationError(Exception):
    """One or more problem invariants are violated; lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NonGenericDirection(Exception):
    """A reduction direction annihilates some tangent weight."""

    def __init__(self, label, weight):
        self.label = label
        self.weight = weight
        super().__init__(
            f"direction is not generic: weight {weight.components} at point "
            f"{label!r} pairs to zero"
        )


class Weight(_Record):
    """A tangent weight: an integer vector of length equal to the torus rank.

    Must be nonzero for a genuinely isolated fixed point; zero vectors are
    representable so that `validate` can report them.
    """

    __slots__ = ("components",)

    def __init__(self, components):
        _Record.__init__(self, tuple(map(operator.index, components)))

    @property
    def rank(self):
        return len(self.components)

    @property
    def is_zero(self):
        return not any(self.components)

    def primitive(self):
        """(form, integer scalar) with scalar * form == components, where
        `form` is the primitive int tuple that keys a FactoredRational."""
        return _primitive(self.components)

    def negated(self):
        return Weight(tuple(-c for c in self.components))


def _as_weight(value):
    return value if isinstance(value, Weight) else Weight(tuple(value))


class FixedPoint(_Cached):
    """A labeled isolated fixed point with tangent weights and orientation sign."""

    __slots__ = ("label", "weights", "sign")

    def __init__(self, label, weights, sign):
        _Record.__init__(self, label, tuple(map(_as_weight, weights)), operator.index(sign))


class LocalizationProblem(_Cached):
    """A rank-l torus acting on a compact oriented 2n-manifold, fixed points only.

    `rank` is the number of circle factors l >= 1, `half_dim` is n >= 0, and
    every point must carry exactly n weights of length l.  half_dim == 0 is
    allowed: the empty weight product is 1 and localization degenerates to
    sign-weighted evaluation at the points.
    """

    __slots__ = ("rank", "half_dim", "points")

    def __init__(self, rank, half_dim, points):
        _Record.__init__(self, operator.index(rank), operator.index(half_dim), tuple(points))

    @property
    def dimension(self):
        return 2 * self.half_dim


def validate(problem):
    """Check every invariant of a LocalizationProblem, reporting all violations.

    Raises ValidationError carrying the full list; returns None when valid.
    """
    problems = []
    if problem.rank < 1:
        problems.append(f"torus rank must be >= 1, got {problem.rank}")
    if problem.half_dim < 0:
        problems.append(f"half-dimension must be >= 0, got {problem.half_dim}")
    if not problem.points:
        problems.append("fixed point list is empty")
    seen = set()
    for point in problem.points:
        if point.label in seen:
            problems.append(f"duplicate label {point.label!r}")
        seen.add(point.label)
        if point.sign not in (1, -1):
            problems.append(f"sign of point {point.label!r} is {point.sign}, expected +1 or -1")
        if len(point.weights) != problem.half_dim:
            problems.append(
                f"point {point.label!r} has {len(point.weights)} weights, "
                f"expected {problem.half_dim}"
            )
        for index, weight in enumerate(point.weights):
            if weight.rank != problem.rank:
                problems.append(
                    f"weight {index} of point {point.label!r} has length "
                    f"{weight.rank}, expected {problem.rank}"
                )
            elif weight.is_zero:
                problems.append(f"zero weight at point {point.label!r} (index {index})")
    if problems:
        raise ValidationError(problems)


def _check_nonzero_weights(point):
    for weight in point.weights:
        if not any(weight.components):
            raise ValueError(f"zero weight at point {point.label!r}")


def equivariant_euler(point, rank):
    """Equivariant Euler class of the tangent space at a fixed point.

    sign * product of the weights as degree-2 classes; a nonzero homogeneous
    polynomial of cohomological degree 2n in the rank-`rank` ring.
    """
    _check_nonzero_weights(point)
    result = Polynomial.constant(rank, point.sign)
    for weight in point.weights:
        result = _times_form(result, weight.components)
    return result


def circle_reduce(problem, direction):
    """Restrict a rank-l problem to the circle subgroup along `direction`.

    Every weight w becomes the single exponent <w, direction>; labels and
    signs are unchanged.  The direction must be generic: a zero pairing
    would put 0 into a localization denominator, so it is rejected eagerly
    via NonGenericDirection naming the first annihilated weight.

    The problem's cache keeps the last reduction, one (direction, reduced)
    entry, until a call with another direction replaces it: a repeated
    direction returns the same reduced problem, whose own cache keeps its
    preparation.  A failed reduction is never kept.
    """
    direction = tuple(operator.index(x) for x in direction)
    rank = len(direction)
    if rank != problem.rank:
        raise ValueError(f"direction has length {rank}, problem has rank {problem.rank}")
    cache = problem._cached()
    last = cache.get("circle")
    if last is not None and last[0] == direction:
        return last[1]
    reduced = []
    images = {}  # pairing -> its rank-1 Weight: one immutable record per distinct pairing
    for point in problem.points:
        exponents = []
        for weight in point.weights:
            if len(weight.components) != rank:  # an unvalidated problem: zip would truncate
                raise ValueError(f"direction has length {rank}, weight has rank {weight.rank}")
            value = sum(map(operator.mul, weight.components, direction))
            if value == 0:
                raise NonGenericDirection(point.label, weight)
            image = images.get(value)
            if image is None:
                image = images[value] = Weight._raw((value,))
            exponents.append(image)
        reduced.append(FixedPoint._raw(point.label, tuple(exponents), point.sign))
    reduced = LocalizationProblem._raw(1, problem.half_dim, tuple(reduced))
    cache["circle"] = direction, reduced
    return reduced
