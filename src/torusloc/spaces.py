"""Built-in fixed-point data for standard spaces.

Weight conventions follow complex scalar multiplication: projective-space
points use the standard torus action with all signs +1, and the rotating
sphere is oriented so the north pole's Euler class is +u.  Flipping every
weight (or every reduction direction) leaves all integrals unchanged.  The
records are built by `_raw`: their ints come from here or from checked records.
"""

from __future__ import annotations

import operator

from .action import FixedPoint, LocalizationProblem, Weight


def sphere_rotation():
    """The circle rotating the 2-sphere about its axis.

    Two fixed points, north and south, each with exponent +1; the south
    pole carries sign -1, so the Euler classes are u and -u.
    """
    north = FixedPoint("north", (Weight((1,)),), 1)
    south = FixedPoint("south", (Weight((1,)),), -1)
    return LocalizationProblem(1, 1, (north, south))


def projective_space(n):
    """Complex projective n-space under the standard torus of rank n+1.

    Fixed points p0, ..., pn are the coordinate lines; the tangent weights
    at p_i are u_j - u_i for j != i, all signs +1.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"projective space needs n >= 1, got {n}")
    rank = n + 1
    zeros = (0,) * rank
    points = []
    for i in range(rank):
        minus = zeros[:i] + (-1,) + zeros[i + 1:]  # -u_i
        weights = tuple(
            Weight._raw(minus[:j] + (1,) + minus[j + 1:]) for j in range(rank) if j != i
        )
        points.append(FixedPoint._raw(f"p{i}", weights, 1))
    return LocalizationProblem._raw(rank, n, tuple(points))


def product(a, b):
    """Product action on the product manifold.

    Fixed points are pairs, tangent weights concatenate into disjoint
    variable blocks (rank adds), and orientation signs multiply.
    """
    pad_a, pad_b = (0,) * a.rank, (0,) * b.rank
    left = [tuple(Weight._raw(w.components + pad_b) for w in p.weights) for p in a.points]
    right = [tuple(Weight._raw(pad_a + w.components) for w in p.weights) for p in b.points]
    points = tuple(
        FixedPoint._raw(f"({pa.label},{pb.label})", wa + wb, pa.sign * pb.sign)
        for pa, wa in zip(a.points, left)
        for pb, wb in zip(b.points, right)
    )
    return LocalizationProblem._raw(a.rank + b.rank, a.half_dim + b.half_dim, points)
