"""Independent Chern-number oracle for projective space.

The total Chern class of CP^n is (1+H)^(n+1) with H the hyperplane class
and integral of H^n equal to 1, so a monomial prod c_k^{a_k} of total
degree n integrates to prod C(n+1, k)^{a_k}.  Computed here from binomial
coefficients alone, with no reference to the localization engine.
"""

from math import comb


def degree_n_monomials(n):
    """All exponent tuples (a_1, ..., a_n) with sum k*a_k == n."""

    def rec(k, remaining):
        if k > n:
            if remaining == 0:
                yield ()
            return
        for a in range(remaining // k + 1):
            for rest in rec(k + 1, remaining - k * a):
                yield (a,) + rest

    yield from rec(1, n)


def chern_number_oracle(n, exponents):
    value = 1
    for k, a in enumerate(exponents, start=1):
        value *= comb(n + 1, k) ** a
    return value


def c1_power_on_projective_line(k):
    """The equivariant integral of c1^k over CP^1, as {exponents: coefficient}.

    The fixed points carry the tangent weights -t and t, t = u1 - u2, so the
    sum (-t)^k/(-t) + t^k/t is 2*t^(k-1) for odd k and 0 for even k.
    """
    if k % 2 == 0:
        return {}
    m = k - 1
    return {(m - i, i): 2 * (-1) ** i * comb(m, i) for i in range(m + 1)}


def test_oracle_sanity():
    assert list(degree_n_monomials(1)) == [(1,)]
    assert sorted(degree_n_monomials(2)) == [(0, 1), (2, 0)]
    assert chern_number_oracle(2, (2, 0)) == 9
    assert chern_number_oracle(2, (0, 1)) == 3
    assert chern_number_oracle(3, (1, 1, 0)) == 24
    # the top Chern class integrates to the Euler characteristic
    for n in range(1, 6):
        top = tuple(0 if k < n else 1 for k in range(1, n + 1))
        assert chern_number_oracle(n, top) == n + 1
    assert c1_power_on_projective_line(1) == {(0, 0): 2}
    assert c1_power_on_projective_line(2) == {}
    assert c1_power_on_projective_line(3) == {(2, 0): 2, (1, 1): -4, (0, 2): 2}
