"""Engine-free expected answers for the benchmark's calls.

Nothing here imports torusloc.  Polynomials are plain dicts mapping
exponent tuples to int or Fraction coefficients, with no zero entries, so a
result from the engine matches when `dict(result.terms) == expected`.

- Chern numbers of CP^n and of products of them: the total Chern class is
  prod_i (1 + h_i)^(n_i + 1) with h_i^(n_i + 1) = 0, and the integral of a
  monomial in the c_k is its coefficient of prod_i h_i^(n_i).
- Polynomial-valued integrals of c1^k over CP^n at full rank: the
  divided-difference identity
      sum_i f(u_i) / prod_{j != i} (u_i - u_j) = sum_m f_m h_{m-n}(u),
  with h the complete homogeneous symmetric polynomial.
- Text the command line prints: the canonical polynomial and factored
  fraction renderings, rebuilt from the same closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb


def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples, largest parts first."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def chern_expr(partition):
    return "*".join(f"c{k}" for k in partition)


def _unit(rank, index, power=1):
    return tuple(power if i == index else 0 for i in range(rank))


def poly_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        total = out.get(e, 0) + scale * c
        if total:
            out[e] = total
        else:
            out.pop(e, None)
    return out


def poly_mul(a, b, bounds=None):
    """Product of two dict polynomials; drops monomials above `bounds`."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if bounds is not None and any(x > n for x, n in zip(e, bounds)):
                continue
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def chern_number(dims, partition):
    """Integral of c_{l1} * c_{l2} * ... over CP^{dims[0]} x CP^{dims[1]} x ..."""
    rank = len(dims)
    total = {(0,) * rank: 1}
    for i, n in enumerate(dims):
        factor = {_unit(rank, i, k): comb(n + 1, k) for k in range(n + 1)}
        total = poly_mul(total, factor, dims)
    graded = {}
    for e, c in total.items():
        graded.setdefault(sum(e), {})[e] = c
    product = {(0,) * rank: 1}
    for k in partition:
        product = poly_mul(product, graded.get(k, {}), dims)
    return product.get(tuple(dims), 0)


def complete_homogeneous(degree, rank):
    """h_degree(u_1, ..., u_rank): every monomial of that degree, coefficient 1."""
    if degree < 0:
        return {}
    out = {}
    for combo in combinations_with_replacement(range(rank), degree):
        e = [0] * rank
        for i in combo:
            e[i] += 1
        out[tuple(e)] = 1
    return out


def c1_power_on_projective_space(n, k):
    """The localization value of c1^k over CP^n at full rank n + 1.

    At the point p_i, c1 = s - (n+1) u_i with s = u_1 + ... + u_{n+1}, and
    the Euler class is (-1)^n prod_{j != i} (u_i - u_j).  Expanding
    f(x) = (s - (n+1) x)^k in x and applying the divided-difference
    identity gives (-1)^n sum_m C(k, m) (-(n+1))^m s^(k-m) h_{m-n}(u).
    """
    rank = n + 1
    linear = {_unit(rank, i): 1 for i in range(rank)}
    sums = [{(0,) * rank: 1}]
    for _ in range(k):
        sums.append(poly_mul(sums[-1], linear))
    value = {}
    for m in range(n, k + 1):
        coefficient = comb(k, m) * (-(n + 1)) ** m * (-1) ** n
        term = poly_mul(sums[k - m], complete_homogeneous(m - n, rank))
        value = poly_add(value, term, coefficient)
    return value


# ---------------------------------------------------------------------------
# command-line text

def render_polynomial(poly):
    """Canonical text: graded-lex descending, `2*u1^2 - 4*u1*u2 + 2*u2^2`."""
    if not poly:
        return "0"
    pieces = []
    for e in sorted(poly, key=lambda e: (sum(e), e), reverse=True):
        coefficient = Fraction(poly[e])
        monomial = "*".join(
            f"u{i + 1}" if x == 1 else f"u{i + 1}^{x}" for i, x in enumerate(e) if x
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


def projective_document(n, flipped=()):
    """A problem file for CP^n under the standard torus; `flipped` points get sign -1."""
    rank = n + 1
    return {
        "format": 1,
        "torus_rank": rank,
        "half_dim": n,
        "fixed_points": [
            {
                "name": f"p{i}",
                "weights": [
                    [(1 if x == j else 0) - (1 if x == i else 0) for x in range(rank)]
                    for j in range(rank)
                    if j != i
                ],
                "sign": -1 if i in flipped else 1,
            }
            for i in range(rank)
        ],
    }


def _projective_point_term(n, k, i, sign=1):
    """(numerator, [form vectors]) of c1^k / euler at p_i of CP^n, for n >= 2.

    The weight u_j - u_i normalizes to a form whose first nonzero entry is
    +1, so its scalar is -1 exactly when j > i; the numerator carries the
    inverse of the product of those scalars.  For n >= 2 no form divides
    (s - (n+1) u_i)^k, so nothing cancels.
    """
    rank = n + 1
    linear = {_unit(rank, j): 1 for j in range(rank)}
    linear = poly_add(linear, {_unit(rank, i): 1}, -(n + 1))
    numerator = {(0,) * rank: sign * (-1) ** (n - i)}
    for _ in range(k):
        numerator = poly_mul(numerator, linear)
    forms = []
    for j in range(rank):
        if j == i:
            continue
        low, high = min(i, j), max(i, j)
        forms.append(tuple(1 if x == low else -1 if x == high else 0 for x in range(rank)))
    return numerator, sorted(forms)


def _form_text(vector):
    return render_polynomial({_unit(len(vector), i): c for i, c in enumerate(vector) if c})


def projective_point_lines(n, k, flipped=()):
    """The `--terms` lines `p_i: (numerator) / (form)*(form)` for c1^k over CP^n."""
    lines = []
    for i in range(n + 1):
        numerator, forms = _projective_point_term(n, k, i, -1 if i in flipped else 1)
        factors = "*".join(f"({_form_text(f)})" for f in forms)
        lines.append(f"p{i}: ({render_polynomial(numerator)}) / {factors}")
    return lines


def projective_top_json(n):
    """The `integrate --expr c1^n --top --json --terms` document for CP^n, n >= 2."""
    value = chern_number((n,), (1,) * n)
    per_point = []
    for i in range(n + 1):
        numerator, forms = _projective_point_term(n, n, i)
        per_point.append(
            {
                "name": f"p{i}",
                "numerator": render_polynomial(numerator),
                "denominator": [{"form": _form_text(f), "power": 1} for f in forms],
            }
        )
    return {
        "format": 1,
        "status": "polynomial",
        "value": str(value),
        "value_terms": [
            {"exponents": [0] * (n + 1), "numerator": value, "denominator": 1}
        ],
        "expr": f"c1^{n}",
        "per_point": per_point,
    }
