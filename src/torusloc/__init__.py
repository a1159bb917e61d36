"""Exact torus-equivariant localization over isolated fixed points.

Evaluates fixed-point localization sums symbolically, verifies that the
rational terms cancel to a polynomial in the equivariant parameters, and
extracts ordinary integrals of characteristic classes, Euler
characteristics, and Chern numbers.
"""

from .action import (
    FixedPoint,
    LocalizationProblem,
    NonGenericDirection,
    ValidationError,
    Weight,
    circle_reduce,
    equivariant_euler,
    validate,
)
from .classexpr import (
    ChernClass,
    Difference,
    EulerClass,
    InhomogeneousExpression,
    IntegerLiteral,
    ParseDiagnostic,
    ParseError,
    Power,
    Product,
    Sum,
    degree,
    parse,
    render,
    restrict,
)
from .exact import (
    FactoredRational,
    NotPolynomialError,
    Polynomial,
    RankMismatch,
    linear_divide,
)
from .localize import (
    DegreeMismatch,
    LocalizationResult,
    check_vanishing,
    euler_characteristic,
    integrate_top,
    localize,
)
from .spaces import product as product_space
from .spaces import projective_space, sphere_rotation

__version__ = "0.1.0"

__all__ = [
    "ChernClass",
    "DegreeMismatch",
    "Difference",
    "EulerClass",
    "FactoredRational",
    "FixedPoint",
    "InhomogeneousExpression",
    "IntegerLiteral",
    "LocalizationProblem",
    "LocalizationResult",
    "NonGenericDirection",
    "NotPolynomialError",
    "ParseDiagnostic",
    "ParseError",
    "Polynomial",
    "Power",
    "Product",
    "RankMismatch",
    "Sum",
    "ValidationError",
    "Weight",
    "check_vanishing",
    "circle_reduce",
    "degree",
    "equivariant_euler",
    "euler_characteristic",
    "integrate_top",
    "linear_divide",
    "localize",
    "parse",
    "product_space",
    "projective_space",
    "render",
    "restrict",
    "sphere_rotation",
    "validate",
]
