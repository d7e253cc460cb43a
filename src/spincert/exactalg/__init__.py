"""Exact arithmetic substrate: scalars, sparse polynomials,
fraction-free linear algebra, and exact-vector helpers.  Rational
functions are exported too, but no production path uses them."""

from .linalg import nullspace, proportional, rank, rational_content
from .polys import MultiPoly, PolyRing
from .ratfunc import RatFunc
from .scalars import QI, QQ, Gaussian

__all__ = [
    "QQ",
    "QI",
    "Gaussian",
    "PolyRing",
    "MultiPoly",
    "RatFunc",
    "rank",
    "nullspace",
    "proportional",
    "rational_content",
]
