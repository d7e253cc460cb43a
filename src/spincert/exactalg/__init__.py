"""Exact arithmetic substrate: scalars, dense univariate and sparse
multivariate polynomials, fraction-free linear algebra, and exact-vector
helpers.  Rational functions are exported too, but no production path
uses them.

Every value class in spincert, here and in the geometry modules, is
immutable by convention, as ``fractions.Fraction`` is.  Its attributes
are bound only in ``__init__``, or on a fresh ``object.__new__``
instance inside the helper that builds it (``MultiPoly._raw``,
``scalars._qi``, ``upoly._upoly``), and no
method rebinds them.  A lazy cache is an entry in a dict that
``__init__`` binds, such as ``HyperCurve._cache``.  No class guards
itself with ``__setattr__``; ``tests/test_immutability.py`` checks the
rule on the source."""

from .linalg import nullspace, proportional, rank, rational_content
from .polys import MultiPoly, PolyRing
from .ratfunc import RatFunc
from .scalars import QI, QQ, Gaussian
from .upoly import UPoly

__all__ = [
    "QQ",
    "QI",
    "Gaussian",
    "PolyRing",
    "MultiPoly",
    "UPoly",
    "RatFunc",
    "rank",
    "nullspace",
    "proportional",
    "rational_content",
]
