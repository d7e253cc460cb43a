"""Exact scalar arithmetic over the rationals and the Gaussian rationals.

A rational scalar has one normal form: an integral value is a plain
``int``, and any other value is a ``fractions.Fraction`` whose
denominator is greater than 1.  Nearly every value the certificates
meet is an integer, and an int product or sum runs no gcd and builds no
object.  Equal values print and hash alike in both types (``str(3) ==
str(Fraction(3))``), so the form never shows in a report.
``rational_normal`` stores an integral Fraction as its int.  In Python
``int / int`` is a float, so no quotient of rational scalars is taken
with a bare ``/``: ``exact_quotient`` divides exactly and returns the
quotient in normal form.

A Gaussian scalar ``(a + b*i)/d`` with ``i**2 == -1`` is three Python
ints in normal form: ``d > 0`` and ``gcd(a, b, d) == 1``.  Arithmetic
works on the ints directly: a product is four integer products reduced
by one gcd, which is skipped when the denominator is 1, a sum of equal
denominators adds the numerators, and a quotient multiplies by the
conjugate over the integer norm.  No Fraction is built on the way.
Every operation is exact; nothing here ever rounds.

The two coefficient fields are exposed as the singletons ``QQ`` and ``QI``.
A field object only coerces its elements and names its zero and one;
the elements answer for themselves through ordinary operators: ``not v``
is the zero test and ``str(v)`` formats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class Gaussian:
    """The Gaussian rational ``(a + b*i)/d``, stored as the integer
    triple ``(a, b, d)`` in normal form: ``d > 0`` and
    ``gcd(a, b, d) == 1``, so zero is ``(0, 0, 1)`` and equal values have
    equal triples.  On the real axis equality and hashing agree with
    ``int`` and ``Fraction``.

    Like ``Fraction``, the class is immutable by convention: its public
    attributes are read-only and no method changes the private slots."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re = Fraction(re)
            im = Fraction(im)
            dr, di = re.denominator, im.denominator
            # over the lcm of two reduced denominators the triple is
            # already in normal form
            d = dr * di // gcd(dr, di)
            a = re.numerator * (d // dr)
            b = im.numerator * (d // di)
        self._a = a
        self._b = b
        self._d = d

    def __add__(self, other):
        if type(other) is not Gaussian:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        d = self._d
        d2 = other._d
        if d == d2:
            a = self._a + other._a
            b = self._b + other._b
        else:
            a = self._a * d2 + other._a * d
            b = self._b * d2 + other._b * d
            d *= d2
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        return _gauss(a, b, d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Gaussian:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        return self + _gauss(-other._a, -other._b, other._d)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other + _gauss(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not Gaussian:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        a1, b1 = self._a, self._b
        a2, b2 = other._a, other._b
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        d = self._d * other._d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        return _gauss(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Gaussian:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        a1, b1 = self._a, self._b
        a2, b2, d2 = other._a, other._b, other._d
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # multiply by the conjugate d2 * (a2 - b2*i) over the integer norm
        a = (a1 * a2 + b1 * b2) * d2
        b = (b1 * a2 - a1 * b2) * d2
        d = self._d * n
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        return _gauss(a, b, d)

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Gaussian(1)
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __neg__(self):
        return _gauss(-self._a, -self._b, self._d)

    def __eq__(self, other):
        if type(other) is not Gaussian:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        a, b, d = self._a, self._b, self._d
        if d == 1:
            # an int hashes as the Fraction of the same value
            return hash((a, b)) if b else hash(a)
        if b:
            return hash((Fraction(a, d), Fraction(b, d)))
        return hash(Fraction(a, d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __str__(self):
        """Canonical text form, e.g. ``3/2``, ``-i``, ``1/2+3i``, ``2-1/3i``."""
        re, im = Fraction(self._a, self._d), Fraction(self._b, self._d)
        if im == 0:
            return str(re)
        if im == 1:
            im = "i"
        elif im == -1:
            im = "-i"
        else:
            im = "%si" % im
        if re == 0:
            return im
        if not im.startswith("-"):
            im = "+" + im
        return "%s%s" % (re, im)

    def __repr__(self):
        a, b, d = self._a, self._b, self._d
        return "Gaussian('%s', '%s')" % (Fraction(a, d), Fraction(b, d))


_new = object.__new__


def _gauss(a, b, d):
    """The Gaussian with triple (a, b, d), already in normal form."""
    z = _new(Gaussian)
    z._a = a
    z._b = b
    z._d = d
    return z


def _as_gaussian(v):
    if type(v) is int:
        return _gauss(v, 0, 1)
    if isinstance(v, Gaussian):
        return v
    if isinstance(v, int):
        return _gauss(int(v), 0, 1)
    if isinstance(v, Fraction):
        return _gauss(v.numerator, 0, v.denominator)
    return None


def rational_normal(v):
    """v in the rational normal form: an integral Fraction as its
    numerator, anything else (an int, any other Fraction, a Gaussian) as
    it is."""
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def exact_quotient(a, b):
    """a / b, exactly, for rational scalars or Gaussians: in the rational
    normal form an int when b divides a, else a Fraction; a Gaussian
    quotient is a Gaussian.  A zero b raises ZeroDivisionError."""
    if type(a) is int and type(b) is int:
        if a % b:
            return Fraction(a, b)
        return a // b
    return rational_normal(a / b)


class RationalField:
    """The field of rationals; elements are in the normal form: an int
    for an integral value, else a Fraction with denominator above 1."""

    name = "QQ"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, v):
        if type(v) is int:
            return v
        if isinstance(v, Fraction):
            return v.numerator if v.denominator == 1 else v
        if isinstance(v, int):
            return int(v)
        if isinstance(v, Gaussian) and not v._b:
            return v._a if v._d == 1 else Fraction(v._a, v._d)
        raise TypeError("cannot coerce %r into QQ" % (v,))

    def __repr__(self):
        return "QQ"


class GaussianField:
    """The field of Gaussian rationals; elements are :class:`Gaussian`."""

    name = "QI"

    def zero(self):
        return Gaussian(0)

    def one(self):
        return Gaussian(1)

    def coerce(self, v):
        if type(v) is Gaussian:
            return v
        z = _as_gaussian(v)
        if z is None:
            raise TypeError("cannot coerce %r into QI" % (v,))
        return z

    def __repr__(self):
        return "QI"


QQ = RationalField()
QI = GaussianField()
