"""Exact scalar arithmetic over the rationals and the Gaussian rationals.

A rational scalar has one normal form: an integral value is a plain
``int``, and any other value is a ``fractions.Fraction`` whose
denominator is greater than 1.  Nearly every value the certificates
meet is an integer, and an int product or sum runs no gcd and builds no
object.  Equal values print and hash alike in both types (``str(3) ==
str(Fraction(3))``), so the form never shows in a report.
``rational_normal`` stores an integral Fraction as its int.  In Python
``int / int`` is a float, so no quotient of rational or Gaussian
scalars is taken with a bare ``/``: ``exact_quotient`` divides exactly
and returns the quotient in normal form.

A Gaussian rational ``(a + b*i)/d`` with ``i**2 == -1`` is three
Python ints in normal form: ``d > 0`` and ``gcd(a, b, d) == 1``.  A
Gaussian scalar extends the rational normal form to Q(i): a value with
imaginary part 0 is an int or a Fraction as above, and any other value
is a ``Gaussian`` with ``b != 0``.  Every Gaussian sum, difference,
product and quotient hands out that form through one private
constructor, so a real result such as ``i * i`` is the int -1, and the
real coefficients of Q(i) polynomials (most of them) run on native ints.
Arithmetic works on the ints directly: a product is four integer
products reduced by one gcd, which is skipped when the denominator is
1, a sum of equal denominators adds the numerators, and a quotient
multiplies by the conjugate over the integer norm.  Those three end in
one helper, ``_reduced``, which divides any integer triple by its gcd
and hands out the normal form; the term sums of ``instanton`` add
unreduced triples and end there too.  An int operand of a
sum or product takes a shorter path.  No Fraction is built on the way
but for a real result with a denominator.  Every operation is exact;
nothing here ever rounds.

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
    ``gcd(a, b, d) == 1``, so equal values have equal triples.  On the
    real axis equality and hashing agree with ``int`` and ``Fraction``.

    ``Gaussian(re, im)`` builds a Gaussian for any value, a real one
    included; every result of ``+``, ``-``, ``*`` and ``/`` is a Q(i)
    scalar in normal form, so a real result is an int or a Fraction.

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
        if type(other) is int:
            # (a + b*i)/d + k: the numerator a + k*d keeps the gcd 1
            d = self._d
            return _qi(self._a + other * d, self._b, d)
        if type(other) is Gaussian:
            return _sum(self._a, self._b, self._d, other._a, other._b, other._d)
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, *t)

    __radd__ = __add__

    def __sub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        a, b, d = t
        return _sum(self._a, self._b, self._d, -a, -b, d)

    def __rsub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _sum(*t, -self._a, -self._b, self._d)

    def __mul__(self, other):
        a1, b1, d = self._a, self._b, self._d
        if type(other) is int:
            # k (a + b*i)/d: only k and d can share a factor
            if d != 1:
                g = gcd(other, d)
                if g != 1:
                    other //= g
                    d //= g
            return _qi(a1 * other, b1 * other, d)
        if type(other) is Gaussian:
            a2, b2, d2 = other._a, other._b, other._d
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            a2, b2, d2 = t
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _quotient(self._a, self._b, self._d, *t)

    def __rtruediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _quotient(*t, self._a, self._b, self._d)

    def __neg__(self):
        return _qi(-self._a, -self._b, self._d)

    def __eq__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return (self._a, self._b, self._d) == t

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

# the types a scalar of either normal form has, for the isinstance tests
# of polynomial, rational function, entry and multivector arithmetic
_SCALARS = (int, Fraction, Gaussian)


def _qi(a, b, d):
    """The Q(i) scalar (a + b*i)/d, for a triple already in normal form,
    in the Q(i) normal form: a Gaussian when b is nonzero, else the int
    a when d is 1, else the Fraction a/d."""
    if b:
        z = _new(Gaussian)
        z._a = a
        z._b = b
        z._d = d
        return z
    if d == 1:
        return a
    return Fraction(a, d)


def _reduced(a, b, d):
    """The Q(i) scalar (a + b*i)/d, for any integer triple with d > 0, in
    the Q(i) normal form: the triple is divided by gcd(a, b, d), which is
    skipped when d is 1, and handed to ``_qi``.  Gaussian sums, quotients
    and products by a non-int factor end here, and so do the term sums of
    the ``instanton`` kernel, which add unreduced triples."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _qi(a, b, d)


def _triple(v):
    """The normal-form triple (a, b, d) of a Q(i) scalar: a Gaussian, an
    int or a Fraction; None for anything else, a bool among them, which
    would otherwise read as 0 or 1."""
    if type(v) is Gaussian:
        return v._a, v._b, v._d
    if type(v) is int:
        return v, 0, 1
    if isinstance(v, Fraction):
        return v.numerator, 0, v.denominator
    if isinstance(v, int) and type(v) is not bool:
        return int(v), 0, 1
    return None


def _sum(a1, b1, d1, a2, b2, d2):
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2 in the Q(i) normal form."""
    if d1 == d2:
        return _reduced(a1 + a2, b1 + b2, d1)
    return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _quotient(a1, b1, d1, a2, b2, d2):
    """(a1 + b1*i)/d1 / ((a2 + b2*i)/d2) in the Q(i) normal form."""
    n = a2 * a2 + b2 * b2
    if not n:
        raise ZeroDivisionError("division by zero Gaussian rational")
    # multiply by the conjugate d2 * (a2 - b2*i) over the integer norm
    return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)


def rational_normal(v):
    """v in the rational normal form: an integral Fraction as its
    numerator, anything else (an int, any other Fraction, a Gaussian) as
    it is."""
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def exact_quotient(a, b):
    """a / b, exactly, for Q(i) scalars in normal form: an int when b
    divides a, else a Fraction or, for a non-real quotient, a Gaussian.
    A zero b raises ZeroDivisionError."""
    if type(a) is int and type(b) is int:
        if a % b:
            return Fraction(a, b)
        return a // b
    return rational_normal(a / b)


def _real(v, field):
    """A real scalar (an int, a Fraction, or a Gaussian on the real
    axis) in the rational normal form; anything else, a bool included,
    is a TypeError."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, Gaussian) and not v._b:
        return _qi(v._a, 0, v._d)
    raise TypeError("cannot coerce %r into %s" % (v, field.name))


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
        return _real(v, self)


class GaussianField:
    """The field of Gaussian rationals; elements are in the normal form:
    a real value as in ``QQ``, any other value a :class:`Gaussian`."""

    name = "QI"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, v):
        if type(v) is int or type(v) is Gaussian and v._b:
            return v
        return _real(v, self)


QQ = RationalField()
QI = GaussianField()
