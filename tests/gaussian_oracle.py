"""The pair-of-Fractions Gaussian rational that ``spincert.exactalg``
used before it stored ``(a + b*i)/d`` as three ints, kept unchanged as
the oracle for the differential tests in ``test_exactalg.py``: every
component is a ``fractions.Fraction`` and every operation goes through
Fraction arithmetic, so it shares no code with the integer kernel.
``parts`` and ``in_normal_form`` read the kernel's Q(i) scalars for the
tests."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from spincert.exactalg import Gaussian as KernelGaussian

_RAT_TYPES = (int, Fraction)


class Gaussian:
    """A Gaussian rational ``re + im*i`` with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Gaussian scalars are immutable")

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    def conjugate(self):
        return Gaussian(self.re, -self.im)

    def norm2(self):
        # re^2 + im^2, a nonnegative rational; zero iff self is zero
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return Gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return Gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c = other.conjugate()
        return Gaussian(
            (self.re * c.re - self.im * c.im) / n,
            (self.re * c.im + self.im * c.re) / n,
        )

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
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return format_gaussian(self)

    def __repr__(self):
        return "Gaussian(%r, %r)" % (str(self.re), str(self.im))


def _as_gaussian(v):
    if isinstance(v, Gaussian):
        return v
    if isinstance(v, _RAT_TYPES):
        return Gaussian(v)
    return None


def format_gaussian(z: Gaussian) -> str:
    """Canonical text form, e.g. ``3/2``, ``-i``, ``1/2+3i``, ``2-1/3i``."""
    if z.im == 0:
        return str(z.re)
    if z.im == 1:
        im = "i"
    elif z.im == -1:
        im = "-i"
    else:
        im = "%si" % z.im
    if z.re == 0:
        return im
    if not im.startswith("-"):
        im = "+" + im
    return "%s%s" % (z.re, im)


def parts(z):
    """(re, im) as Fractions of a Q(i) scalar of ``spincert.exactalg``
    in any form: an int or a Fraction is real, and a Gaussian
    ``(a + b*i)/d`` is read off its integer triple."""
    if isinstance(z, _RAT_TYPES):
        return Fraction(z), Fraction(0)
    return Fraction(z._a, z._d), Fraction(z._b, z._d)


def in_normal_form(z):
    """Whether z is a Q(i) scalar in the kernel's normal form: an int, a
    Fraction with denominator above 1, or a Gaussian with a nonzero
    imaginary part whose triple ``(a, b, d)`` has ``d > 0`` and
    ``gcd(a, b, d) == 1`` (never a float, an integral Fraction, a real
    Gaussian or an unreduced triple, which would compare unequal to the
    reduced triple of the same value)."""
    if type(z) is KernelGaussian:
        return z._b != 0 and z._d > 0 and gcd(z._a, z._b, z._d) == 1
    return type(z) is int or (type(z) is Fraction and z.denominator > 1)
