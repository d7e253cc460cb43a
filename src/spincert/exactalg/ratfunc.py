"""Rational functions as unreduced numerator/denominator pairs.

Canonical GCD reduction is deliberately absent: a quotient is stored as the
pair produced by the arithmetic.  Addition and multiplication try cheap
exact-division cancellations (equal denominators, one denominator dividing
the other, cross factors) so that the common case of a shared denominator
power never inflates.  The zero test and equality go through full expansion
of the cross-multiplied numerators, which is exact.
"""

from __future__ import annotations

from .polys import MultiPoly
from .scalars import _SCALARS, exact_quotient


class RatFunc:
    """A quotient of two :class:`MultiPoly` values over one ring."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, MultiPoly):
            raise TypeError("numerator must be a MultiPoly")
        if den is None:
            den = num.ring.one()
        if not isinstance(den, MultiPoly) or den.ring != num.ring:
            raise ValueError("denominator ring mismatch")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = num.ring.one()
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return self.den.is_constant()

    def as_poly(self):
        """The polynomial self equals, when the denominator is a constant."""
        if not self.is_polynomial():
            q = self.num.exact_div(self.den)
            if q is None:
                raise ValueError("not a polynomial")
            return q
        c = self.den.constant_value()
        return MultiPoly(
            self.ring, {e: exact_quotient(v, c) for e, v in self.num.terms.items()}
        )

    # ------------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            return other
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            return RatFunc(other)
        if isinstance(other, _SCALARS):
            return RatFunc(self.ring.const(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFunc(a + c, b)
        q = d.exact_div(b)
        if q is not None:
            return RatFunc(a * q + c, d)
        q = b.exact_div(d)
        if q is not None:
            return RatFunc(a + c * q, b)
        return RatFunc(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        # opportunistic diagonal cancellation keeps denominator powers flat
        if a and not d.is_constant():
            q = a.exact_div(d)
            if q is not None:
                a, d = q, d.ring.one()
        if c and not b.is_constant():
            q = c.exact_div(b)
            if q is not None:
                c, b = q, b.ring.one()
        return RatFunc(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("integer powers only")
        if n < 0:
            if not self:
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num**n, self.den**n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return not (self.num * other.den - other.num * self.den)

    def __hash__(self):
        raise TypeError("RatFunc is not hashable (equality is semantic)")

    def derivative(self, var):
        a, b = self.num, self.den
        return RatFunc(a.derivative(var) * b - a * b.derivative(var), b * b)

    def eval(self, point):
        dv = self.den.eval(point)
        if not dv:
            raise ZeroDivisionError("denominator vanishes at the point")
        return exact_quotient(self.num.eval(point), dv)

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == self.ring.field.one():
            return self.num.to_str()
        return "(%s) / (%s)" % (self.num.to_str(), self.den.to_str())

    def __repr__(self):
        return "<RatFunc %s>" % self
