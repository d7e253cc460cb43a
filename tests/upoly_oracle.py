"""The Fraction-tuple dense polynomial that ``spincert`` used before it
stored a ``UPoly`` (now ``spincert.exactalg.upoly``) as integer
numerators over one common denominator, kept unchanged (with its ``_root_order`` and the helpers
they call) as the oracle for the differential tests in
``test_hyperell.py``: every coefficient is a ``fractions.Fraction`` and
every operation goes through Fraction arithmetic, so it shares no code
with the integer kernel."""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, inf


def _fr(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("expected a rational scalar, got %r" % (v,))


class UPoly:
    """Dense rational polynomial, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_fr(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UPoly is immutable")

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def x_minus(cls, r):
        return cls((-_fr(r), Fraction(1)))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def lead(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __neg__(self):
        return UPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = UPoly((1,))
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly((other,))
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return UPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def divmod(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.lead()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UPoly(quo), UPoly(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a * (Fraction(1) / a.lead())

    def rational_roots(self):
        """All rational roots with multiplicities; complete by the
        rational-root bound on the integer-scaled polynomial."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        out = {}
        p = self
        zero_mult = 0
        while not p.is_zero and p.coeff(0) == 0:
            p = UPoly(p.coeffs[1:])
            zero_mult += 1
        if zero_mult:
            out[Fraction(0)] = zero_mult
        if p.degree < 1:
            return out
        scale = 1
        for c in p.coeffs:
            scale = scale * c.denominator // int_gcd(scale, c.denominator)
        ints = [int(c * scale) for c in p.coeffs]
        content = 0
        for v in ints:
            content = int_gcd(content, v)
        ints = [v // content for v in ints]
        a0, an = abs(ints[0]), abs(ints[-1])
        # each root found is divided out, so later candidates meet a
        # smaller cofactor and the search ends once p is a constant
        for pnum in _divisors(a0):
            for qden in _divisors(an):
                for sign in (1, -1):
                    r = Fraction(sign * pnum, qden)
                    if r in out:
                        continue
                    mult, p, _ = _root_order(p, r)
                    if mult:
                        out[r] = mult
                        if p.degree < 1:
                            return out
        return out

    def __repr__(self):
        return "UPoly(%r)" % (self.coeffs,)


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return sorted(out)


def _root_order(p: UPoly, x0):
    """(k, q, q(x0)) with p = (x - x0)^k q and q(x0) != 0, by repeated
    synthetic division (the last remainder is q(x0)); the zero
    polynomial has order infinity."""
    if p.is_zero:
        return inf, p, Fraction(0)
    cs = p.coeffs
    k = 0
    while True:
        acc = Fraction(0)
        quo = []
        for c in reversed(cs):
            acc = acc * x0 + c
            quo.append(acc)
        rem = quo.pop()
        if rem:
            return k, UPoly(cs) if k else p, rem
        cs = quo[::-1]
        k += 1
