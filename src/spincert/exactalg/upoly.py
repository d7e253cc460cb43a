"""Dense univariate polynomials over the rationals.

Polynomials in x (``UPoly``) run on an integer kernel: integer
numerators over one positive common denominator, kept in normal form,
so a sum or product is an integer loop plus one lcm or gcd and a value
p(r/s) is one homogeneous Horner pass over the integers.  Root orders
divide a root r/s out exactly by the primitive factor s x - r, whose
integer quotient Gauss's lemma guarantees.  Every rational scalar read
out (a coefficient, a value, a root) is in the QQ normal form of
``scalars``: an int when it is integral, else a Fraction with
denominator above 1.  A quotient of scalars goes through
``exact_quotient``, never a bare ``/``, which on two ints is a float.
A bool is no scalar: a bool coefficient, scalar factor, compared value
or point of evaluation is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, inf, isqrt, lcm

from .scalars import exact_quotient


def _qq(v):
    """Curve data (an x-value, a y-value, a root) in the QQ normal form:
    an int passes through and a Fraction is normalised; anything else,
    a bool, a float or a Gaussian among them, is a TypeError."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError("expected a rational scalar, got %r" % (v,))


class UPoly:
    """Dense rational polynomial: integer numerators n_0..n_d (ascending)
    over one positive common denominator, in normal form (no trailing
    zero numerator, gcd(n_0, ..., n_d, den) = 1, zero is ((), 1)), so
    equal polynomials have equal fields.  Sums and products are integer
    loops plus one lcm or gcd.  Coefficients, values and roots are read
    out in the QQ normal form: ``coeffs`` is the numerator tuple itself
    when the denominator is 1.  Immutable by convention: the public
    attributes are read-only properties and the private slots are never
    rewritten."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        num = list(coeffs)
        den = 1
        if not all(type(c) is int for c in num):
            for c in num:
                if type(c) is bool or not isinstance(c, (int, Fraction)):
                    raise TypeError("expected a rational scalar, got %r" % (c,))
            # the lcm of reduced denominators leaves numerators coprime to it
            den = lcm(*(c.denominator for c in num))
            num = [c.numerator * (den // c.denominator) for c in num]
        while num and not num[-1]:
            num.pop()
        self._num = tuple(num)
        self._den = den if num else 1

    @property
    def coeffs(self):
        d = self._den
        if d == 1:
            return self._num
        return tuple(exact_quotient(n, d) for n in self._num)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def x_minus(cls, r):
        r = _qq(r)
        return _upoly((-r.numerator, r.denominator), r.denominator)

    def __bool__(self):
        return bool(self._num)

    @property
    def degree(self):
        return len(self._num) - 1

    def lead(self):
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return exact_quotient(self._num[-1], self._den)

    def coeff(self, k):
        if 0 <= k < len(self._num):
            return exact_quotient(self._num[k], self._den)
        return 0

    def __add__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return _sum(self._num, self._den, other._num, other._den)

    def __neg__(self):
        return _upoly(tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return _sum(self._num, self._den, [-c for c in other._num], other._den)

    def __mul__(self, other):
        # a UPoly operand is the common case; the (int, Fraction) check
        # below costs an ABC instance check on every miss
        if type(other) is not UPoly:
            if isinstance(other, (int, Fraction)):
                if type(other) is bool:
                    raise TypeError("expected a rational scalar, got %r" % (other,))
                k = other.numerator
                return _normal([c * k for c in self._num], self._den * other.denominator)
            if not isinstance(other, UPoly):
                return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _normal(out, self._den * other._den)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = _ONE
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        if type(other) is not UPoly:
            if isinstance(other, (int, Fraction)):
                # the constructor refuses a bool
                other = UPoly((other,))
            elif not isinstance(other, UPoly):
                return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash(self.coeffs)

    def eval(self, x):
        """p(x) at a rational x = r/s, by one homogeneous Horner pass
        over the integers: sum n_k r^k s^(d-k) over den s^d."""
        x = _qq(x)
        if not self._num:
            return 0
        h, sd = _horner(self._num, x.numerator, x.denominator)
        return exact_quotient(h, self._den * sd)

    def derivative(self):
        return _normal([k * c for k, c in enumerate(self._num)][1:], self._den)

    def divmod(self, other):
        if not other._num:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self._num) < len(other._num):
            return _ZERO, self
        quo, rem, scale = _pseudo_divmod(self._num, other._num)
        # scale a = quo b + rem with self = a/da and other = b/db
        den = self._den * scale
        return _normal([c * other._den for c in quo], den), _normal(rem, den)

    def gcd(self, other):
        a, b = self, other
        while b:
            a, b = b, a.divmod(b)[1]
        if not a:
            return a
        return a * exact_quotient(1, a.lead())

    def rational_roots(self):
        """All rational roots with multiplicities; complete by the
        rational-root bound on the integer numerators (a root r/s in
        lowest terms has r | n_0 and s | n_d)."""
        if not self._num:
            raise ValueError("zero polynomial")
        out = {}
        num = self._num
        zero_mult = 0
        while not num[zero_mult]:
            zero_mult += 1
        if zero_mult:
            out[0] = zero_mult
        if len(num) - zero_mult < 2:
            return out
        # each root found is divided out, so later candidates meet a
        # smaller cofactor and the search ends once it is a constant; a
        # candidate r/s is tested as the integer pair, and only a root
        # becomes a key
        num = num[zero_mult:]
        dens = _divisors(abs(num[-1]))
        for pnum in _divisors(abs(num[0])):
            for qden in dens:
                if int_gcd(pnum, qden) != 1:
                    continue
                for r in (pnum, -pnum):
                    mult, num, _, _ = _strip_root(num, r, qden)
                    if mult:
                        out[exact_quotient(r, qden)] = mult
                        if len(num) < 2:
                            return out
        return out

    def __repr__(self):
        return "UPoly(%r)" % (self.coeffs,)


def _upoly(num, den):
    """A UPoly from a numerator tuple and denominator already in normal
    form."""
    p = object.__new__(UPoly)
    p._num = num
    p._den = den
    return p


_ZERO = _upoly((), 1)
_ONE = _upoly((1,), 1)


def _normal(num, den):
    """A UPoly num/den in normal form, from a list of ints and den > 0."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ZERO
    if den != 1:
        g = int_gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _upoly(tuple(num), den)


def _sum(a, da, b, db):
    """a/da + b/db for integer numerator sequences over positive
    denominators, as a UPoly in normal form."""
    if da != db:
        den = lcm(da, db)
        a = [c * (den // da) for c in a]
        b = [c * (den // db) for c in b]
    else:
        den = da
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _normal(out, den)


def _horner(num, r, s):
    """(sum n_k r^k s^(d-k), s^d) for numerators n_0..n_d, d >= 0: the
    homogenised value at r/s, so that p(r/s) = h/(den s^d)."""
    it = reversed(num)
    acc = next(it)
    sd = 1
    for c in it:
        sd *= s
        acc = acc * r + c * sd
    return acc, sd


def _pseudo_divmod(a, b):
    """(q, r, scale) with scale a = q b + r over the integers, scale > 0
    and len(r) = len(b) - 1, for len(a) >= len(b); each step scales
    only by what the divisor's leading coefficient lacks."""
    lb = b[-1]
    nb = len(b) - 1
    rem = list(a)
    quo = [0] * (len(a) - nb)
    scale = 1
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + nb]
        if not c:
            continue
        m = abs(lb) // int_gcd(c, lb)
        if m != 1:
            rem = [v * m for v in rem]
            quo = [v * m for v in quo]
            scale *= m
        q = c * m // lb
        quo[k] = q
        for j, v in enumerate(b, k):
            rem[j] -= q * v
    return quo, rem[:nb], scale


def _divisors(n):
    """The positive divisors of n in increasing order, and [1] for 0."""
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small])) or [1]


def _root_order(p: UPoly, x0):
    """(k, q(x0)) with p = (x - x0)^k q and q(x0) != 0; the zero
    polynomial has order infinity.  With x0 = r/s in lowest terms the
    root test is the integer Horner pass of ``_horner``, and a root is
    divided out exactly by s x - r: by Gauss's lemma that primitive
    factor leaves an integer quotient Q, so q = s^k Q/den after k
    divisions, and q(x0) is read off the homogenised value of Q."""
    if not p._num:
        return inf, 0
    k, _, h, sd = _strip_root(p._num, x0.numerator, x0.denominator)
    return k, exact_quotient(h * x0.denominator**k, p._den * sd)


def _strip_root(num, r, s):
    """(k, Q, h, s^d) for integer numerators num of degree d >= 0 and a
    root candidate r/s in lowest terms: k exact divisions by s x - r leave
    the integer numerators Q, whose homogenised value h at r/s (from
    ``_horner``, with its s^d) is nonzero."""
    k = 0
    while True:
        h, sd = _horner(num, r, s)
        if h:
            return k, num, h, sd
        acc, quo = 0, []
        for c in reversed(num[1:]):
            acc = (c + r * acc) // s
            quo.append(acc)
        num = quo[::-1]
        k += 1


def rational_sqrt(v):
    """Exact square root of a rational, in the QQ normal form, or None."""
    v = _qq(v)
    if v < 0:
        return None
    rn, rd = isqrt(v.numerator), isqrt(v.denominator)
    if rn * rn == v.numerator and rd * rd == v.denominator:
        return exact_quotient(rn, rd)
    return None
