"""The p / rho^k entry arithmetic of ``instanton`` as it was before every
sum, product and derivative of entries went through the one-pass
``instanton._entry_sum``: a sum lifts the numerator over the lower power
by a power of rho, a product multiplies the numerators, and the
derivative is composed from polynomial products.  The composed forms of
tests/test_instanton.py build on it, so they share no entry arithmetic
with the kernel they check."""

from spincert.exactalg.scalars import _SCALARS
from spincert.instanton import R4, RHO, _RhoFrac


class RhoPair:
    """The entry p / rho^k, k >= 0; zero is stored with k = 0.  The pair
    is not reduced.  It adds, subtracts and multiplies only pairs, and
    scales by Q(i) scalars."""

    __slots__ = ("p", "k")

    def __init__(self, p, k=0):
        self.p = p
        self.k = k if p.terms else 0

    @classmethod
    def of(cls, v):
        """The pair of an ``instanton`` entry."""
        if not isinstance(v, _RhoFrac):
            raise TypeError("not an instanton entry: %r" % (v,))
        return cls(v.p, v.k)

    def entry(self):
        """The ``instanton`` entry of the same pair."""
        return _RhoFrac(self.p, self.k)

    def __bool__(self):
        return bool(self.p.terms)

    def __add__(self, other):
        if type(other) is not RhoPair:
            return NotImplemented
        p, q = self.p, other.p
        if not p.terms:
            return other
        if not q.terms:
            return self
        k, j = self.k, other.k
        if k < j:
            p = p * RHO ** (j - k)
            k = j
        elif j < k:
            q = q * RHO ** (k - j)
        return RhoPair(p + q, k)

    def __neg__(self):
        return RhoPair(-self.p, self.k)

    def __sub__(self, other):
        if type(other) is not RhoPair:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is RhoPair:
            return RhoPair(self.p * other.p, self.k + other.k)
        if isinstance(other, _SCALARS) and type(other) is not bool:
            return RhoPair(self.p * other, self.k)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self, var):
        """(d p * rho - p * 2k x_var) / rho^(k+1), or d p when k = 0: d_var
        rho is 2 x_var."""
        dp = self.p.derivative(var)
        if not self.k:
            return RhoPair(dp)
        return RhoPair(dp * RHO - self.p * (R4.gen(var) * (2 * self.k)), self.k + 1)

    def __repr__(self):
        return "<pair (%s) / rho^%d>" % (self.p.to_str(), self.k)
