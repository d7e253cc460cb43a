"""``MultiPoly`` arithmetic as it stood when every rational coefficient
was a ``fractions.Fraction``, kept unchanged as the oracle for the
differential test in ``test_exactalg.py``: the sum, difference, product,
scalar multiple and derivative, ``exact_div`` with its bare ``/``,
``eval`` and ``to_str``.  ``FRACTIONS`` is the rational field as it
coerced then (every value to a Fraction), and ``FractionPolyRing`` makes
only the constants and generators these methods need."""

from __future__ import annotations

from fractions import Fraction
from operator import add


class FractionField:
    """The rational field whose elements are all ``Fraction``."""

    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError("cannot coerce %r into QQ" % (v,))


FRACTIONS = FractionField()


class FractionPolyRing:
    """A polynomial ring over ``FRACTIONS`` with an ordered variable tuple."""

    def __init__(self, names):
        self.field = FRACTIONS
        self.names = tuple(names)

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return FractionPoly._raw(self, {})

    def const(self, c):
        c = self.field.coerce(c)
        if not c:
            return FractionPoly._raw(self, {})
        return FractionPoly._raw(self, {(0,) * self.nvars: c})

    def poly(self, terms):
        """The polynomial with the given {exponents: coefficient} terms."""
        return FractionPoly._raw(
            self, {e: self.field.coerce(c) for e, c in terms.items() if c}
        )


class FractionPoly:
    """A sparse polynomial over :class:`FractionPolyRing`."""

    __slots__ = ("ring", "terms")

    @classmethod
    def _raw(cls, ring, terms):
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    def __bool__(self):
        return bool(self.terms)

    def lead(self):
        """Leading (exps, coeff) under descending lex order; error on zero."""
        if not self:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def _check(self, other):
        if isinstance(other, FractionPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            s = c if acc is None else acc + c
            if not s:
                out.pop(exps, None)
            else:
                out[exps] = s
        return FractionPoly._raw(self.ring, out)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            s = -c if acc is None else acc - c
            if not s:
                out.pop(exps, None)
            else:
                out[exps] = s
        return FractionPoly._raw(self.ring, out)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return FractionPoly._raw(self.ring, {})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                p = c1 * c2
                acc = out.get(e)
                s = p if acc is None else acc + p
                if not s:
                    out.pop(e, None)
                else:
                    out[e] = s
        return FractionPoly._raw(self.ring, out)

    def scale(self, c):
        c = self.ring.field.coerce(c)
        if not c:
            return FractionPoly._raw(self.ring, {})
        return FractionPoly._raw(self.ring, {e: v * c for e, v in self.terms.items()})

    def exact_div(self, divisor):
        """Return self / divisor when the division is exact, else None."""
        divisor = self._check(divisor)
        if divisor is None:
            raise TypeError("bad divisor")
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        lexp, lc = divisor.lead()
        rem = dict(self.terms)
        quot = {}
        while rem:
            rexp = max(rem)
            qexp = tuple(a - b for a, b in zip(rexp, lexp))
            if any(e < 0 for e in qexp):
                return None
            qc = rem[rexp] / lc
            quot[qexp] = qc
            for dexp, dc in divisor.terms.items():
                e = tuple(a + b for a, b in zip(qexp, dexp))
                s = rem.get(e, 0) - qc * dc
                if not s:
                    rem.pop(e, None)
                else:
                    rem[e] = s
        return FractionPoly._raw(self.ring, quot)

    def derivative(self, var):
        out = {}
        for exps, c in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            e = list(exps)
            e[var] = k - 1
            out[tuple(e)] = c * k
        return FractionPoly._raw(self.ring, out)

    def eval(self, point):
        """Evaluate at scalars, one per variable."""
        if len(point) != self.ring.nvars:
            raise ValueError("point arity mismatch")
        field = self.ring.field
        vals = [field.coerce(v) for v in point]
        acc = field.zero()
        for exps, c in self.terms.items():
            t = c
            for v, k in zip(vals, exps):
                for _ in range(k):
                    t = t * v
            acc = acc + t
        return acc

    def to_str(self):
        if not self:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                self.ring.names[i] if k == 1 else "%s^%d" % (self.ring.names[i], k)
                for i, k in enumerate(exps)
                if k
            )
            ctext = str(c)
            if any(ch in ctext[1:] for ch in "+-") or ctext.endswith("i"):
                ctext = "(%s)" % ctext
            parts.append("%s*%s" % (ctext, mono) if mono else ctext)
        return " + ".join(parts)
