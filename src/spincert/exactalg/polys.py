"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map from exponent vectors (one integer per ring
variable) to nonzero coefficients in the ring's scalar field.  Zero
coefficients are never stored, so ``not p`` (no terms) is the zero test,
as ``not c`` is for a coefficient.  The ring's field only coerces
coefficients; they format through their own operators.

Rational coefficients are stored in the normal form of
``scalars``: an int for an integral value, else a Fraction with
denominator above 1, so products and sums of integer coefficients run
on native ints.  Every operation that stores a coefficient keeps the
form: an integral Fraction result is stored as its numerator
(``scalars.rational_normal``, written out in the inner loops as one
``type(s) is Fraction`` test, which never matches a Gaussian).  A
quotient of coefficients goes through ``scalars.exact_quotient``, never
a bare ``/``, which on two ints would give a float.

Exact division (`exact_div`) runs multivariate division against a single
divisor under the lexicographic term order and reports failure instead of
producing a remainder; for an exact multiple it always succeeds.

Canonical text form: terms sorted by exponent vector, descending
lexicographic in variable order, each as ``coeff*mono`` with explicit
rational (or Gaussian rational) coefficients.  ``PolyRing.parse`` is a
bit-exact inverse on the canonical output of rational polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import Gaussian, exact_quotient, rational_normal

_SCALARS = (int, Fraction, Gaussian)


class PolyRing:
    """A polynomial ring: a scalar field plus an ordered variable tuple."""

    __slots__ = ("field", "names")

    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field is other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field.name, self.names))

    def __repr__(self):
        return "PolyRing(%s, %s)" % (self.field.name, list(self.names))

    def zero(self):
        return MultiPoly._raw(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.coerce(c)
        if not c:
            return MultiPoly._raw(self, {})
        return MultiPoly._raw(self, {(0,) * self.nvars: c})

    def gen(self, i):
        if not 0 <= i < self.nvars:
            raise IndexError("no variable with index %d" % i)
        e = [0] * self.nvars
        e[i] = 1
        return MultiPoly._raw(self, {tuple(e): self.field.one()})

    def var_index(self, name):
        return self.names.index(name)

    def parse(self, text):
        """Parse the canonical text form that ``MultiPoly.to_str`` gives a
        polynomial with rational coefficients."""
        s = text.strip()
        if s == "0":
            return self.zero()
        terms = {}
        for raw in s.split(" + "):
            exps, coeff = self._parse_term(raw.strip())
            if exps in terms:
                raise ValueError("repeated monomial in %r" % text)
            terms[exps] = coeff
        return MultiPoly(self, terms)

    def _parse_term(self, raw):
        if raw.startswith("("):
            close = raw.index(")")
            coeff = Fraction(raw[1:close])
            rest = raw[close + 1 :]
            if rest.startswith("*"):
                rest = rest[1:]
        else:
            head, sep, tail = raw.partition("*")
            if head and (head[0].isdigit() or head[0] in "+-"):
                coeff = Fraction(head)
                rest = tail if sep else ""
            else:
                coeff = 1
                rest = raw
        exps = [0] * self.nvars
        if rest:
            for factor in rest.split("*"):
                name, _, power = factor.partition("^")
                idx = self.var_index(name)
                exps[idx] += int(power) if power else 1
        return tuple(exps), coeff


class MultiPoly:
    """An immutable sparse polynomial over a :class:`PolyRing`.  An
    exponent that is not a non-negative int (a bool, a float, -1) is a
    ValueError."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        clean = {}
        nv = ring.nvars
        for exps, c in terms.items():
            c = ring.field.coerce(c)
            if not c:
                continue
            if len(exps) != nv:
                raise ValueError("exponent arity mismatch")
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError("exponents must be non-negative ints: %r" % (exps,))
            clean[tuple(exps)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _raw(cls, ring, terms):
        # internal: terms already clean (no zeros, right arity, coerced)
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        return self

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        if not self:
            return self.ring.field.zero()
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def lead(self):
        """Leading (exps, coeff) under descending lex order; error on zero."""
        if not self:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _check(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomial ring mismatch")
            return other
        if isinstance(other, _SCALARS):
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
                if type(s) is Fraction and s.denominator == 1:
                    s = s.numerator
                out[exps] = s
        return MultiPoly._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.ring, {e: -c for e, c in self.terms.items()})

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
                if type(s) is Fraction and s.denominator == 1:
                    s = s.numerator
                out[exps] = s
        return MultiPoly._raw(self.ring, out)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly._raw(self.ring, {})
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
                    if type(s) is Fraction and s.denominator == 1:
                        s = s.numerator
                    out[e] = s
        return MultiPoly._raw(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c):
        """c times the polynomial for a scalar c, without building the
        constant polynomial c."""
        c = self.ring.field.coerce(c)
        if not c:
            return MultiPoly._raw(self.ring, {})
        return MultiPoly._raw(
            self.ring, {e: rational_normal(v * c) for e, v in self.terms.items()}
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = self.ring.one()
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

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
            qc = exact_quotient(rem[rexp], lc)
            quot[qexp] = qc
            for dexp, dc in divisor.terms.items():
                e = tuple(a + b for a, b in zip(qexp, dexp))
                s = rem.get(e, 0) - qc * dc
                if not s:
                    rem.pop(e, None)
                else:
                    if type(s) is Fraction and s.denominator == 1:
                        s = s.numerator
                    rem[e] = s
        return MultiPoly._raw(self.ring, quot)

    def derivative(self, var):
        out = {}
        for exps, c in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            e = list(exps)
            e[var] = k - 1
            out[tuple(e)] = rational_normal(c * k)
        return MultiPoly._raw(self.ring, out)

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
        return rational_normal(acc)

    # ------------------------------------------------------------------
    # text form
    # ------------------------------------------------------------------

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

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return "<MultiPoly %s>" % self.to_str()
