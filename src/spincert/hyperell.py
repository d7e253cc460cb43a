"""Exact function-field computations on hyperelliptic curves y^2 = f(x)
with distinct rational branch points: places, closed-form valuations and
leading Laurent coefficients, divisors, square-root divisor classes with
explicit equivalence witnesses, and a Riemann-Roch space engine that
re-checks the Riemann-Roch identity on every call.

Polynomials in x are ``exactalg.UPoly``, on its integer kernel.  Every
rational scalar the curve code hands out (a coefficient, a value, a
root, a place key, a leading Laurent coefficient) is in the QQ normal
form of ``exactalg.scalars``: an int when it is integral, else a
Fraction with denominator above 1.  A quotient of scalars goes through
``exact_quotient``, never a bare ``/``, which on two ints is a float.

Orders and leading Laurent coefficients have one closed form,
``FieldElem.leading_term``, read off root orders, cofactor values and
the norm; ``FieldElem.valuation``, behind every pole bound and divisor,
is its order.

The split and infinity rows of the Riemann-Roch system read the first
few coefficients of y in a local uniformizer from a checked truncated
square root of a polynomial (``_sqrt_head``).  The exact local power
series (``Place.local_series``, ``FieldElem.expand_at``) serve no
computation; the tests use them as the oracle for the closed forms.

The model is the even one: deg f = 2g+2, monic-up-to-square leading
coefficient, two rational places over x = infinity.  Divisor support is
restricted to rational places (branch places, the two infinite places,
and split places over rational non-branch x with square f-value); that
covers every computation this package needs while keeping all
arithmetic inside the rationals.  ``HyperCurve.places_over`` is the one
place that lists the rational places over an x-value, and
``branch_product`` the one builder of prod (x - x_i) over a branch
subset, the witness polynomial of the square-root classes.

A curve builds each of its places once: its place methods hand out one
interned ``Place`` per (kind, key), whose value hash is computed when it
is built, so the dicts of the divisor code find it by identity.  That
table is the curve's one place cache; ``places_over`` evaluates f anew
on each call and hands out the interned places.  The public ``Divisor``
constructor checks every coefficient; sums, differences, negations and
multiples of divisors merge into one dict and are not checked again.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf

from . import VerificationError
from .exactalg.scalars import exact_quotient, rational_normal
from .exactalg.upoly import _ONE, _ZERO, UPoly, _qq, _root_order, rational_sqrt

# ----------------------------------------------------------------------
# truncated Laurent series over the rationals
# ----------------------------------------------------------------------


def _fr(v):
    """A rational scalar as a Fraction, for the series code, which keeps
    Fraction coefficients; curve data goes through ``_qq``."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("expected a rational scalar, got %r" % (v,))


class LSeries:
    """Laurent series known below the exponent bound ``prec``."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec):
        cs = {}
        for e, c in coeffs.items():
            c = _fr(c)
            if e < prec and c != 0:
                cs[e] = c
        self.coeffs = cs
        self.prec = prec

    @classmethod
    def zero(cls, prec):
        return cls({}, prec)

    @classmethod
    def term(cls, c, e, prec):
        return cls({e: c}, prec)

    @property
    def is_plainly_zero(self):
        return not self.coeffs

    def val(self):
        """Exponent of the leading term; raises on a series with no
        visible term (zero to precision)."""
        if not self.coeffs:
            raise VerificationError("series is zero to precision %d" % self.prec)
        return min(self.coeffs)

    def coeff(self, e):
        if e >= self.prec:
            raise VerificationError("coefficient %d beyond precision %d" % (e, self.prec))
        return self.coeffs.get(e, Fraction(0))

    def __add__(self, other):
        if not isinstance(other, LSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LSeries(out, prec)

    def __neg__(self):
        return LSeries({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        if not isinstance(other, LSeries):
            return NotImplemented
        return self + (-other)

    def shift(self, k):
        return LSeries({e + k: c for e, c in self.coeffs.items()}, self.prec + k)

    def __mul__(self, other):
        if not isinstance(other, LSeries):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            va = min(self.coeffs) if self.coeffs else self.prec
            vb = min(other.coeffs) if other.coeffs else other.prec
            return LSeries.zero(min(self.prec + vb, other.prec + va))
        va, vb = min(self.coeffs), min(other.coeffs)
        prec = min(self.prec + vb, other.prec + va)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < prec:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LSeries(out, prec)

    def truncate(self, prec):
        if prec > self.prec:
            raise ValueError("cannot extend precision")
        return LSeries({e: c for e, c in self.coeffs.items() if e < prec}, prec)

    def invert(self):
        v = self.val()
        rel = self.prec - v
        if rel > (1 << 20):
            raise ValueError("inversion precision too large; truncate first")
        u = [self.coeffs.get(v + k, Fraction(0)) for k in range(rel)]
        inv = [Fraction(0)] * rel
        inv[0] = 1 / u[0]
        for k in range(1, rel):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += u[j] * inv[k - j]
            inv[k] = -acc / u[0]
        return LSeries({k - v: c for k, c in enumerate(inv)}, rel - v)

    def sqrt(self, lead_root=None):
        """Square root with even valuation; ``lead_root`` picks the sign
        (it must square to the leading coefficient)."""
        v = self.val()
        if v % 2:
            raise ValueError("odd valuation has no series square root")
        rel = self.prec - v
        if rel > (1 << 20):
            raise ValueError("square-root precision too large; truncate first")
        u = [self.coeffs.get(v + k, Fraction(0)) for k in range(rel)]
        if lead_root is None:
            lead_root = rational_sqrt(u[0])
            if lead_root is None:
                raise ValueError("leading coefficient is not a rational square")
        else:
            lead_root = _fr(lead_root)
            if lead_root * lead_root != u[0]:
                raise ValueError("lead_root does not square to the lead")
        s = [Fraction(0)] * rel
        s[0] = lead_root
        for k in range(1, rel):
            acc = Fraction(0)
            for j in range(1, k):
                acc += s[j] * s[k - j]
            s[k] = (u[k] - acc) / (2 * s[0])
        return LSeries({k + v // 2: c for k, c in enumerate(s)}, rel + v // 2)

    def __repr__(self):
        items = " + ".join(
            "%s*t^%d" % (c, e) for e, c in sorted(self.coeffs.items())
        )
        return "<LSeries %s + O(t^%d)>" % (items or "0", self.prec)


def poly_at_series(p: UPoly, s: LSeries) -> LSeries:
    """Evaluate a polynomial at a series by Horner; precision shrinks
    when the series has a pole."""
    acc = LSeries.zero(1 << 30)
    for c in reversed(p.coeffs):
        acc = acc * s + LSeries.term(c, 0, 1 << 30)
    return acc


# ----------------------------------------------------------------------
# curves and places
# ----------------------------------------------------------------------


class HyperCurve:
    """y^2 = f(x) with deg f = 2g+2, distinct rational roots, and a
    rational square leading coefficient (two rational places over
    infinity).  ``slopes`` maps each root x0 to f'(x0), the slope in
    x - x0 = y^2/f'(x0) + O(y^4) at its branch place.

    The curve alone builds its places: ``branch_place``,
    ``infinite_place``, ``split_place`` and ``places_over`` hand out one
    ``Place`` per (kind, key), kept in ``_cache["places"]``, the one
    place cache, so the dicts of the divisor code meet the same object
    again and compare it by identity."""

    __slots__ = ("f", "genus", "roots", "lead_sqrt", "slopes", "_cache")

    def __init__(self, f: UPoly):
        if not f or f.degree < 4 or f.degree % 2:
            raise ValueError("f must have even degree at least 4")
        genus = f.degree // 2 - 1
        df = f.derivative()
        if not f.gcd(df) == _ONE:
            raise ValueError("f must be squarefree")
        roots = f.rational_roots()
        if sum(roots.values()) != f.degree:
            raise ValueError("f must split over the rationals")
        ls = rational_sqrt(f.lead())
        if ls is None:
            raise ValueError("leading coefficient must be a rational square")
        self.f = f
        self.genus = genus
        self.roots = tuple(sorted(roots))
        self.lead_sqrt = ls
        self.slopes = {r: df.eval(r) for r in roots}
        self._cache = {
            "series": {},
            "canonical": None,
            "theta": {},
            "places": {},
        }

    @classmethod
    def from_roots(cls, roots, lead=1):
        f = UPoly.const(lead)
        for r in roots:
            f = f * UPoly.x_minus(r)
        return cls(f)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HyperCurve):
            return NotImplemented
        return self.f == other.f

    def _place(self, kind, key):
        """The one place of this curve with the (kind, key), built on
        first use; the caller has validated the key."""
        places = self._cache["places"]
        place = places.get((kind, key))
        if place is None:
            place = places[(kind, key)] = Place(self, kind, key)
        return place

    def branch_place(self, i):
        """Place over the i-th branch point, 1-based in root order."""
        n = len(self.roots)
        if type(i) is not int or not 1 <= i <= n:
            raise ValueError("branch index must be an integer in 1..%d" % n)
        return self._place("branch", self.roots[i - 1])

    def infinite_place(self, sign):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return self._place("inf", sign)

    def split_place(self, x0, y0):
        x0, y0 = _qq(x0), _qq(y0)
        if self.f.eval(x0) != y0 * y0 or y0 == 0:
            raise ValueError("point is not a smooth affine non-branch point")
        return self._place("split", (x0, y0))

    def places_over(self, x0):
        """The rational places over a finite x-value: the branch place
        when f(x0) = 0, both split places when f(x0) is a nonzero
        rational square, and () otherwise.  Each call evaluates f once;
        the places are the curve's interned ones."""
        x0 = _qq(x0)
        fx = self.f.eval(x0)
        if fx == 0:
            return (self._place("branch", x0),)
        y0 = rational_sqrt(fx)
        if y0 is None:
            return ()
        return (self._place("split", (x0, y0)), self._place("split", (x0, -y0)))

    def all_standard_places(self):
        n = len(self.roots)
        return tuple(self.branch_place(i) for i in range(1, n + 1)) + (
            self.infinite_place(1),
            self.infinite_place(-1),
        )


def standard_curve() -> HyperCurve:
    return HyperCurve.from_roots([0, 1, 2, 3, 4, 5])


class Place:
    """A rational point of the smooth model, with exact local series.

    The curve's place methods hand out one interned Place per (kind,
    key); a Place built directly is a fresh object equal to the interned
    one.  Equality is by value, the curve and the (kind, key), and the
    hash, of (kind, key) alone, is computed once here, so no order that
    a hash gives follows object addresses."""

    __slots__ = ("curve", "kind", "key", "_hash")

    def __init__(self, curve, kind, key):
        if kind not in ("branch", "inf", "split"):
            raise ValueError("unknown place kind")
        self.curve = curve
        self.kind = kind
        self.key = key
        # equal places have equal (kind, key); the curve is left to __eq__
        self._hash = hash((kind, key))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Place):
            return NotImplemented
        return (
            self.curve == other.curve
            and self.kind == other.kind
            and self.key == other.key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == "branch":
            return "Place(branch x=%s)" % (self.key,)
        if self.kind == "inf":
            return "Place(inf %s)" % ("+" if self.key == 1 else "-")
        return "Place(split x=%s, y=%s)" % self.key

    def local_series(self, prec):
        """(x-series, y-series) in the local uniformizer, checked to
        satisfy the curve equation to precision.  Cached per curve; a
        result may carry more precision than requested: the cache grows
        to the smallest power of two >= max(prec, 32)."""
        cache = self.curve._cache["series"]
        hit = cache.get((self.kind, self.key))
        if hit is not None and hit[0] >= prec:
            return hit[1], hit[2]
        compute_at = 1 << (max(prec, 32) - 1).bit_length()
        xs, ys = self._compute_series(compute_at)
        cache[(self.kind, self.key)] = (compute_at, xs, ys)
        return xs, ys

    def _compute_series(self, prec):
        f = self.curve.f
        if self.kind == "branch":
            x0 = self.key
            f1 = self.curve.slopes[x0]
            u = LSeries({2: Fraction(1) / f1}, prec)
            shifted = UPoly(tuple(_taylor(f, x0)))
            for m in range(3, prec):
                target = LSeries.term(1, 2, prec)
                defect = target - poly_at_series(shifted, u).truncate(prec)
                if defect.is_plainly_zero:
                    break
                e = defect.val()
                if e >= prec:
                    break
                u = u + LSeries.term(defect.coeff(e) / f1, e, prec)
            xs = LSeries.term(x0, 0, prec) + u
            ys = LSeries.term(1, 1, prec)
        elif self.kind == "inf":
            n = f.degree
            rev = UPoly(tuple(reversed([f.coeff(k) for k in range(n + 1)])))
            t = LSeries.term(1, 1, prec + n + 2)
            p_of_t = poly_at_series(rev, t).truncate(prec + n + 2)
            root = self.curve.lead_sqrt * self.key
            s = p_of_t.sqrt(lead_root=root).truncate(prec + self.curve.genus + 2)
            xs = LSeries.term(1, -1, prec)
            ys = s.shift(-(self.curve.genus + 1)).truncate(prec)
        else:
            x0, y0 = self.key
            shifted = UPoly(tuple(_taylor(f, x0)))
            t = LSeries.term(1, 1, prec)
            fx = poly_at_series(shifted, t).truncate(prec)
            ys = fx.sqrt(lead_root=y0)
            xs = LSeries.term(x0, 0, prec) + t
        lhs = ys * ys
        rhs = poly_at_series(f, xs)
        check = (lhs - rhs).truncate(min(lhs.prec, rhs.prec, prec))
        if not check.is_plainly_zero:
            raise VerificationError("local series fail the curve equation")
        return xs, ys


def _shift_row(x0, j, n):
    """The coefficient of (x - x0)^j in each of x^0, ..., x^n: C(k, j)
    x0^(k-j), and 0 for k < j (so x0 = 0 meets no negative power); ints
    when x0 is an int, as an integral place key is."""
    return [comb(k, j) * x0 ** (k - j) if k >= j else 0 for k in range(n + 1)]


def _sqrt_head(u, s0, c):
    """[s_0, ..., s_(c-1)] with s^2 = u (mod t^c) for the given nonzero
    s_0, c >= 1, where u(t) is given by its coefficients u_0, u_1, ...
    (missing ones are 0): the exact recurrence 2 s_0 s_k = u_k - sum over
    0 < j < k of s_j s_(k-j).  The identity is re-checked on the result,
    so an s_0 that does not square to u_0 raises."""
    u = list(u[:c]) + [0] * (c - len(u))
    if not s0:
        raise VerificationError("truncated square root needs s_0 != 0")
    s = [s0]
    for k in range(1, c):
        s.append(
            exact_quotient(u[k] - sum(s[j] * s[k - j] for j in range(1, k)), 2 * s0)
        )
    for k in range(c):
        if sum(s[j] * s[k - j] for j in range(k + 1)) != u[k]:
            raise VerificationError("s^2 differs from u at t^%d" % k)
    return s


def _taylor(p: UPoly, x0):
    """Coefficients of p(x0 + t) in t, exact, in the QQ normal form."""
    n = max(p.degree, 0)
    return [
        rational_normal(sum(c * s for c, s in zip(p.coeffs, _shift_row(x0, j, n))))
        for j in range(n + 1)
    ]


# ----------------------------------------------------------------------
# divisors
# ----------------------------------------------------------------------


class Divisor:
    """Finite integer combination of places, its support in insertion
    order; a coefficient that is not an int (a bool, a float, a
    Fraction) is a ValueError.  The constructor checks every entry;
    ``+``, ``-``, negation and ``scale`` of divisors, whose entries are
    checked already, merge into one dict that drops zeros and build the
    result through ``_divisor`` without checking it again."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cs = {}
        for place, n in (coeffs or {}).items():
            if not isinstance(place, Place):
                raise TypeError("divisor support must be places")
            if type(n) is not int:
                raise ValueError("divisor coefficients must be integers: %r" % (n,))
            if n:
                cs[place] = n
        self.coeffs = cs

    def coeff(self, place):
        return self.coeffs.get(place, 0)

    @property
    def degree(self):
        return sum(self.coeffs.values())

    @property
    def support(self):
        return tuple(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return _merged(self.coeffs, other.coeffs, 1)

    def __neg__(self):
        return _divisor({p: -n for p, n in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return _merged(self.coeffs, other.coeffs, -1)

    def scale(self, k):
        if type(k) is not int:
            raise ValueError("divisor coefficients must be integers: %r" % (k,))
        if not k:
            return _divisor({})
        return _divisor({p: n * k for p, n in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.coeffs == other.coeffs

    def is_effective(self):
        return all(n > 0 for n in self.coeffs.values())

    def __repr__(self):
        parts = ["%+d*%r" % (n, p) for p, n in self.coeffs.items()]
        return "Divisor(%s)" % " ".join(parts or ["0"])


def _divisor(coeffs):
    """A Divisor from a dict of places to nonzero ints, unchecked."""
    d = object.__new__(Divisor)
    d.coeffs = coeffs
    return d


def _merged(a, b, sign):
    """a + sign b for the coefficient dicts of two divisors, sign +1 or
    -1, in one dict: a's places in order, then b's new ones, and a place
    whose coefficients cancel is deleted."""
    out = dict(a)
    for p, n in b.items():
        m = out.get(p, 0) + sign * n
        if m:
            out[p] = m
        else:
            del out[p]
    return _divisor(out)


# ----------------------------------------------------------------------
# function field elements
# ----------------------------------------------------------------------


class FieldElem:
    """(a(x) + b(x) y) / den(x); no simplification is attempted.  An
    omitted b or den is the module's one zero or one polynomial."""

    __slots__ = ("curve", "a", "b", "den")

    def __init__(self, curve, a, b=None, den=None):
        a = a if isinstance(a, UPoly) else UPoly.const(a)
        b = _ZERO if b is None else (b if isinstance(b, UPoly) else UPoly.const(b))
        den = _ONE if den is None else (
            den if isinstance(den, UPoly) else UPoly.const(den)
        )
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.curve = curve
        self.a = a
        self.b = b
        self.den = den

    @classmethod
    def y_function(cls, curve):
        return cls(curve, _ZERO, _ONE)

    def __bool__(self):
        return bool(self.a or self.b)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return FieldElem(self.curve, self.a + other.a, self.b + other.b, self.den)
        return FieldElem(
            self.curve,
            self.a * other.den + other.a * self.den,
            self.b * other.den + other.b * self.den,
            self.den * other.den,
        )

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.curve != self.curve:
                raise ValueError("curve mismatch")
            return other
        if isinstance(other, (int, Fraction, UPoly)):
            return FieldElem(self.curve, other)
        return None

    def __neg__(self):
        return FieldElem(self.curve, -self.a, -self.b, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.curve.f
        a = self.a * other.a + self.b * other.b * f
        b = self.a * other.b + self.b * other.a
        return FieldElem(self.curve, a, b, self.den * other.den)

    __rmul__ = __mul__

    def conjugate(self):
        """Image under the sheet involution y -> -y."""
        return FieldElem(self.curve, self.a, -self.b, self.den)

    def norm_pair(self):
        """(numerator, denominator) of h * sigma(h), both polynomials."""
        num = self.a * self.a - self.b * self.b * self.curve.f
        return num, self.den * self.den

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverting zero")
        num = self.norm_pair()[0]
        return FieldElem(self.curve, self.a * self.den, -self.b * self.den, num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.a * other.den == other.a * self.den) and (
            self.b * other.den == other.b * self.den
        )

    def expand_at(self, place: Place, prec: int) -> LSeries:
        work = prec + _prec_pad(self)
        xs, ys = place.local_series(work)
        num = poly_at_series(self.a, xs) + poly_at_series(self.b, xs) * ys
        den = poly_at_series(self.den, xs)
        num = num.truncate(min(num.prec, work))
        den = den.truncate(min(den.prec, work))
        return (num * den.invert()).truncate(prec)

    def leading_term(self, place: Place):
        """(v, c) with h = c t^v + O(t^(v+1)) for h = (a + b y)/den in the
        local uniformizer t of the place (the one ``Place.local_series``
        uses), c in the QQ normal form, in closed form from root orders,
        cofactor values and the norm N = a^2 - b^2 f; no series is built
        (Cantor, "Computing in the Jacobian of a hyperelliptic curve",
        Math. Comp. 48 (1987)).  This is the package's one order formula:
        ``valuation`` returns v.  ord is the order of x0 as a root and q
        the cofactor left after dividing (x - x0)^ord out, of which only
        the value q(x0) is needed; a zero polynomial has infinite order
        and drops out of the minima.  The numerator a + b y is treated
        below; den contributes its own order and leading value, which are
        subtracted and divided out.

        - Branch place x0 (uniformizer y, x - x0 = y^2/f'(x0) + O(y^4)):
          (x - x0)^k q leads with q(x0)/f'(x0)^k at order 2k, so a leads at
          2 ord a and b y at 2 ord b + 1.  The two orders have different
          parities, so they never cancel.
        - Split place (x0, y0) (uniformizer x - x0): take out the common
          factor (x - x0)^k of a and b, leaving a', b'.  If the sheet value
          a'(x0) + b'(x0) y0 is nonzero it leads at order k.  Otherwise the
          conjugate a' - b' y is a unit there with value 2 a'(x0), and
          N' = a'^2 - b'^2 f = N/(x - x0)^(2k) has the cofactor q_N of N,
          so a + b y leads with q_N(x0)/(2 a'(x0)) at order k + ord N'.
        - Infinite place of sign s (uniformizer 1/x, y ~ s lead_sqrt
          x^(g+1)): a leads with lc(a) at order -deg a, b y with
          s lead_sqrt lc(b) at order -(deg b + g + 1); at equal orders the
          two add.  If that sum cancels, the conjugate keeps the full
          degree on this sheet with lead 2 lc(a), and a + b y leads with
          lc(N)/(2 lc(a)) at order -(deg N - deg a).
        """
        if not self:
            raise ValueError("zero element has no valuation")
        a, b, den = self.a, self.b, self.den
        if place.kind == "branch":
            x0 = place.key
            (ka, ca), (kb, cb), (kd, cd) = (_root_order(p, x0) for p in (a, b, den))
            if 2 * ka < 2 * kb + 1:
                v, k, lead = 2 * ka, ka, ca
            else:
                v, k, lead = 2 * kb + 1, kb, cb
            # a negative power of an int is a float, so it goes to the divisor
            slope = self.curve.slopes[x0]
            if kd >= k:
                return v - 2 * kd, exact_quotient(lead * slope ** (kd - k), cd)
            return v - 2 * kd, exact_quotient(lead, cd * slope ** (k - kd))
        if place.kind == "split":
            x0, y0 = place.key
            (ka, ca), (kb, cb), (kd, cd) = (_root_order(p, x0) for p in (a, b, den))
            k = min(ka, kb)
            ca = ca if ka == k else 0
            lead = ca + (cb * y0 if kb == k else 0)
            if not lead:
                # ord N' = ord N - 2k, and a'(x0) = ca is nonzero here
                kn, cn = _root_order(self.norm_pair()[0], x0)
                k, lead = kn - k, exact_quotient(cn, 2 * ca)
            return k - kd, exact_quotient(lead, cd)
        da = a.degree if a else -inf
        db = b.degree + self.curve.genus + 1 if b else -inf
        top = max(da, db)
        lead = (a.lead() if da == top else 0) + (
            place.key * self.curve.lead_sqrt * b.lead() if db == top else 0
        )
        if not lead:
            n = self.norm_pair()[0]
            top, lead = n.degree - da, exact_quotient(n.lead(), 2 * a.lead())
        return den.degree - top, exact_quotient(lead, den.lead())

    def valuation(self, place: Place) -> int:
        """Order of h at a place: the order part of ``leading_term``."""
        return self.leading_term(place)[0]

    def __repr__(self):
        return "FieldElem((%r) + (%r) y / (%r))" % (self.a, self.b, self.den)


def _prec_pad(h: FieldElem) -> int:
    # covers Horner loss at infinity plus the inversion's double loss at
    # a branch denominator; an underestimate fails loudly in truncate
    degs = max(h.a.degree, h.b.degree, h.den.degree, 0)
    return 4 * degs + 2 * h.curve.genus + 10


def rational_divisor(h: FieldElem) -> tuple[Divisor, int, int]:
    """(D, zeros, poles) for a nonzero h: D is the part of div(h) on the
    rational places over the norm's rational roots, by increasing x, and
    at infinity; zeros and poles count the roots of a^2 - b^2 f and of
    den^2 with no rational place over them, as h is written.  The norm to
    P^1 keeps degrees and div(h) has degree 0 (Fulton, Algebraic Curves,
    ch. 8), so D.degree + zeros - poles == 0 certifies D."""
    if not h:
        raise ValueError("zero element has no divisor")
    curve = h.curve
    places, missed = {}, []
    for poly in h.norm_pair():
        missed.append(poly.degree)
        for x0, k in sorted(poly.rational_roots().items()):
            over = curve.places_over(x0)
            if over:
                missed[-1] -= k
                places.update(dict.fromkeys(over))
    places.update(dict.fromkeys((curve.infinite_place(1), curve.infinite_place(-1))))
    div = Divisor({p: h.valuation(p) for p in places})
    zeros, poles = missed
    if div.degree + zeros != poles:
        raise VerificationError(
            "degree %d with %d zeros and %d poles left out" % (div.degree, zeros, poles)
        )
    return div, zeros, poles


def divisor_of(h: FieldElem) -> Divisor:
    """The strict form of ``rational_divisor``: the full divisor of h,
    and a ValueError when a zero or a pole lies off the rational places."""
    div, zeros, poles = rational_divisor(h)
    if zeros or poles:
        raise ValueError("support of %r is not rational" % (h,))
    return div


# ----------------------------------------------------------------------
# canonical and square-root divisors
# ----------------------------------------------------------------------


def canonical_divisor(curve: HyperCurve) -> Divisor:
    """Divisor of the differential dx/y.  v(dx) is read from the place
    kind: 1 at a branch place, where x - x0 is a unit times t^2, and -2
    at infinity, where x = 1/t."""
    cached = curve._cache["canonical"]
    if cached is not None:
        return cached
    out = {}
    y = FieldElem.y_function(curve)
    for place in curve.all_standard_places():
        v_dx = 1 if place.kind == "branch" else -2
        v = v_dx - y.valuation(place)
        if v:
            out[place] = v
    div = Divisor(out)
    if div.degree != 2 * curve.genus - 2:
        raise VerificationError("canonical degree is %d" % div.degree)
    curve._cache["canonical"] = div
    return div


def _theta_representative(curve: HyperCurve, tset: frozenset) -> Divisor:
    """Square-root divisor class representative for a validated branch
    subset of the right parity: branch places over T plus the balancing
    multiple of the two infinite places.  Uncertified."""
    g = curve.genus
    if len(tset) % 2 != (g + 1) % 2:
        raise ValueError("subset size has the wrong parity")
    m, rem = divmod(g - 1 - len(tset), 2)
    if rem:
        raise ValueError("unbalanced subset size")
    out = {curve.branch_place(i): 1 for i in sorted(tset)}
    if m:
        out[curve.infinite_place(1)] = out[curve.infinite_place(-1)] = m
    return _divisor(out)


def theta_divisor(curve: HyperCurve, t) -> Divisor:
    """``_theta_representative`` of a branch subset, with its doubling
    relation against the canonical divisor certified by an explicit
    function, once per curve and subset: the certified divisor is kept in
    the curve's cache under the validated label set, which is looked up
    only after the labels, the parity and the balance are checked, so
    bad input raises on every call."""
    tset = _branch_subset(curve, t)
    div = _theta_representative(curve, tset)
    cache = curve._cache["theta"]
    if tset in cache:
        return cache[tset]
    witness = FieldElem(curve, branch_product(curve, tset))
    doubling = div.scale(2) - canonical_divisor(curve)
    if divisor_of(witness) != doubling:
        raise VerificationError("doubling witness failed for T=%s" % sorted(tset))
    cache[tset] = div
    return div


def _branch_subset(curve: HyperCurve, t) -> frozenset:
    """The branch labels t as a set; they must be distinct integers in
    1..2g+2, and anything else is a ValueError, not a coercion."""
    labels = list(t)
    n = 2 * curve.genus + 2
    if not all(type(i) is int and 1 <= i <= n for i in labels):
        raise ValueError("branch labels must be integers in 1..%d" % n)
    tset = frozenset(labels)
    if len(tset) != len(labels):
        raise ValueError("branch labels must be distinct")
    return tset


def branch_product(curve: HyperCurve, t) -> UPoly:
    """The polynomial prod over i in t of (x - x_i), x_i the i-th branch
    point (1-based); its divisor is twice the branch places over t minus
    |t| times the two infinite places."""
    out = _ONE
    for i in sorted(t):
        out = out * UPoly.x_minus(curve.roots[i - 1])
    return out


def theta_complement_witness(curve: HyperCurve, t) -> FieldElem:
    """The function h = w_T / y, w_T = prod_T (x - x_i), with divisor
    theta(T) - theta(T^c); certifies that complementary subsets give the
    same class.  It is built in lowest terms as y / (lc(f) w_{T^c}): as
    w_T / y = w_T y / f and f = lc(f) w_T w_{T^c}, the norms that
    ``rational_divisor`` factors are -f and a square of degree
    2 |T^c|, not the norms of an unreduced quotient.  theta(T) is the
    certified ``theta_divisor`` and theta(T^c) the bare representative:
    its doubling relation follows, as 2 theta(T) - K = div(w_T) and
    div(h) = theta(T) - theta(T^c) give 2 theta(T^c) - K = div(w_T / h^2),
    so it is not certified again (Mumford, Tata Lectures on Theta II,
    ch. IIIa)."""
    tset = _branch_subset(curve, t)
    comp = frozenset(range(1, 2 * curve.genus + 3)) - tset
    den = branch_product(curve, comp) * curve.f.lead()
    h = FieldElem(curve, _ZERO, _ONE, den)
    want = theta_divisor(curve, tset) - _theta_representative(curve, comp)
    if divisor_of(h) != want:
        raise VerificationError("complement witness failed for T=%s" % sorted(tset))
    return h


def spin_power_divisor(curve: HyperCurve, t, n: int) -> Divisor:
    """Representative of the n-th power of the square-root class for odd
    n: the theta representative plus (n-1)/2 canonical divisors."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    base = theta_divisor(curve, t)
    return base + canonical_divisor(curve).scale((n - 1) // 2)


# ----------------------------------------------------------------------
# Riemann-Roch spaces
# ----------------------------------------------------------------------


class RRSpace:
    """Computed basis of L(D) with the identity check record."""

    __slots__ = ("curve", "divisor", "basis", "rr_record")

    def __init__(self, curve, divisor, basis, rr_record):
        self.curve = curve
        self.divisor = divisor
        self.basis = tuple(basis)
        self.rr_record = rr_record

    @property
    def dimension(self):
        return len(self.basis)


def _ceil_div(a, b):
    return -((-a) // b)


def _group_divisor(curve, divisor):
    branch = {}
    split = {}
    inf = {1: 0, -1: 0}
    for place, n in divisor.coeffs.items():
        if place.curve != curve:
            raise ValueError("divisor lives on a different curve")
        if place.kind == "branch":
            branch[place.key] = n
        elif place.kind == "inf":
            inf[place.key] = n
        else:
            x0, y0 = place.key
            split.setdefault(x0, {})[y0] = n
    return branch, split, inf


def _rr_system(curve: HyperCurve, divisor: Divisor):
    """Denominator, degree bounds, and constraint rows for the L(D)
    ansatz h = (a(x) + b(x) y)/d(x); a row is the a-coefficients of
    x^0..x^na followed by the b-coefficients of x^0..x^nb."""
    g = curve.genus
    branch, split, inf = _group_divisor(curve, divisor)
    d = _ONE
    branch_e = {}
    for x0, n in branch.items():
        e = max(_ceil_div(n, 2), 0)
        branch_e[x0] = e
        d = d * UPoly.x_minus(x0) ** e
    split_e = {}
    for x0, ys in split.items():
        e = max(max(ys.values()), 0)
        split_e[x0] = e
        d = d * UPoly.x_minus(x0) ** e
    n_inf = max(inf[1], inf[-1], 0)
    na = d.degree + n_inf
    nb = na - (g + 1)
    zero_a = [0] * (na + 1)
    zero_b = [0] * (nb + 1)

    rows = []

    # branch constraints: the even and odd parts cannot cancel, so the
    # pole bound splits into independent order conditions on a and b
    for x0, n in branch.items():
        c = 2 * branch_e[x0] - n
        rows += [_shift_row(x0, j, na) + zero_b for j in range(_ceil_div(c, 2))]
        if nb >= 0:
            rows += [
                zero_a + _shift_row(x0, j, nb) for j in range(_ceil_div(c - 1, 2))
            ]

    # split constraints: leading coefficients in t = x - x0 on each sheet
    # over the x-value, including the sheet absent from the divisor; y is
    # the square root of f(x0 + t) through y0, and the b y part is the
    # Cauchy product of b's shifted coefficients with y's
    for x0, ys in split.items():
        e = split_e[x0]
        y0ref = next(iter(ys))
        for y0 in (y0ref, -y0ref):
            c = e - ys.get(y0, 0)
            if c <= 0:
                continue
            curve.split_place(x0, y0)  # validates the point
            yc = _sqrt_head(_taylor(curve.f, x0), y0, c)
            shifts = [_shift_row(x0, j, na) for j in range(c)]
            for j in range(c):
                b = [
                    sum(shifts[jj][k] * yc[j - jj] for jj in range(j + 1))
                    for k in range(nb + 1)
                ]
                rows.append(shifts[j] + b)

    # infinity constraints: Laurent coefficients of x^-na .. x^(c-1-na)
    # in t = 1/x vanish.  There y = s(t) t^-(g+1) with s the square root
    # of rev f(t) = t^(2g+2) f(1/t) through sign lead_sqrt, so b's x^k
    # meets s_(r+k-nb) in row r; z pads s with nb leading zeros
    for sign in (1, -1):
        c = n_inf - inf[sign]
        if c <= 0:
            continue
        z = zero_b[1:] + _sqrt_head(curve.f.coeffs[::-1], curve.lead_sqrt * sign, c)
        for r in range(c):
            a = list(zero_a)
            if r <= na:
                a[na - r] += 1
            rows.append(a + [z[r + k] for k in range(nb + 1)])

    return d, na, nb, rows


def rr_space(curve: HyperCurve, divisor: Divisor) -> RRSpace:
    """Exact basis of L(D) for divisors supported on rational places.

    The ansatz h = (a(x) + b(x) y)/d(x) with d built from the finite
    support is complete for this support class; the Riemann-Roch
    identity (against an independently computed L(K - D)) is asserted
    on every call, and each basis element's pole bounds and
    off-support regularity, on both sides, are re-verified from their
    valuations.
    """
    g = curve.genus
    basis = _rr_basis(curve, divisor)
    dual = _rr_basis(curve, canonical_divisor(curve) - divisor)
    rhs = divisor.degree - g + 1
    if len(basis) - len(dual) != rhs:
        raise VerificationError(
            "Riemann-Roch identity failed: %d - %d != %d"
            % (len(basis), len(dual), rhs)
        )
    rr_record = {
        "dim": len(basis),
        "dual_dim": len(dual),
        "deg": divisor.degree,
        "genus": g,
        "identity": True,
    }
    return RRSpace(curve, divisor, basis, rr_record)


def _rr_basis(curve, divisor):
    """Basis of L(D) from the ansatz, each element's membership
    verified."""
    from .exactalg import nullspace

    d, na, nb, rows = _rr_system(curve, divisor)
    ncols = (na + 1) + (nb + 1 if nb >= 0 else 0)
    if rows:
        vectors = nullspace(rows)
    else:
        vectors = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    basis = []
    for vec in vectors:
        a = UPoly(tuple(vec[: na + 1]))
        b = UPoly(tuple(vec[na + 1 :])) if nb >= 0 else _ZERO
        basis.append(FieldElem(curve, a, b, d))
    _verify_membership(curve, divisor, basis)
    return basis


def _verify_membership(curve, divisor, basis):
    """Each basis element obeys every pole bound and has no pole off the
    support.  The denominator vanishes only under the support, so the
    candidate poles are the support, the other sheet over each of its
    split places (validated by ``split_place``), and the infinite places."""
    split = [p.key for p in divisor.support if p.kind == "split"]
    sheets = tuple(curve.split_place(x0, -y0) for x0, y0 in split)
    infinity = (curve.infinite_place(1), curve.infinite_place(-1))
    candidates = dict.fromkeys(divisor.support + sheets + infinity)
    for h in basis:
        if not h:
            raise VerificationError("zero vector in basis")
        for place in candidates:
            if h.valuation(place) < -divisor.coeff(place):
                raise VerificationError(
                    "basis element violates bound at %r" % (place,)
                )


def h0_all_theta(curve: HyperCurve):
    """Dimensions h^0 for all 2^(2g) square-root classes of a genus-2
    curve; returns the table keyed by reduced subset and the
    (odd-dimension, even-dimension) class counts."""
    from .thetachar import enumerate_chars

    if curve.genus != 2:
        raise ValueError("the sweep is genus-2 only")
    table = {}
    for cls in enumerate_chars(curve.genus):
        dim = rr_space(curve, theta_divisor(curve, cls.members)).dimension
        if dim not in (0, 1):
            raise VerificationError("genus-2 theta dimension out of range")
        table[cls.members] = dim
    odd = sum(1 for v in table.values() if v % 2)
    return {"table": table, "counts": (odd, len(table) - odd)}
