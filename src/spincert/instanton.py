"""The standard charge-one anti-self-dual SU(2) connection on flat
4-space in quaternionic form, and certified production of coupled Dirac
solutions by Clifford-acting its curvature on the flat affine spinor
family.

Everything here is symbolic over the Gaussian rationals, and every
verification is exact.  The connection, its curvature and the coupled
fields are trace-free 2x2 matrices (valued in su(2) tensor C), whose
entries are functions of the four coordinates; each is stored as the
triple (a, b, c) of its matrix [[a, b], [c, -a]] (class ``Su2``), so
the (1, 1) entry is -a by type.  Every denominator that occurs is a
power of rho = 1 + |x|^2, so an entry is stored as a pair (p, k)
meaning p / rho^k with p in Q(i)[x1..x4].  Sums lift both numerators to
the larger power, products add the powers, and the derivative is

    d_i (p / rho^k) = (d_i p * rho - k * p * d_i rho) / rho^(k+1),

which is just d_i p when k = 0.  Since rho^k is a nonzero polynomial,
an entry is zero exactly when p is the zero polynomial, so no gcd or
trial division is ever needed.  Its value at a point is the exact
quotient p(x) / rho(x)^k, a Q(i) scalar in the normal form of
``exactalg.scalars``.  Conventions (orientation, duality
split, spin representation) are imported from the clifford module and
never re-chosen here.

The entries commute, so the commutator of two triples A = (a, b, c) and
M = (m, n, o) is read off the closed form

    [A, M] = (b o - n c, 2 (a n - b m), 2 (c m - a o))

which takes six entry products where A * M - M * A on 2x2 matrices
takes sixteen.

The curvature, the Bianchi and Yang-Mills residuals, the Dirac residual
and the duality split are signed sums of covariant derivatives: sums
over terms of coef * (d_i M + [A_i, M]) with coef a Q(i) scalar.  The
Dirac operator sums gamma_i[r][c] * theta_i[c], the exterior covariant
derivative sums three terms with signs +, -, +, the curvature
d_m A_n - d_n A_m + [A_m, A_n] is a sum with one bare derivative term,
and the self-dual part (F + *F) / 2 is a two-term sum of bare entries.
The curvature action on a spinor is a sum of products alone, F_mn times
the entries of (e_m e_n) . psi.  Each of the three entries of a sum is
built in one pass: the numerators of every derivative (d_i p * rho - 2k
x_i p), every product and every bare entry are summed into one term
dict at the common power of rho, each scaled as it is added (a
coefficient 1 as is, -1 negated, any other value multiplied once per
term).  The sums run on ints: an entry's coefficients are read once, by
the first sum that meets it, as integer triples (a, b, d), meaning
(a + b*i)/d, and the term dict holds each coefficient as an unreduced
triple.
A scaled term or a product of two terms multiplies triples (four integer
products), numerators over equal denominators are added, and over
different ones both are cross-multiplied.  Each surviving triple is
reduced once, with one gcd, to the Q(i) normal form, through
``scalars._reduced``.  So no derivative, product, commutator, scaled
matrix or Gaussian scalar is built on the way: a ``run instanton`` makes
392 Gaussian products, none of them in a term sum, where summing
Gaussian objects made 1,740.  An entry whose nonzero parts sit at
different powers of rho (none in the suite) gets one term dict per
power, and the lower sums are lifted to the highest power that does not
cancel.

A coupled field is a section of S+ tensor E or of S- tensor E: a
``CoupledField`` holds the two components of one chirality block and
names it.  The curvature action keeps a spinor's block, since e_m e_n is
even, and refuses a spinor with a nonzero component outside the block
it is said to lie in.  The coupled Dirac operator maps a field to the
other block, so it sums gamma_i[r][c] only for c in the field's block
and r in the other one.  The general 2x2 matrix ``Mat2`` is left only
for the construction of the BPST connection, whose x qbar needs a
general product; ``traceless_part`` maps it to a triple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import VerificationError
from .clifford import (
    QUATERNION_UNITS,
    GammaRep,
    Multivector,
    blade_indices,
    star_blade,
)
from .exactalg import MultiPoly, PolyRing, QI, rank
from .exactalg.scalars import _SCALARS, _reduced, _triple, exact_quotient

R4 = PolyRing(QI, ("x1", "x2", "x3", "x4"))
RHO = R4.one() + sum((R4.gen(i) * R4.gen(i) for i in range(4)), R4.zero())

GAMMA = GammaRep()

# the spinor indices of each chirality block, and the other block
BLOCKS = {
    "S+": GAMMA.positive_chirality_indices(),
    "S-": GAMMA.negative_chirality_indices(),
}
_OTHER = {"S+": "S-", "S-": "S+"}


class _RhoFrac:
    """The entry p / rho^k, k >= 0; zero is stored with k = 0.

    The pair is not reduced (p may be a multiple of rho), so equality is
    a zero test on the difference.  The private cache dict keeps the
    terms of p as integer triples once a sum has read them
    (``_triples``)."""

    __slots__ = ("p", "k", "_cache")

    def __init__(self, p, k=0):
        self.p = p
        self.k = k if p.terms else 0
        self._cache = {}

    def __bool__(self):
        return bool(self.p.terms)

    def __add__(self, other):
        if type(other) is not _RhoFrac:
            try:
                other = _as_rf(other)
            except TypeError:
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
        return _RhoFrac(p + q, k)

    def __neg__(self):
        return _RhoFrac(-self.p, self.k)

    def __sub__(self, other):
        if type(other) is not _RhoFrac:
            try:
                other = _as_rf(other)
            except TypeError:
                return NotImplemented
        if self.k == other.k:
            return _RhoFrac(self.p - other.p, self.k)
        return self + (-other)

    def __mul__(self, other):
        p = self.p
        if type(other) is _RhoFrac:
            if not p.terms or not other.p.terms:
                return _RF0
            return _RhoFrac(p * other.p, self.k + other.k)
        if type(other) is int:
            # the unit scalars of the gamma and star signs copy nothing
            if other == 1:
                return self
            if other == -1:
                return _RhoFrac(-p, self.k)
        if isinstance(other, _SCALARS):
            if type(other) is bool:
                # before the zero short-cut, so False fails like True
                return NotImplemented
            if not p.terms or not other:
                return _RF0
            return _RhoFrac(p.scale(other), self.k)
        try:
            other = _as_rf(other)
        except TypeError:
            return NotImplemented
        return self * other

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = _as_rf(other)
        except (TypeError, ValueError):
            # not an entry, or a polynomial of another ring
            return NotImplemented
        return not (self - other)

    def derivative(self, var):
        if not self.k:
            return _RhoFrac(self.p.derivative(var))
        out = {}
        _add_derivative(out, self, var, 1)
        return _RhoFrac(_poly(out), self.k + 1)

    def eval(self, point, rho=None):
        """p(point) / rho(point)^k; ``rho`` is the value of RHO at the
        point when the caller already has it."""
        value = self.p.eval(point)
        if not self.k:
            return value
        r = RHO.eval(point) if rho is None else rho
        if not r:
            raise ZeroDivisionError("rho vanishes at the point")
        # rho^k as k - 1 products: at a non-real point r is a Gaussian
        den = r
        for _ in range(1, self.k):
            den = den * r
        return exact_quotient(value, den)

    def __repr__(self):
        return "<(%s) / rho^%d>" % (self.p.to_str(), self.k)


_RF0 = _RhoFrac(R4.zero())

# the exponent vector of x_i, by i
_UNITS = tuple(tuple(int(j == i) for j in range(4)) for i in range(4))


def _triples(v):
    """The terms of the entry v's numerator as (exponent, (a, b, d))
    pairs, each coefficient (a + b*i)/d read through ``scalars._triple``
    on the first call and kept in the entry's cache."""
    t = v._cache.get("triples")
    if t is None:
        t = v._cache["triples"] = [(e, _triple(c)) for e, c in v.p.terms.items()]
    return t


def _scaled_terms(v, coef):
    """The (exponent, triple) pairs of coef * v's numerator: its own for
    a coefficient 1, negated for -1, each multiplied once otherwise and
    left unreduced.  A coefficient that is no Q(i) scalar, a bool among
    them, is a TypeError."""
    terms = _triples(v)
    if type(coef) is int:
        if coef == 1:
            return terms
        if coef == -1:
            return [(e, (-a, -b, d)) for e, (a, b, d) in terms]
    t = _triple(coef)
    if t is None:
        raise TypeError("cannot scale an entry by %r" % (coef,))
    ca, cb, cd = t
    return [(e, (a * ca - b * cb, a * cb + b * ca, d * cd)) for e, (a, b, d) in terms]


def _cross_add(acc, a, b, d):
    """Add (a + b*i)/d to the triple acc when the denominators differ:
    both numerators cross-multiplied over the product of the
    denominators."""
    a1, b1, d1 = acc
    acc[:] = a1 * d + a * d1, b1 * d + b * d1, d1 * d


def _add_scaled(out, v, coef):
    """Add coef times the numerator of the entry v to the term dict
    ``out``."""
    get = out.get
    for e, (a, b, d) in _scaled_terms(v, coef):
        acc = get(e)
        if acc is None:
            out[e] = [a, b, d]
        elif acc[2] == d:
            acc[0] += a
            acc[1] += b
        else:
            _cross_add(acc, a, b, d)


def _add_derivative(out, v, var, coef):
    """Add coef times the numerator of d_var v, v = p / rho^k, to the term
    dict ``out``: d_var p * rho - 2k * x_var * p over rho^(k+1) when
    k > 0 (d_var rho is 2 x_var), d_var p over rho^0 when k = 0.
    Coefficients are summed as unreduced triples; ``_poly`` reduces
    them."""
    u0, u1, u2, u3 = _UNITS[var]
    k = v.k
    minus_2k = -2 * k
    get = out.get
    for e, (a, b, d) in _scaled_terms(v, coef):
        e0, e1, e2, e3 = e
        n = e[var]
        if n:
            an, bn = a * n, b * n
            b0, b1, b2, b3 = e0 - u0, e1 - u1, e2 - u2, e3 - u3
            if k:
                # times rho = 1 + x1^2 + x2^2 + x3^2 + x4^2
                shifted = (
                    (b0, b1, b2, b3),
                    (b0 + 2, b1, b2, b3),
                    (b0, b1 + 2, b2, b3),
                    (b0, b1, b2 + 2, b3),
                    (b0, b1, b2, b3 + 2),
                )
            else:
                shifted = ((b0, b1, b2, b3),)
            for f in shifted:
                acc = get(f)
                if acc is None:
                    out[f] = [an, bn, d]
                elif acc[2] == d:
                    acc[0] += an
                    acc[1] += bn
                else:
                    _cross_add(acc, an, bn, d)
        if k:
            f = (e0 + u0, e1 + u1, e2 + u2, e3 + u3)
            a *= minus_2k
            b *= minus_2k
            acc = get(f)
            if acc is None:
                out[f] = [a, b, d]
            elif acc[2] == d:
                acc[0] += a
                acc[1] += b
            else:
                _cross_add(acc, a, b, d)


def _add_product(out, x, y, coef):
    """Add coef times the product of the numerators of the entries x and
    y to the term dict ``out``, exponents added as 4-tuples and
    coefficient triples multiplied unreduced; coef scales each term of x
    once."""
    y_terms = _triples(y)
    get = out.get
    for (a0, a1, a2, a3), (xa, xb, xd) in _scaled_terms(x, coef):
        for (e0, e1, e2, e3), (ya, yb, yd) in y_terms:
            f = (a0 + e0, a1 + e1, a2 + e2, a3 + e3)
            a = xa * ya - xb * yb
            b = xa * yb + xb * ya
            d = xd * yd
            acc = get(f)
            if acc is None:
                out[f] = [a, b, d]
            elif acc[2] == d:
                acc[0] += a
                acc[1] += b
            else:
                _cross_add(acc, a, b, d)


def _poly(out):
    """The polynomial of a term dict of unreduced coefficient triples:
    zero sums dropped, each other triple reduced once to the Q(i) normal
    form by ``scalars._reduced``."""
    return MultiPoly._raw(
        R4, {e: _reduced(*t) for e, t in out.items() if t[0] or t[1]}
    )


def _entry_sum(entries, products):
    """One entry of a covariant sum: the sum of coef * d_var v (coef * v
    when var is None) over ``entries`` (coef, v, var) and of coef * x * y
    over ``products`` (coef, x, y), in one pass.

    Each nonzero part sits at a power of rho: a derivative over
    rho^(k+1), or rho^0 when v has k = 0, a bare entry over its own
    rho^k, and a product over the sum of its factors' powers.  The
    scaled numerators are summed into one term dict per power.  When
    the parts sit at more than one power, a power whose sum is zero is
    dropped and each lower sum is lifted to the highest power left, so
    the entry is the (p, k) pair at the highest power whose own parts do
    not cancel."""
    sums = {}  # power of rho -> term dict of the parts over it
    for coef, v, var in entries:
        if v.p.terms:
            power = (v.k + 1 if v.k else 0) if var is not None else v.k
            out = sums.setdefault(power, {})
            if var is None:
                _add_scaled(out, v, coef)
            else:
                _add_derivative(out, v, var, coef)
    for coef, x, y in products:
        if x.p.terms and y.p.terms:
            _add_product(sums.setdefault(x.k + y.k, {}), x, y, coef)
    if not sums:
        return _RF0
    if len(sums) == 1:
        [(power, out)] = sums.items()
        return _RhoFrac(_poly(out), power)
    polys = {k: _poly(out) for k, out in sums.items()}
    polys = {k: p for k, p in polys.items() if p.terms}
    top = max(polys, default=0)
    total = sum((p * RHO ** (top - k) for k, p in polys.items()), R4.zero())
    return _RhoFrac(total, top)


def _as_rf(v):
    if isinstance(v, _RhoFrac):
        return v
    if isinstance(v, MultiPoly):
        if v.ring != R4:
            raise ValueError("entries live in the coordinate ring R4")
        return _RhoFrac(v)
    if isinstance(v, _SCALARS):
        return _RhoFrac(R4.const(v))
    raise TypeError("cannot use %r as a matrix entry" % (v,))


class Su2:
    """The trace-free matrix [[a, b], [c, -a]] of p / rho^k entries,
    stored as its triple (a, b, c): a value in su(2) tensor C.  Sums,
    differences and scalar multiples (by a Q(i) scalar or an entry) are
    taken entry by entry."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = _as_rf(a), _as_rf(b), _as_rf(c)

    def __bool__(self):
        return bool(self.a or self.b or self.c)

    def __add__(self, other):
        if type(other) is not Su2:
            return NotImplemented
        return Su2(self.a + other.a, self.b + other.b, self.c + other.c)

    def __neg__(self):
        return Su2(-self.a, -self.b, -self.c)

    def __sub__(self, other):
        if type(other) is not Su2:
            return NotImplemented
        return Su2(self.a - other.a, self.b - other.b, self.c - other.c)

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            try:
                other = _as_rf(other)
            except TypeError:
                return NotImplemented
        return Su2(self.a * other, self.b * other, self.c * other)

    def __eq__(self, other):
        if type(other) is not Su2:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __repr__(self):
        return "Su2(%r, %r, %r)" % (self.a, self.b, self.c)


_SU0 = Su2(0, 0, 0)


class Mat2:
    """A 2x2 matrix of p / rho^k entries, for the general products that
    build the BPST connection."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rr = tuple(tuple(_as_rf(v) for v in row) for row in rows)
        if len(rr) != 2 or any(len(r) != 2 for r in rr):
            raise ValueError("expected a 2x2 entry grid")
        self.rows = rr

    def __add__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return Mat2(((a + e, b + f), (c + g, d + h)))

    def __mul__(self, other):
        if isinstance(other, Mat2):
            (a, b), (c, d) = self.rows
            (e, f), (g, h) = other.rows
            return Mat2(
                ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
            )
        if not isinstance(other, _SCALARS):
            try:
                other = _as_rf(other)
            except TypeError:
                return NotImplemented
        return Mat2(tuple(tuple(v * other for v in row) for row in self.rows))


def quaternion_units():
    """The matrix images of i, j, k, 1 used throughout this module: the
    clifford module's ``QUATERNION_UNITS`` as p / rho^0 entries."""
    return tuple(Mat2(q) for q in QUATERNION_UNITS)


def traceless_part(m: Mat2) -> Su2:
    """m - (tr m / 2) * 1 as a triple: ((m00 - m11) / 2, m01, m10)."""
    (m00, m01), (m10, m11) = m.rows
    return Su2((m00 - m11) * Fraction(1, 2), m01, m10)


def _covariant_sum(terms) -> Su2:
    """The sum of coef * (d_var M + [A, M]) over the terms (coef, A, M,
    var), with coef a Q(i) scalar in normal form; A is None for a bare
    derivative coef * d_var M, and A and var are both None for coef * M.

    Each entry of the triple is one ``_entry_sum``: the entries of every
    M with their derivatives, and the closed-form commutator products of
    the module docstring, the second of each pair negated.  A term with
    coef 0 adds nothing."""
    ea, eb, ec = [], [], []
    pa, pb, pc = [], [], []
    for coef, a, m, var in terms:
        if not coef:
            continue
        ea.append((coef, m.a, var))
        eb.append((coef, m.b, var))
        ec.append((coef, m.c, var))
        if a is None:
            continue
        two = 2 * coef
        pa += ((coef, a.b, m.c), (-coef, m.b, a.c))
        pb += ((two, a.a, m.b), (-two, a.b, m.a))
        pc += ((two, a.c, m.a), (-two, a.a, m.c))
    return Su2(_entry_sum(ea, pa), _entry_sum(eb, pb), _entry_sum(ec, pc))


class Connection:
    """Four su(2) components (``Su2`` triples); an exact gauge potential.

    The connection is immutable, so its curvature and the self-dual part
    of that curvature are built on the first call of :func:`curvature`
    and :func:`self_dual_part` and kept in its private cache dict."""

    __slots__ = ("components", "_cache")

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) != 4:
            raise ValueError("a connection has four components")
        if not all(isinstance(m, Su2) for m in comps):
            raise TypeError("connection components must be Su2 triples")
        self.components = comps
        self._cache = {}


def curvature(a: Connection) -> dict:
    """F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu], keys (mu, nu).

    The connection builds its curvature once and every call hands out a
    fresh dict of the same (immutable) triples.  Anything but a
    :class:`Connection` is a TypeError, so every curvature comes from
    components that passed its checks."""
    if not isinstance(a, Connection):
        raise TypeError("expected a Connection, not %s" % type(a).__name__)
    F = a._cache.get("curvature")
    if F is None:
        F = a._cache["curvature"] = _curvature_of(a.components)
    return dict(F)


def _curvature_of(comps) -> dict:
    out = {}
    for m in range(1, 5):
        for n in range(m + 1, 5):
            am, an = comps[m - 1], comps[n - 1]
            # d_m A_n + [A_m, A_n] - d_n A_m
            out[(m, n)] = _covariant_sum(((1, am, an, m - 1), (-1, None, am, n - 1)))
    return out


def _pair_mask(m, n):
    return (1 << (m - 1)) | (1 << (n - 1))


def two_form_star(f: dict) -> dict:
    out = {}
    for (m, n), mat in f.items():
        comp, s = star_blade(_pair_mask(m, n))
        out[blade_indices(comp)] = mat * s
    for key in f:
        out.setdefault(key, _SU0)
    return out


def _self_dual_of(f: dict) -> dict:
    """(F + *F) / 2, each entry one two-term sum: F_key / 2 plus the
    starred component s * F_dual / 2, keys those of F and *F in order."""
    half = Fraction(1, 2)
    terms = {key: [(half, None, mat, None)] for key, mat in f.items()}
    for (m, n), mat in f.items():
        comp, s = star_blade(_pair_mask(m, n))
        terms.setdefault(blade_indices(comp), []).append((half * s, None, mat, None))
    return {key: _covariant_sum(terms[key]) for key in sorted(terms)}


def self_dual_part(f) -> dict:
    """The self-dual part (F + *F) / 2 of an su(2)-valued 2-form, or of
    the curvature of a :class:`Connection`.  A Connection builds it once
    and every call hands out a fresh dict of the same triples."""
    if isinstance(f, Connection):
        plus = f._cache.get("self_dual")
        if plus is None:
            plus = f._cache["self_dual"] = _self_dual_of(curvature(f))
        return dict(plus)
    return _self_dual_of(f)


def sd_asd_split(f):
    """Pointwise duality split (F_plus, F_minus) with F = F_plus + F_minus,
    of an su(2)-valued 2-form or of the curvature of a
    :class:`Connection`, whose cached self-dual part and curvature are
    split."""
    plus = self_dual_part(f)
    if isinstance(f, Connection):
        f = curvature(f)
    return plus, {key: f.get(key, _SU0) - m for key, m in plus.items()}


def form_is_zero(f: dict) -> bool:
    return not any(f.values())


def asd_check(f) -> bool:
    """Whether the self-dual part of a 2-form, or of a connection's
    curvature, vanishes."""
    return form_is_zero(self_dual_part(f))


def bpst_connection() -> Connection:
    """The quaternionic charge-one connection Im(X qbar_mu)/(1+|x|^2).

    The curvature is computed and must come out anti-self-dual under the
    fixed conventions.
    """
    mi, mj, mk, m1 = quaternion_units()
    x = mi * R4.gen(0) + mj * R4.gen(1) + mk * R4.gen(2) + m1 * R4.gen(3)
    conj_units = (mi * -1, mj * -1, mk * -1, m1)
    inv_rho = _RhoFrac(R4.one(), 1)
    comps = tuple(traceless_part(x * qc) * inv_rho for qc in conj_units)
    conn = Connection(comps)
    if not asd_check(conn):
        raise VerificationError("curvature is not anti-self-dual")
    return conn


# ----------------------------------------------------------------------
# flat affine spinor family
# ----------------------------------------------------------------------


def _zero_spinor():
    return (_RF0,) * 4


def _spinor_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _gamma_linear_column(col):
    """The affine spinor x . (basis spinor), entries linear polynomials."""
    comps = []
    for r in range(4):
        p = R4.zero()
        for mu in range(4):
            g = GAMMA.gamma[mu][r][col]
            if g:
                p = p + R4.gen(mu) * g
        comps.append(_RhoFrac(p))
    return tuple(comps)


def flat_dirac(derivatives):
    """Uncoupled Dirac value sum_i e_i . d_i psi of a scalar-entried
    spinor field psi, from its four derivative spinors d_i psi."""
    acc = _zero_spinor()
    for i, di in enumerate(derivatives):
        acc = _spinor_add(acc, GAMMA.act(Multivector.vector(i + 1), di))
    return acc


def twistor_residual(components):
    """The four defect fields grad_i psi + (1/4) e_i . (Dirac psi).

    All four vanish exactly iff the field solves the flat twistor
    equation; affine fields of the matched chirality pattern do.  Each
    d_i psi is computed once, for the Dirac value and for its defect.
    """
    comps = tuple(_as_rf(v) for v in components)
    derivatives = [tuple(v.derivative(i) for v in comps) for i in range(4)]
    quarter_dirac = tuple(v * Fraction(1, 4) for v in flat_dirac(derivatives))
    return tuple(
        _spinor_add(di, GAMMA.act(Multivector.vector(i + 1), quarter_dirac))
        for i, di in enumerate(derivatives)
    )


class TwistorSpinor:
    """An affine solution x . psi1 + psi2 of the flat twistor equation,
    valued in a single chirality block."""

    __slots__ = ("psi1", "psi2", "components")

    def __init__(self, psi1, psi2):
        p1 = tuple(0 if v is None else v for v in psi1)
        p2 = tuple(0 if v is None else v for v in psi2)
        field = _zero_spinor()
        for col in range(4):
            if p1[col]:
                lin = _gamma_linear_column(col)
                field = _spinor_add(field, tuple(v * p1[col] for v in lin))
            if p2[col]:
                const_part = tuple(
                    _as_rf(p2[col]) if r == col else _RF0 for r in range(4)
                )
                field = _spinor_add(field, const_part)
        self.psi1 = p1
        self.psi2 = p2
        self.components = field
        for res in twistor_residual(field):
            if any(res):
                raise VerificationError("affine field fails the twistor equation")


def twistor_basis():
    """Four independent affine solutions valued in the chirality block
    the anti-self-dual 2-forms act on (two linear, two constant)."""
    return _twistor_family(GAMMA.asd_action_record()["acts_on"])


def _twistor_family(acts_on):
    """``twistor_basis`` for the block ``acts_on`` ("S+" or "S-") that
    ``GAMMA.asd_action_record`` names, so a caller that already holds
    the record does not compute it again.  The linear solutions are x .
    psi1 with psi1 in the other block, the constant ones a basis spinor
    of ``acts_on``; ``curvature_acts`` refuses any of them that has a
    nonzero component outside ``acts_on``."""
    zero4 = (0,) * 4
    sols = []
    for col in BLOCKS[_OTHER[acts_on]]:
        psi1 = tuple(1 if r == col else 0 for r in range(4))
        sols.append(TwistorSpinor(psi1, zero4))
    for col in BLOCKS[acts_on]:
        psi2 = tuple(1 if r == col else 0 for r in range(4))
        sols.append(TwistorSpinor(zero4, psi2))
    return tuple(sols)


# ----------------------------------------------------------------------
# coupled fields
# ----------------------------------------------------------------------


class CoupledField:
    """A section of S+ tensor E or S- tensor E: the two su(2) components
    (``Su2`` triples) of the chirality block ``block`` ("S+" or "S-"),
    in the order of ``BLOCKS[block]``."""

    __slots__ = ("block", "components")

    def __init__(self, block, components):
        comps = tuple(components)
        if block not in BLOCKS:
            raise ValueError("a coupled field lives in S+ or S-, not %r" % (block,))
        if len(comps) != 2:
            raise ValueError("a coupled field has two components in its block")
        if not all(isinstance(m, Su2) for m in comps):
            raise TypeError("coupled field components must be Su2 triples")
        self.block = block
        self.components = comps

    def __bool__(self):
        return any(self.components)


def curvature_acts(f: dict, psi, block) -> CoupledField:
    """Clifford action of an su(2)-valued 2-form on a scalar spinor psi
    that lies in the chirality block ``block``: the field on that block
    whose component r is the sum over the 2-form's components F_mn of
    F_mn * phi[r], phi = (e_m e_n) . psi.  Each of its three entries is
    one ``_entry_sum`` of the products of F_mn's entry with phi[r].  A
    psi with a nonzero component outside ``block`` is a
    VerificationError."""
    psi_t = tuple(_as_rf(v) for v in psi)
    if any(psi_t[r] for r in BLOCKS[_OTHER[block]]):
        raise VerificationError("spinor leaks outside its chirality block")
    rows = BLOCKS[block]
    # products[i] lists the products of the a, b and c entries of the
    # i-th component of the block
    products = [([], [], []) for _ in rows]
    for (m, n), mat in f.items():
        phi = GAMMA.act(Multivector.blade(_pair_mask(m, n)), psi_t)
        for r, lists in zip(rows, products):
            v = phi[r]
            if v:
                for x, out in zip((mat.a, mat.b, mat.c), lists):
                    out.append((1, x, v))
    return CoupledField(
        block, (Su2(*(_entry_sum((), p) for p in lists)) for lists in products)
    )


def coupled_dirac(a: Connection, field: CoupledField) -> CoupledField:
    """Sum over directions of e_i . (d_i Psi + [A_i, Psi]): the field on
    the other chirality block, since each e_i swaps the blocks."""
    comps = a.components
    cols = BLOCKS[field.block]
    block = _OTHER[field.block]
    gamma = GAMMA.gamma
    # out[r] = sum over i and c of gamma_i[r][c] * (d_i psi_c + [A_i, psi_c])
    return CoupledField(
        block,
        (
            _covariant_sum(
                [
                    (gamma[i][r][c], comps[i], psi, i)
                    for i in range(4)
                    for c, psi in zip(cols, field.components)
                    if gamma[i][r][c]
                ]
            )
            for r in BLOCKS[block]
        ),
    )


# ----------------------------------------------------------------------
# verification reports
# ----------------------------------------------------------------------

_EVAL_POINTS = ((1, 2, -1, 3), (2, -1, 1, -2))


def _field_row(field: CoupledField, rhos):
    """The a, b and c entries of both components at each evaluation
    point; rhos holds the value of RHO at each point.  The (1, 1) entry
    of a component is -a, so it adds nothing to a rank."""
    row = []
    for point, rho in zip(_EVAL_POINTS, rhos):
        for m in field.components:
            row += (m.a.eval(point, rho), m.b.eval(point, rho), m.c.eval(point, rho))
    return row


def independent_count(fields) -> int:
    """Rank of the fields' values at the evaluation points, three entries
    per component; RHO is evaluated once per point, not once per entry.
    The fields must share one chirality block."""
    if len({f.block for f in fields}) > 1:
        raise ValueError("the fields lie in different chirality blocks")
    rhos = [RHO.eval(point) for point in _EVAL_POINTS]
    return rank([_field_row(f, rhos) for f in fields])


def verify_curvature_dirac_solutions(a: Connection) -> dict:
    """Act the curvature on the affine family and certify that every
    produced field solves the coupled Dirac equation, with the count of
    independent solutions.

    A curvature that is not anti-self-dual is reported, not rejected:
    the check then fails, and a negative control still shows its nonzero
    residuals.  ``relabeled`` is always false; it records that the
    coordinates are used as given.
    """
    f = curvature(a)
    is_asd = asd_check(a)
    degenerate = form_is_zero(f)
    acts_on = GAMMA.asd_action_record()["acts_on"]
    produced = []
    residual_zero = []
    for psi in _twistor_family(acts_on):
        coupled = curvature_acts(f, psi.components, acts_on)
        res = coupled_dirac(a, coupled)
        produced.append(coupled)
        residual_zero.append(not res)
    count = 0 if degenerate else independent_count(produced)
    return {
        "check": "curvature_dirac_solutions",
        "convention_record": {
            "acts_on": acts_on,
            "relabeled": False,
        },
        "connection_asd": is_asd,
        "degenerate": degenerate,
        "residual_zero": residual_zero,
        "independent_count": count,
        "passed": bool(
            is_asd and all(residual_zero) and (degenerate or count == 4)
        ),
    }


def exterior_covariant_derivative(a: Connection, g2: dict) -> dict:
    """Coupled exterior derivative of an su(2)-valued 2-form; keys are
    ascending coordinate triples."""
    comps = a.components

    def term(coef, i, m, n):
        # coef * (d_i G_mn + [A_i, G_mn]), with G_mn = -G_nm
        if (m, n) in g2:
            return coef, comps[i - 1], g2[(m, n)], i - 1
        if (n, m) in g2:
            return -coef, comps[i - 1], g2[(n, m)], i - 1
        return 0, None, _SU0, None

    out = {}
    for lam, mu, nu in combinations((1, 2, 3, 4), 3):
        out[(lam, mu, nu)] = _covariant_sum(
            (term(1, lam, mu, nu), term(-1, mu, lam, nu), term(1, nu, lam, mu))
        )
    return out


def yang_mills_residual(a: Connection) -> dict:
    """Components of the coupled derivative of the dualized curvature;
    identically zero exactly for Yang-Mills fields."""
    return exterior_covariant_derivative(a, two_form_star(curvature(a)))


def bianchi_residual(a: Connection) -> dict:
    """Coupled derivative of the curvature itself; zero for every
    connection, so a nonzero value flags an arithmetic bug."""
    return exterior_covariant_derivative(a, curvature(a))
