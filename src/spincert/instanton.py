"""The standard charge-one anti-self-dual SU(2) connection on flat
4-space in quaternionic form, and certified production of coupled Dirac
solutions by Clifford-acting its curvature on the flat affine spinor
family.

Everything here is symbolic over the Gaussian rationals: connections and
curvatures are 2x2 trace-free matrices whose entries are functions of
the four coordinates, and every verification is exact.  Every
denominator that occurs is a power of rho = 1 + |x|^2, so an entry is
stored as a pair (p, k) meaning p / rho^k with p in Q(i)[x1..x4].  Sums
lift both numerators to the larger power, products add the powers, and
the derivative is

    d_i (p / rho^k) = (d_i p * rho - k * p * d_i rho) / rho^(k+1),

which is just d_i p when k = 0.  Since rho^k is a nonzero polynomial,
an entry is zero exactly when p is the zero polynomial, so no gcd or
trial division is ever needed.  Its value at a point is the exact
quotient p(x) / rho(x)^k, a Q(i) scalar in the normal form of
``exactalg.scalars``.  Conventions (orientation, duality
split, spin representation) are imported from the clifford module and
never re-chosen here.

The entries commute, so the commutator c = [a, b] of two 2x2 matrices
is read off the closed form, with da = a00 - a11 and db = b00 - b11:

    c00 = a01 b10 - b01 a10        c01 = b01 da - a01 db
    c10 = a10 db - b10 da          c11 = -c00

which takes six entry products where a * b - b * a takes sixteen.

The curvature, the Bianchi and Yang-Mills residuals, the Dirac residual
and the duality split are signed sums of covariant derivatives: sums
over terms of coef * (d_i M + [A_i, M]) with coef a Q(i) scalar.  The
Dirac operator sums gamma_i[r][c] * theta_i[c], the exterior covariant
derivative sums three terms with signs +, -, +, the curvature
d_m A_n - d_n A_m + [A_m, A_n] is a sum with one bare derivative term,
and the self-dual part (F + *F) / 2 is a two-term sum of bare entries.
The curvature action on a spinor is a sum of products alone, F_mn times
the entries of (e_m e_n) . psi.  Each output entry is built in one
pass: the numerators of every derivative (d_i p * rho - 2k x_i p),
every product and every bare entry are summed into one term dict at
the common power of rho, each scaled as it is added (a coefficient 1
as is, -1 negated, any other value multiplied once per term), and the
coefficients are brought to normal form once at the end.  So no
derivative, product, commutator or scaled matrix is built on the way.
An entry whose nonzero parts sit at different powers of rho (none in
the suite) gets one term dict per power, and the lower sums are lifted
to the highest power that does not cancel.

The connection, its curvature and the coupled fields are trace-free
(valued in su(2) tensor C), so every sum builds (0, 0), (0, 1) and
(1, 0) and reads (1, 1) off the trace: m11 = tr M - m00 and c11 = -c00,
so (1, 1) is T - (0, 0), T the same sum over tr M.  T sums only the
traceful M (trace-free is the value test ``Mat2.trace()``), so (1, 1)
is -(0, 0) for every sum a run makes, and the rank of the produced
Dirac solutions reads the three entries alone.  Every function that
takes a connection takes a ``Connection``, whose four components have
passed those checks.
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
from .exactalg.scalars import _SCALARS, exact_quotient

R4 = PolyRing(QI, ("x1", "x2", "x3", "x4"))
RHO = R4.one() + sum((R4.gen(i) * R4.gen(i) for i in range(4)), R4.zero())

GAMMA = GammaRep()


class _RhoFrac:
    """The entry p / rho^k, k >= 0; zero is stored with k = 0.

    The pair is not reduced (p may be a multiple of rho), so equality is
    a zero test on the difference."""

    __slots__ = ("p", "k")

    def __init__(self, p, k=0):
        self.p = p
        self.k = k if p.terms else 0

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
        except TypeError:
            return NotImplemented
        return not (self - other)

    def derivative(self, var):
        if not self.k:
            return _RhoFrac(self.p.derivative(var))
        out = {}
        _add_derivative(out, self.p, self.k, var, 1)
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


def _scaled_terms(p, coef):
    """The (exponent, coefficient) pairs of coef * p: p's own for a
    coefficient 1, negated for -1, each multiplied once otherwise."""
    if type(coef) is int:
        if coef == 1:
            return p.terms.items()
        if coef == -1:
            return [(e, -c) for e, c in p.terms.items()]
    return [(e, c * coef) for e, c in p.terms.items()]


def _add_scaled(out, p, coef):
    """Add coef * p to the term dict ``out``."""
    get = out.get
    for e, c in _scaled_terms(p, coef):
        acc = get(e)
        out[e] = c if acc is None else acc + c


def _add_derivative(out, p, k, var, coef):
    """Add coef times the numerator of d_var (p / rho^k) to the term dict
    ``out``: d_var p * rho - 2k * x_var * p over rho^(k+1) when k > 0
    (d_var rho is 2 x_var), d_var p over rho^0 when k = 0.  Coefficients
    are summed as they come; ``_poly`` brings them to normal form."""
    u0, u1, u2, u3 = _UNITS[var]
    minus_2k = -2 * k
    get = out.get
    for e, c in _scaled_terms(p, coef):
        e0, e1, e2, e3 = e
        n = e[var]
        if n:
            cn = c * n
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
                out[f] = cn if acc is None else acc + cn
        if k:
            f = (e0 + u0, e1 + u1, e2 + u2, e3 + u3)
            t = c * minus_2k
            acc = get(f)
            out[f] = t if acc is None else acc + t


def _add_product(out, x, y, coef):
    """Add coef times the numerator product x * y to the term dict
    ``out``, exponents added as 4-tuples; coef scales each term of x
    once."""
    y_terms = y.terms.items()
    get = out.get
    for (a0, a1, a2, a3), c1 in _scaled_terms(x, coef):
        for (e0, e1, e2, e3), c2 in y_terms:
            f = (a0 + e0, a1 + e1, a2 + e2, a3 + e3)
            t = c1 * c2
            acc = get(f)
            out[f] = t if acc is None else acc + t


def _poly(out):
    """The polynomial of a term dict whose coefficients were summed
    unnormalised: zero sums dropped, an integral Fraction stored as its
    numerator."""
    return MultiPoly._raw(
        R4,
        {
            e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in out.items()
            if c
        },
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
                _add_scaled(out, v.p, coef)
            else:
                _add_derivative(out, v.p, v.k, var, coef)
    for coef, x, y in products:
        if x.p.terms and y.p.terms:
            _add_product(sums.setdefault(x.k + y.k, {}), x.p, y.p, coef)
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


def _mat2(rows):
    """The Mat2 of a 2x2 tuple grid whose entries are already _RhoFrac."""
    m = object.__new__(Mat2)
    m.rows = rows
    return m


class Mat2:
    """A 2x2 matrix of p / rho^k entries in the four coordinates."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rr = tuple(tuple(_as_rf(v) for v in row) for row in rows)
        if len(rr) != 2 or any(len(r) != 2 for r in rr):
            raise ValueError("expected a 2x2 entry grid")
        self.rows = rr

    @classmethod
    def zero(cls):
        return _M0

    @classmethod
    def identity(cls):
        return _M1

    def __bool__(self):
        return any(v for row in self.rows for v in row)

    def trace(self):
        return self.rows[0][0] + self.rows[1][1]

    def __add__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return _mat2(((a + e, b + f), (c + g, d + h)))

    def __neg__(self):
        (a, b), (c, d) = self.rows
        return _mat2(((-a, -b), (-c, -d)))

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return _mat2(((a - e, b - f), (c - g, d - h)))

    def __mul__(self, other):
        if isinstance(other, Mat2):
            (a, b), (c, d) = self.rows
            (e, f), (g, h) = other.rows
            return _mat2(
                ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
            )
        if not isinstance(other, _SCALARS):
            try:
                other = _as_rf(other)
            except TypeError:
                return NotImplemented
        return _mat2(tuple(tuple(v * other for v in row) for row in self.rows))

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __repr__(self):
        return "Mat2(%s)" % (self.rows,)


_M0 = Mat2(((0, 0), (0, 0)))
_M1 = Mat2(((1, 0), (0, 1)))


def quaternion_units():
    """The matrix images of i, j, k, 1 used throughout this module: the
    clifford module's ``QUATERNION_UNITS`` as p / rho^0 entries."""
    return tuple(Mat2(q) for q in QUATERNION_UNITS)


def _covariant_sum(terms) -> Mat2:
    """The sum of coef * (d_var M + [A, M]) over the terms (coef, A, M,
    var), with coef a Q(i) scalar in normal form; A is None for a bare
    derivative coef * d_var M, and A and var are both None for coef * M.

    The (0, 0), (0, 1) and (1, 0) entries are one ``_entry_sum`` each:
    the entries of every M with their derivatives, and the closed-form
    commutator products of the module docstring, the second of each pair
    with coef negated.  (1, 1) is T - (0, 0), T the sum of coef * d_var
    tr M over the terms whose M is traceful, so -(0, 0) when none is.
    Each distinct M's trace, and each distinct A's and M's x00 - x11 of
    a commutator, is taken once per call.  A term with coef 0 adds
    nothing."""
    e00, e01, e10, traced = [], [], [], []
    p00, p01, p10 = [], [], []
    traces = {}  # id(M) -> tr M, per distinct M
    diffs = {}  # id(X) -> x00 - x11, per distinct A and M of a commutator
    for coef, a, m, var in terms:
        if not coef:
            continue
        (m00, m01), (m10, m11) = m.rows
        e00.append((coef, m00, var))
        e01.append((coef, m01, var))
        e10.append((coef, m10, var))
        tr = traces.get(id(m))
        if tr is None:
            tr = traces[id(m)] = m.trace()
        if tr:
            traced.append((coef, tr, var))
        if a is None:
            continue
        (a00, a01), (a10, a11) = a.rows
        dm = diffs.get(id(m))
        if dm is None:
            dm = diffs[id(m)] = m00 - m11
        da = diffs.get(id(a))
        if da is None:
            da = diffs[id(a)] = a00 - a11
        neg = -coef
        p00 += ((coef, a01, m10), (neg, a10, m01))
        p01 += ((coef, da, m01), (neg, a01, dm))
        p10 += ((coef, a10, dm), (neg, da, m10))
    s00 = _entry_sum(e00, p00)
    s11 = _entry_sum(traced, ()) - s00 if traced else -s00
    return _mat2(((s00, _entry_sum(e01, p01)), (_entry_sum(e10, p10), s11)))


def traceless_part(m: Mat2) -> Mat2:
    return m - Mat2.identity() * (m.trace() * Fraction(1, 2))


class Connection:
    """Four trace-free matrix components; an exact gauge potential.

    The connection is immutable, so its curvature and the self-dual part
    of that curvature are built on the first call of :func:`curvature`
    and :func:`self_dual_part` and kept in its private cache dict."""

    __slots__ = ("components", "_cache")

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) != 4:
            raise ValueError("a connection has four components")
        for m in comps:
            if not isinstance(m, Mat2):
                raise TypeError("components must be Mat2")
            if m.trace():
                raise ValueError("connection components must be trace-free")
        self.components = comps
        self._cache = {}


def curvature(a: Connection) -> dict:
    """F_{mu nu} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu], keys (mu, nu).

    The connection builds its curvature once and every call hands out a
    fresh dict of the same (immutable) matrices.  Anything but a
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
        out.setdefault(key, Mat2.zero())
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
    """The self-dual part (F + *F) / 2 of a matrix-valued 2-form, or of
    the curvature of a :class:`Connection`.  A Connection builds it once
    and every call hands out a fresh dict of the same matrices."""
    if isinstance(f, Connection):
        plus = f._cache.get("self_dual")
        if plus is None:
            plus = f._cache["self_dual"] = _self_dual_of(curvature(f))
        return dict(plus)
    return _self_dual_of(f)


def sd_asd_split(f):
    """Pointwise duality split (F_plus, F_minus) with F = F_plus + F_minus,
    of a matrix-valued 2-form or of the curvature of a
    :class:`Connection`, whose cached self-dual part and curvature are
    split."""
    plus = self_dual_part(f)
    if isinstance(f, Connection):
        f = curvature(f)
    return plus, {key: f.get(key, _M0) - m for key, m in plus.items()}


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
    units = (mi, mj, mk, m1)
    conj_units = (-mi, -mj, -mk, m1)
    x = Mat2.zero()
    for i, q in enumerate(units):
        x = x + q * R4.gen(i)
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
    the record does not compute it again."""
    if acts_on == "S+":
        acted = GAMMA.positive_chirality_indices()
        other = GAMMA.negative_chirality_indices()
    else:
        acted = GAMMA.negative_chirality_indices()
        other = GAMMA.positive_chirality_indices()
    zero4 = (0,) * 4
    sols = []
    for col in other:
        psi1 = tuple(1 if r == col else 0 for r in range(4))
        sols.append(TwistorSpinor(psi1, zero4))
    for col in acted:
        psi2 = tuple(1 if r == col else 0 for r in range(4))
        sols.append(TwistorSpinor(zero4, psi2))
    for s in sols:
        for idx in other:
            if s.components[idx]:
                raise VerificationError("family leaks outside its chirality block")
    return tuple(sols)


# ----------------------------------------------------------------------
# coupled fields
# ----------------------------------------------------------------------


class CoupledField:
    """Spinor with trace-free matrix entries: a section of S tensor End0."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) != 4:
            raise ValueError("a coupled field has four spinor components")
        for m in comps:
            if not isinstance(m, Mat2):
                raise TypeError("components must be Mat2")
            if m.trace():
                raise ValueError("matrix factor must be trace-free")
        self.components = comps

    def __bool__(self):
        return any(self.components)


def curvature_acts(f: dict, psi) -> CoupledField:
    """Clifford action of a matrix-valued 2-form on a scalar spinor:
    component r is the sum over the 2-form's components F_mn of
    F_mn * phi[r], phi = (e_m e_n) . psi, and each of its entries is one
    ``_entry_sum`` of the products F_mn[i][j] * phi[r] for the (0, 0),
    (0, 1) and (1, 0) entries.  (1, 1) is T - (0, 0), T the sum of
    tr F_mn * phi[r] over the traceful F_mn, so -(0, 0) when none is."""
    psi_t = tuple(_as_rf(v) for v in psi)
    # products[r] lists the products of component r's (0, 0), (0, 1),
    # (1, 0) entries and of its trace T
    products = [([], [], [], []) for _ in range(4)]
    for (m, n), mat in f.items():
        phi = GAMMA.act(Multivector.blade(_pair_mask(m, n)), psi_t)
        (f00, f01), (f10, _) = mat.rows
        tr = mat.trace()
        factors = (f00, f01, f10, tr) if tr else (f00, f01, f10)
        for v, lists in zip(phi, products):
            if v:
                for x, out in zip(factors, lists):
                    out.append((1, x, v))
    comps = []
    for p00, p01, p10, traced in products:
        s00 = _entry_sum((), p00)
        s11 = _entry_sum((), traced) - s00 if traced else -s00
        comps.append(_mat2(((s00, _entry_sum((), p01)), (_entry_sum((), p10), s11))))
    return CoupledField(comps)


def coupled_dirac(a: Connection, field: CoupledField) -> CoupledField:
    """Sum over directions of e_i . (d_i Psi + [A_i, Psi])."""
    comps = a.components
    psi = field.components
    gamma = GAMMA.gamma
    # out[r] = sum over i and c of gamma_i[r][c] * (d_i psi_c + [A_i, psi_c])
    return CoupledField(
        _covariant_sum(
            [
                (gamma[i][r][c], comps[i], psi[c], i)
                for i in range(4)
                for c in range(4)
                if gamma[i][r][c]
            ]
        )
        for r in range(4)
    )


# ----------------------------------------------------------------------
# verification reports
# ----------------------------------------------------------------------

_EVAL_POINTS = ((1, 2, -1, 3), (2, -1, 1, -2))


def _field_row(field: CoupledField, rhos):
    """The (0, 0), (0, 1) and (1, 0) entries of every component at each
    evaluation point; rhos holds the value of RHO at each point.  A
    CoupledField is trace-free, so its (1, 1) entries are the negated
    (0, 0) entries and add nothing to a rank."""
    row = []
    for point, rho in zip(_EVAL_POINTS, rhos):
        for m in field.components:
            (m00, m01), (m10, _) = m.rows
            row += (m00.eval(point, rho), m01.eval(point, rho), m10.eval(point, rho))
    return row


def independent_count(fields) -> int:
    """Rank of the fields' values at the evaluation points, three entries
    per component; RHO is evaluated once per point, not once per entry."""
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
        coupled = curvature_acts(f, psi.components)
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
    """Coupled exterior derivative of a matrix-valued 2-form; keys are
    ascending coordinate triples."""
    comps = a.components

    def term(coef, i, m, n):
        # coef * (d_i G_mn + [A_i, G_mn]), with G_mn = -G_nm
        if (m, n) in g2:
            return coef, comps[i - 1], g2[(m, n)], i - 1
        if (n, m) in g2:
            return -coef, comps[i - 1], g2[(n, m)], i - 1
        return 0, None, _M0, None

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
