"""Curve, place, divisor, and Riemann-Roch engine tests.

Oracles: the integer-numerator ``UPoly`` and its root orders against the
Fraction-tuple class they replaced; series coefficients against
hand-derived reversion formulas evaluated with sympy derivatives;
closed-form valuations and leading coefficients against the series
expansion they replaced, and valuations against the order-only formulas
they replaced; the per-curve theta-divisor cache against the divisor_of
calls it saves; Riemann-Roch rows against the series-fed row builder in
``rr_system_oracle``; dimension ladders against the known gap
sequences; divisor computations against frozen expected values; the
16-class parity table against the combinatorial model.
"""

import contextlib
import io
from collections import Counter
from fractions import Fraction
from math import gcd, inf, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import Phase, example, find, given, settings, strategies as st

import divisor_oracle
import rr_system_oracle
import upoly_oracle
from spincert import VerificationError, hyperell
from spincert.exactalg import Gaussian, UPoly
from spincert.exactalg.scalars import rational_normal
from spincert.exactalg.upoly import _root_order, _strip_root, rational_sqrt
from spincert.cli import load_curve_fixture, main
from spincert.hyperell import (
    _group_divisor,
    _rr_system,
    _sqrt_head,
    _verify_membership,
    Divisor,
    FieldElem,
    HyperCurve,
    LSeries,
    Place,
    branch_product,
    canonical_divisor,
    divisor_of,
    h0_all_theta,
    poly_at_series,
    rational_divisor,
    rr_space,
    spin_power_divisor,
    standard_curve,
    theta_complement_witness,
    theta_divisor,
)
from spincert.thetachar import enumerate_chars


@pytest.fixture(scope="module")
def curve():
    return standard_curve()


@pytest.fixture(scope="module")
def curve_with_split_point():
    # f(6) = 6*5*4*3*2*20 = 14400 = 120^2
    return HyperCurve.from_roots([0, 1, 2, 3, 4, -14])


# ----------------------------------------------------------------------
# polynomial helpers
# ----------------------------------------------------------------------


def test_poly_division_gcd_and_roots_match_sympy():
    x = sympy.Symbol("x")
    rng_polys = [
        UPoly((Fraction(1, 2), -3, 1, 4)),
        UPoly((0, 0, 2, -1, 1)),
        UPoly((6, -5, 1)),
        UPoly((-2, 1)) * UPoly((-2, 1)) * UPoly((3, 1)),
    ]
    for p in rng_polys:
        for q in rng_polys:
            if not q:
                continue
            quo, rem = p.divmod(q)
            assert quo * q + rem == p
            assert not rem or rem.degree < q.degree
            sp = sum(c * x**k for k, c in enumerate(p.coeffs))
            sq = sum(c * x**k for k, c in enumerate(q.coeffs))
            g = p.gcd(q)
            sg = sympy.gcd(sympy.nsimplify(sp), sympy.nsimplify(sq), x)
            got = sum(c * x**k for k, c in enumerate(g.coeffs))
            assert sympy.simplify(got - sympy.monic(sg, x)) == 0


def test_rational_roots_found_with_multiplicity():
    p = UPoly((-2, 1)) ** 3 * UPoly((Fraction(1, 3), 1)) * UPoly((1, 0, 1))
    roots = p.rational_roots()
    assert roots == {Fraction(2): 3, Fraction(-1, 3): 1}
    assert UPoly((0, 0, 5)).rational_roots() == {Fraction(0): 2}


# ----------------------------------------------------------------------
# the integer kernel against the Fraction-tuple oracle
# ----------------------------------------------------------------------

FracUPoly = upoly_oracle.UPoly


def upoly_scalars():
    # ints, integral Fractions and proper fractions, zero included
    return st.one_of(
        st.integers(-6, 6),
        st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6))),
    )


def coeff_lists():
    return st.lists(upoly_scalars(), max_size=6)


@st.composite
def upoly_pairs(draw):
    """Two coefficient lists: unrelated, one a rational multiple of the
    other, the same, the negation, sharing a common factor, or zero."""
    a = draw(coeff_lists())
    mode = draw(
        st.sampled_from(("free", "scaled", "same", "negated", "common", "zero"))
    )
    if mode == "free":
        b = draw(coeff_lists())
    elif mode == "scaled":
        k = draw(upoly_scalars().filter(bool))
        b = [c * k for c in a]
    elif mode == "same":
        b = list(a)
    elif mode == "negated":
        b = [-c for c in a]
    elif mode == "common":
        g = FracUPoly(draw(coeff_lists()))
        a = (FracUPoly(a) * g).coeffs
        b = (FracUPoly(draw(coeff_lists())) * g).coeffs
    else:
        b = []
    return list(a), list(b)


def _assert_normal(p):
    """Integer numerators over a positive denominator, no trailing zero,
    numerators and denominator coprime; zero is ((), 1)."""
    num, den = p._num, p._den
    assert type(num) is tuple and all(type(c) is int for c in num)
    assert type(den) is int and den > 0
    assert not num or num[-1] != 0
    assert gcd(den, *num) == 1


def _is_qq_normal(x):
    """x is in the QQ normal form: an int, or a Fraction with denominator
    above 1.  Value equality alone cannot tell, as 0.5 == Fraction(1, 2)
    and 2 == Fraction(2)."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _assert_upoly(got, want):
    """``got`` (integer kernel) equals ``want`` (oracle) coefficient by
    coefficient, reads its coefficients out in the QQ normal form, and is
    in normal form."""
    assert type(got) is UPoly
    assert got.coeffs == want.coeffs
    assert all(_is_qq_normal(c) for c in got.coeffs)
    _assert_normal(got)


@given(upoly_pairs(), upoly_scalars(), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_upoly_matches_fraction_oracle(pair, c, n):
    a, b = pair
    p, q = UPoly(a), UPoly(b)
    op, oq = FracUPoly(a), FracUPoly(b)
    _assert_upoly(p, op)
    _assert_upoly(q, oq)
    _assert_upoly(p + q, op + oq)
    _assert_upoly(p - q, op - oq)
    _assert_upoly(p * q, op * oq)
    _assert_upoly(p * c, op * c)
    # no path puts a scalar on the left of a UPoly
    with pytest.raises(TypeError):
        c * p
    _assert_upoly(-p, -op)
    _assert_upoly(p**n, op**n)
    _assert_upoly(p.derivative(), op.derivative())
    if not q:
        with pytest.raises(ZeroDivisionError):
            p.divmod(q)
    else:
        for got, want in zip(p.divmod(q), op.divmod(oq)):
            _assert_upoly(got, want)
    _assert_upoly(p.gcd(q), op.gcd(oq))
    got, want = p.eval(c), op.eval(c)
    assert _is_qq_normal(got) and got == want
    assert (not p) == op.is_zero and p.degree == op.degree
    got = [p.coeff(k) for k in range(-1, 8)]
    assert got == [op.coeff(k) for k in range(-1, 8)]
    assert all(_is_qq_normal(x) for x in got)
    if p:
        assert p.lead() == op.lead() and _is_qq_normal(p.lead())
    assert (p == q) == (op == oq)
    assert (p == c) == (op == c)
    assert hash(p) == hash(op)
    assert repr(p) == "UPoly(%r)" % (tuple(rational_normal(c) for c in op.coeffs),)


@given(coeff_lists(), upoly_scalars().filter(bool))
@settings(max_examples=200, deadline=None)
def test_upoly_equal_from_differently_scaled_inputs(a, k):
    p = UPoly(a)
    scaled = UPoly([c * k for c in a]) * (1 / Fraction(k))
    padded = UPoly(list(a) + [0, Fraction(0)])
    fractions = UPoly([Fraction(c) for c in a])
    for q in (scaled, padded, fractions):
        assert q == p and hash(q) == hash(p)
        assert (q._num, q._den) == (p._num, p._den)
        _assert_normal(q)
    assert hash(p) == hash(FracUPoly(a))


@st.composite
def rooted_polys(draw):
    """(coefficients, x0) for c (x - x0)^k q at a rational x0 whose
    denominator may exceed 1, q drawn freely (it may vanish at x0 too,
    or be zero)."""
    x0 = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
    k = draw(st.integers(0, 3))
    c = draw(upoly_scalars().filter(bool))
    p = FracUPoly((c,)) * FracUPoly((-x0, 1)) ** k * FracUPoly(draw(coeff_lists()))
    if draw(st.booleans()) and x0.denominator == 1:
        x0 = int(x0)
    return list(p.coeffs), x0


@given(rooted_polys())
@settings(max_examples=300, deadline=None)
def test_root_order_matches_fraction_oracle(case):
    a, x0 = case
    k, value = _root_order(UPoly(a), x0)
    ok, _, ovalue = upoly_oracle._root_order(FracUPoly(a), x0)
    assert k == ok
    assert _is_qq_normal(value) and value == ovalue


def test_root_order_of_zero_is_infinite():
    assert _root_order(UPoly(), Fraction(2, 3)) == (inf, 0)


@st.composite
def split_products(draw):
    """c prod (s_i x - r_i)^(m_i), c not an integer, sometimes times an
    irreducible quadratic; returns (coefficients, expected roots)."""
    c = draw(
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((2, 3, 4, 6)))
        .filter(lambda f: f.denominator > 1)
    )
    p = FracUPoly((c,))
    want = {}
    for r, s, m in draw(
        st.lists(
            st.tuples(st.integers(-8, 8), st.integers(1, 6), st.integers(1, 3)),
            max_size=4,
        )
    ):
        p = p * FracUPoly((-r, s)) ** m
        want[Fraction(r, s)] = want.get(Fraction(r, s), 0) + m
    p = p * FracUPoly(draw(st.sampled_from(((1,), (1, 0, 1), (-2, 0, 1), (3, 1, 1)))))
    return list(p.coeffs), want


@given(split_products())
@settings(max_examples=200, deadline=None)
def test_rational_roots_match_fraction_oracle(case):
    a, want = case
    got = UPoly(a).rational_roots()
    assert got == want
    assert all(_is_qq_normal(r) for r in got)
    # the same roots, found in the same order
    assert list(got.items()) == list(FracUPoly(a).rational_roots().items())


_UPOLY_BRANCHES = {
    "integral": lambda p, q: p._den == q._den == 1 and p.degree > 0 < q.degree,
    "equal_denominators": lambda p, q: p._den == q._den != 1,
    "unequal_denominators": lambda p, q: p._den != q._den,
    "sum_cancels": lambda p, q: bool(p) and not p + q,
    "sum_reduces": lambda p, q: 0 < (p + q)._den < lcm(p._den, q._den),
    "product_reduces": lambda p, q: 0 < (p * q)._den < p._den * q._den,
    "divisor_lead_not_unit": lambda p, q: (
        p.degree > q.degree > 0 and abs(q._num[-1]) > 1 and bool(p.divmod(q)[1])
    ),
    "nontrivial_gcd": lambda p, q: p.gcd(q).degree > 0 and p != q,
    "zero_operand": lambda p, q: not q and bool(p),
}


@pytest.mark.parametrize("branch", sorted(_UPOLY_BRANCHES))
def test_upoly_pairs_reach_every_branch(branch):
    holds = _UPOLY_BRANCHES[branch]
    find(
        upoly_pairs(),
        lambda pair: holds(UPoly(pair[0]), UPoly(pair[1])),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


_ROOT_BRANCHES = {
    "root_with_denominator": lambda a, x0: (
        Fraction(x0).denominator > 1 and 0 < _root_order(UPoly(a), x0)[0] < inf
    ),
    "repeated_root": lambda a, x0: 2 <= _root_order(UPoly(a), x0)[0] < inf,
    "not_a_root": lambda a, x0: _root_order(UPoly(a), x0)[0] == 0,
    "zero_polynomial": lambda a, x0: _root_order(UPoly(a), x0)[0] == inf,
    "integer_root": lambda a, x0: type(x0) is int and 0 < _root_order(UPoly(a), x0)[0] < inf,
}


@pytest.mark.parametrize("branch", sorted(_ROOT_BRANCHES))
def test_rooted_polys_reach_every_branch(branch):
    holds = _ROOT_BRANCHES[branch]
    find(
        rooted_polys(),
        lambda case: holds(*case),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None


# a bool is no scalar: each entry point of UPoly refuses one, as _qq,
# rational_sqrt and QQ.coerce do


def test_upoly_constructor_refuses_bool():
    for coeffs in ((True, 2), (1, False), (Fraction(1, 2), True)):
        with pytest.raises(TypeError):
            UPoly(coeffs)
    with pytest.raises(TypeError):
        UPoly.const(False)
    assert UPoly((1, 2)).coeffs == (1, 2)


def test_upoly_scalar_product_refuses_bool():
    for p in (UPoly((1, 2)), UPoly((Fraction(1, 2), 1)), UPoly()):
        for b in (True, False):
            with pytest.raises(TypeError):
                p * b
    assert UPoly((1, 2)) * 1 == UPoly((1, 2))


def test_upoly_equality_refuses_bool():
    for p in (UPoly((1,)), UPoly(), UPoly((1, 2))):
        for b in (True, False):
            with pytest.raises(TypeError):
                p == b
    assert UPoly((1,)) == 1 and UPoly() == 0


def test_upoly_eval_refuses_bool():
    for p in (UPoly((1, 2)), UPoly()):
        for b in (True, False):
            with pytest.raises(TypeError):
                p.eval(b)
    assert UPoly((1, 2)).eval(1) == 3


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(min_value=-2, max_value=5), small_fracs, max_size=5),
    small_fracs.filter(lambda v: v != 0),
)
def test_series_inverse_roundtrip(coeffs, lead):
    s = LSeries(coeffs, 8)
    s = s + LSeries.term(lead, -3, 8)
    prod = s * s.invert()
    one = LSeries.term(1, 0, prod.prec)
    assert (prod - one).is_plainly_zero


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(min_value=1, max_value=6), small_fracs, max_size=5),
    st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3),
)
def test_series_sqrt_squares_back(coeffs, lead):
    s = LSeries(coeffs, 9) + LSeries.term(lead * lead, 0, 9)
    r = s.sqrt()
    assert (r * r - s).truncate(min((r * r).prec, s.prec)).is_plainly_zero
    assert r.coeff(0) == lead


def test_branch_series_matches_reversion_formula(curve):
    """x - x_i = y^2/f1 - f2 y^4/f1^3 + O(y^6), with f1, f2 the first
    two Taylor coefficients of f at the branch point."""
    xsym = sympy.Symbol("x")
    fs = sympy.prod([xsym - k for k in range(6)])
    for i in (1, 3, 6):
        x0 = sympy.Integer(curve.roots[i - 1])
        f1 = Fraction(str(sympy.diff(fs, xsym).subs(xsym, x0)))
        f2 = Fraction(str(sympy.diff(fs, xsym, 2).subs(xsym, x0) / 2))
        xs, ys = curve.branch_place(i).local_series(8)
        assert ys.coeff(1) == 1
        assert xs.coeff(0) == curve.roots[i - 1]
        assert xs.coeff(2) == 1 / f1
        assert xs.coeff(3) == 0
        assert xs.coeff(4) == -f2 / f1**3


def test_infinite_series_leading_terms(curve):
    # f = x^6 - 15 x^5 + ...; sqrt(reversed f) = 1 - 15/2 t + ...
    for sign in (1, -1):
        xs, ys = curve.infinite_place(sign).local_series(8)
        assert xs.coeff(-1) == 1
        assert ys.coeff(-3) == sign
        assert ys.coeff(-2) == sign * Fraction(-15, 2)


def test_local_series_satisfy_curve_equation(curve, curve_with_split_point):
    places = list(curve.all_standard_places())
    places.append(curve_with_split_point.split_place(6, 120))
    places.append(curve_with_split_point.split_place(6, -120))
    for place in places:
        f = place.curve.f
        xs, ys = place.local_series(14)
        defect = ys * ys - poly_at_series(f, xs)
        assert defect.truncate(min(defect.prec, 10)).is_plainly_zero


@pytest.mark.parametrize(
    "requests, cached",
    [((20, 40, 41, 70), (32, 64, 64, 128)), ((40, 41, 81, 100), (64, 64, 128, 128))],
    ids=["from_20", "from_40"],
)
def test_local_series_cache_grows_to_powers_of_two(requests, cached):
    """The cache holds the smallest power of two >= max(prec, 32), so a
    request just above a cached precision does not double it again."""
    c = HyperCurve.from_roots(range(6))
    place = c.infinite_place(1)
    for prec, want in zip(requests, cached):
        xs, ys = place.local_series(prec)
        hit = c._cache["series"][(place.kind, place.key)]
        assert hit[0] == want
        assert xs is hit[1] and ys is hit[2]


# ----------------------------------------------------------------------
# places and valuations
# ----------------------------------------------------------------------


def test_branch_valuations(curve):
    x = FieldElem(curve, UPoly((0, 1)))
    y = FieldElem.y_function(curve)
    p1 = curve.branch_place(1)
    assert x.valuation(p1) == 2  # root is x=0
    assert (x - 1).valuation(p1) == 0
    assert y.valuation(p1) == 1
    p3 = curve.branch_place(3)
    assert (x - 2).valuation(p3) == 2
    assert y.valuation(p3) == 1


def test_infinite_valuations(curve):
    x = FieldElem(curve, UPoly((0, 1)))
    y = FieldElem.y_function(curve)
    for sign in (1, -1):
        p = curve.infinite_place(sign)
        assert x.valuation(p) == -1
        assert y.valuation(p) == -3
    genus3 = HyperCurve.from_roots(range(8))
    y3 = FieldElem.y_function(genus3)
    assert y3.valuation(genus3.infinite_place(1)) == -4


def test_split_place_valuations(curve_with_split_point):
    c = curve_with_split_point
    x = FieldElem(c, UPoly((0, 1)))
    y = FieldElem.y_function(c)
    plus = c.split_place(6, 120)
    minus = c.split_place(6, -120)
    assert (x - 6).valuation(plus) == 1
    assert (x - 6).valuation(minus) == 1
    assert y.valuation(plus) == 0
    assert (y - 120).valuation(plus) == 1
    assert (y - 120).valuation(minus) == 0
    assert (y + 120).valuation(minus) == 1


# The series valuation that the closed form replaced, kept as the test
# oracle: expand at the place, doubling the precision until a term
# shows, up to a bound from degree bookkeeping of the norm.
def _series_valuation(h, place):
    num, den = h.norm_pair()
    deg_gap = max(num.degree, 0) + max(den.degree, 0)
    per_place = 2 if place.kind == "branch" else 1
    bound = per_place * (deg_gap + 2) + h.curve.f.degree + 4
    prec = 16
    while True:
        series = h.expand_at(place, min(prec, bound + 1))
        if series.coeffs:
            return series.val()
        if prec > bound:
            raise VerificationError("valuation exceeds its norm bound")
        prec *= 2


# roots and split points of the curves the oracle test draws on
ORACLE_CURVES = {
    "standard": (range(6), ()),
    "split": ((0, 1, 2, 3, 4, -14), ((6, 120), (6, -120))),
    "genus3": (range(8), ()),
    # branch points and a split x-value with denominators above 1
    "halves": (
        (0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(-7, 3)),
        ((Fraction(7, 5), Fraction(42, 125)), (Fraction(7, 5), Fraction(-42, 125))),
    ),
}


class _OraclePlaces(dict):
    """Per oracle curve: the branch places over the smallest and largest
    root (one of them over x = 0), both infinite places and the split
    places.  A curve's places are built, and their local series computed
    at precision 64, the first time a test asks for that curve, so a test
    of one curve pays for no other.  Precision 64 covers every expansion
    the oracle makes for the elements drawn below, so no drawn example
    pays for growing the cache."""

    def __missing__(self, name):
        roots, points = ORACLE_CURVES[name]
        c = HyperCurve.from_roots(roots)
        places = [c.branch_place(1), c.branch_place(len(c.roots))]
        places += [c.infinite_place(1), c.infinite_place(-1)]
        places += [c.split_place(x0, y0) for x0, y0 in points]
        for place in places:
            place.local_series(64)
        self[name] = places
        return places


@pytest.fixture(scope="module")
def oracle_places():
    return _OraclePlaces()


def _sheet_cancellers(places):
    """(a, b) pairs for a + b y that hit the rare branches: y -+ x^(g+1)
    cancel their leading terms on one infinite sheet, y -+ y0 vanish on
    one sheet over a split x-value."""
    c = places[0].curve
    one = UPoly((1,))
    monomial = UPoly.x_minus(0) ** (c.genus + 1) * c.lead_sqrt
    out = [(-monomial, one), (monomial, one)]
    for place in places:
        if place.kind == "split":
            out.append((UPoly.const(-place.key[1]), one))
    return out


small_poly = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(UPoly)
shift = st.integers(min_value=0, max_value=1)


def _draw_element(data, places):
    """A small element (a + b y)/den on the places' curve, drawn so that
    its numerator or denominator often vanishes at one of the finite
    places and, half the time, it is a multiple of a sheet canceller."""
    a, b = data.draw(small_poly), data.draw(small_poly)
    den = data.draw(small_poly.filter(bool))
    # powers of (x - x0) make a, b or den vanish over a finite place
    ja, jb, jd = data.draw(shift), data.draw(shift), data.draw(shift)
    if data.draw(st.booleans()):
        # a multiple p (ca + cb y) of a sheet canceller
        ca, cb = data.draw(st.sampled_from(_sheet_cancellers(places)))
        a, b, jb = a * ca, a * cb, ja
    finite_x = sorted(
        {p.key[0] if p.kind == "split" else p.key for p in places if p.kind != "inf"}
    )
    xm = UPoly.x_minus(data.draw(st.sampled_from(finite_x)))
    return FieldElem(places[0].curve, a * xm**ja, b * xm**jb, den * xm**jd)


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_valuation_matches_series_oracle(oracle_places, name, data):
    places = oracle_places[name]
    h = _draw_element(data, places)
    if not h:
        return
    for place in places:
        assert h.valuation(place) == _series_valuation(h, place), place


class _Replay:
    """A stand-in for the ``st.data()`` object in an ``@example``: its
    draws hand out the given values in turn, whatever the strategy, and
    start over after the last, so the example draws the same element on
    every parametrized curve."""

    def __init__(self, *values):
        self.values = values
        self.drawn = 0

    def draw(self, strategy, label=None):
        value = self.values[self.drawn % len(self.values)]
        self.drawn += 1
        return value


# the element y, in the draws of _draw_element: a = 0, b = 1, den = 1,
# no powers of x - x0, no sheet canceller and x0 = 0.  Its leading
# coefficients at the branch places of genus3 and at the split places of
# split are quotients of ints, which a bare / would make floats
_LEAD_Y = _Replay(UPoly(), UPoly((1,)), UPoly((1,)), 0, 0, 0, False, 0)


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
@example(data=_LEAD_Y)
def test_leading_term_matches_series_oracle(oracle_places, name, data):
    # the series to precision v + 1 must be exactly lead * t^v
    places = oracle_places[name]
    h = _draw_element(data, places)
    if not h:
        return
    for place in places:
        v, lead = h.leading_term(place)
        assert _is_qq_normal(lead), (place, lead)
        assert h.expand_at(place, v + 1).coeffs == {v: lead}, place


def test_valuation_rare_branches_frozen(curve, curve_with_split_point):
    c = curve_with_split_point
    plus, minus = c.split_place(6, 120), c.split_place(6, -120)
    # y - x^3: leading terms cancel on the + sheet, where
    # y = x^3 - 15/2 x^2 + ..., and add on the - sheet
    cancel_inf = FieldElem(curve, UPoly((0, 0, 0, -1)), 1)
    # (x - 6)^2 (y - 120): after the common factor, y - 120 vanishes on
    # the (6, 120) sheet only, to the order of f - 120^2 at x = 6
    sq = UPoly.x_minus(6) ** 2
    cancel_split = FieldElem(c, sq * -120, sq)
    # denominators vanishing at the place
    pole_split = FieldElem(c, -120, 1, UPoly.x_minus(6))
    pole_branch = FieldElem(curve, UPoly(), 1, UPoly.x_minus(0) ** 2)
    cases = [
        (cancel_inf, curve.infinite_place(1), -2),
        (cancel_inf, curve.infinite_place(-1), -3),
        (cancel_split, plus, 3),
        (cancel_split, minus, 2),
        (pole_split, plus, 0),
        (pole_split, minus, -1),
        (pole_branch, curve.branch_place(1), -3),
    ]
    for h, place, want in cases:
        assert h.valuation(place) == want
        assert _series_valuation(h, place) == want


def test_leading_term_rare_branches_frozen(curve, curve_with_split_point):
    c = curve_with_split_point
    plus, minus = c.split_place(6, 120), c.split_place(6, -120)
    # y - x^3 on the + sheet: N = x^6 - f = 15 x^5 + ..., so the lead is
    # lc(N)/(2 lc(a)) = 15/(2 * -1); on the - sheet y - x^3 ~ -2 x^3
    cancel_inf = FieldElem(curve, UPoly((0, 0, 0, -1)), 1)
    # (x - 6)^2 (y - 120): y - 120 = y'(6) t + ... on the + sheet with
    # y'(6) = f'(6)/240 = 21600/240 = 90, and -240 + ... on the - sheet
    sq = UPoly.x_minus(6) ** 2
    cancel_split = FieldElem(c, sq * -120, sq)
    pole_split = FieldElem(c, -120, 1, UPoly.x_minus(6))
    # y/x^2 at x = 0: x = y^2/f'(0) + ..., f'(0) = -120
    pole_branch = FieldElem(curve, UPoly(), 1, UPoly.x_minus(0) ** 2)
    cases = [
        (cancel_inf, curve.infinite_place(1), (-2, Fraction(-15, 2))),
        (cancel_inf, curve.infinite_place(-1), (-3, -2)),
        (cancel_split, plus, (3, 90)),
        (cancel_split, minus, (2, -240)),
        (pole_split, plus, (0, 90)),
        (pole_split, minus, (-1, -240)),
        (pole_branch, curve.branch_place(1), (-3, 14400)),
    ]
    for h, place, (v, lead) in cases:
        assert h.leading_term(place) == (v, lead)
        assert h.expand_at(place, v + 1).coeffs == {v: lead}


# valuations against the order-only formulas they replaced: the same
# curves as the series oracle, with every branch place, no local series,
# and the element draws of ``_draw_element``


def _order(p, x0):
    """The order of x0 = r/s as a root of p, infinity for the zero
    polynomial; ``_root_order`` without the cofactor value."""
    if not p._num:
        return inf
    return _strip_root(p._num, x0.numerator, x0.denominator)[0]


def _order_only_valuation(h, place):
    """The order of h at a place without its leading coefficient where
    no leading terms can cancel: min(2 ord a, 2 ord b + 1) - 2 ord den at
    a branch place, and deg den - max(deg a, deg b + g + 1) at infinity
    with deg a != deg b + g + 1.  Split places, and infinity with equal
    degrees, where the leading terms can cancel, take the order from
    ``leading_term``."""
    a, b, den = h.a, h.b, h.den
    if place.kind == "branch":
        x0 = place.key
        v = min(2 * _order(a, x0), 2 * _order(b, x0) + 1)
        return v - 2 * _order(den, x0)
    if place.kind == "inf":
        da = a.degree if a else -inf
        db = b.degree + h.curve.genus + 1 if b else -inf
        if da != db:
            return den.degree - max(da, db)
    return h.leading_term(place)[0]


def _order_places(name):
    roots, points = ORACLE_CURVES[name]
    c = HyperCurve.from_roots(roots)
    places = [c.branch_place(i) for i in range(1, len(c.roots) + 1)]
    places += [c.infinite_place(1), c.infinite_place(-1)]
    return places + [c.split_place(x0, y0) for x0, y0 in points]


ORDER_PLACES = {name: _order_places(name) for name in ORACLE_CURVES}


@st.composite
def order_elements(draw, name):
    # _draw_element reads its draws through a .draw attribute
    return _draw_element(SimpleNamespace(draw=draw), ORDER_PLACES[name])


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_valuation_matches_leading_term(name, data):
    # valuation is the order of leading_term; the oracle is the order-only
    # formulas it replaced
    h = data.draw(order_elements(name))
    for place in ORDER_PLACES[name]:
        if not h:
            with pytest.raises(ValueError):
                h.valuation(place)
            continue
        assert h.valuation(place) == _order_only_valuation(h, place), place


def _inf_degrees(h):
    return h.a.degree, h.b.degree + h.curve.genus + 1


_ORDER_BRANCHES = {
    "a_and_b_vanish_at_a_branch_place": lambda h, places: bool(h.a and h.b) and any(
        p.kind == "branch" and not h.a.eval(p.key) and not h.b.eval(p.key)
        for p in places
    ),
    "zero_a": lambda h, places: not h.a and bool(h.b),
    "zero_b": lambda h, places: not h.b and bool(h.a),
    "equal_degrees_at_infinity": lambda h, places: bool(h.a and h.b)
    and len(set(_inf_degrees(h))) == 1,
    "unequal_degrees_at_infinity": lambda h, places: bool(h.a and h.b)
    and len(set(_inf_degrees(h))) == 2,
    "cancelling_sheet_at_infinity": lambda h, places: bool(h.a and h.b)
    and len(set(_inf_degrees(h))) == 1
    and any(h.a.lead() + s * h.curve.lead_sqrt * h.b.lead() == 0 for s in (1, -1)),
    # the branch-place lead divides by a power of the slope
    "numerator_order_above_denominator_at_a_branch_place": lambda h, places: any(
        p.kind == "branch"
        and min(_order(h.a, p.key), _order(h.b, p.key)) > _order(h.den, p.key)
        for p in places
    ),
    "denominator_vanishes_at_a_branch_place": lambda h, places: any(
        p.kind == "branch" and not h.den.eval(p.key) for p in places
    ),
    "denominator_vanishes_at_a_split_place": lambda h, places: any(
        p.kind == "split" and not h.den.eval(p.key[0]) for p in places
    ),
}
_ORDER_CASES = [
    (name, branch)
    for name in sorted(ORACLE_CURVES)
    for branch in sorted(_ORDER_BRANCHES)
    if ORACLE_CURVES[name][1] or "split" not in branch
]


@pytest.mark.parametrize("name, branch", _ORDER_CASES)
def test_order_elements_reach_every_branch(name, branch):
    holds = _ORDER_BRANCHES[branch]
    find(
        order_elements(name),
        lambda h: holds(h, ORDER_PLACES[name]),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_split_place_rejects_bad_points(curve):
    with pytest.raises(ValueError):
        curve.split_place(1, 0)  # branch x-value
    with pytest.raises(ValueError):
        curve.split_place(6, 7)  # 7^2 != f(6)


def test_places_over_frozen(curve, curve_with_split_point):
    c = curve_with_split_point
    assert curve.places_over(0) == (curve.branch_place(1),)
    assert c.places_over(Fraction(-14)) == (c.branch_place(1),)
    assert c.places_over(6) == (c.split_place(6, 120), c.split_place(6, -120))
    assert curve.places_over(6) == ()  # f(6) = 720 is not a square
    assert curve.places_over(Fraction(1, 2)) == ()  # f(1/2) < 0
    for bad in (True, 6.0, Gaussian(6)):
        with pytest.raises(TypeError):
            c.places_over(bad)


def test_interned_places_equal_and_hash_like_fresh_places():
    c = HyperCurve.from_roots([0, 1, 2, 3, 4, -14])
    places = c.all_standard_places() + c.places_over(6)
    # the branch place x = 1 and the infinite place +1 share the key 1
    assert [p.kind for p in places] == ["branch"] * 6 + ["inf"] * 2 + ["split"] * 2
    assert c.branch_place(3).key == c.infinite_place(1).key == 1
    assert len(set(places)) == len(places) == 10
    for place in places:
        fresh = Place(c, place.kind, place.key)
        assert fresh is not place
        assert fresh == place and place == fresh
        assert hash(fresh) == hash(place) == hash((place.kind, place.key))
    again = (
        [c.branch_place(i) for i in range(1, 7)]
        + [c.infinite_place(1), c.infinite_place(-1)]
        + list(c.places_over(6))
        + [c.split_place(Fraction(6), 120), c.split_place(6, Fraction(-120))]
    )
    assert len(again) == 12
    assert all(p is q for p, q in zip(again, places + places[8:]))
    assert c.places_over(Fraction(2))[0] is c.places_over(2)[0] is c.branch_place(4)
    # an equal curve has its own places, equal to these by value
    twin = HyperCurve.from_roots([0, 1, 2, 3, 4, -14])
    assert twin.infinite_place(1) == c.infinite_place(1)
    assert twin.infinite_place(1) is not c.infinite_place(1)
    assert twin.infinite_place(1) != c.infinite_place(-1)


def test_run_all_builds_each_place_once_per_curve(monkeypatch):
    built = Counter()
    curves = []  # held, so no id is reused within the run
    init = Place.__init__

    def counting(self, curve, kind, key):
        curves.append(curve)
        built[(id(curve), kind, key)] += 1
        init(self, curve, kind, key)

    monkeypatch.setattr(Place, "__init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "all", "--seed", "1729"]) == 0
    assert built, "the run builds no place"
    assert max(built.values()) == 1, [k for k, n in built.items() if n > 1]


HALVES_FIXTURE = (
    Path(__file__).parent / "golden" / "curve_roots_0_1-2_1_3-2_2_-7-3.txt"
)


def test_curve_data_is_in_normal_form(curve, curve_with_split_point):
    # roots, slopes, lead_sqrt and place keys are ints where integral and
    # Fractions with denominator above 1 elsewhere, never integral
    # Fractions or floats, whatever scalar type the caller passed
    halves = load_curve_fixture(str(HALVES_FIXTURE))
    assert halves.roots == (Fraction(-7, 3), 0, Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert halves.slopes[0] == 14 and halves.slopes[1] == Fraction(10, 3)
    x0, y0 = Fraction(14, 10), Fraction(84, 125)
    sheets = (halves.split_place(x0, y0), halves.split_place(x0, -y0))
    assert halves.places_over(x0) == sheets
    for c, x_split in ((curve, None), (curve_with_split_point, 6), (halves, x0)):
        assert all(_is_qq_normal(r) for r in c.roots)
        assert all(_is_qq_normal(r) and _is_qq_normal(s) for r, s in c.slopes.items())
        assert _is_qq_normal(c.lead_sqrt)
        places = list(c.all_standard_places())
        places += [p for r in c.roots for p in c.places_over(Fraction(r))]
        if x_split is not None:
            places += c.places_over(Fraction(x_split)) + c.places_over(x_split)
            places += [c.split_place(Fraction(x_split), p.key[1]) for p in places[-2:]]
        for place in places:
            key = place.key if place.kind == "split" else (place.key,)
            assert all(_is_qq_normal(k) for k in key), place


@pytest.mark.parametrize("bad", [0.5, 2.0, True, Gaussian(1)], ids=repr)
def test_curve_data_rejects_floats_bools_and_gaussians(
    curve, curve_with_split_point, bad
):
    with pytest.raises(TypeError):
        curve.places_over(bad)
    with pytest.raises(TypeError):
        curve_with_split_point.split_place(bad, 120)
    with pytest.raises(TypeError):
        curve_with_split_point.split_place(6, bad)
    with pytest.raises(TypeError):
        UPoly.x_minus(bad)


@pytest.mark.parametrize("bad", [0.5, 2.0, Gaussian(1), "1"], ids=repr)
def test_upoly_rejects_non_rational_coefficients(bad):
    with pytest.raises(TypeError):
        UPoly((1, bad))
    with pytest.raises(TypeError):
        UPoly((bad,))


def test_place_hash_is_kind_and_key(curve, curve_with_split_point):
    twin = standard_curve()
    assert twin is not curve
    p, q = curve.branch_place(2), twin.branch_place(2)
    assert p == q and hash(p) == hash(q)
    assert {p: 1}[q] == 1
    # ("branch", 1) and ("inf", 1) on a different curve: same kind and
    # key, different place
    other = curve_with_split_point
    assert other.branch_place(3).key == p.key
    for mine, theirs in (
        (p, other.branch_place(3)),
        (curve.infinite_place(1), other.infinite_place(1)),
    ):
        assert mine != theirs
        assert len({mine, theirs}) == 2


def test_nonsquare_lead_curve_is_rejected():
    f = UPoly((1,))
    for r in range(6):
        f = f * UPoly.x_minus(r)
    with pytest.raises(ValueError):
        HyperCurve(f * 2)
    HyperCurve(f * 4)  # square lead is fine


def test_curve_validation_errors():
    with pytest.raises(ValueError):
        HyperCurve.from_roots([0, 1, 2, 3, 4])  # odd degree
    with pytest.raises(ValueError):
        HyperCurve.from_roots([0, 0, 1, 2, 3, 4])  # repeated root
    with pytest.raises(ValueError):
        HyperCurve(UPoly((1, 0, 1)) * UPoly.x_minus(0) * UPoly.x_minus(1)
                   * UPoly.x_minus(2) * UPoly.x_minus(3))  # irrational roots
    with pytest.raises(ValueError):
        HyperCurve(UPoly((1, 1)))  # degree too small


# ----------------------------------------------------------------------
# field elements and divisors
# ----------------------------------------------------------------------


def test_field_algebra_relations(curve):
    x = FieldElem(curve, UPoly((0, 1)))
    y = FieldElem.y_function(curve)
    assert y * y == FieldElem(curve, curve.f)
    assert y.conjugate() == -y
    h = (x * x - 3) / (y + x) + 1
    assert h * h.inverse() == FieldElem(curve, UPoly((1,)))
    assert not (h - h)
    num, den = y.norm_pair()
    assert num == -curve.f


def test_function_divisors_frozen(curve):
    x = FieldElem(curve, UPoly((0, 1)))
    y = FieldElem.y_function(curve)
    inf_p = curve.infinite_place(1)
    inf_m = curve.infinite_place(-1)
    assert divisor_of(x) == Divisor(
        {curve.branch_place(1): 2, inf_p: -1, inf_m: -1}
    )
    expect_y = {curve.branch_place(i): 1 for i in range(1, 7)}
    expect_y[inf_p] = -3
    expect_y[inf_m] = -3
    assert divisor_of(y) == Divisor(expect_y)
    assert divisor_of(y).degree == 0


def test_divisor_of_rejects_irrational_support(curve):
    h = FieldElem(curve, UPoly((-2, 0, 1)))  # x^2 - 2
    with pytest.raises(ValueError):
        divisor_of(h)


def test_rational_divisor_counts_what_it_leaves_out(curve):
    x = FieldElem(curve, UPoly((0, 1)))
    y = FieldElem.y_function(curve)
    inf_p, inf_m = curve.infinite_place(1), curve.infinite_place(-1)
    # x^2 - 2 vanishes at four irrational points, and f(7) = 5040 is not
    # a square, so x - 7 vanishes at one point of degree 2
    assert rational_divisor(x * x - 2) == (Divisor({inf_p: -2, inf_m: -2}), 4, 0)
    assert rational_divisor(x - 7) == (Divisor({inf_p: -1, inf_m: -1}), 2, 0)
    # the inverse is written over (x^2 - 2)^2: both sides count it
    h = (x - 7) * (x - 1) / (x * x - 2)
    assert rational_divisor(h) == (Divisor({curve.branch_place(2): 2}), 6, 8)
    with pytest.raises(ValueError):
        divisor_of(h)
    # the support comes in increasing x, then at infinity
    div, zeros, poles = rational_divisor(y)
    assert div.support == curve.all_standard_places()
    assert (zeros, poles) == (0, 0) and div == divisor_of(y)


@pytest.mark.parametrize("kind", ["branch", "inf"])
def test_rational_divisor_certifies_its_degree(curve, kind, monkeypatch):
    # a valuation one too high at one kind of place unbalances the degree,
    # with or without irrational support
    valuation = FieldElem.valuation
    monkeypatch.setattr(
        FieldElem, "valuation", lambda h, p: valuation(h, p) + (p.kind == kind)
    )
    x = FieldElem(curve, UPoly((0, 1)))
    for h in (x * (x - 1), x * (x * x - 2)):
        with pytest.raises(VerificationError):
            rational_divisor(h)


def test_membership_checks_the_other_sheet(curve_with_split_point):
    # (y - 120)/(x - 6) has its only finite pole at (6, -120), off the
    # support of D = (6, 120) + 2 inf+ + 2 inf-
    c = curve_with_split_point
    h = FieldElem(c, UPoly((-120,)), UPoly((1,)), UPoly((-6, 1)))
    inf = {c.infinite_place(1): 2, c.infinite_place(-1): 2}
    assert h.valuation(c.split_place(6, -120)) == -1
    _verify_membership(c, Divisor({c.split_place(6, -120): 1, **inf}), [h])
    with pytest.raises(VerificationError):
        _verify_membership(c, Divisor({c.split_place(6, 120): 1, **inf}), [h])


def test_divisor_arithmetic(curve):
    p = Divisor({curve.branch_place(1): 2})
    q = Divisor({curve.infinite_place(1): -1})
    d = p + q
    assert d.degree == 1
    assert (d - d) == Divisor()
    assert not d.is_effective()
    assert p.is_effective()
    assert d.scale(3).coeff(curve.branch_place(1)) == 6


@pytest.mark.parametrize("n", [1.5, 2.0, Fraction(2), True, "1"], ids=repr)
def test_divisor_rejects_non_integer_coefficients(curve, n):
    # int() would read 1.5 and True as 1
    with pytest.raises(ValueError):
        Divisor({curve.branch_place(1): n})


@pytest.mark.parametrize("k", [True, False, 2.0, Fraction(1, 2), Fraction(2)], ids=repr)
def test_divisor_scale_rejects_non_integer_factors(curve, k):
    # n * True is the int n, so an unchecked scale(True) is the identity
    d = Divisor({curve.branch_place(1): 2, curve.infinite_place(1): -1})
    with pytest.raises(ValueError):
        d.scale(k)
    with pytest.raises(ValueError):
        Divisor().scale(k)


# the places drawn divisors use: the fixture curve's standard places and
# the two split places over x = 6, each interned and fresh, so the merge
# meets a place both as the same object and as an equal one
_DIVISOR_CURVE = HyperCurve.from_roots([0, 1, 2, 3, 4, -14])
_DIVISOR_PLACES = _DIVISOR_CURVE.all_standard_places() + _DIVISOR_CURVE.places_over(6)
_DIVISOR_PLACES += tuple(Place(p.curve, p.kind, p.key) for p in _DIVISOR_PLACES)


def divisor_cases():
    """(a, b, k): two divisors on the fixture curve and a scale factor."""
    coeffs = st.dictionaries(
        st.sampled_from(_DIVISOR_PLACES), st.integers(-3, 3), max_size=6
    )
    return st.tuples(coeffs.map(Divisor), coeffs.map(Divisor), st.integers(-3, 3))


def _cancels(a, b):
    """Whether a + b or a - b cancels a place of both supports to 0."""
    return any(abs(b.coeff(p)) == abs(n) for p, n in a.coeffs.items())


def _entries(d):
    return [(p.kind, p.key, n) for p, n in d.coeffs.items()]


@settings(max_examples=300, deadline=None)
@given(divisor_cases())
# a - a cancels every place of a, and none may stay with coefficient 0
@example((Divisor({_DIVISOR_PLACES[0]: 1}), Divisor(), 0))
def test_divisor_arithmetic_matches_rebuild_oracle(case):
    a, b, k = case
    pairs = (
        (a + b, divisor_oracle.add(a, b)),
        (a - b, divisor_oracle.sub(a, b)),
        (-a, divisor_oracle.neg(a)),
        (a.scale(k), divisor_oracle.scale(a, k)),
        (a - a, divisor_oracle.sub(a, a)),
    )
    for fast, slow in pairs:
        # equal entries in the same order: the support order is kept
        assert _entries(fast) == _entries(slow)
        assert fast == slow and slow == fast
        assert fast.degree == divisor_oracle.degree(slow)
        assert fast.support == divisor_oracle.support(slow)
        assert all(type(n) is int and n for n in fast.coeffs.values())
    assert (a == b) == divisor_oracle.eq(a, b)


def test_divisor_cases_reach_a_cancelling_place():
    find(
        divisor_cases(),
        lambda case: _cancels(case[0], case[1]),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


@pytest.mark.parametrize("i", [1.0, Fraction(1), True, 0, 7], ids=repr)
def test_branch_place_rejects_bad_indices(curve, i):
    with pytest.raises(ValueError):
        curve.branch_place(i)


# ----------------------------------------------------------------------
# canonical and square-root divisors
# ----------------------------------------------------------------------


def test_canonical_divisor_small_genus(curve):
    k = canonical_divisor(curve)
    assert k.degree == 2
    assert k == Divisor(
        {curve.infinite_place(1): 1, curve.infinite_place(-1): 1}
    )
    genus3 = HyperCurve.from_roots(range(8))
    k3 = canonical_divisor(genus3)
    assert k3.degree == 4
    assert k3.coeff(genus3.infinite_place(1)) == 2
    assert k3.coeff(genus3.infinite_place(-1)) == 2


def test_theta_divisor_frozen_and_parity(curve):
    assert theta_divisor(curve, {1}) == Divisor({curve.branch_place(1): 1})
    t123 = theta_divisor(curve, {1, 2, 3})
    assert t123 == Divisor(
        {
            curve.branch_place(1): 1,
            curve.branch_place(2): 1,
            curve.branch_place(3): 1,
            curve.infinite_place(1): -1,
            curve.infinite_place(-1): -1,
        }
    )
    assert t123.degree == curve.genus - 1
    with pytest.raises(ValueError):
        theta_divisor(curve, {1, 2})
    with pytest.raises(ValueError):
        theta_divisor(curve, {7})
    genus3 = HyperCurve.from_roots(range(8))
    assert theta_divisor(genus3, set()).degree == 2
    with pytest.raises(ValueError):
        theta_divisor(genus3, {1})


@pytest.mark.parametrize(
    "labels",
    [
        (1.9, 2, 3),
        (1, 1, 2, 2, 3),
        (1, 1),
        (True, 2, 3),
        (Fraction(1), 2, 3),
        ("1", 2, 3),
    ],
    ids=repr,
)
def test_branch_subsets_reject_what_they_used_to_coerce(curve, labels):
    # int() and a set would read each as the subset {1, 2, 3} (or {1})
    for build in (
        lambda: theta_divisor(curve, labels),
        lambda: theta_complement_witness(curve, labels),
        lambda: spin_power_divisor(curve, labels, 3),
    ):
        with pytest.raises(ValueError):
            build()


def test_theta_divisor_certified_once_per_subset(monkeypatch):
    calls = []

    def counting(h):
        calls.append(h)
        return divisor_of(h)

    monkeypatch.setattr(hyperell, "divisor_of", counting)
    c = standard_curve()
    first = theta_divisor(c, {1, 2, 3})
    assert len(calls) == 1
    assert theta_divisor(c, [3, 2, 1]) is first
    assert theta_divisor(c, frozenset({1, 2, 3})) is first
    assert spin_power_divisor(c, (1, 2, 3), 5) == first + canonical_divisor(c).scale(2)
    assert len(calls) == 1
    theta_divisor(c, {4})
    assert len(calls) == 2
    # the sweep certifies the 14 classes not yet certified
    h0_all_theta(c)
    assert len(calls) == 16
    h0_all_theta(c)
    assert len(calls) == 16
    assert set(c._cache["theta"]) == {cls.members for cls in enumerate_chars(2)}


def test_theta_cache_lives_on_its_curve(monkeypatch):
    calls = []

    def counting(h):
        calls.append(h.curve)
        return divisor_of(h)

    monkeypatch.setattr(hyperell, "divisor_of", counting)
    c1, c2 = standard_curve(), standard_curve()
    assert c1 == c2 and c1._cache is not c2._cache
    assert theta_divisor(c1, {2}) == theta_divisor(c2, {2})
    assert calls == [c1, c2]
    assert list(c1._cache["theta"]) == list(c2._cache["theta"]) == [frozenset({2})]


@pytest.mark.parametrize(
    "labels", [{1, 2}, (1, 1, 2, 3), (1, 1, 2, 2, 3), (True, 2, 3), (True,)], ids=repr
)
def test_theta_cache_never_answers_bad_labels(labels):
    # {1, 2, 3} and {1} are cached first: (True, 2, 3) and the repeated
    # labels would hash to those keys if the lookup came before the checks
    c = standard_curve()
    theta_divisor(c, {1, 2, 3})
    theta_divisor(c, {1})
    for _ in range(3):
        with pytest.raises(ValueError):
            theta_divisor(c, labels)
    assert set(c._cache["theta"]) == {frozenset({1, 2, 3}), frozenset({1})}


def test_each_run_certifies_its_own_theta_divisors(tmp_path, monkeypatch):
    # each run builds its curve, so a second run pays the full cost again
    calls = []

    def counting(h):
        calls.append(h)
        return divisor_of(h)

    monkeypatch.setattr(hyperell, "divisor_of", counting)
    counts = []
    for _ in range(2):
        calls.clear()
        assert main(["run", "parity", "--out", str(tmp_path / "parity.json")]) == 0
        counts.append(len(calls))
    # per run: a doubling certificate for each of the 16 reduced classes
    # and the 16 complement witnesses; theta(T^c) is certified through
    # theta(T) and its witness, not by a doubling of its own
    assert counts == [32, 32]


def _golden_fixture_curve():
    return load_curve_fixture(
        str(Path(__file__).parent / "golden" / "curve_roots_0_1_2_3_4_-14.txt")
    )


def test_theta_complement_equivalence():
    # the direct doubling certificate of theta(T^c), which the witness no
    # longer makes, is the oracle on every reduced class of both curves
    for c in (standard_curve(), _golden_fixture_curve()):
        k = canonical_divisor(c)
        for cls in enumerate_chars(2):
            comp = frozenset(range(1, 7)) - cls.members
            m = (1 - len(comp)) // 2
            rep = Divisor({c.branch_place(i): 1 for i in comp}) + Divisor(
                {c.infinite_place(1): m, c.infinite_place(-1): m}
            )
            w_comp = FieldElem(c, branch_product(c, comp))
            assert divisor_of(w_comp) == rep.scale(2) - k
            h = theta_complement_witness(c, cls.members)
            assert divisor_of(h) == theta_divisor(c, cls.members) - rep
            # what the witness relies on: 2 theta(T^c) - K = div(w_T / h^2)
            w_t = FieldElem(c, branch_product(c, cls.members))
            assert divisor_of(w_t) - divisor_of(h).scale(2) == rep.scale(2) - k


def test_complement_witness_is_w_t_over_y_in_lowest_terms():
    # the witness is built as y / (lc(f) w_{T^c}); it is the same function
    # as w_T / y, with the norms -f and a square of degree 2 |T^c|
    for c in (standard_curve(), _golden_fixture_curve()):
        y = FieldElem.y_function(c)
        for cls in enumerate_chars(2):
            h = theta_complement_witness(c, cls.members)
            assert h == FieldElem(c, branch_product(c, cls.members)) / y
            num, den = h.norm_pair()
            assert num == -c.f
            assert den.degree == 2 * (6 - len(cls.members))


def test_complement_witness_rejects_a_wrong_complement(monkeypatch):
    # theta(T) stays right; only the representative of T^c is moved off
    # its class, by trading one of its branch places for one in T
    real = hyperell._theta_representative
    t = frozenset({1, 2, 3})
    comp = frozenset({4, 5, 6})

    def wrong_for_complement(curve, tset):
        rep = real(curve, tset)
        if tset != comp:
            return rep
        return rep - Divisor({curve.branch_place(4): 1}) + Divisor(
            {curve.branch_place(1): 1}
        )

    monkeypatch.setattr(hyperell, "_theta_representative", wrong_for_complement)
    c = standard_curve()
    assert theta_divisor(c, t) == real(c, t)
    with pytest.raises(VerificationError):
        theta_complement_witness(c, t)


# ----------------------------------------------------------------------
# Riemann-Roch spaces
# ----------------------------------------------------------------------


# divisor coefficients by place, for the standard curve ("std", roots
# 0..5) and the curve with split points over x = 6 ("split")
_RR_ROW_CASES = {
    "branch_at_zero": ("std", lambda c: {c.branch_place(1): -3, c.branch_place(4): 2}),
    "branch_mixed": ("std", lambda c: {c.branch_place(2): 3, c.branch_place(5): -4}),
    "branch_few_columns": ("std", lambda c: {c.branch_place(1): -1}),
    "split_both_sheets": (
        "split",
        lambda c: {c.split_place(6, 120): 2, c.split_place(6, -120): -1},
    ),
    "split_one_sheet": ("split", lambda c: {c.split_place(6, 120): 3}),
    "split_zero_pole": (
        "split",
        lambda c: {c.split_place(6, -120): -2, c.infinite_place(1): 4},
    ),
    "split_and_branch": (
        "split",
        lambda c: {c.split_place(6, 120): 1, c.branch_place(2): -3},
    ),
    "inf_asymmetric": ("std", lambda c: {c.infinite_place(1): 3, c.infinite_place(-1): 1}),
    "inf_negative_side": (
        "std",
        lambda c: {c.infinite_place(1): -1, c.infinite_place(-1): 4, c.branch_place(3): 1},
    ),
}


@pytest.mark.parametrize("name", sorted(_RR_ROW_CASES))
def test_rr_rows_match_frozen_builder(curve, curve_with_split_point, name):
    which, coeffs = _RR_ROW_CASES[name]
    c = curve if which == "std" else curve_with_split_point
    d = Divisor(coeffs(c))
    assert rr_system_oracle._rr_system(c, d)[3], "the case builds no rows"
    for div in (d, canonical_divisor(c) - d):
        assert _rr_system(c, div) == rr_system_oracle._rr_system(c, div)


# the curves the row draws run on: the standard curve, the fixture with
# split places over x = 6, and a genus-3 curve whose split places lie
# over x = 7/2; each with the places a drawn divisor may use
def _row_curve(roots, split_x):
    c = HyperCurve.from_roots(roots)
    places = [c.branch_place(1), c.branch_place(2), c.branch_place(len(c.roots))]
    places += [c.infinite_place(1), c.infinite_place(-1)]
    if split_x is not None:
        places += c.places_over(split_x)
    return c, places


ROW_CURVES = {
    "standard": _row_curve(range(6), None),
    "split": _row_curve((0, 1, 2, 3, 4, -14), 6),
    "genus3": _row_curve(range(8), Fraction(7, 2)),
}


def row_divisors(name):
    c, places = ROW_CURVES[name]
    coeffs = st.dictionaries(
        st.sampled_from(places), st.integers(-3, 3), min_size=1, max_size=4
    )
    return coeffs.map(Divisor)


def _root_blocks(c, div):
    """The row blocks of ``_rr_system`` that read a truncated square
    root, as (kind, c) pairs: one per sheet over a split x-value and
    one per infinite place with c >= 1 coefficients to read."""
    _, split, inf_coeffs = _group_divisor(c, div)
    blocks = []
    for ys in split.values():
        e = max(max(ys.values()), 0)
        y0 = next(iter(ys))
        cs = [e - ys.get(s, 0) for s in (y0, -y0)]
        sheets = sum(1 for k in cs if k > 0)
        if sheets:
            blocks.append(("split_%d_sheets" % sheets, max(cs)))
    n_inf = max(inf_coeffs[1], inf_coeffs[-1], 0)
    for sign in (1, -1):
        if n_inf - inf_coeffs[sign] >= 1:
            blocks.append(("inf_%+d" % sign, n_inf - inf_coeffs[sign]))
    return blocks


@pytest.mark.parametrize("name", sorted(ROW_CURVES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rr_rows_match_series_builder(name, data):
    c = ROW_CURVES[name][0]
    div = data.draw(row_divisors(name))
    assert _rr_system(c, div) == rr_system_oracle._rr_system(c, div)


_ROW_BRANCHES = {
    "split_one_sheet": ("split", lambda kinds: "split_1_sheets" in kinds),
    "split_both_sheets": ("split", lambda kinds: "split_2_sheets" in kinds),
    "split_two_terms": ("split", lambda kinds: kinds.get("split_1_sheets", 0) >= 2),
    "genus3_split": ("genus3", lambda kinds: any(k.startswith("split") for k in kinds)),
    "inf_plus": ("standard", lambda kinds: "inf_+1" in kinds),
    "inf_minus": ("standard", lambda kinds: "inf_-1" in kinds),
    "inf_both": ("genus3", lambda kinds: "inf_+1" in kinds and "inf_-1" in kinds),
    "inf_three_terms": ("standard", lambda kinds: kinds.get("inf_+1", 0) >= 3),
}


@pytest.mark.parametrize("branch", sorted(_ROW_BRANCHES))
def test_row_divisors_reach_every_branch(branch):
    name, holds = _ROW_BRANCHES[branch]
    c = ROW_CURVES[name][0]
    find(
        row_divisors(name),
        lambda div: holds(dict(_root_blocks(c, div))),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_sqrt_head_frozen():
    # sqrt(1 + t) = 1 + t/2 - t^2/8 + ..., and the root of 4 + t^2
    # through -2 is -2 - t^2/4
    assert _sqrt_head([1, 1], 1, 3) == [1, Fraction(1, 2), Fraction(-1, 8)]
    assert _sqrt_head([4, 0, 1], -2, 4) == [-2, 0, Fraction(-1, 4), 0]
    assert _sqrt_head([9, 5, 7], 3, 1) == [3]
    # an s_0 that does not square to u_0, and a zero s_0, are refused
    with pytest.raises(VerificationError):
        _sqrt_head([4, 1], 3, 1)
    with pytest.raises(VerificationError):
        _sqrt_head([4, 1], Fraction(5, 2), 2)
    with pytest.raises(VerificationError):
        _sqrt_head([0, 1], 0, 2)


def test_rr_zero_divisor_is_constants(curve):
    space = rr_space(curve, Divisor())
    assert space.dimension == 1
    assert space.basis[0] == FieldElem(curve, UPoly((1,)))
    assert space.rr_record["identity"]


def test_gap_ladder_at_branch_point(curve):
    p = Divisor({curve.branch_place(2): 1})
    dims = [rr_space(curve, p.scale(n)).dimension for n in range(7)]
    assert dims == [1, 1, 2, 2, 3, 4, 5]


def test_gap_ladder_at_ordinary_point(curve_with_split_point):
    c = curve_with_split_point
    p = Divisor({c.split_place(6, 120): 1})
    dims = [rr_space(c, p.scale(n)).dimension for n in range(7)]
    assert dims == [1, 1, 1, 2, 3, 4, 5]


def test_rr_identity_record_values(curve):
    k = canonical_divisor(curve)
    rec = rr_space(curve, k).rr_record
    assert rec == {
        "dim": 2,
        "dual_dim": 1,
        "deg": 2,
        "genus": 2,
        "identity": True,
    }
    rec2 = rr_space(curve, k.scale(2)).rr_record
    assert rec2["dim"] == 3 and rec2["dual_dim"] == 0


def test_square_root_classes_are_self_dual(curve):
    for cls in enumerate_chars(2):
        rec = rr_space(curve, theta_divisor(curve, cls.members)).rr_record
        assert rec["deg"] == 1
        assert rec["dual_dim"] == rec["dim"]


def test_involution_split_with_split_support(curve_with_split_point):
    c = curve_with_split_point
    d = Divisor(
        {c.split_place(6, 120): 1, c.split_place(6, -120): 1}
    )
    assert rr_space(c, d).dimension == 2
    inv = FieldElem(c, UPoly((1,)), den=UPoly.x_minus(6))
    assert (divisor_of(inv) + d).is_effective()


def test_one_sided_split_pole(curve_with_split_point):
    c = curve_with_split_point
    plus = c.split_place(6, 120)
    space = rr_space(c, Divisor({plus: 2}))
    assert space.dimension == 1
    minus = c.split_place(6, -120)
    for h in space.basis:
        assert h.valuation(minus) >= 0


def test_half_canonical_multiples(curve):
    u = UPoly((0, 2, -3, 1))  # x(x-1)(x-2)
    d32 = spin_power_divisor(curve, {1, 2, 3}, 3)
    s32 = rr_space(curve, d32)
    assert s32.dimension == 2
    one = FieldElem(curve, UPoly((1,)))
    y_over_u = FieldElem(curve, UPoly(), UPoly((1,)), u)
    found = [h for h in s32.basis]
    assert any(h == one for h in found)
    assert any(h == y_over_u for h in found)

    d52 = spin_power_divisor(curve, {1, 2, 3}, 5)
    s52 = rr_space(curve, d52)
    assert s52.dimension == 4
    x = FieldElem(curve, UPoly((0, 1)))
    targets = [one, x, y_over_u, x * y_over_u]
    for t in targets:
        assert (divisor_of(t) + d52).is_effective()

    with pytest.raises(ValueError):
        spin_power_divisor(curve, {1, 2, 3}, 2)


def test_theta_sweep_counts_and_parity_bridge(curve):
    res = h0_all_theta(curve)
    assert res["counts"] == (6, 10)
    table = res["table"]
    assert set(table.values()) <= {0, 1}
    for members, dim in table.items():
        assert dim == (1 if len(members) == 1 else 0)
    chars = enumerate_chars(2)
    assert set(table) == {cls.members for cls in chars}
    for cls in chars:
        assert table[cls.members] == cls.parity_bit


def test_theta_sweep_second_curve(curve_with_split_point):
    res = h0_all_theta(curve_with_split_point)
    assert res["counts"] == (6, 10)


def test_sweep_requires_genus_two():
    genus3 = HyperCurve.from_roots(range(8))
    with pytest.raises(ValueError):
        h0_all_theta(genus3)


def test_divisor_on_wrong_curve_rejected(curve, curve_with_split_point):
    alien = Divisor({curve_with_split_point.branch_place(1): 1})
    with pytest.raises(ValueError):
        rr_space(curve, alien)


branch_idx = st.integers(min_value=1, max_value=6)
coeff = st.integers(min_value=-2, max_value=2)


@settings(max_examples=15, deadline=None)
@given(st.dictionaries(branch_idx, coeff, max_size=3), coeff, coeff)
def test_rr_identity_on_random_divisors(curve, branch_coeffs, n_plus, n_minus):
    c = curve
    coeffs = {c.branch_place(i): n for i, n in branch_coeffs.items()}
    coeffs[c.infinite_place(1)] = n_plus
    coeffs[c.infinite_place(-1)] = n_minus
    d = Divisor(coeffs)
    space = rr_space(c, d)
    assert space.rr_record["identity"]
    assert space.dimension >= max(0, d.degree - c.genus + 1)
    if d.degree >= 2 * c.genus - 1:
        assert space.dimension == d.degree - c.genus + 1
