"""Substrate checks: scalar field axioms, the integer-triple Gaussian
against the pair-of-Fractions class it replaced, polynomial arithmetic
against an independent oracle, lazy rational-function identities, the
fraction-free linear algebra contracts, integer Bareiss on rational
rows against the Fraction elimination it replaced, and fraction-free
Gaussian and polynomial kernels against the back-substitution in the
fraction field that they replaced."""

import operator
from fractions import Fraction
from math import gcd, lcm

import echelon_oracle
import multipoly_oracle
import nr_oracle
import pytest
import subs_oracle
import sympy
from gaussian_oracle import Gaussian as FracPairGaussian
from gaussian_oracle import in_normal_form, parts
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from spincert.exactalg import (
    QI,
    QQ,
    Gaussian,
    MultiPoly,
    PolyRing,
    RatFunc,
    UPoly,
    nullspace,
    proportional,
    rank,
    rational_content,
)
from spincert.exactalg.linalg import _assert_in_kernel, _echelon
from spincert.exactalg.scalars import exact_quotient

RXY = PolyRing(QQ, ("x", "y"))
RQI = PolyRing(QI, ("x", "y"))


def rationals():
    return st.fractions(min_value=-50, max_value=50, max_denominator=9)


def gaussians():
    return st.builds(Gaussian, rationals(), rationals())


def polys(ring=RXY, max_terms=5, max_exp=4):
    coeff = gaussians() if ring.field is QI else rationals()
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * ring.nvars), coeff
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((MultiPoly(ring, {e: c}) for e, c in ts), ring.zero())
    )


# ----------------------------------------------------------------------
# scalars
# ----------------------------------------------------------------------


@given(gaussians(), gaussians(), gaussians())
@settings(max_examples=60, deadline=None)
def test_gaussian_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians())
@settings(max_examples=60, deadline=None)
def test_gaussian_inverse_and_conjugate(a):
    i = Gaussian(0, 1)
    assert i * i == -1
    re, im = parts(a)
    assert a * Gaussian(re, -im) == re * re + im * im
    if a:
        assert a * (Gaussian(1) / a) == 1


def test_gaussian_zero_division():
    with pytest.raises(ZeroDivisionError):
        Gaussian(1) / Gaussian(0)


# Differential test of the integer-triple Gaussian against the
# pair-of-Fractions class it replaced.  Components have small numerators
# and denominators from a few shared values, and the second operand is
# often derived from the first, so draws hit d = 1, equal and unequal
# denominators, cancellation to zero, gcd reductions and division by 0.


def small_fractions():
    return st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def gaussian_pairs(draw):
    x = (draw(small_fractions()), draw(small_fractions()))
    mode = draw(st.sampled_from(("free", "negated", "same", "conjugate", "zero")))
    if mode == "free":
        y = (draw(small_fractions()), draw(small_fractions()))
    elif mode == "negated":
        y = (-x[0], -x[1])
    elif mode == "same":
        y = x
    elif mode == "conjugate":
        y = (x[0], -x[1])
    else:
        y = (Fraction(0), Fraction(0))
    return x, y


def _outcome(fn):
    try:
        return fn()
    except ZeroDivisionError:
        return ZeroDivisionError


def _assert_matches(got, want, built=False):
    """``got`` equals ``want`` (oracle) by value.  A result of arithmetic
    is in the Q(i) normal form, a reduced triple included; a value
    ``built`` by the constructor is a Gaussian, real or not, with its
    triple in normal form."""
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
        return
    assert parts(got) == (want.re, want.im)
    if built:
        assert type(got) is Gaussian
        assert got._d > 0 and gcd(got._a, got._b, got._d) == 1
    else:
        assert _in_normal_form(got, QI)


def _power(x, n):
    """x**n as n products from the int 1."""
    out = 1
    for _ in range(n):
        out = out * x
    return out


@given(gaussian_pairs(), st.integers(-3, 3), small_fractions(), st.integers(0, 5))
# zero: the Q(i) constructor must give the int 0, not a real Gaussian
@example(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))), 0, Fraction(0), 0)
# 2 * i/2: the int-by-Gaussian product must cancel the 2, giving i
@example(((Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(-1, 2))), 2, 0, 0)
@settings(max_examples=300, deadline=None)
def test_gaussian_matches_fraction_pair_oracle(pair, k, q, n):
    (xr, xi), (yr, yi) = pair
    x, y = Gaussian(xr, xi), Gaussian(yr, yi)
    ox, oy = FracPairGaussian(xr, xi), FracPairGaussian(yr, yi)
    _assert_matches(x, ox, built=True)
    _assert_matches(y, oy, built=True)
    binary = (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / b,
    )
    for op in binary:
        _assert_matches(_outcome(lambda: op(x, y)), _outcome(lambda: op(ox, oy)))
        for r in (k, q):
            _assert_matches(_outcome(lambda: op(x, r)), _outcome(lambda: op(ox, r)))
    # a rational on the left, as exact_quotient divides an int by a
    # Gaussian
    for op in binary:
        for r in (k, q):
            _assert_matches(_outcome(lambda: op(r, x)), _outcome(lambda: op(r, ox)))
    _assert_matches(-x, -ox)
    _assert_matches(_power(x, n), ox**n)
    assert bool(x) == bool(ox) == (not ox.is_zero)
    assert (x == y) == (ox == oy)
    assert hash(x) == hash(ox)
    for r in (k, q):
        assert (x == r) == (ox == r) and (r == x) == (r == ox)
        if x == r:
            assert hash(x) == hash(r)
    # text: the same canonical string, and the constructor's other inputs
    # (ints, strings) give the same value
    assert str(x) == str(ox) and repr(x) == repr(ox)
    _assert_matches(Gaussian(str(xr), str(xi)), ox, built=True)
    _assert_matches(Gaussian(k, n), FracPairGaussian(k, n), built=True)
    assert QI.coerce(x) == x and _in_normal_form(QI.coerce(x), QI)


def _den(z):
    """The d of a Q(i) scalar (a + b*i)/d in lowest terms."""
    re, im = parts(z)
    return lcm(re.denominator, im.denominator)


def _norm(z):
    """a*a + b*b for the Q(i) scalar (a + b*i)/d in lowest terms."""
    re, im = parts(z)
    return (re * re + im * im) * _den(z) ** 2


def _nonreal(z):
    return bool(parts(z)[1])


def _real_result(op):
    """Both operands non-real and op of them real."""
    return lambda x, y: _nonreal(x) and _nonreal(y) and not _nonreal(op(x, y))


_PAIR_BRANCHES = {
    "integral": lambda x, y: _den(x) == _den(y) == 1,
    "equal_denominators": lambda x, y: _den(x) == _den(y) != 1,
    "unequal_denominators": lambda x, y: _den(x) != _den(y),
    "sum_cancels": lambda x, y: bool(x) and not x + y,
    "sum_reduces": lambda x, y: _den(x + y) < max(_den(x), _den(y)),
    "product_reduces": lambda x, y: _den(x * y) < _den(x) * _den(y),
    "quotient_reduces": lambda x, y: (
        bool(y) and _den(x / y) < _den(x) * _norm(y)
    ),
    "zero_division": lambda x, y: not y,
    # i*i, (1+i)(1-i): a real result of non-real operands is an int or
    # a Fraction, never a Gaussian
    "real_sum": _real_result(operator.add),
    "real_product": _real_result(operator.mul),
    "real_fractional_product": lambda x, y: (
        _real_result(operator.mul)(x, y) and _den(x * y) > 1
    ),
    "real_quotient": lambda x, y: bool(y) and _real_result(operator.truediv)(x, y),
}


@pytest.mark.parametrize("branch", sorted(_PAIR_BRANCHES))
def test_gaussian_pairs_reach_every_branch(branch):
    holds = _PAIR_BRANCHES[branch]
    find(
        gaussian_pairs(),
        lambda pair: holds(Gaussian(*pair[0]), Gaussian(*pair[1])),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


# An int operand of a Gaussian sum or product takes a short path; the
# differential test above checks its values, with k drawn from -3..3.
_INT_BRANCHES = {
    "sum_over_denominator": lambda x, k: _den(x) > 1 and k != 0,
    "product_without_denominator": lambda x, k: _den(x) == 1 and abs(k) > 1,
    "product_reduces": lambda x, k: 1 < _den(x) and _den(x * k) < _den(x),
    "product_keeps_denominator": lambda x, k: (
        abs(k) > 1 and 1 < _den(x) == _den(x * k)
    ),
    "product_by_zero": lambda x, k: k == 0,
}


@pytest.mark.parametrize("branch", sorted(_INT_BRANCHES))
def test_gaussian_int_operands_reach_every_branch(branch):
    holds = _INT_BRANCHES[branch]
    find(
        st.tuples(small_fractions(), small_fractions(), st.integers(-3, 3)),
        lambda case: bool(case[1]) and holds(Gaussian(case[0], case[1]), case[2]),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------


def _sympy_scalar(c):
    if isinstance(c, Gaussian):
        re, im = parts(c)
        return _sympy_scalar(re) + sympy.I * _sympy_scalar(im)
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def _to_sympy(p):
    xs = sympy.symbols(p.ring.names)
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        t = _sympy_scalar(c)
        for s, e in zip(xs, exps):
            t *= s**e
        expr += t
    return sympy.expand(expr)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_poly_mul_matches_sympy(p, q):
    assert _to_sympy(p * q) == sympy.expand(_to_sympy(p) * _to_sympy(q))


@st.composite
def poly_pairs(draw):
    """(p, q, c) over Q or Q(i): q is drawn afresh, a constant, zero, or
    +-p plus a few terms, so that zero and constant operands and
    cancellation to zero (whole or partial) are reached; c is a scalar
    of the ring's field, zero included, as an int, a Fraction or (over
    Q(i)) a Gaussian."""
    ring = draw(st.sampled_from((RXY, RQI)))
    p = draw(polys(ring, max_terms=4, max_exp=3))
    mode = draw(st.sampled_from(("free", "constant", "zero", "echo")))
    if mode == "free":
        q = draw(polys(ring, max_terms=4, max_exp=3))
    elif mode == "constant":
        q = ring.const(draw(rationals()))
    elif mode == "zero":
        q = ring.zero()
    else:
        q = draw(st.sampled_from((p, -p))) + draw(polys(ring, max_terms=1, max_exp=3))
    if draw(st.booleans()):
        p, q = q, p
    scalars = [st.integers(-3, 3), rationals()]
    if ring is RQI:
        scalars.append(gaussians())
    return p, q, draw(st.one_of(*scalars))


def _in_normal_form(c, field):
    """A QQ scalar is an int, or a Fraction with denominator above 1
    (never a float, never an integral Fraction); a QI scalar is one of
    those, or a Gaussian with a nonzero imaginary part."""
    return in_normal_form(c) and (field is QI or type(c) is not Gaussian)


def _stores_no_zero(p):
    return all(c and _in_normal_form(c, p.ring.field) for c in p.terms.values())


@given(poly_pairs())
@settings(max_examples=80, deadline=None)
def test_poly_arithmetic_matches_sympy(case):
    p, q, c = case
    sp, sq, sc = _to_sympy(p), _to_sympy(q), _sympy_scalar(c)
    results = (
        (p + q, sp + sq),
        (p - q, sp - sq),
        (p * q, sp * sq),
        (p * c, sc * sp),
        (-p, -sp),
    )
    for got, want in results:
        assert _to_sympy(got) == sympy.expand(want)
        assert _stores_no_zero(got)
    assert p - q == p + (-q) and q - p == -(p - q)
    assert bool(p - q) == (p != q)


_POLY_PAIR_BRANCHES = {
    "zero_operand": lambda p, q, c: bool(p) != bool(q),
    "both_zero": lambda p, q, c: not p and not q,
    "constant_operand": lambda p, q, c: bool(p)
    and p.is_constant()
    and not q.is_constant(),
    "sum_cancels": lambda p, q, c: bool(p) and not p + q,
    "difference_cancels": lambda p, q, c: bool(p) and not p - q,
    "partial_cancellation": lambda p, q, c: bool(p + q)
    and len((p + q).terms) < len(set(p.terms) | set(q.terms)),
    "scale_by_zero": lambda p, q, c: bool(p) and not c,
    "gaussian_scale": lambda p, q, c: bool(p) and isinstance(c, Gaussian),
}


@pytest.mark.parametrize("branch", sorted(_POLY_PAIR_BRANCHES))
def test_poly_pairs_reach_every_branch(branch):
    holds = _POLY_PAIR_BRANCHES[branch]
    find(
        poly_pairs(),
        lambda case: holds(*case),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


ORXY = multipoly_oracle.FractionPolyRing(RXY.names)


def _qq_scalars():
    """Rationals as a caller may pass them: ints, integral and
    non-integral Fractions, and the halves that make integral products."""
    return st.one_of(
        st.integers(-4, 4),
        st.sampled_from((Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(4, 2))),
        rationals(),
    )


def _qq_terms(max_terms=4):
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, _qq_scalars(), max_size=max_terms)


@st.composite
def qq_cases(draw):
    """(p, q, c, point) as term dicts over Q[x, y], a scalar and an
    evaluation point: q is drawn afresh, echoes +-p plus a term (so sums
    cancel), or is a small divisor with an even leading coefficient (so
    quotients of int coefficients leave the integers); the point's
    coordinates are ints or Fractions."""
    p = draw(_qq_terms())
    mode = draw(st.sampled_from(("free", "echo", "divisor")))
    if mode == "free":
        q = draw(_qq_terms())
    elif mode == "echo":
        sign = draw(st.sampled_from((1, -1)))
        q = {e: sign * c for e, c in p.items()}
        q.update(draw(_qq_terms(max_terms=1)))
    else:
        q = {(1, 0): draw(st.sampled_from((2, -2, 4))), (0, 0): draw(_qq_scalars())}
    point = draw(st.tuples(_qq_scalars(), _qq_scalars()))
    return p, q, draw(_qq_scalars()), point


def _qq_results(p, q, c):
    """Each operation on (p, q) under one ring, as (name, result)."""
    out = [
        ("add", p + q),
        ("sub", p - q),
        ("mul", p * q),
        ("mul_scalar", p * c),
        ("derivative_x", p.derivative(0)),
        ("derivative_y", p.derivative(1)),
    ]
    if q:
        out.append(("exact_div_product", (p * q).exact_div(q)))
        out.append(("exact_div", p.exact_div(q)))
    return out


_ONE_PLUS_HALF_Y = {(0, 0): 1, (0, 1): Fraction(1, 2)}


@given(qq_cases())
# 1 divided by 1: a bare / in exact_div makes the float 1.0
@example(({(0, 0): 1}, {(0, 0): 1}, 0, (0, 0)))
# (1 + y/2)^2: the y coefficient 1/2 + 1/2 must be stored as the int 1
@example((_ONE_PLUS_HALF_Y, _ONE_PLUS_HALF_Y, 0, (0, 0)))
@settings(max_examples=200, deadline=None)
def test_qq_arithmetic_matches_fraction_oracle(case):
    pt, qt, c, point = case
    p, q = MultiPoly(RXY, pt), MultiPoly(RXY, qt)
    op, oq = ORXY.poly(pt), ORXY.poly(qt)
    assert p.to_str() == op.to_str() and _stores_no_zero(p)
    for (name, got), (_, want) in zip(_qq_results(p, q, c), _qq_results(op, oq, c)):
        if want is None:
            assert got is None, name
            continue
        assert got.to_str() == want.to_str(), name
        assert got.terms == want.terms, name
        assert hash(got) == hash((RXY, frozenset(want.terms.items()))), name
        assert _stores_no_zero(got), name
    got, want = p.eval(point), op.eval(point)
    assert got == want and str(got) == str(want) and hash(got) == hash(want)
    assert _in_normal_form(got, QQ)


def _has_fraction(p):
    return any(type(c) is Fraction for c in p.terms.values())


def _integral_fraction_product(p, q):
    return any(
        type(a) is Fraction and (a * b).denominator == 1
        for a in p.terms.values()
        for b in q.terms.values()
    )


def _int_quotient_leaves_integers(p, q):
    # (p q) / q over int coefficients whose quotient p is not integral
    if not q or _has_fraction(q) or _has_fraction(p * q):
        return False
    return _has_fraction(p)


_QQ_BRANCHES = {
    "integral_product_of_fractions": _integral_fraction_product,
    "fractional_exact_div_quotient": _int_quotient_leaves_integers,
    "cancellation_to_zero": lambda p, q: bool(p) and (not p + q or not p - q),
    "derivative_becomes_integral": lambda p, q: any(
        type(c) is Fraction and e[0] and (c * e[0]).denominator == 1
        for e, c in p.terms.items()
    ),
}
_QQ_POINTS = {
    "eval_at_int_point": lambda p, point: not p.is_constant()
    and all(type(v) is int or v.denominator == 1 for v in point),
    "eval_at_fraction_point": lambda p, point: not p.is_constant()
    and any(type(v) is Fraction and v.denominator > 1 for v in point),
}


@pytest.mark.parametrize("branch", sorted(_QQ_BRANCHES) + sorted(_QQ_POINTS))
def test_qq_cases_reach_every_branch(branch):
    def holds(case):
        pt, qt, _, point = case
        p = MultiPoly(RXY, pt)
        if branch in _QQ_POINTS:
            return _QQ_POINTS[branch](p, point)
        return _QQ_BRANCHES[branch](p, MultiPoly(RXY, qt))

    find(
        qq_cases(),
        holds,
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_qq_coerce_normal_form():
    assert type(QQ.coerce(Fraction(6, 3))) is int and QQ.coerce(Fraction(6, 3)) == 2
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.coerce(Gaussian(3))) is int
    assert QQ.coerce(Gaussian(Fraction(1, 3))) == Fraction(1, 3)
    assert QQ.zero() == 0 and type(QQ.zero()) is int
    assert QQ.one() == 1 and type(QQ.one()) is int
    with pytest.raises(TypeError):
        QQ.coerce(1.0)
    with pytest.raises(TypeError):
        QQ.coerce(Gaussian(1, 1))


@pytest.mark.parametrize(
    "coerce",
    [QQ.coerce, QI.coerce, RXY.const, RQI.const],
    ids=["QQ", "QI", "QQ_const", "QI_const"],
)
def test_bool_is_not_a_scalar(coerce):
    # a bool is an int to Python, but no field element: exponents, divisor
    # coefficients and theta characteristics reject it too
    for v in (True, False):
        with pytest.raises(TypeError):
            coerce(v)
    assert coerce(1) == 1 and not coerce(0)


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv],
    ids=["add", "sub", "mul", "truediv"],
)
@pytest.mark.parametrize("v", [True, False], ids=repr)
def test_gaussian_arithmetic_rejects_bools(op, v):
    # read as an int, True would make Gaussian(1, 1) * True the value 1+i
    for z in (Gaussian(1, 1), Gaussian(Fraction(1, 2), 3), Gaussian(1)):
        for a, b in ((z, v), (v, z)):
            with pytest.raises(TypeError):
                op(a, b)


def test_gaussian_never_equals_a_bool():
    for z, v in ((Gaussian(1, 0), True), (Gaussian(0), False), (Gaussian(1, 1), True)):
        assert not z == v and not v == z
        assert z != v and v != z
    assert Gaussian(1, 0) == 1 and Gaussian(0) == 0


def test_exact_quotient_stays_exact():
    assert exact_quotient(-8, 4) == -2 and type(exact_quotient(-8, 4)) is int
    assert exact_quotient(7, -2) == Fraction(-7, 2)
    assert type(exact_quotient(Fraction(3, 2), Fraction(1, 2))) is int
    assert exact_quotient(Gaussian(1, 1), 2) == Gaussian(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        exact_quotient(1, 0)


@given(polys())
@settings(max_examples=40, deadline=None)
def test_poly_derivative_matches_sympy(p):
    x = sympy.symbols(p.ring.names)[0]
    assert _to_sympy(p.derivative(0)) == sympy.expand(sympy.diff(_to_sympy(p), x))


@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_poly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_poly_derivation_property(p, q):
    lhs = (p * q).derivative(0)
    rhs = p.derivative(0) * q + p * q.derivative(0)
    assert lhs == rhs


@given(polys(), polys())
# x divided by 1: a bare / in exact_div makes the coefficient 1.0
@example(RXY.gen(0), RXY.const(1))
@settings(max_examples=40, deadline=None)
def test_exact_div_of_product(p, q):
    if not q:
        return
    quotient = (p * q).exact_div(q)
    # the text tells a float coefficient 1.0 from the int 1, which == does not
    assert quotient == p and quotient.to_str() == p.to_str()


def test_exact_div_reports_failure():
    x, y = RXY.gen(0), RXY.gen(1)
    assert (x * x + y).exact_div(x - y) is None
    assert (x * x - y * y).exact_div(x - y) == x + y


@given(polys(), polys(ring=RQI))
@settings(max_examples=40, deadline=None)
def test_poly_text_roundtrip(p, pg):
    assert RXY.parse(p.to_str()) == p
    for poly in (p, pg, p - p):
        assert bool(poly) == (poly != poly.ring.zero())


@pytest.mark.parametrize(
    "exps",
    [
        (1.5, 0),  # once truncated by to_str to x^1
        (True, -1),  # once printed as x*y^-1
        (0, False),
        (1, -1),
        (Fraction(1), 0),
        ("1", 0),
    ],
)
def test_multipoly_rejects_bad_exponents(exps):
    with pytest.raises(ValueError):
        MultiPoly(RXY, {exps: 2})


def test_ring_mismatch_raises():
    other = PolyRing(QQ, ("x", "z"))
    with pytest.raises(ValueError):
        RXY.gen(0) + other.gen(0)


def test_subs_and_eval():
    x, y = RXY.gen(0), RXY.gen(1)
    p = x * x + 2 * y
    assert nr_oracle.subs(p, {0: y}) == y * y + 2 * y
    assert p.eval([Fraction(3), Fraction(1, 2)]) == Fraction(10)


R3 = PolyRing(QQ, ("x", "y", "z"))
R3I = PolyRing(QI, ("x", "y", "z"))


@st.composite
def substitutions(draw):
    """(p, assignment) over Q or Q(i) in three variables: images for a
    random subset of the variables, so some stay unassigned, and
    exponents up to 3, so terms often share a (variable, exponent)."""
    ring = draw(st.sampled_from((R3, R3I)))
    p = draw(polys(ring, max_terms=6, max_exp=3))
    assigned = draw(st.sets(st.integers(0, 2)))
    return p, {i: draw(polys(ring, max_terms=3, max_exp=2)) for i in sorted(assigned)}


@given(substitutions())
@settings(max_examples=80, deadline=None)
def test_subs_matches_per_term_oracle(case):
    p, assignment = case
    assert nr_oracle.subs(p, assignment) == subs_oracle.subs(p, assignment)


def _shared_powers(p, assignment):
    seen = {}
    for exps in p.terms:
        for i, k in enumerate(exps):
            if k and i in assignment:
                seen[(i, k)] = seen.get((i, k), 0) + 1
    return max(seen.values(), default=0) >= 2


_SUBS_BRANCHES = {
    "gaussian_ring": lambda p, a: p.ring is R3I and _shared_powers(p, a),
    "rational_ring": lambda p, a: p.ring is R3 and _shared_powers(p, a),
    "unassigned_variable": lambda p, a: any(
        k and i not in a for exps in p.terms for i, k in enumerate(exps)
    ),
    "zero_image": lambda p, a: any(not q for q in a.values())
    and any(exps[i] for exps in p.terms for i in a),
}


@pytest.mark.parametrize("branch", sorted(_SUBS_BRANCHES))
def test_substitutions_reach_every_branch(branch):
    holds = _SUBS_BRANCHES[branch]
    find(
        substitutions(),
        lambda case: holds(*case),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


@pytest.mark.parametrize(
    "p",
    [
        RXY.one() + RXY.gen(0) - RXY.gen(1) * 2,
        UPoly((1, -2, 3)),
    ],
    ids=["MultiPoly", "UPoly"],
)
def test_pow_matches_repeated_products_and_stops_squaring(p, monkeypatch):
    cls = type(p)
    mul = cls.__mul__
    counts = {"square": 0, "product": 0}

    def counting_mul(a, b):
        counts["square" if a is b else "product"] += 1
        return mul(a, b)

    expected = p**0
    for n in range(10):
        monkeypatch.setattr(cls, "__mul__", counting_mul)
        counts.update(square=0, product=0)
        got = p**n
        monkeypatch.setattr(cls, "__mul__", mul)
        assert got == expected
        # one squaring per exponent bit below the top one, one product
        # per set bit: p**8 squares three times and multiplies once
        assert counts == {
            "square": max(n.bit_length() - 1, 0),
            "product": bin(n).count("1"),
        }
        expected = expected * p


# ----------------------------------------------------------------------
# rational functions
# ----------------------------------------------------------------------


def test_ratfunc_lazy_zero():
    x, y = RXY.gen(0), RXY.gen(1)
    r = RatFunc(x * x - y * y, x - y) - RatFunc(x + y)
    assert not r
    # denominators are not forced coprime to numerators
    s = RatFunc(x * x - y * y, x - y)
    assert s.den == x - y


def test_ratfunc_equal_denominator_addition_stays_flat():
    x, y = RXY.gen(0), RXY.gen(1)
    d = (x * x + y * y + 1) ** 2
    a = RatFunc(x, d) + RatFunc(y, d)
    assert a.den == d


def test_ratfunc_divisible_denominator_addition():
    x, y = RXY.gen(0), RXY.gen(1)
    d = x * x + y * y + 1
    a = RatFunc(x, d * d) + RatFunc(y, d)
    assert a.den == d * d
    assert a == RatFunc(x + y * d, d * d)


@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2))
@settings(max_examples=30, deadline=None)
def test_ratfunc_quotient_rule(p, q):
    if not q:
        return
    r = RatFunc(p, q)
    lhs = r.derivative(0)
    rhs = RatFunc(p.derivative(0) * q - p * q.derivative(0), q * q)
    assert lhs == rhs


def test_ratfunc_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(RXY.one(), RXY.zero())
    x = RXY.gen(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc(x) / RatFunc(RXY.zero())


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------


def test_rank_and_nullity_add_up():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3), Fraction(0)],
        [Fraction(2), Fraction(4), Fraction(6), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1), Fraction(1)],
    ]
    r = rank(rows)
    ns = nullspace(rows)
    assert r + len(ns) == 4
    for v in ns:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_polynomial_matrix_nullspace():
    R = PolyRing(QQ, ("a", "b"))
    a, b = R.gen(0), R.gen(1)
    rows = [[a, b, R.zero()], [R.zero(), a, b]]
    ns = nullspace(rows)
    assert len(ns) == 1
    v = ns[0]
    # M v = 0 exactly, entries denominator-free
    assert all(isinstance(x, MultiPoly) for x in v)
    assert not (rows[0][0] * v[0] + rows[0][1] * v[1] + rows[0][2] * v[2])
    assert not (rows[1][1] * v[1] + rows[1][2] * v[2])


def test_gaussian_matrix_rank():
    i = Gaussian(0, 1)
    one = Gaussian(1)
    rows = [[one, i], [i, -one]]
    assert rank(rows) == 1
    ns = nullspace(rows)
    assert len(ns) == 1


def test_mixed_int_gaussian_matrices():
    # the domain comes from the first entry that is not rational, so a
    # leading int entry no longer sends Gaussian rows down the rational path
    i = Gaussian(0, 1)
    full = [[0, Gaussian(1)], [Gaussian(1), i]]
    assert rank(full) == 2
    assert nullspace(full) == []
    assert rank([[1, i], [i, -1]]) == 1
    assert nullspace([[1, i], [i, -1]]) == [[-i, Gaussian(1)]]
    # the int block divides 8 by the pivot 2 on the way: an exact
    # quotient in the Q(i) normal form, not a float
    rows = [[2, 1, 1, i], [1, 2, 1, 0], [1, 1, 2, 0]]
    assert rank(rows) == 3
    basis = nullspace(rows)
    assert basis == [[Gaussian(0, Fraction(-3, 4)), i / 4, i / 4, 1]]
    ech, _ = _echelon(rows)
    assert [[parts(x) for x in r] for r in ech] == [
        [(2, 0), (1, 0), (1, 0), (0, 1)],
        [(0, 0), (3, 0), (1, 0), (0, -1)],
        [(0, 0), (0, 0), (4, 0), (0, -1)],
    ]
    assert all(_in_normal_form(x, QI) for r in ech + basis for x in r)


def test_empty_row_matrix():
    assert nullspace([[]]) == []
    assert rank([[]]) == 0


def _kernel_cases():
    i, one = Gaussian(0, 1), Gaussian(1)
    a, b = RXY.gen(0), RXY.gen(1)
    return {
        "rational": (
            [[Fraction(1, 2), Fraction(2, 3), -1, 5], [3, Fraction(1, 7), 2, 0]],
            Fraction(1, 3),
        ),
        "integer": ([[1, 2, 3], [4, 5, 6]], 1),
        "gaussian": ([[one, i, one + i], [i, -one, i - one]], i),
        "polynomial": ([[a, b, RXY.zero()], [RXY.zero(), a, b]], RXY.one()),
    }


@pytest.mark.parametrize("name", sorted(_kernel_cases()))
def test_kernel_check_rejects_a_perturbed_entry(name):
    # every column is nonzero, so moving any one entry of a kernel
    # vector leaves the kernel
    rows, bump = _kernel_cases()[name]
    basis = nullspace(rows)
    assert basis
    _assert_in_kernel(rows, basis)
    for vec in basis:
        for j in range(len(vec)):
            bad = list(vec)
            bad[j] = bad[j] + bump
            with pytest.raises(AssertionError):
                _assert_in_kernel(rows, [bad])
            with pytest.raises(AssertionError):
                _assert_in_kernel(rows, basis + [bad])


def matrix_entries():
    # zeros, ints and proper fractions, as the rational callers mix them
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 7))),
    )


@st.composite
def rational_matrices(draw):
    """Rational matrices up to 20 x 20, sometimes of ints only: free or
    rank-deficient (a product through k < min(n, m) columns), then
    decorated with zero rows, zero columns, duplicate rows and
    integer-only rows."""
    # small sizes and the largest both come up often; no system that
    # ``run all`` solves has more than 20 rows
    sizes = st.one_of(st.integers(1, 6), st.integers(1, 20), st.just(20))
    nrows, ncols = draw(sizes), draw(sizes)
    entries = draw(st.sampled_from((matrix_entries(), st.integers(-9, 9))))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(nrows, ncols) - 1))
        a = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(nrows)]
        b = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(k)]
        rows = [
            [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(ncols)]
            for i in range(nrows)
        ]
    else:
        rows = [
            draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)
        ]
    decorations = st.sampled_from(("zero_row", "zero_col", "duplicate_row", "int_row"))
    for op in draw(st.lists(decorations, max_size=4)):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        if op == "zero_row":
            rows[i] = [0] * ncols
        elif op == "zero_col":
            for row in rows:
                row[j] = Fraction(0)
        elif op == "duplicate_row":
            rows[i] = list(rows[j % nrows])
        else:
            rows[i] = draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
    return rows


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_integer_bareiss_matches_fraction_oracle(rows):
    before = [list(r) for r in rows]
    fraction_rows = [[Fraction(x) for x in r] for r in rows]
    ech, pivots = _echelon(rows)
    want_ech, want_pivots = echelon_oracle._echelon(fraction_rows)
    assert rows == before  # the input rows are left untouched
    assert pivots == want_pivots
    assert all(type(x) is int for r in ech for x in r)
    # each pivot row is a multiple of the Fraction pivot row, so back
    # substitution gives the same kernel
    for k in range(len(pivots)):
        assert proportional(ech[k], want_ech[k])
    assert rank(rows) == echelon_oracle.rank(fraction_rows) == len(want_pivots)
    got = nullspace(rows)
    assert got == echelon_oracle.nullspace(fraction_rows)
    # the rational normal form: an int, or a Fraction that is not integral
    assert all(
        type(x) is int or (type(x) is Fraction and x.denominator > 1)
        for v in got
        for x in v
    )


_MATRIX_BRANCHES = {
    "zero_row": lambda rows: any(not any(r) for r in rows),
    "zero_column": lambda rows: any(not any(col) for col in zip(*rows)),
    "duplicate_rows": lambda rows: any(
        any(rows[i]) and rows[i] == rows[j]
        for i in range(len(rows))
        for j in range(i)
    ),
    "integer_only_row": lambda rows: any(
        any(r) and all(type(x) is int for x in r) for r in rows
    ),
    "integer_only_matrix": lambda rows: len(rows) > 1
    and all(type(x) is int for r in rows for x in r),
    "rank_deficient": lambda rows: 0 < rank(rows) < min(len(rows), len(rows[0])),
    "full_rank_square": lambda rows: len(rows) == len(rows[0]) == rank(rows) > 2,
    "twenty_by_twenty": lambda rows: len(rows) == len(rows[0]) == 20,
}


@pytest.mark.parametrize("branch", sorted(_MATRIX_BRANCHES))
def test_rational_matrices_reach_every_branch(branch):
    holds = _MATRIX_BRANCHES[branch]
    find(
        rational_matrices(),
        holds,
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


_DOMAINS = {
    "gaussian": (gaussians(), Gaussian(0)),
    "QQ": (polys(RXY, max_terms=2, max_exp=1), RXY.zero()),
    "QI": (polys(RQI, max_terms=2, max_exp=1), RQI.zero()),
}


@st.composite
def domain_matrices(draw):
    """(domain, rows): Gaussian, QQ[x, y] or QI[x, y] matrices up to
    4 x 4, free or rank-deficient (a product through k < min(n, m)
    columns, all zero when k = 0), then decorated with zero rows and
    zero columns."""
    name = draw(st.sampled_from(sorted(_DOMAINS)))
    entries, zero = _DOMAINS[name]
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(nrows, ncols) - 1))
        a = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(nrows)]
        b = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(k)]
        rows = [
            [sum((a[i][t] * b[t][j] for t in range(k)), zero) for j in range(ncols)]
            for i in range(nrows)
        ]
    else:
        rows = [
            draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)
        ]
    for op in draw(st.lists(st.sampled_from(("zero_row", "zero_col")), max_size=2)):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        if op == "zero_row":
            rows[i] = [zero] * ncols
        else:
            for row in rows:
                row[j] = zero
    return name, rows


@given(domain_matrices())
@settings(max_examples=60, deadline=None)
def test_fraction_free_kernel_matches_ratfunc_oracle(case):
    name, rows = case
    before = [list(r) for r in rows]
    got = nullspace(rows)
    want = echelon_oracle.nullspace(rows)
    assert rows == before
    if name == "gaussian":
        assert got == want
    else:
        # the old vectors carry RatFunc's denominators, the new ones the
        # last pivot: the same lines, scaled apart
        assert len(got) == len(want)
        assert all(proportional(u, v) for u, v in zip(got, want))
        assert all(isinstance(x, MultiPoly) for v in got for x in v)


_DOMAIN_BRANCHES = {
    "rank_deficient": lambda rows: 0 < rank(rows) < min(len(rows), len(rows[0])),
    "zero_column": lambda rows: any(map(any, rows))
    and any(not any(col) for col in zip(*rows)),
    "all_zero": lambda rows: not any(map(any, rows)),
}


@pytest.mark.parametrize("domain", sorted(_DOMAINS))
@pytest.mark.parametrize("branch", sorted(_DOMAIN_BRANCHES))
def test_domain_matrices_reach_every_branch(domain, branch):
    holds = _DOMAIN_BRANCHES[branch]
    find(
        domain_matrices(),
        lambda case: case[0] == domain and holds(case[1]),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


# ----------------------------------------------------------------------
# exact-vector helpers
# ----------------------------------------------------------------------


@given(st.lists(rationals(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_rational_content_gives_primitive_integer_vector(vec):
    c = rational_content(vec)
    if all(v == 0 for v in vec):
        assert c == 0
        return
    # oracle: scale by the common denominator, then divide by the gcd
    den = 1
    for v in vec:
        den = lcm(den, v.denominator)
    g = 0
    for v in vec:
        g = gcd(g, int(v * den))
    assert c == Fraction(g, den)
    scaled = [v / c for v in vec]
    assert all(x.denominator == 1 for x in scaled)
    g = 0
    for x in scaled:
        g = gcd(g, x.numerator)
    assert g == 1


@given(st.lists(rationals(), min_size=2, max_size=5), rationals())
@settings(max_examples=60, deadline=None)
def test_proportional_scalar_vectors(vec, scale):
    nonzero = any(v != 0 for v in vec)
    assert proportional(vec, [scale * v for v in vec]) == (nonzero and scale != 0)
    bumped = list(vec)
    bumped[0] += 1
    if nonzero and proportional(vec, bumped):
        # only a vector supported on its first entry survives the bump
        assert all(v == 0 for v in vec[1:])


def test_proportional_polynomial_vectors():
    x, y = RXY.gen(0), RXY.gen(1)
    u = [x, y, x * y]
    assert proportional(u, [p * (x + 1) for p in u])
    assert not proportional(u, [x, y, x * x])
    assert not proportional(u, [RXY.zero()] * 3)
    assert not proportional([RXY.zero()] * 3, [RXY.zero()] * 3)
