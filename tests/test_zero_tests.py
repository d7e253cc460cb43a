"""One zero test for every value class: ``not x`` (``__bool__``) holds
exactly when x equals the zero of its class, on zero, on sums that
cancel (``x - x`` and ``(x + y) - y``, which often reach zero through a
different, unreduced representation) and on nonzero draws.  Equality is
each class's own exact ``==``; a coupled field, which defines none, is
compared by its block and its su(2) components."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincert.clifford import NBLADES, Multivector
from spincert.exactalg import QQ, Gaussian, MultiPoly, PolyRing, RatFunc
from spincert.hyperell import FieldElem, UPoly, standard_curve
from spincert.instanton import R4, RHO, CoupledField, Su2, _RhoFrac

RXY = PolyRing(QQ, ("x", "y"))
CURVE = standard_curve()

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
gaussians = st.builds(Gaussian, rationals, rationals)


def _multipolys(ring, coeffs):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars), coeffs)
    return st.lists(term, max_size=3).map(
        lambda ts: sum((MultiPoly(ring, {e: c}) for e, c in ts), ring.zero())
    )


upolys = st.lists(rationals, max_size=4).map(UPoly)
nonzero_upolys = upolys.filter(bool)
qq_polys = _multipolys(RXY, rationals)


@st.composite
def rho_fracs(draw):
    p = draw(_multipolys(R4, gaussians))
    if draw(st.booleans()):
        p = p * RHO  # an unreduced entry
    return _RhoFrac(p, draw(st.integers(0, 2)))


su2s = st.lists(rho_fracs(), min_size=3, max_size=3).map(lambda e: Su2(*e))
ZERO = Su2(0, 0, 0)
# most coupled-field components are zero, which keeps the draws cheap
su2s_or_zero = st.one_of(st.just(ZERO), su2s)


def _sub(u, v):
    if isinstance(u, CoupledField):
        pairs = zip(u.components, v.components)
        return CoupledField(u.block, tuple(m - n for m, n in pairs))
    return u - v


def _ne(u, v):
    if isinstance(u, CoupledField):
        return (u.block, u.components) != (v.block, v.components)
    return u != v


# class name -> (strategy, zero)
CASES = {
    "Gaussian": (gaussians, Gaussian(0)),
    "MultiPoly": (qq_polys, RXY.zero()),
    "RatFunc": (
        st.builds(RatFunc, qq_polys, qq_polys.filter(bool)),
        RatFunc(RXY.zero()),
    ),
    "UPoly": (upolys, UPoly()),
    "FieldElem": (
        st.builds(FieldElem, st.just(CURVE), upolys, upolys, nonzero_upolys),
        FieldElem(CURVE, 0),
    ),
    "Multivector": (
        st.dictionaries(st.integers(0, NBLADES - 1), gaussians, max_size=3).map(
            Multivector
        ),
        Multivector(),
    ),
    "_RhoFrac": (rho_fracs(), _RhoFrac(R4.zero())),
    "Su2": (su2s, ZERO),
    "CoupledField": (
        st.lists(su2s_or_zero, min_size=2, max_size=2).map(
            lambda comps: CoupledField("S+", comps)
        ),
        CoupledField("S+", (ZERO, ZERO)),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bool_is_the_zero_test(name, data):
    values, zero = CASES[name]
    assert not zero
    x = data.draw(values)
    y = data.draw(values)
    assert bool(x) == _ne(x, zero)
    cancelled = _sub(x, x)
    assert not cancelled and not _ne(cancelled, zero)
    # (x + y) - y, written as x - (0 - y) - y, so it needs subtraction only
    back = _sub(_sub(x, _sub(zero, y)), y)
    assert bool(back) == bool(x) == _ne(back, zero)


def test_nonzero_draws_are_truthy():
    # one fixed nonzero value per class, so a class that is always falsy fails
    entry = _RhoFrac(R4.gen(0), 1)
    diag = Su2(entry, 0, 0)
    for x in (
        Gaussian(0, Fraction(1, 2)),
        RXY.gen(1),
        RatFunc(RXY.gen(0), RXY.gen(1)),
        UPoly((0, 1)),
        FieldElem(CURVE, 0, 1),
        Multivector.vector(2),
        entry,
        diag,
        CoupledField("S-", (ZERO, diag)),
    ):
        assert x, x
