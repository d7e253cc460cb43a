"""Binary-form representation layer: generator action against a
symbolic differentiation oracle, pairing and contraction certificates,
and the frozen proportionality constant."""

from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import repsl2_oracle
import transvectant_oracle
from spincert import repsl2
from spincert.exactalg import MultiPoly, PolyRing, QQ, rank
from spincert.repsl2 import (
    GENERATORS,
    BinaryForm,
    _apply_derivatives,
    equivariance_check,
    generator_action,
    invariance_check,
    isotropy_check_m3,
    moment_map,
    quadratic_matrix_det,
    symplectic_form,
    transvectant,
)

fractions_small = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def forms(m):
    return st.lists(fractions_small, min_size=m + 1, max_size=m + 1).map(BinaryForm)


def _scaled(u, c):
    return BinaryForm(tuple(a * c for a in u.coeffs))


def _pairing_matrix(m):
    """Matrix of the pairing on the coefficient basis."""
    basis = [BinaryForm.basis_vector(m, j) for j in range(m + 1)]
    return [[symplectic_form(u, v) for v in basis] for u in basis]


def test_pairing_frozen_values():
    assert symplectic_form(BinaryForm((1, 0)), BinaryForm((0, 1))) == 1
    u = BinaryForm((1, 0, 0, 0))
    v = BinaryForm((0, 0, 0, 1))
    assert symplectic_form(u, v) == 6
    w = BinaryForm((2, 1, -1, 3))
    z = BinaryForm((0, 1, 5, -2))
    expected = 6 * (2 * (-2) - 3 * 0) - 2 * (1 * 5 - (-1) * 1)
    assert symplectic_form(w, z) == expected


def test_pairing_rejects_bad_degrees():
    with pytest.raises(ValueError):
        symplectic_form(BinaryForm((1, 0, 0)), BinaryForm((0, 0, 1)))
    with pytest.raises(ValueError):
        symplectic_form(BinaryForm((1, 0)), BinaryForm((0, 0, 0, 1)))


@settings(max_examples=40)
@given(forms(3), forms(3))
def test_pairing_antisymmetric(u, v):
    assert symplectic_form(u, u) == 0
    assert symplectic_form(u, v) == -symplectic_form(v, u)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_pairing_nondegenerate(m):
    mat = _pairing_matrix(m)
    for i in range(m + 1):
        for j in range(m + 1):
            assert mat[i][j] == -mat[j][i]
    assert rank(mat) == len(mat)


def test_generator_frozen_actions():
    m = 3
    top = BinaryForm.basis_vector(m, 0)
    assert generator_action("H", top) == _scaled(top, 3)
    bottom = BinaryForm.basis_vector(m, m)
    assert generator_action("E", bottom) == _scaled(
        BinaryForm.basis_vector(m, m - 1), 3
    )
    assert generator_action("F", top) == _scaled(BinaryForm.basis_vector(m, 1), 3)
    with pytest.raises(ValueError):
        generator_action("X", top)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_commutation_relations(m):
    def bracket(x, y, u):
        return repsl2_oracle.sub(
            generator_action(x, generator_action(y, u)),
            generator_action(y, generator_action(x, u)),
        )

    for j in range(m + 1):
        u = BinaryForm.basis_vector(m, j)
        assert bracket("H", "E", u) == _scaled(generator_action("E", u), 2)
        assert bracket("H", "F", u) == _scaled(generator_action("F", u), -2)
        assert bracket("E", "F", u) == generator_action("H", u)


def test_generator_action_matches_group_differentiation():
    m = 3
    t, z = sympy.symbols("t z")
    a = sympy.symbols("a0:4")
    p = sum(a[j] * z ** (m - j) for j in range(m + 1))

    def coeffs_of(expr):
        poly = sympy.Poly(sympy.expand(expr), z)
        return tuple(poly.coeff_monomial(z ** (m - j)) for j in range(m + 1))

    def action_coeffs(x):
        u = BinaryForm(a)
        out = generator_action(x, u)
        return tuple(sympy.expand(c) for c in out.coeffs)

    lowered = sympy.diff(p.subs(z, z + t), t).subs(t, 0)
    assert coeffs_of(lowered) == action_coeffs("F")

    raised = sympy.diff((t * z + 1) ** m * p.subs(z, z / (t * z + 1)), t)
    raised = sympy.simplify(raised.subs(t, 0))
    assert coeffs_of(raised) == action_coeffs("E")

    graded = sympy.diff(
        sympy.exp(-m * t) * p.subs(z, sympy.exp(2 * t) * z), t
    ).subs(t, 0)
    assert coeffs_of(graded) == action_coeffs("H")


@pytest.mark.parametrize("m", [1, 3, 5])
def test_invariance_certificate(m):
    report = invariance_check(m)
    assert report["passed"] is True
    assert report["failures"] == []
    assert report["pairs"] == (m + 1) ** 2


def test_moment_map_frozen_square():
    u = BinaryForm((1, 1))
    sq = moment_map(u, u)
    assert sq == BinaryForm((1, 2, 1))


@settings(max_examples=40)
@given(forms(3), forms(3), forms(3))
def test_moment_map_bilinear(u, up, v):
    add = repsl2_oracle.add
    assert moment_map(add(u, up), v) == add(moment_map(u, v), moment_map(up, v))
    assert moment_map(u, add(v, up)) == add(moment_map(u, v), moment_map(u, up))


def test_nilpotency_symbolic_and_random():
    ring = PolyRing(QQ, ("a0", "a1"))
    u = BinaryForm((ring.gen(0), ring.gen(1)))
    sq = moment_map(u, u)
    assert quadratic_matrix_det(sq) == ring.zero()


@settings(max_examples=40)
@given(forms(1))
def test_nilpotency_random(u):
    assert quadratic_matrix_det(moment_map(u, u)) == 0


@pytest.mark.parametrize("m", [1, 3, 5])
def test_equivariance_certificate(m):
    report = equivariance_check(m)
    assert report["passed"] is True
    assert report["failures"] == []


def test_equivariance_of_zero_input():
    z = BinaryForm((0, 0, 0, 0))
    out = moment_map(z, z)
    assert not any(out.coeffs)
    for x in GENERATORS:
        assert not any(generator_action(x, out).coeffs)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_top_transvectant_constant(m):
    # the m-fold transvectant of two degree-m forms is m! times their
    # symplectic pairing, on every pair of basis forms
    basis = [BinaryForm.basis_vector(m, j) for j in range(m + 1)]
    for u in basis:
        for v in basis:
            t = transvectant(u, v, m).coeffs[0]
            assert t == factorial(m) * symplectic_form(u, v)


def test_transvectant_order_bounds():
    u = BinaryForm((1, 2))
    with pytest.raises(ValueError):
        transvectant(u, u, 2)
    assert transvectant(u, u, 0) == BinaryForm((1, 4, 4))


def test_isotropy_certificate():
    assert isotropy_check_m3() is True
    b = [BinaryForm.basis_vector(3, j) for j in range(4)]
    assert symplectic_form(b[2], b[3]) == 0
    assert symplectic_form(b[0], b[3]) == 6


# ----------------------------------------------------------------------
# closed-form transvectant against the iterated one
# ----------------------------------------------------------------------

RAB = PolyRing(QQ, ("a", "b"))
_SCALAR_DOMAINS = {
    "int": st.integers(min_value=-9, max_value=9),
    "fraction": fractions_small,
}
_POLY_COEFFS = st.builds(
    lambda c, i, e: RAB.gen(i) ** e * c,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2),
)


@st.composite
def form_with_zeros(draw, m, coeffs):
    """A degree-m form whose coefficients come from one domain, with
    zeros of that domain forced into some slots."""
    cs = draw(st.lists(coeffs, min_size=m + 1, max_size=m + 1))
    zeros = draw(st.lists(st.booleans(), min_size=m + 1, max_size=m + 1))
    return BinaryForm(tuple(c * 0 if z else c for c, z in zip(cs, zeros)))


@st.composite
def transvectant_cases(draw, domains=tuple(_SCALAR_DOMAINS.values())):
    """(u, v, r) with degrees 1..9, any order r and each form from its own
    domain."""
    mu, mv = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    r = draw(st.integers(0, min(mu, mv)))
    u = draw(form_with_zeros(mu, draw(st.sampled_from(domains))))
    v = draw(form_with_zeros(mv, draw(st.sampled_from(domains))))
    return u, v, r


def _assert_same_form(got, want):
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@settings(max_examples=200, deadline=None)
@given(transvectant_cases())
def test_transvectant_matches_iterated_oracle(case):
    u, v, r = case
    _assert_same_form(transvectant(u, v, r), transvectant_oracle.transvectant(u, v, r))
    for n1 in range(r + 1):
        got = _apply_derivatives(u.coeffs, u.degree, n1, r - n1)
        want = transvectant_oracle._apply_derivatives(u.coeffs, u.degree, n1, r - n1)
        assert got == want


@settings(max_examples=40, deadline=None)
@given(transvectant_cases(domains=(_POLY_COEFFS,)))
def test_transvectant_matches_iterated_oracle_on_polynomials(case):
    u, v, r = case
    got = transvectant(u, v, r)
    _assert_same_form(got, transvectant_oracle.transvectant(u, v, r))
    assert all(type(c) is MultiPoly and c.ring is RAB for c in got.coeffs)


_TRANSVECTANT_BRANCHES = {
    "top_order": lambda u, v, r: r == min(u.degree, v.degree),
    "zero_order": lambda u, v, r: r == 0,
    "forced_zero": lambda u, v, r: 0 < sum(not c for c in u.coeffs) < len(u.coeffs),
    "zero_form": lambda u, v, r: not any(u.coeffs) and not any(v.coeffs),
    "mixed_domains": lambda u, v, r: (
        type(u.coeffs[0]) is int and type(v.coeffs[0]) is Fraction
    ),
    "degree_nine": lambda u, v, r: u.degree == 9,
}


@pytest.mark.parametrize("branch", sorted(_TRANSVECTANT_BRANCHES))
def test_transvectant_cases_reach_every_branch(branch):
    holds = _TRANSVECTANT_BRANCHES[branch]
    find(
        transvectant_cases(),
        lambda case: holds(*case),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


_ORACLE_DEGREES = [1, 3, 5, 7, 9]


@pytest.mark.parametrize("m", _ORACLE_DEGREES)
def test_table_checks_match_the_per_pair_oracle(m):
    assert invariance_check(m) == repsl2_oracle.invariance_check(m)
    assert equivariance_check(m) == repsl2_oracle.equivariance_check(m)


@pytest.mark.parametrize("m", _ORACLE_DEGREES)
def test_pairing_table_is_integer(m):
    basis = [BinaryForm.basis_vector(m, j) for j in range(m + 1)]
    assert all(type(symplectic_form(u, v)) is int for u in basis for v in basis)


def _patch_both(monkeypatch, name, fn):
    monkeypatch.setattr(repsl2, name, fn)
    monkeypatch.setattr(repsl2_oracle, name, fn)


@pytest.mark.parametrize("m", _ORACLE_DEGREES)
def test_non_invariant_pairing_fails_alike(m, monkeypatch):
    # bilinear, but the added u_0 v_m / 2 term breaks invariance under E
    true_form = repsl2.symplectic_form

    def skewed(u, v):
        return true_form(u, v) + u.coeffs[0] * v.coeffs[-1] * Fraction(1, 2)

    _patch_both(monkeypatch, "symplectic_form", skewed)
    got = invariance_check(m)
    assert got["failures"] and not got["passed"]
    assert got == repsl2_oracle.invariance_check(m)
    assert any("/" in f["value"] for f in got["failures"])


@pytest.mark.parametrize("m", _ORACLE_DEGREES)
def test_non_equivariant_contraction_fails_alike(m, monkeypatch):
    # bilinear, but doubling the middle coefficient of the quadratic is
    # not an intertwiner of the degree-2 representation
    true_map = repsl2.moment_map

    def skewed(u, v):
        c0, c1, c2 = true_map(u, v).coeffs
        return BinaryForm((c0, 2 * c1, c2))

    _patch_both(monkeypatch, "moment_map", skewed)
    got = equivariance_check(m)
    assert got["failures"] and not got["passed"]
    assert got == repsl2_oracle.equivariance_check(m)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_tables_make_one_contraction_per_basis_pair(m, monkeypatch):
    calls = []
    true_map = repsl2.moment_map

    def counting(u, v):
        calls.append((u.coeffs, v.coeffs))
        return true_map(u, v)

    monkeypatch.setattr(repsl2, "moment_map", counting)
    assert equivariance_check(m)["passed"]
    assert len(calls) == (m + 1) ** 2
