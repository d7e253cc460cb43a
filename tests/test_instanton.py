"""Charge-one anti-self-dual connection: construction, curvature,
duality split, the affine spinor family, and the exact coupled Dirac
certificates with their negative controls.  The p / rho^k entry type is
checked against RatFunc as an independent oracle, and the one-pass
signed sums of covariant derivatives, with the self-dual part, against
the composed entry arithmetic they replaced and against RatFunc."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from gaussian_oracle import in_normal_form, parts
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from spincert import VerificationError, cli, instanton
from spincert.clifford import GammaRep, Multivector, star_blade
from spincert.exactalg import Gaussian, MultiPoly, RatFunc, rank
from spincert.instanton import (
    GAMMA,
    R4,
    RHO,
    Connection,
    CoupledField,
    Mat2,
    _EVAL_POINTS,
    _RhoFrac,
    _field_row,
    asd_check,
    bianchi_residual,
    _covariant_sum,
    bpst_connection,
    coupled_dirac,
    curvature,
    curvature_acts,
    flat_dirac,
    form_is_zero,
    independent_count,
    quaternion_units,
    sd_asd_split,
    self_dual_part,
    twistor_basis,
    twistor_residual,
    two_form_star,
    verify_curvature_dirac_solutions,
    yang_mills_residual,
)

MI, MJ, MK, M1 = quaternion_units()


def _covariant(a, m, var):
    """d_var m + [a, m]: the one-term covariant sum."""
    return _covariant_sum(((1, a, m, var),))


@pytest.fixture(scope="module")
def conn():
    return bpst_connection()


@pytest.fixture(scope="module")
def curv(conn):
    return curvature(conn)


def _x(i):
    return _RhoFrac(R4.gen(i - 1))


def _inv_rho():
    return _RhoFrac(R4.one(), 1)


ZERO_CONNECTION = Connection((Mat2.zero(),) * 4)


def _conj(c):
    """The conjugate re - im*i of the Q(i) scalar c = re + im*i."""
    re, im = parts(c)
    return Gaussian(re, -im)


def _conj_transpose(m: Mat2) -> Mat2:
    def conj_rf(v):
        # rho has real coefficients, so only the numerator is conjugated
        return _RhoFrac(
            MultiPoly(v.p.ring, {e: _conj(c) for e, c in v.p.terms.items()}),
            v.k,
        )

    r = m.rows
    return Mat2(((conj_rf(r[0][0]), conj_rf(r[1][0])),
                 (conj_rf(r[0][1]), conj_rf(r[1][1]))))


def gauge_conjugate(a: Connection, g: Mat2, ginv: Mat2) -> Connection:
    """Conjugate a connection by a constant invertible matrix."""
    return Connection(tuple(g * m * ginv for m in a.components))


def gauge_conjugate_field(field: CoupledField, g: Mat2, ginv: Mat2) -> CoupledField:
    return CoupledField(tuple(g * m * ginv for m in field.components))


def _combine(psi: CoupledField, c, phi: CoupledField) -> CoupledField:
    """The field c * psi + phi."""
    pairs = zip(psi.components, phi.components)
    return CoupledField(tuple(m * c + n for m, n in pairs))


def test_bpst_components_frozen(conn):
    inv = _inv_rho()
    expected = (
        (MI * (-_x(4)) + MJ * (-_x(3)) + MK * _x(2)) * inv,
        (MI * _x(3) + MJ * (-_x(4)) + MK * (-_x(1))) * inv,
        (MI * (-_x(2)) + MJ * _x(1) + MK * (-_x(4))) * inv,
        (MI * _x(1) + MJ * _x(2) + MK * _x(3)) * inv,
    )
    for got, want in zip(conn.components, expected):
        assert not (got - want)


def test_bpst_is_su2_valued_and_regular(conn):
    origin = (0, 0, 0, 0)
    for m in conn.components:
        assert not m.trace()
        assert not (_conj_transpose(m) + m)
        assert not any(v.eval(origin) for row in m.rows for v in row)
        for row in m.rows:
            for v in row:
                assert v.k in (0, 1)


def test_mat2_rejects_bool_entries():
    with pytest.raises(TypeError):
        Mat2(((True, 0), (0, True)))
    with pytest.raises(TypeError):
        Mat2.identity() * True


@pytest.mark.parametrize("v", [True, False], ids=repr)
def test_entry_scaling_rejects_bools_before_the_zero_shortcut(v):
    # a zero entry, or False, used to give the zero entry before the
    # scalar was looked at, so Mat2.identity() * False was the zero matrix
    with pytest.raises(TypeError):
        Mat2.identity() * v
    with pytest.raises(TypeError):
        v * Mat2.identity()
    for entry in (_RhoFrac(R4.const(0)), _RhoFrac(R4.const(1))):
        with pytest.raises(TypeError):
            entry * v
        with pytest.raises(TypeError):
            v * entry


def test_connection_rejects_traceful_components():
    bad = Mat2(((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        Connection((bad,) * 4)


def test_coupled_field_rejects_traceful_components():
    good, bad = Mat2(((1, 0), (0, -1))), Mat2(((1, 0), (0, 0)))
    assert CoupledField((good,) * 4)
    with pytest.raises(ValueError):
        CoupledField((good, good, bad, good))


def test_curvature_acts_rejects_traceful_forms():
    # tr (F_12 phi[r]) = tr F_12 * phi[r] is nonzero wherever phi[r] is
    psi = twistor_basis()[0].components
    traceful = Mat2(((R4.gen(0), 0), (0, R4.gen(1))))
    with pytest.raises(ValueError):
        curvature_acts({(1, 2): traceful}, psi)


def test_curvature_zero_and_abelian_oracle():
    assert form_is_zero(curvature(ZERO_CONNECTION))
    h = R4.gen(1) * R4.gen(1)
    diag = Mat2(((Gaussian(0, 1), 0), (0, Gaussian(0, -1))))
    a1 = diag * _RhoFrac(h)
    a = Connection((a1, Mat2.zero(), Mat2.zero(), Mat2.zero()))
    f = curvature(a)
    hprime = _RhoFrac(h.derivative(1))
    assert not (f[(1, 2)] - diag * (-hprime))
    for key in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        assert not f[key]


def test_bianchi_holds_for_arbitrary_connection():
    a1 = Mat2(((Gaussian(0, 1), 0), (0, Gaussian(0, -1)))) * _RhoFrac(
        R4.gen(0) * R4.gen(0)
    )
    a2 = MJ * _RhoFrac(R4.gen(2))
    a3 = MK * _RhoFrac(R4.gen(0) * R4.gen(3))
    a4 = MI * _RhoFrac(R4.gen(1) + R4.one())
    a = Connection((a1, a2, a3, a4))
    assert not any(bianchi_residual(a).values())


def test_bianchi_holds_for_bpst(conn):
    assert not any(bianchi_residual(conn).values())


def test_bpst_curvature_is_anti_self_dual(conn, curv):
    plus, minus = sd_asd_split(curv)
    assert form_is_zero(plus)
    assert not form_is_zero(minus)
    assert asd_check(curv)
    starred = two_form_star(minus)
    for key, m in minus.items():
        assert not (starred[key] + m)
        assert not ((plus[key] + m) - curv[key])
    two = Fraction(2)
    inv2 = _RhoFrac(R4.one(), 2)
    assert not (curv[(1, 2)] - MK * (-two) * inv2)
    assert not (curv[(3, 4)] - MK * two * inv2)


def test_bpst_rejects_curvature_that_is_not_anti_self_dual(monkeypatch):
    monkeypatch.setattr(instanton, "asd_check", lambda f: False)
    with pytest.raises(VerificationError):
        bpst_connection()


def test_run_instanton_builds_each_curvature_once(monkeypatch, tmp_path):
    body = instanton._curvature_of
    built = []

    def counting(comps):
        built.append(comps)
        return body(comps)

    monkeypatch.setattr(instanton, "_curvature_of", counting)
    assert cli.main(["run", "instanton", "--out", str(tmp_path / "r.json")]) == 0
    # the BPST connection and the perturbed control's connection, one
    # build each, though the suite asks for a curvature seven times
    assert len(built) == 2 and built[0] is not built[1]

    # a Connection hands out copies of the curvature it built for its
    # anti-self-duality check; a bare component tuple is no connection
    built.clear()
    conn = bpst_connection()
    first = curvature(conn)
    first.clear()
    again = curvature(conn)
    assert len(again) == 6 and asd_check(again)
    assert len(built) == 1
    with pytest.raises(TypeError):
        curvature(conn.components)
    assert len(built) == 1


def _entry_sum_powers(entries, products):
    """The rho powers of the nonzero parts of one ``_entry_sum`` call: a
    derivative over rho^(k+1) (rho^0 at k = 0), a bare entry over its own
    rho^k and a product over the sum of its factors' powers."""
    powers = {
        (v.k + 1 if v.k else 0) if var is not None else v.k
        for _, v, var in entries
        if v
    }
    return powers | {x.k + y.k for _, x, y in products if x and y}


def test_run_instanton_fuses_every_covariant_entry(monkeypatch, tmp_path):
    # every entry a run sums has its parts at one power of rho, so it is
    # one term dict; a fused entry scales no polynomial on the way
    entry_sum = instanton._entry_sum
    self_dual_of = instanton._self_dual_of
    scale = MultiPoly.scale
    entries, mixed, self_dual, scaled = [], [], [], []

    def counting_entry(*args):
        entries.append(args)
        if len(_entry_sum_powers(*args)) > 1:
            mixed.append(args)
        return entry_sum(*args)

    def counting_self_dual(f):
        self_dual.append(f)
        return self_dual_of(f)

    def counting_scale(self, c):
        scaled.append(c)
        return scale(self, c)

    monkeypatch.setattr(instanton, "_entry_sum", counting_entry)
    monkeypatch.setattr(instanton, "_self_dual_of", counting_self_dual)
    monkeypatch.setattr(MultiPoly, "scale", counting_scale)
    out = str(tmp_path / "r.json")
    # matrix sums, three entries each since every summed matrix is
    # trace-free: 6 per curvature and per self-dual part (one of each per
    # connection, two connections), 4 per Dirac residual and 4 per
    # curvature action (four fields each), and 4 per Bianchi or
    # Yang-Mills residual (Bianchi, Yang-Mills and the control's)
    assert cli.main(["run", "instanton", "--out", out]) == 0
    assert len(entries) == 3 * (2 * 6 + 2 * 6 + 4 * 4 + 4 * 4 + 3 * 4) == 204
    assert not mixed and len(self_dual) == 2 and len(scaled) <= 48
    # perturbed: the control is skipped, so Bianchi and Yang-Mills only
    entries.clear()
    self_dual.clear()
    scaled.clear()
    assert cli.main(["run", "instanton", "--perturb", "--out", out]) == 1
    assert len(entries) == 3 * (2 * 6 + 2 * 6 + 4 * 4 + 4 * 4 + 2 * 4) == 192
    assert not mixed and len(self_dual) == 2 and len(scaled) <= 48

    # the count sees mixed powers: the off-diagonal entries of m are
    # constants over rho^0, and their products with da sit over rho^1
    a = bpst_connection().components[0]
    _covariant(a, Mat2(((0, 1), (1, 0))), 0)
    assert len(mixed) == 2

    # a traceful M takes four entry sums, three entries and its trace T,
    # a trace-free one three, whether it enters the sum as M or only as A
    entries.clear()
    traceful = Mat2(((R4.gen(0), 0), (0, R4.gen(1))))
    _covariant(a, traceful, 0)
    assert len(entries) == 4
    entries.clear()
    _covariant(traceful, a, 0)
    assert len(entries) == 3
    # trace-free in value but not as a pair (m11 is -m00 over rho^1):
    # no T, so three entry sums per component, as for a pair
    x1 = R4.gen(0)
    lifted = Mat2(((x1, 0), (0, _RhoFrac(-x1 * RHO, 1))))
    psi = twistor_basis()[0].components
    for f in ({(1, 2): lifted}, {(1, 2): a}):
        entries.clear()
        curvature_acts(f, psi)
        assert len(entries) == 4 * 3


def test_duality_split_of_zero():
    plus, minus = sd_asd_split(curvature(ZERO_CONNECTION))
    assert form_is_zero(plus) and form_is_zero(minus)


def test_duality_split_of_a_connection_splits_its_curvature(conn):
    # the doubled BPST connection is not anti-self-dual, so both parts
    # are nonzero
    for a in (conn, Connection(m * 2 for m in conn.components)):
        f = curvature(a)
        plus, minus = sd_asd_split(a)
        want_plus, want_minus = sd_asd_split(f)
        assert plus == want_plus and minus == want_minus
        assert all(plus[key] + minus[key] == m for key, m in f.items())
    assert not form_is_zero(plus) and not form_is_zero(minus)


def test_twistor_basis_properties():
    sols = twistor_basis()
    assert len(sols) == 4
    for s in sols:
        for res in twistor_residual(s.components):
            assert not any(res)
    rows = []
    for s in sols:
        row = []
        for point in _EVAL_POINTS:
            row.extend(v.eval(point) for v in s.components)
        rows.append(row)
    assert rank(rows) == 4


def _derivatives(components):
    """The four spinors d_i psi, i = 0..3."""
    return [tuple(v.derivative(i) for v in components) for i in range(4)]


def test_flat_dirac_of_linear_field_is_minus_four_constants():
    sols = twistor_basis()
    linear = [s for s in sols if any(s.psi1)]
    assert len(linear) == 2
    for s in linear:
        d = flat_dirac(_derivatives(s.components))
        for r in range(4):
            want = Gaussian(-4) * s.psi1[r]
            assert not (d[r] - _RhoFrac(R4.const(want)))


def test_twistor_residual_rejects_quadratic_field():
    quad = _RhoFrac(R4.gen(0) * R4.gen(0))
    zero = _RhoFrac(R4.zero())
    res = twistor_residual((quad, zero, zero, zero))
    assert any(v for comp in res for v in comp)
    res0 = twistor_residual((zero, zero, zero, zero))
    assert not any(v for comp in res0 for v in comp)


def test_twistor_residual_derives_each_component_once(monkeypatch, tmp_path):
    # d_i psi feeds the Dirac value and the i-th defect alike: 16
    # derivatives for four components, and the defects equal those of
    # the Dirac value composed from flat_dirac
    x1, x2 = R4.gen(0), R4.gen(1)
    field = (_RhoFrac(x1 * x2), _RhoFrac(x2.scale(_I), 1), _RhoFrac(x1), _RhoFrac(x2))
    derivatives = _derivatives(field)
    quarter = tuple(v * Fraction(1, 4) for v in flat_dirac(derivatives))
    want = [
        [d + c for d, c in zip(di, GAMMA.act(Multivector.vector(i + 1), quarter))]
        for i, di in enumerate(derivatives)
    ]
    derivative = _RhoFrac.derivative
    taken = []
    monkeypatch.setattr(
        _RhoFrac, "derivative", lambda v, var: taken.append(var) or derivative(v, var)
    )
    got = twistor_residual(field)
    assert len(taken) == 16
    assert all(g == w for gs, ws in zip(got, want) for g, w in zip(gs, ws))
    assert any(v for res in got for v in res)

    # the convention record is read once by the CLI and once by the Dirac
    # certificate, which hands it to the twistor family
    record = GammaRep.asd_action_record
    read = []
    monkeypatch.setattr(
        GammaRep, "asd_action_record", lambda self: read.append(self) or record(self)
    )
    assert cli.main(["run", "instanton", "--out", str(tmp_path / "r.json")]) == 0
    assert len(read) == 2


def test_coupled_dirac_flat_cases():
    diag = Mat2(((Gaussian(0, 1), 0), (0, Gaussian(0, -1))))
    constant = CoupledField((diag, Mat2.zero(), diag, Mat2.zero()))
    out = coupled_dirac(ZERO_CONNECTION, constant)
    assert not out

    sols = twistor_basis()
    lin = next(s for s in sols if any(s.psi1))
    tensored = CoupledField(tuple(diag * v for v in lin.components))
    got = coupled_dirac(ZERO_CONNECTION, tensored)
    want = CoupledField(
        tuple(diag * _RhoFrac(R4.const(Gaussian(-4) * s)) for s in lin.psi1)
    )
    assert got.components == want.components


def test_coupled_dirac_linear_in_field(conn, curv):
    sols = twistor_basis()
    psi = curvature_acts(curv, sols[0].components)
    phi = curvature_acts(curv, sols[2].components)
    c = Gaussian(Fraction(3, 2), Fraction(-1, 3))
    lhs = coupled_dirac(conn, _combine(psi, c, phi))
    rhs = _combine(coupled_dirac(conn, psi), c, coupled_dirac(conn, phi))
    assert lhs.components == rhs.components


def test_main_verification_passes(conn):
    rep = verify_curvature_dirac_solutions(conn)
    assert rep["passed"] is True
    assert rep["connection_asd"] is True
    assert rep["degenerate"] is False
    assert rep["residual_zero"] == [True, True, True, True]
    assert rep["independent_count"] == 4
    assert rep["convention_record"]["acts_on"] in ("S+", "S-")


def test_verification_flags_degenerate_zero_connection():
    rep = verify_curvature_dirac_solutions(ZERO_CONNECTION)
    assert rep["degenerate"] is True
    assert rep["independent_count"] == 0
    assert rep["residual_zero"] == [True, True, True, True]
    assert rep["passed"] is True


def test_scaled_component_negative_control(conn):
    comps = list(conn.components)
    comps[0] = comps[0] * Fraction(2)
    bad = Connection(comps)
    assert not asd_check(curvature(bad))
    rep = verify_curvature_dirac_solutions(bad)
    assert rep["connection_asd"] is False
    assert not all(rep["residual_zero"])
    assert rep["passed"] is False


def test_yang_mills_residual(conn):
    assert not any(yang_mills_residual(conn).values())
    assert not any(yang_mills_residual(ZERO_CONNECTION).values())
    comps = list(conn.components)
    comps[0] = comps[0] * Fraction(2)
    bad = Connection(comps)
    assert any(yang_mills_residual(bad).values())


def test_gauge_covariance_with_constant_unitary(conn, curv):
    a = Gaussian(Fraction(1, 3), Fraction(2, 3))
    b = Gaussian(Fraction(2, 3))
    a_bar = Gaussian(Fraction(1, 3), Fraction(-2, 3))
    g = Mat2(((a, b), (-b, a_bar)))
    ginv = Mat2(((a_bar, -b), (b, a)))
    assert g * ginv == Mat2.identity()

    sols = twistor_basis()
    psi = curvature_acts(curv, sols[1].components)
    lhs = coupled_dirac(
        gauge_conjugate(conn, g, ginv), gauge_conjugate_field(psi, g, ginv)
    )
    rhs = gauge_conjugate_field(coupled_dirac(conn, psi), g, ginv)
    assert lhs.components == rhs.components


def test_curvature_action_lands_in_active_chirality_block(curv):
    active = GAMMA.positive_chirality_indices()
    inactive = GAMMA.negative_chirality_indices()
    for s in twistor_basis():
        coupled = curvature_acts(curv, s.components)
        assert any(coupled.components[r] for r in active)
        for r in inactive:
            assert not coupled.components[r]


# ----------------------------------------------------------------------
# the p / rho^k entry type against RatFunc(p, rho^k)
# ----------------------------------------------------------------------

# 1 + i^2 = 0, so rho vanishes here
_RHO_ROOT = (Gaussian(0, 1), 0, 0, 0)
# (1 + i)^2 = 2i: a non-real point where rho and its powers are Gaussians
_NONREAL_POINT = (Gaussian(1, 1), 0, 0, 0)


@lru_cache(maxsize=None)
def _rho_power(k):
    return RHO**k


def _oracle(v):
    return RatFunc(v.p, _rho_power(v.k))


def _rho_derivative(v, var):
    """d_var (p / rho^k) composed from polynomial products, as the entry
    type computed it before its one-pass form: (d p * rho - p * 2k x_var)
    / rho^(k+1), or d p when k = 0."""
    dp = v.p.derivative(var)
    if not v.k:
        return _RhoFrac(dp)
    k_d_rho = R4.gen(var).scale(2 * v.k)  # d_i rho = 2 x_i
    return _RhoFrac(dp * RHO - v.p * k_d_rho, v.k + 1)


def _same_pair(got, want):
    """got and want are the same (p, k) pair, and got's coefficients are
    in the Q(i) normal form."""
    return (
        got.k == want.k
        and got.p == want.p
        and all(in_normal_form(c) for c in got.p.terms.values())
    )


def _equals_oracle(v, want):
    """v == want, exactly.  When the oracle's denominator is a power
    rho^j, as the sums, products and derivatives of rho^k entries give,
    v = p / rho^k is compared as p * rho^(j - k) == num (or p == num *
    rho^(k - j)), to skip cross-multiplying."""
    degree = max((sum(e) for e in want.den.terms), default=0)
    j = degree // 2
    if degree % 2 or want.den != _rho_power(j):
        return RatFunc(v.p, _rho_power(v.k)) == want
    if j >= v.k:
        return v.p * _rho_power(j - v.k) == want.num
    return v.p == want.num * _rho_power(v.k - j)


def _small_polys():
    # halves too, so that sums and integer multiples reach integral
    # Fractions that must be stored as ints
    coeff = st.builds(
        lambda a, b, d: Gaussian(Fraction(a, d), Fraction(b, d)),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.sampled_from((1, 2)),
    )
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * 4), coeff)
    return st.lists(term, max_size=3).map(
        lambda ts: sum((MultiPoly(R4, {e: c}) for e, c in ts), R4.zero())
    )


@st.composite
def _entries(draw):
    """p / rho^k with k in 0..3; p is sometimes a multiple of rho."""
    p = draw(_small_polys())
    if draw(st.booleans()):
        p = p * RHO
    return _RhoFrac(p, draw(st.integers(0, 3)))


@st.composite
def _entry_pairs(draw):
    """(a, b) where b is drawn afresh, or one of the two is +-the other
    over a higher rho power, so that equal values and zero sums and
    differences are reached with either side lifted."""
    a = draw(_entries())
    if draw(st.booleans()):
        return a, draw(_entries())
    j = draw(st.integers(0, 2))
    b = _RhoFrac(a.p * _rho_power(j), a.k + j)
    if draw(st.booleans()):
        b = -b
    return (b, a) if draw(st.booleans()) else (a, b)


@given(_entry_pairs(), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_rho_entries_match_ratfunc_oracle(pair, var):
    a, b = pair
    oa, ob = _oracle(a), _oracle(b)
    d, od = a.derivative(var), oa.derivative(var)
    assert _same_pair(d, _rho_derivative(a, var))
    results = ((a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob), (d, od))
    for got, want in results:
        assert _equals_oracle(got, want)
        assert bool(got) == bool(want)
    assert (a == b) == (oa == ob)
    for point in _EVAL_POINTS + (_NONREAL_POINT,):
        va, vb = oa.eval(point), ob.eval(point)
        assert a.eval(point) == va and b.eval(point) == vb
        assert in_normal_form(a.eval(point)) and in_normal_form(b.eval(point))
        assert (a + b).eval(point) == va + vb
        assert (a - b).eval(point) == va - vb
        assert (a * b).eval(point) == va * vb
        assert d.eval(point) == od.eval(point)
    if a.k:
        with pytest.raises(ZeroDivisionError):
            a.eval(_RHO_ROOT)
        with pytest.raises(ZeroDivisionError):
            oa.eval(_RHO_ROOT)
    else:
        assert a.eval(_RHO_ROOT) == oa.eval(_RHO_ROOT)


def test_field_values_are_exact_and_in_normal_form(conn):
    # the values rank reads: p(point) / rho(point)^k, with rho 16 and 11
    # at the two points, is divided exactly; over two ints a bare / would
    # give a float
    f = curvature(conn)
    rhos = [RHO.eval(point) for point in _EVAL_POINTS]
    assert rhos == [16, 11]
    kinds = set()
    for psi in twistor_basis():
        field = curvature_acts(f, psi.components)
        row = _field_row(field, rhos)
        assert all(in_normal_form(v) for v in row)
        want = [
            _oracle(m.rows[i][j]).eval(point)
            for point in _EVAL_POINTS
            for m in field.components
            for i, j in ((0, 0), (0, 1), (1, 0))
        ]
        assert row == want
        kinds.update(type(v) for v in row)
    assert kinds == {int, Fraction, Gaussian}


def _full_row(field):
    """All four entries of every component at each evaluation point: the
    32-column row whose rank ``independent_count`` must equal."""
    return [
        m.rows[i][j].eval(point)
        for point in _EVAL_POINTS
        for m in field.components
        for i in range(2)
        for j in range(2)
    ]


@st.composite
def _coupled_fields(draw):
    """One to four CoupledFields, each nonzero in one to three of its
    (component, entry) slots among (0, 0), (0, 1) and (1, 0), so a row
    that drops or misreads one entry loses rank.  Each (1, 1) entry is
    -(0, 0), as a pair or lifted to one more power of rho; half of the
    lists end with a combination of two earlier fields, so their rank
    falls short."""
    slots = st.tuples(st.integers(0, 3), st.sampled_from(((0, 0), (0, 1), (1, 0))))

    def field():
        rows = [[[_RhoFrac(R4.zero())] * 2 for _ in range(2)] for _ in range(4)]
        for r, (i, j) in draw(st.sets(slots, min_size=1, max_size=3)):
            rows[r][i][j] = draw(_entries())
        for m in rows:
            m00 = m[0][0]
            m[1][1] = _RhoFrac(-m00.p * RHO, m00.k + 1) if draw(st.booleans()) else -m00
        return CoupledField(Mat2(m) for m in rows)

    fields = [field() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        c = draw(st.sampled_from((1, -1, Gaussian(0, 1), Fraction(3, 2))))
        first, last = fields[0].components, fields[-1].components
        fields.append(CoupledField(x + y * c for x, y in zip(first, last)))
    return fields


@given(_coupled_fields())
@settings(max_examples=30, deadline=None)
def test_independent_count_matches_the_full_rank(fields):
    assert independent_count(fields) == rank([_full_row(f) for f in fields])


_FIELD_BRANCHES = {
    "rank_short": lambda fields: independent_count(fields) < len(fields),
    "lifted_trace": lambda fields: any(
        m.rows[1][1].k != m.rows[0][0].k for f in fields for m in f.components
    ),
}


@pytest.mark.parametrize("branch", sorted(_FIELD_BRANCHES))
def test_coupled_fields_reach_every_branch(branch):
    find(
        _coupled_fields(),
        _FIELD_BRANCHES[branch],
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_independent_count_needs_both_points(conn, curv, monkeypatch):
    # the four produced fields have rank 4 over both points, 2 at either
    # point alone
    fields = [curvature_acts(curv, psi.components) for psi in twistor_basis()]
    assert independent_count(fields) == 4
    for point in _EVAL_POINTS:
        monkeypatch.setattr(instanton, "_EVAL_POINTS", (point,))
        assert independent_count(fields) == 2


_PAIR_POWERS = {
    "first_lower": lambda a, b: a.k < b.k,
    "second_lower": lambda a, b: a.k > b.k,
}


@pytest.mark.parametrize("order", sorted(_PAIR_POWERS))
def test_entry_pairs_reach_unequal_rho_powers(order):
    # the sum and difference of such a pair lift the lower power inline,
    # on the side that holds it
    holds = _PAIR_POWERS[order]
    find(
        _entry_pairs(),
        lambda pair: bool(pair[0]) and bool(pair[1]) and holds(*pair),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


# ----------------------------------------------------------------------
# the closed-form commutator against a * b - b * a and RatFunc entries
# ----------------------------------------------------------------------


def commutator(a: Mat2, b: Mat2) -> Mat2:
    """[a, b] from the closed form in the instanton module docstring, on
    the entry arithmetic: the commutator the module composed with the
    entry derivatives before its one-pass kernel, kept as that kernel's
    oracle."""
    (a00, a01), (a10, a11) = a.rows
    (b00, b01), (b10, b11) = b.rows
    da = a00 - a11
    db = b00 - b11
    c00 = a01 * b10 - b01 * a10
    return Mat2(((c00, b01 * da - a01 * db), (a10 * db - b10 * da, -c00)))


@st.composite
def _mats(draw):
    """A Mat2 of _entries(): trace-free (a11 = -a00) or traceful, with
    some entries forced to zero."""
    rows = [[draw(_entries()) for _ in range(2)] for _ in range(2)]
    if draw(st.booleans()):
        rows[1][1] = -rows[0][0]
    cells = st.tuples(st.integers(0, 1), st.integers(0, 1))
    for i, j in draw(st.lists(cells, max_size=2)):
        rows[i][j] = _RhoFrac(R4.zero())
    return Mat2(rows)


def _entries_of(m):
    return [v for row in m.rows for v in row]


def _mixed_powers(m):
    return len({v.k for v in _entries_of(m) if v}) > 1


@given(_mats(), _mats())
@settings(max_examples=50, deadline=None)
def test_commutator_matches_matrix_products(a, b):
    got = commutator(a, b)
    assert got == a * b - b * a
    oa, ob = (tuple(tuple(_oracle(v) for v in row) for row in m.rows) for m in (a, b))
    _assert_mat_equal(got, _ocomm(oa, ob))
    assert not got.trace()
    assert not commutator(a, a)
    assert commutator(b, a) == -got


_MAT_PAIR_BRANCHES = {
    "traceful": lambda a, b: bool(a.trace()) and bool(b.trace()),
    "trace_free": lambda a, b: any(_entries_of(a)) and not a.trace(),
    "zero_entry": lambda a, b: any(_entries_of(a))
    and not all(_entries_of(a))
    and any(_entries_of(b)),
    "mixed_rho_powers": lambda a, b: _mixed_powers(a) and _mixed_powers(b),
    "nonzero_commutator": lambda a, b: bool(commutator(a, b)),
}


@pytest.mark.parametrize("branch", sorted(_MAT_PAIR_BRANCHES))
def test_commutator_pairs_reach_every_branch(branch):
    holds = _MAT_PAIR_BRANCHES[branch]
    find(
        st.tuples(_mats(), _mats()),
        lambda pair: holds(*pair),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


# ----------------------------------------------------------------------
# the one-pass covariant derivative against the composed form
# ----------------------------------------------------------------------


@st.composite
def _covariant_cases(draw):
    """(a, m, var): m is drawn afresh, or is a itself, whose commutator
    products cancel in the kernel's term dict."""
    a = draw(_mats())
    m = a if draw(st.booleans()) else draw(_mats())
    return a, m, draw(st.integers(0, 3))


def _composed(a, m, var):
    """d_var m + [a, m] on the entry arithmetic, with the derivative and
    the commutator the kernel replaced."""
    d = Mat2(tuple(tuple(_rho_derivative(v, var) for v in row) for row in m.rows))
    return d + commutator(a, m)


def _kernel_parts(a, m):
    """Per entry of d m + [a, m], row by row: the entry of m and the two
    closed-form products the kernel sums with its derivative."""
    (a00, a01), (a10, a11) = a.rows
    (m00, m01), (m10, m11) = m.rows
    da, dm = a00 - a11, m00 - m11
    return (
        (m00, ((a01, m10), (a10, m01))),
        (m01, ((da, m01), (a01, dm))),
        (m10, ((a10, dm), (da, m10))),
        (m11, ((a10, m01), (a01, m10))),
    )


def _part_powers(v, products):
    """The rho powers of an entry's nonzero parts: the derivative of v
    over rho^(k+1) (rho^0 at k = 0) and each product with no zero
    factor."""
    powers = [v.k + 1 if v.k else 0] if v else []
    return powers + [x.k + y.k for x, y in products if x and y]


@given(_covariant_cases())
@settings(max_examples=50, deadline=None)
def test_covariant_kernel_matches_composed_form_and_ratfunc(case):
    a, m, var = case
    got = _covariant(a, m, var)
    _assert_matches_composed(
        got, _composed(a, m, var), _sum_parts(((1, a, m, var),)), not m.trace()
    )
    oa, om = (tuple(tuple(_oracle(v) for v in row) for row in x.rows) for x in (a, m))
    _assert_mat_equal(got, _oadd(_oderiv(om, var), _ocomm(oa, om)))


def test_covariant_kernel_stores_integral_coefficients_as_ints():
    # every coefficient is Fraction(1, 2) * 2 before normal form: d_1 of
    # x1^2 / 2 is x1, and d_1 of (x1^2 / 2 + 1/2) / rho has the numerator
    # x1 * rho - x1^3 - x1 = x1 (x2^2 + x3^2 + x4^2)
    half = Fraction(1, 2)
    x1 = R4.gen(0)
    for v in (_RhoFrac(x1 * x1 * half), _RhoFrac(x1 * x1 * half + half, 1)):
        got = _covariant(ZERO_CONNECTION.components[0], Mat2(((v, 0), (0, -v))), 0)
        want = _rho_derivative(v, 0)
        assert _same_pair(got.rows[0][0], want) and _same_pair(got.rows[1][1], -want)
        assert all(type(c) is int for c in want.p.terms.values())


def test_mixed_power_entry_takes_its_highest_uncancelled_power():
    # products over rho^1 and rho^2 whose rho^2 products cancel: the
    # entry is x1 x2 over rho^1, where the entry arithmetic lifts it to
    # x1 x2 rho over rho^2 before the cancellation; the value is the same
    x1, x2, x3, x4 = (R4.gen(i) for i in range(4))
    low = (1, _RhoFrac(x1, 1), _RhoFrac(x2))
    high = (1, _RhoFrac(x3, 1), _RhoFrac(x4, 1))
    cancelling = (low, high, (-1,) + high[1:])
    got = instanton._entry_sum((), cancelling)
    composed = _composed_products(cancelling)
    assert _same_pair(got, _RhoFrac(x1 * x2, 1))
    assert _same_pair(composed, _RhoFrac(x1 * x2 * RHO, 2))
    assert got == composed
    # with nothing cancelled the rho^1 sum is lifted to rho^2
    got = instanton._entry_sum((), (low, high))
    assert _same_pair(got, _RhoFrac(x1 * x2 * RHO + x3 * x4, 2))
    assert got == _composed_products((low, high))
    # and where both powers cancel the entry is zero over rho^0
    assert _same_pair(instanton._entry_sum((), cancelling[1:]), _RhoFrac(R4.zero()))


def _composed_products(products):
    """The sum of coef * x * y on the entry arithmetic, which lifts each
    partial sum to the larger power of rho as it adds."""
    acc = _RhoFrac(R4.zero())
    for coef, x, y in products:
        acc = acc + x * y * coef
    return acc


def _fused(v, products):
    return len(set(_part_powers(v, products))) == 1


def _cancels(a, m, var):
    # two or more nonzero parts of a fused entry sum to zero
    out = _covariant(a, m, var)
    for (v, products), got in zip(_kernel_parts(a, m), _entries_of(out)):
        derivative = 1 if _rho_derivative(v, var) else 0
        nonzero = derivative + sum(1 for x, y in products if x and y)
        if _fused(v, products) and nonzero > 1 and not got:
            return True
    return False


_KERNEL_BRANCHES = {
    "zero_entry": lambda a, m, var: any(
        not v and _fused(v, ps) for v, ps in _kernel_parts(a, m)
    ),
    "zero_product": lambda a, m, var: any(
        v and _fused(v, ps) and not all(x and y for x, y in ps)
        for v, ps in _kernel_parts(a, m)
    ),
    "entry_at_k0": lambda a, m, var: any(
        v and not v.k and _fused(v, ps) for v, ps in _kernel_parts(a, m)
    ),
    "powers_differ": lambda a, m, var: any(
        len(set(_part_powers(v, ps))) > 1 for v, ps in _kernel_parts(a, m)
    ),
    "cancels_to_zero": _cancels,
}


@pytest.mark.parametrize("branch", sorted(_KERNEL_BRANCHES))
def test_covariant_cases_reach_every_branch(branch):
    holds = _KERNEL_BRANCHES[branch]
    find(
        _covariant_cases(),
        lambda case: holds(*case),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


# ----------------------------------------------------------------------
# signed covariant sums and the self-dual part against the composed form
# ----------------------------------------------------------------------

_I = Gaussian(0, 1)
# the suite's coefficients (+-1 and +-i of the gamma matrices and signs,
# 1/2 of the self-dual part), zero, and a general Q(i) scalar
_SUM_COEFS = (1, -1, _I, -_I, Fraction(1, 2), 0, Gaussian(Fraction(3, 2), -2))


@st.composite
def _sum_terms(draw):
    """Terms (coef, A, M, var) of a covariant sum: covariant, a bare
    derivative (A None) or a bare entry (A and var None).  A quarter of
    the lists end with the negation of every term, so the sum cancels."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coef = draw(st.sampled_from(_SUM_COEFS))
        m = draw(_mats())
        kind = draw(st.sampled_from(("covariant", "derivative", "entry")))
        if kind == "entry":
            terms.append((coef, None, m, None))
        else:
            a = draw(_mats()) if kind == "covariant" else None
            terms.append((coef, a, m, draw(st.integers(0, 3))))
    if draw(st.integers(0, 3)) == 0:
        terms += [(-coef, a, m, var) for coef, a, m, var in terms]
    return terms


def _composed_terms(terms):
    """The covariant sum on the Mat2 arithmetic, with the derivative and
    commutator oracles: each term's d_var M + [A, M] (d_var M without A,
    M itself without var) scaled by its coefficient, then added."""
    acc = Mat2.zero()
    for coef, a, m, var in terms:
        if var is None:
            part = m
        else:
            rows = m.rows
            part = Mat2(tuple(tuple(_rho_derivative(v, var) for v in r) for r in rows))
        if a is not None:
            part = part + commutator(a, m)
        acc = acc + part * coef
    return acc


def _sum_parts(terms):
    """Per entry, row by row, the parts of the sum as the kernel groups
    them, each a (power of rho, scaled value) pair: the derivative of a
    nonzero entry of M over rho^(k+1) (rho^0 at k = 0), a bare entry
    over its own rho^k, and the two commutator products with no zero
    factor over the sum of their factors' powers, the second one
    subtracted.  A term with coefficient 0 has none."""
    parts = [[] for _ in range(4)]
    for coef, a, m, var in terms:
        if not coef:
            continue
        for found, v in zip(parts, _entries_of(m)):
            if v and var is None:
                found.append((v.k, v * coef))
            elif v:
                found.append((v.k + 1 if v.k else 0, _rho_derivative(v, var) * coef))
        if a is None:
            continue
        for found, (_, ((x1, y1), (x2, y2))) in zip(parts, _kernel_parts(a, m)):
            if x1 and y1:
                found.append((x1.k + y1.k, x1 * y1 * coef))
            if x2 and y2:
                found.append((x2.k + y2.k, x2 * y2 * -coef))
    return parts


def _mixed(parts):
    # the parts of one entry sit at more than one power of rho
    return len({power for power, _ in parts}) > 1


def _rule_power(parts):
    """The power of rho the pair rule gives an entry with these parts:
    the highest power whose own parts do not sum to zero, 0 if none."""
    sums = {}
    for power, v in parts:
        sums[power] = sums[power] + v if power in sums else v
    return max((power for power, total in sums.items() if total), default=0)


def _assert_matches_composed(got, want, parts, trace_free):
    """Every entry of got equals want's in value, in Q(i) normal form.
    (0, 0), (0, 1) and (1, 0) are also want's (p, k) pair when their
    parts (one list per entry in ``parts``) sit at one power of rho, and
    follow the pair rule when they do not: the value over the highest
    power whose parts do not cancel.  (1, 1) is read off the trace, so
    when every summed trace is zero (``trace_free``) it is -(0, 0) as a
    pair."""
    entries, wants = _entries_of(got), _entries_of(want)
    for g, w in zip(entries, wants):
        assert g == w
        assert all(in_normal_form(c) for c in g.p.terms.values())
    for found, g, w in zip(parts[:3], entries, wants):
        if not _mixed(found):
            assert _same_pair(g, w)
        else:
            assert g.k == (_rule_power(found) if g else 0)
    if trace_free:
        assert _same_pair(entries[3], -entries[0])


@given(_sum_terms())
@settings(max_examples=60, deadline=None)
def test_covariant_sum_matches_composed_form(terms):
    _assert_matches_composed(
        _covariant_sum(terms),
        _composed_terms(terms),
        _sum_parts(terms),
        not any(coef and m.trace() for coef, _, m, _ in terms),
    )


def _has_coef(c):
    # a term with coefficient c whose matrix is nonzero
    return lambda terms: any(
        coef == c and type(coef) is type(c) and m for coef, _, m, _ in terms
    )


def _sum_cancels(terms):
    # nonzero parts whose sum is the zero matrix
    return any(_composed_terms([t]) for t in terms) and not _covariant_sum(terms)


_SUM_BRANCHES = {
    "coef_one": _has_coef(1),
    "coef_minus_one": _has_coef(-1),
    "coef_i": _has_coef(_I),
    "coef_minus_i": _has_coef(-_I),
    "coef_half": _has_coef(Fraction(1, 2)),
    "zero_coefficient": _has_coef(0),
    "zero_matrix": lambda terms: any(coef and not m for coef, _, m, _ in terms),
    "bare_derivative": lambda terms: any(
        a is None and var is not None and m for _, a, m, var in terms
    ),
    "bare_entry": lambda terms: any(var is None and m for _, _, m, var in terms),
    "cancels_to_zero": _sum_cancels,
    "mixed_rho_powers": lambda terms: any(_mixed(p) for p in _sum_parts(terms)),
}


@pytest.mark.parametrize("branch", sorted(_SUM_BRANCHES))
def test_sum_terms_reach_every_branch(branch):
    find(
        _sum_terms(),
        _SUM_BRANCHES[branch],
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_entry_unit_scalars_copy_nothing():
    v = _RhoFrac(R4.gen(0).scale(_I) + R4.one(), 1)
    assert v * 1 is v and 1 * v is v
    for got in (v * -1, -1 * v):
        assert _same_pair(got, _RhoFrac(v.p.scale(-1), 1))
    m = Mat2(((v, 0), (0, -v)))
    assert m * 1 == m and m * -1 == -m and not (m * -1 + m)


_PAIRS = tuple(combinations(range(1, 5), 2))


def _star_key(key):
    comp, s = star_blade(_mask(*key))
    return tuple(i + 1 for i in range(4) if comp >> i & 1), s


def _old_sd_asd_split(f):
    """The duality split as ``sd_asd_split`` computed it before
    ``self_dual_part``: (F + *F) / 2 and (F - *F) / 2 on the Mat2
    arithmetic, over the keys of F and *F."""
    starred = two_form_star(f)
    half = Fraction(1, 2)
    plus, minus = {}, {}
    for key in sorted(set(f) | set(starred)):
        fk = f.get(key, Mat2.zero())
        sk = starred.get(key, Mat2.zero())
        plus[key] = (fk + sk) * half
        minus[key] = (fk - sk) * half
    return plus, minus


@st.composite
def _two_forms(draw):
    """A matrix-valued 2-form on some of the six pairs; a third of them
    are G - *G for a drawn G, so anti-self-dual."""
    keys = draw(st.sets(st.sampled_from(_PAIRS), min_size=1))
    f = {key: draw(_mats()) for key in sorted(keys)}
    if draw(st.integers(0, 2)) == 0:
        starred = two_form_star(f)
        f = {key: f.get(key, Mat2.zero()) - starred[key] for key in sorted(starred)}
    return f


def _split_parts(f):
    """Per key of the split, entry by entry, the parts of (F + *F) / 2:
    F_key / 2 and the starred s * F_dual / 2."""
    half = Fraction(1, 2)
    terms = {}
    for key, mat in f.items():
        dual, s = _star_key(key)
        terms.setdefault(key, []).append((half, None, mat, None))
        terms.setdefault(dual, []).append((half * s, None, mat, None))
    return {key: _sum_parts(t) for key, t in terms.items()}


@given(_two_forms())
@settings(max_examples=40, deadline=None)
def test_self_dual_part_matches_the_old_split(f):
    want_plus, want_minus = _old_sd_asd_split(f)
    parts = _split_parts(f)
    plus = self_dual_part(f)
    assert list(plus) == list(want_plus) == sorted(parts)
    trace_free = not any(m.trace() for m in f.values())
    for key, m in plus.items():
        _assert_matches_composed(m, want_plus[key], parts[key], trace_free)
    got_plus, got_minus = sd_asd_split(f)
    assert list(got_plus) == list(got_minus) == list(want_minus)
    for key, m in got_minus.items():
        assert m == want_minus[key] and got_plus[key] == want_plus[key]
    assert asd_check(f) == form_is_zero(want_plus)


_SPLIT_BRANCHES = {
    "anti_self_dual": lambda f: any(f.values()) and asd_check(f),
    "dual_missing": lambda f: any(_star_key(key)[0] not in f for key in f),
    "mixed_rho_powers": lambda f: any(
        _mixed(p) for found in _split_parts(f).values() for p in found
    ),
    "nonzero_minus": lambda f: bool(any(sd_asd_split(f)[1].values())),
}


@pytest.mark.parametrize("branch", sorted(_SPLIT_BRANCHES))
def test_two_forms_reach_every_branch(branch):
    find(
        _two_forms(),
        _SPLIT_BRANCHES[branch],
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def _composed_action(f, psi):
    """The curvature action as ``curvature_acts`` computed it before its
    one-pass form: F_mn * phi[r] added to component r on the Mat2
    arithmetic, key by key."""
    comps = [Mat2.zero() for _ in range(4)]
    for (m, n), mat in f.items():
        phi = GAMMA.act(Multivector.blade(_mask(m, n)), psi)
        for r in range(4):
            if phi[r]:
                comps[r] = comps[r] + mat * phi[r]
    return comps


def _action_parts(f, psi):
    """Per component, entry by entry, the parts of the action: each
    nonzero product F_mn[i][j] * phi[r] with its power of rho."""
    parts = [[[] for _ in range(4)] for _ in range(4)]
    for (m, n), mat in f.items():
        phi = GAMMA.act(Multivector.blade(_mask(m, n)), psi)
        for found, v in zip(parts, phi):
            if v:
                for p, x in zip(found, _entries_of(mat)):
                    if x:
                        p.append((x.k + v.k, x * v))
    return parts


@st.composite
def _actions(draw):
    """A trace-free 2-form, from _two_forms() with F11 = -F00, and a
    spinor of four _entries().  In a third of the forms each F11 is -F00
    lifted to one more power of rho: trace-free in value but not as a
    pair, and each (1, 1) entry is still -(0, 0) as a pair."""
    lift = draw(st.integers(0, 2)) == 0
    f = {}
    for key, m in draw(_two_forms()).items():
        m00 = m.rows[0][0]
        m11 = _RhoFrac(-m00.p * RHO, m00.k + 1) if lift else -m00
        f[key] = Mat2(((m00, m.rows[0][1]), (m.rows[1][0], m11)))
    return f, tuple(draw(_entries()) for _ in range(4))


@given(_actions())
@settings(max_examples=25, deadline=None)
def test_curvature_acts_matches_composed_form(case):
    f, psi = case
    got = curvature_acts(f, psi).components
    trace_free = not any(m.trace() for m in f.values())
    for g, w, parts in zip(got, _composed_action(f, psi), _action_parts(f, psi)):
        _assert_matches_composed(g, w, parts, trace_free)


def test_actions_reach_mixed_rho_powers():
    find(
        _actions(),
        lambda case: any(_mixed(p) for found in _action_parts(*case) for p in found),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_actions_reach_lifted_trace():
    find(
        _actions(),
        lambda case: any(m.rows[1][1].k != m.rows[0][0].k for m in case[0].values()),
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_self_dual_part_is_built_once_per_connection(monkeypatch):
    body = instanton._self_dual_of
    built = []

    def counting(f):
        built.append(f)
        return body(f)

    monkeypatch.setattr(instanton, "_self_dual_of", counting)
    conn = bpst_connection()
    assert len(built) == 1
    # a Connection hands out copies of the part it built for its
    # anti-self-duality check; a 2-form dict is not cached
    first = self_dual_part(conn)
    first.clear()
    again = self_dual_part(conn)
    assert len(again) == 6 and form_is_zero(again)
    assert asd_check(conn) and verify_curvature_dirac_solutions(conn)["passed"]
    assert len(built) == 1
    assert self_dual_part(curvature(conn)) == again
    assert len(built) == 2


# ----------------------------------------------------------------------
# frozen oracle: the BPST computation on RatFunc entries
# ----------------------------------------------------------------------
# A transcription of the construction with RatFunc entries on plain 2x2
# tuples; every entry it produces must equal the p / rho^k result.


def _rc(re=0, im=0):
    return RatFunc(R4.const(Gaussian(re, im)))


def _oadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _oscale(a, s):
    return tuple(tuple(x * s for x in row) for row in a)


def _omul(a, b):
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
        for i in range(2)
    )


def _ocomm(a, b):
    return _oadd(_omul(a, b), _oscale(_omul(b, a), -1))


def _oderiv(a, i):
    return tuple(tuple(x.derivative(i) for x in row) for row in a)


def _ozero():
    return ((_rc(), _rc()), (_rc(), _rc()))


def _oracle_bpst(scale_first=1):
    mi = ((_rc(), _rc(0, -1)), (_rc(0, -1), _rc()))
    mj = ((_rc(), _rc(-1)), (_rc(1), _rc()))
    mk = ((_rc(0, -1), _rc()), (_rc(), _rc(0, 1)))
    m1 = ((_rc(1), _rc()), (_rc(), _rc(1)))
    x = _ozero()
    for i, q in enumerate((mi, mj, mk, m1)):
        x = _oadd(x, _oscale(q, RatFunc(R4.gen(i))))
    inv_rho = RatFunc(R4.one(), RHO)
    comps = []
    for qc in (_oscale(mi, -1), _oscale(mj, -1), _oscale(mk, -1), m1):
        m = _omul(x, qc)
        half_trace = (m[0][0] + m[1][1]) * Fraction(1, 2)
        traceless = _oadd(m, _oscale(m1, -half_trace))
        comps.append(_oscale(traceless, inv_rho))
    comps[0] = _oscale(comps[0], scale_first)
    return comps


def _ocurvature(comps):
    return {
        (m, n): _oadd(
            _oadd(_oderiv(comps[n - 1], m - 1), _oscale(_oderiv(comps[m - 1], n - 1), -1)),
            _ocomm(comps[m - 1], comps[n - 1]),
        )
        for m, n in combinations(range(1, 5), 2)
    }


def _mask(m, n):
    return (1 << (m - 1)) | (1 << (n - 1))


def _ostar(f):
    out = {}
    for (m, n), mat in f.items():
        comp, s = star_blade(_mask(m, n))
        key = tuple(i + 1 for i in range(4) if comp >> i & 1)
        out[key] = _oscale(mat, s)
    return out


def _ocovariant_d(comps, g2):
    def d_dir(i, m):
        return _oadd(_oderiv(m, i - 1), _ocomm(comps[i - 1], m))

    return {
        (lam, mu, nu): _oadd(
            _oadd(d_dir(lam, g2[(mu, nu)]), _oscale(d_dir(mu, g2[(lam, nu)]), -1)),
            d_dir(nu, g2[(lam, mu)]),
        )
        for lam, mu, nu in combinations(range(1, 5), 3)
    }


def _ocurvature_acts(f, psi):
    out = [_ozero() for _ in range(4)]
    for (m, n), mat in f.items():
        phi = GAMMA.act(Multivector.blade(_mask(m, n)), psi)
        for r in range(4):
            if phi[r]:
                out[r] = _oadd(out[r], _oscale(mat, phi[r]))
    return out


def _ocoupled_dirac(comps, field):
    out = [_ozero() for _ in range(4)]
    for i in range(4):
        theta = [_oadd(_oderiv(m, i), _ocomm(comps[i], m)) for m in field]
        g = GAMMA.gamma[i]
        for r in range(4):
            for c in range(4):
                if g[r][c]:
                    out[r] = _oadd(out[r], _oscale(theta[c], g[r][c]))
    return out


def _assert_mat_equal(got: Mat2, want):
    for i in range(2):
        for j in range(2):
            assert _equals_oracle(got.rows[i][j], want[i][j])


def _nonzero(mats):
    return any(x for m in mats for row in m for x in row)


@pytest.mark.parametrize("scale_first", [1, 2], ids=["bpst", "perturbed"])
def test_bpst_matches_ratfunc_transcription(conn, scale_first):
    comps = list(conn.components)
    comps[0] = comps[0] * Fraction(scale_first)
    a = Connection(comps)
    ocomps = _oracle_bpst(scale_first)
    for got, want in zip(a.components, ocomps):
        _assert_mat_equal(got, want)

    f, of = curvature(a), _ocurvature(ocomps)
    for key in of:
        _assert_mat_equal(f[key], of[key])
    obianchi = _ocovariant_d(ocomps, of)
    for key, m in bianchi_residual(a).items():
        _assert_mat_equal(m, obianchi[key])
    oym = _ocovariant_d(ocomps, _ostar(of))
    for key, m in yang_mills_residual(a).items():
        _assert_mat_equal(m, oym[key])

    dirac_values = []
    for s in twistor_basis():
        field = curvature_acts(f, s.components)
        ofield = _ocurvature_acts(of, tuple(_oracle(v) for v in s.components))
        for got, want in zip(field.components, ofield):
            _assert_mat_equal(got, want)
        odirac = _ocoupled_dirac(ocomps, ofield)
        for got, want in zip(coupled_dirac(a, field).components, odirac):
            _assert_mat_equal(got, want)
        dirac_values.extend(odirac)
    # the control leaves nonzero Yang-Mills and Dirac values to compare
    assert _nonzero(oym.values()) == (scale_first != 1)
    assert _nonzero(dirac_values) == (scale_first != 1)
