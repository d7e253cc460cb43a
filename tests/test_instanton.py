"""Charge-one anti-self-dual connection: construction, curvature,
duality split, the affine spinor family, and the exact coupled Dirac
certificates with their negative controls.  The p / rho^k entry type is
checked against RatFunc as an independent oracle, and the one-pass
signed sums of covariant derivatives on su(2) triples, with the
self-dual part and the curvature action, against the composed 2x2
matrix arithmetic they replaced and against RatFunc.  The tests build
those 2x2 entry grids from the triples themselves."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from unittest import mock

import pytest
from gaussian_oracle import in_normal_form, parts
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from spincert import VerificationError, cli, instanton
from spincert.clifford import GammaRep, Multivector, blade_indices, star_blade
from spincert.exactalg import QQ, Gaussian, MultiPoly, PolyRing, RatFunc, rank
from spincert.instanton import (
    BLOCKS,
    GAMMA,
    R4,
    RHO,
    Connection,
    CoupledField,
    Mat2,
    Su2,
    _EVAL_POINTS,
    _OTHER,
    _RhoFrac,
    _field_row,
    _pair_mask,
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
ACTS_ON = GAMMA.asd_action_record()["acts_on"]
_I = Gaussian(0, 1)
_RF0 = _RhoFrac(R4.zero())
ZERO = Su2(0, 0, 0)
DIAG = Su2(_I, 0, 0)  # diag(i, -i)


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


ZERO_CONNECTION = Connection((ZERO,) * 4)

# ----------------------------------------------------------------------
# 2x2 entry grids, for entries of either type
# ----------------------------------------------------------------------


def _grid(t):
    """The entry grid [[a, b], [c, -a]] of the triple t."""
    return ((t.a, t.b), (t.c, -t.a))


def _triple(grid):
    """The Su2 of a grid that is trace-free in value."""
    (g00, g01), (g10, g11) = grid
    assert g11 == -g00
    return Su2(g00, g01, g10)


TI, TJ, TK = (_triple(m.rows) for m in (MI, MJ, MK))


def _gadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _gscale(a, s):
    return tuple(tuple(x * s for x in row) for row in a)


def _gmul(a, b):
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
        for i in range(2)
    )


def _gcomm(a, b):
    return _gadd(_gmul(a, b), _gscale(_gmul(b, a), -1))


def _closed_comm(a, b):
    """[a, b] of trace-free grids from the closed form of the instanton
    module docstring, whose (p, k) pairs the kernel keeps; a * b - b * a
    also adds and cancels a00 b00, which can lift the (0, 0) entry."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    da, db = a00 - a11, b00 - b11
    c00 = a01 * b10 - b01 * a10
    return ((c00, b01 * da - a01 * db), (a10 * db - b10 * da, -c00))


def _gderiv(a, i, derivative=lambda v, i: v.derivative(i)):
    return tuple(tuple(derivative(x, i) for x in row) for row in a)


def _gnonzero(a):
    return any(x for row in a for x in row)


def _conj_rf(v):
    """The complex conjugate of the entry v; rho has real coefficients,
    so only the numerator is conjugated."""
    conj = {e: Gaussian(parts(c)[0], -parts(c)[1]) for e, c in v.p.terms.items()}
    return _RhoFrac(MultiPoly(v.p.ring, conj), v.k)


def _conjugated(g, t, ginv):
    """g t ginv on the entry grids, read back as a triple."""
    return _triple(_gmul(_gmul(g, _grid(t)), ginv))


def _combine(psi: CoupledField, c, phi: CoupledField) -> CoupledField:
    """The field c * psi + phi."""
    pairs = zip(psi.components, phi.components)
    return CoupledField(psi.block, (m * c + n for m, n in pairs))


def test_bpst_components_frozen(conn):
    inv = _RhoFrac(R4.one(), 1)
    expected = (
        MI * (-_x(4)) + MJ * (-_x(3)) + MK * _x(2),
        MI * _x(3) + MJ * (-_x(4)) + MK * (-_x(1)),
        MI * (-_x(2)) + MJ * _x(1) + MK * (-_x(4)),
        MI * _x(1) + MJ * _x(2) + MK * _x(3),
    )
    for got, want in zip(conn.components, expected):
        assert not (got - _triple(want.rows) * inv)


def test_bpst_is_su2_valued_and_regular(conn):
    origin = (0, 0, 0, 0)
    for m in conn.components:
        # anti-Hermitian: conj(a) = -a and conj(c) = -b
        assert not (_conj_rf(m.a) + m.a) and not (_conj_rf(m.c) + m.b)
        for v in (m.a, m.b, m.c):
            assert not v.eval(origin) and v.k in (0, 1)


def test_mat2_rejects_bool_entries():
    with pytest.raises(TypeError):
        Mat2(((True, 0), (0, True)))
    with pytest.raises(TypeError):
        M1 * True
    with pytest.raises(TypeError):
        Su2(True, 0, 0)


@pytest.mark.parametrize("v", [True, False], ids=repr)
def test_entry_scaling_rejects_bools_before_the_zero_shortcut(v):
    # a zero entry, or False, used to give the zero entry before the
    # scalar was looked at, so a matrix times False was the zero matrix
    for m in (M1, DIAG, ZERO):
        with pytest.raises(TypeError):
            m * v
    with pytest.raises(TypeError):
        v * DIAG
    for entry in (_RhoFrac(R4.const(0)), _RhoFrac(R4.const(1))):
        with pytest.raises(TypeError):
            entry * v
        with pytest.raises(TypeError):
            v * entry
    # the one-pass sums read each coefficient through scalars._triple
    x = _x(1)
    sums = (([(v, x, None)], []), ([(v, x, 0)], []), ([], [(v, x, x)]))
    for entries, products in sums:
        with pytest.raises(TypeError):
            instanton._entry_sum(entries, products)


def test_connection_takes_su2_triples():
    # a 2x2 matrix is no component, traceful or trace-free: su(2) is the
    # type, so no trace is tested
    for bad in (M1, MI, Mat2(((1, 0), (0, 0)))):
        with pytest.raises(TypeError):
            Connection((bad,) * 4)
    with pytest.raises(ValueError):
        Connection((DIAG,) * 3)


def test_coupled_field_holds_one_chirality_block():
    assert CoupledField("S+", (ZERO, DIAG)) and not CoupledField("S-", (ZERO, ZERO))
    with pytest.raises(TypeError):
        CoupledField("S+", (DIAG, MI))
    for block, comps in (("S", (DIAG, DIAG)), ("S+", (DIAG,) * 4)):
        with pytest.raises(ValueError):
            CoupledField(block, comps)


def test_curvature_acts_refuses_spinors_outside_the_block(curv):
    # the family lies in ACTS_ON: named as the other block, or with an
    # entry added outside it, a member leaks
    sols = twistor_basis()
    other = _OTHER[ACTS_ON]
    assert curvature_acts(curv, sols[0].components, ACTS_ON).block == ACTS_ON
    with pytest.raises(VerificationError, match="leaks"):
        curvature_acts(curv, sols[0].components, other)
    leaky = list(sols[2].components)
    leaky[BLOCKS[other][1]] = _x(1)
    with pytest.raises(VerificationError, match="leaks"):
        curvature_acts(curv, leaky, ACTS_ON)


def test_curvature_zero_and_abelian_oracle():
    assert form_is_zero(curvature(ZERO_CONNECTION))
    h = R4.gen(1) * R4.gen(1)
    a = Connection((DIAG * _RhoFrac(h), ZERO, ZERO, ZERO))
    f = curvature(a)
    hprime = _RhoFrac(h.derivative(1))
    assert not (f[(1, 2)] - DIAG * (-hprime))
    for key in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        assert not f[key]


def test_bianchi_holds_for_arbitrary_connection():
    a1 = DIAG * _RhoFrac(R4.gen(0) * R4.gen(0))
    a2 = TJ * _RhoFrac(R4.gen(2))
    a3 = TK * _RhoFrac(R4.gen(0) * R4.gen(3))
    a4 = TI * _RhoFrac(R4.gen(1) + R4.one())
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
    assert not (curv[(1, 2)] - TK * (-two) * inv2)
    assert not (curv[(3, 4)] - TK * two * inv2)


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
    """The rho powers of the nonzero parts of one ``_entry_sum`` call, as
    its docstring assigns them."""
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
    # sums of triples, three entries each: 6 per curvature and per
    # self-dual part (one of each per connection, two connections), 2 per
    # Dirac residual and 2 per curvature action (the two components of a
    # chirality block, four fields each, none outside the block), and 4
    # per Bianchi or Yang-Mills residual (Bianchi, Yang-Mills and the
    # control's)
    assert cli.main(["run", "instanton", "--out", out]) == 0
    assert len(entries) == 3 * (2 * 6 + 2 * 6 + 4 * 2 + 4 * 2 + 3 * 4) == 156
    assert not mixed and len(self_dual) == 2 and len(scaled) <= 48
    # perturbed: the control is skipped, so Bianchi and Yang-Mills only
    entries.clear()
    self_dual.clear()
    scaled.clear()
    assert cli.main(["run", "instanton", "--perturb", "--out", out]) == 1
    assert len(entries) == 3 * (2 * 6 + 2 * 6 + 4 * 2 + 4 * 2 + 2 * 4) == 144
    assert not mixed and len(self_dual) == 2 and len(scaled) <= 48

    # the count sees mixed powers: the b and c entries of m are constants
    # over rho^0, and their products with a's a entry sit over rho^1
    a = bpst_connection().components[0]
    _covariant(a, Su2(0, 1, 1), 0)
    assert len(mixed) == 2
    # a curvature action sums the three entries of the two components of
    # the spinor's block, and a Dirac value those of the other block
    entries.clear()
    field = curvature_acts({(1, 2): a}, twistor_basis()[0].components, ACTS_ON)
    assert len(entries) == 2 * 3
    coupled_dirac(ZERO_CONNECTION, field)
    assert len(entries) == 2 * 2 * 3


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
    res = twistor_residual((quad, _RF0, _RF0, _RF0))
    assert any(v for comp in res for v in comp)
    res0 = twistor_residual((_RF0,) * 4)
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
    # a constant field has no Dirac value; the linear family member
    # x . psi1 tensored with diag(i, -i) has -4 psi1 tensored with it,
    # on the block of psi1
    out = coupled_dirac(ZERO_CONNECTION, CoupledField(ACTS_ON, (DIAG, DIAG)))
    assert not out and out.block == _OTHER[ACTS_ON]

    lin = next(s for s in twistor_basis() if any(s.psi1))
    acted = BLOCKS[ACTS_ON]
    tensored = CoupledField(ACTS_ON, (DIAG * lin.components[r] for r in acted))
    got = coupled_dirac(ZERO_CONNECTION, tensored)
    assert got.block == _OTHER[ACTS_ON]
    assert got.components == tuple(DIAG * (-4 * lin.psi1[r]) for r in BLOCKS[got.block])


def test_coupled_dirac_linear_in_field(conn, curv):
    sols = twistor_basis()
    psi = curvature_acts(curv, sols[0].components, ACTS_ON)
    phi = curvature_acts(curv, sols[2].components, ACTS_ON)
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
    g = Mat2(((a, b), (-b, a_bar))).rows
    ginv = Mat2(((a_bar, -b), (b, a))).rows
    product = _gmul(g, ginv)
    assert all(product[i][j] == int(i == j) for i in range(2) for j in range(2))

    sols = twistor_basis()
    psi = curvature_acts(curv, sols[1].components, ACTS_ON)
    gauged = Connection(_conjugated(g, m, ginv) for m in conn.components)
    field = CoupledField(ACTS_ON, (_conjugated(g, m, ginv) for m in psi.components))
    rhs = coupled_dirac(conn, psi).components
    lhs = coupled_dirac(gauged, field).components
    assert lhs == tuple(_conjugated(g, m, ginv) for m in rhs)


def test_curvature_action_lands_in_active_chirality_block(curv):
    # on the full spinor the composed action is zero outside the block
    # of the family, so the field of that block's two components is all
    # of it
    for s in twistor_basis():
        coupled = curvature_acts(curv, s.components, ACTS_ON)
        assert coupled.block == ACTS_ON and coupled
        full = _composed_action(curv, s.components)
        assert not any(_gnonzero(full[r]) for r in BLOCKS[_OTHER[ACTS_ON]])


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


# i rho / rho and i: the derivative of an entry over rho^1 carries a
# -2 x_var term of the rho power
_ENTRIES_I_RHO_OVER_RHO = ((_RhoFrac(RHO.scale(_I), 1), _RhoFrac(R4.const(_I), 0)), 0)


@given(_entry_pairs(), st.integers(0, 3))
@example(*_ENTRIES_I_RHO_OVER_RHO)
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


def test_equality_with_a_polynomial_of_another_ring_is_false():
    # such a polynomial is no entry: == gives way to the other operand,
    # and the comparison is False, not a ValueError
    t = PolyRing(QQ, ("t",)).gen(0)
    x1 = _RhoFrac(R4.gen(0))
    assert (x1 == t) is False and (t == x1) is False and (x1 != t) is True
    assert (Su2(x1, 0, 0) == t) is False and (Su2(1, 0, 0) == 1) is False
    assert Su2(x1, 0, 0) == Su2(R4.gen(0), 0, 0) and Su2(x1, 0, 0) != DIAG


def test_field_values_are_exact_and_in_normal_form(conn):
    # the values rank reads: p(point) / rho(point)^k, with rho 16 and 11
    # at the two points, is divided exactly; over two ints a bare / would
    # give a float
    f = curvature(conn)
    rhos = [RHO.eval(point) for point in _EVAL_POINTS]
    assert rhos == [16, 11]
    kinds = set()
    for psi in twistor_basis():
        field = curvature_acts(f, psi.components, ACTS_ON)
        row = _field_row(field, rhos)
        assert all(in_normal_form(v) for v in row)
        want = [
            _oracle(v).eval(point)
            for point in _EVAL_POINTS
            for m in field.components
            for v in (m.a, m.b, m.c)
        ]
        assert row == want
        kinds.update(type(v) for v in row)
    assert kinds == {int, Fraction, Gaussian}


def _full_row(field):
    """All four entries of every component at each evaluation point: the
    16-column row whose rank ``independent_count`` must equal."""
    return [
        v.eval(point)
        for point in _EVAL_POINTS
        for m in field.components
        for row in _grid(m)
        for v in row
    ]


@st.composite
def _coupled_fields(draw):
    """One to four CoupledFields of one block, each nonzero in one to
    three of its (component, entry) slots, so a row that drops or
    misreads one entry loses rank; half of the lists end with a
    combination of two earlier fields, so their rank falls short."""
    block = draw(st.sampled_from(sorted(BLOCKS)))
    slots = st.tuples(st.integers(0, 1), st.integers(0, 2))

    def field():
        entries = [[_RF0] * 3 for _ in range(2)]
        for r, i in draw(st.sets(slots, min_size=1, max_size=3)):
            entries[r][i] = draw(_entries())
        return CoupledField(block, (Su2(*e) for e in entries))

    fields = [field() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        c = draw(st.sampled_from((1, -1, Gaussian(0, 1), Fraction(3, 2))))
        first, last = fields[0].components, fields[-1].components
        fields.append(CoupledField(block, (x + y * c for x, y in zip(first, last))))
    return fields


# one field nonzero in a b entry alone: a row that skips b has rank 0
_FIELD_B_ONLY = [
    CoupledField("S+", (Su2(_RF0, _RhoFrac(R4.const(1)), _RF0), Su2(_RF0, _RF0, _RF0)))
]


@given(_coupled_fields())
@example(_FIELD_B_ONLY)
@settings(max_examples=30, deadline=None)
def test_independent_count_matches_the_full_rank(fields):
    assert independent_count(fields) == rank([_full_row(f) for f in fields])


def _reaches(strategy, holds):
    """A draw of ``strategy`` satisfies ``holds`` within 2,000 draws."""
    find(
        strategy,
        holds,
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


_FIELD_BRANCHES = {
    "rank_short": lambda fields: independent_count(fields) < len(fields),
    "single_slot": lambda fields: any(
        sum(1 for m in f.components for v in (m.a, m.b, m.c) if v) == 1
        for f in fields
    ),
}


@pytest.mark.parametrize("branch", sorted(_FIELD_BRANCHES))
def test_coupled_fields_reach_every_branch(branch):
    _reaches(_coupled_fields(), _FIELD_BRANCHES[branch])


def test_independent_count_refuses_fields_of_two_blocks():
    # the columns of one block are not those of the other
    fields = [CoupledField(block, (DIAG, ZERO)) for block in sorted(BLOCKS)]
    assert independent_count(fields[:1]) == 1
    with pytest.raises(ValueError):
        independent_count(fields)


def test_independent_count_needs_both_points(conn, curv, monkeypatch):
    # the four produced fields have rank 4 over both points, 2 at either
    # point alone
    fields = [curvature_acts(curv, psi.components, ACTS_ON) for psi in twistor_basis()]
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
    _reaches(
        _entry_pairs(),
        lambda pair: bool(pair[0]) and bool(pair[1]) and holds(*pair),
    )


# ----------------------------------------------------------------------
# the closed-form commutator against a * b - b * a and RatFunc entries
# ----------------------------------------------------------------------


@st.composite
def _su2s(draw):
    """An Su2 of _entries(), with some entries forced to zero."""
    entries = [draw(_entries()) for _ in range(3)]
    for i in draw(st.lists(st.integers(0, 2), max_size=2)):
        entries[i] = _RF0
    return Su2(*entries)


def _ogrid(t):
    return tuple(tuple(_oracle(v) for v in row) for row in _grid(t))


def commutator(a: Su2, m: Su2) -> Su2:
    """[a, m] as the kernel sums it: the covariant sum d m + [a, m] less
    the bare derivative d m."""
    return _covariant(a, m, 0) - _covariant_sum(((1, None, m, 0),))


@given(_su2s(), _su2s())
@settings(max_examples=50, deadline=None)
def test_commutator_matches_matrix_products(a, b):
    got = commutator(a, b)
    want = _gcomm(_grid(a), _grid(b))
    assert got == _triple(want)
    _assert_mat_equal(got, _gcomm(_ogrid(a), _ogrid(b)))
    assert not commutator(a, a)
    assert commutator(b, a) == -got


_MAT_PAIR_BRANCHES = {
    "zero_entry": lambda a, b: bool(a) and not (a.a and a.b and a.c) and bool(b),
    "mixed_rho_powers": lambda a, b: all(
        len({v.k for v in (t.a, t.b, t.c) if v}) > 1 for t in (a, b)
    ),
    "nonzero_commutator": lambda a, b: bool(commutator(a, b)),
}


@pytest.mark.parametrize("branch", sorted(_MAT_PAIR_BRANCHES))
def test_commutator_pairs_reach_every_branch(branch):
    holds = _MAT_PAIR_BRANCHES[branch]
    _reaches(st.tuples(_su2s(), _su2s()), lambda pair: holds(*pair))


# ----------------------------------------------------------------------
# the one-pass covariant derivative against the composed form
# ----------------------------------------------------------------------


@st.composite
def _covariant_cases(draw):
    """(a, m, var): m is drawn afresh, or is a itself, whose commutator
    products cancel in the kernel's term dict."""
    a = draw(_su2s())
    m = a if draw(st.booleans()) else draw(_su2s())
    return a, m, draw(st.integers(0, 3))


def _kernel_parts(a, m):
    """Per entry a, b and c of d m + [a, m]: the entry of m and the two
    closed-form products (scale, x, y) the kernel sums with its
    derivative."""
    return (
        (m.a, ((1, a.b, m.c), (-1, m.b, a.c))),
        (m.b, ((2, a.a, m.b), (-2, a.b, m.a))),
        (m.c, ((2, a.c, m.a), (-2, a.a, m.c))),
    )


# a derivative over rho^2 that cancels a product over rho^2 in the a
# entry, leaving the other product over rho^0: the kernel's pair is
# (-x2 x3, 0), where the composed sum keeps it over rho^2
_X1, _X2, _X3, _X4 = (R4.gen(i) for i in range(4))
_KERNEL_TOP_CANCELS = (
    Su2(0, _RhoFrac(RHO - 2 * _X1 * _X1, 1), _X3),
    Su2(_RhoFrac(_X1, 1), _X2, _RhoFrac(R4.const(-1), 1)),
    0,
)
# a00 m00 over rho^4 sits above the a entry's parts over rho^3, so the
# product form of the commutator, which adds and cancels it, lifts the
# entry where the kernel and the closed form do not
_I2 = _RhoFrac(R4.const(_I), 2)
_KERNEL_DIAGONAL_ABOVE = (Su2(_I2, 0, _I2), Su2(_I2, _RhoFrac(R4.const(_I), 1), 0), 0)


@given(_covariant_cases())
@example(_KERNEL_TOP_CANCELS)
@example(_KERNEL_DIAGONAL_ABOVE)
@settings(max_examples=50, deadline=None)
def test_covariant_kernel_matches_composed_form_and_ratfunc(case):
    a, m, var = case
    terms = ((1, a, m, var),)
    got = _covariant_sum(terms)
    _assert_matches_composed(got, _composed_terms(terms), _sum_parts(terms))
    oa, om = _ogrid(a), _ogrid(m)
    _assert_mat_equal(got, _gadd(_gderiv(om, var), _gcomm(oa, om)))


def test_covariant_kernel_stores_integral_coefficients_as_ints():
    # every coefficient is Fraction(1, 2) * 2 before normal form: d_1 of
    # x1^2 / 2 is x1, and d_1 of (x1^2 / 2 + 1/2) / rho has the numerator
    # x1 * rho - x1^3 - x1 = x1 (x2^2 + x3^2 + x4^2)
    half = Fraction(1, 2)
    x1 = R4.gen(0)
    for v in (_RhoFrac(x1 * x1 * half), _RhoFrac(x1 * x1 * half + half, 1)):
        got = _covariant(ZERO, Su2(v, 0, 0), 0)
        want = _rho_derivative(v, 0)
        assert _same_pair(got.a, want)
        assert all(type(c) is int for c in want.p.terms.values())


def test_kernel_sums_gaussian_coefficients_as_integer_triples(monkeypatch):
    # the kernel multiplies and adds coefficient triples of ints, so no
    # Gaussian operator runs while it sums Gaussian-coefficient entries
    # and products, the BPST curvature build among them
    comps = bpst_connection().components
    a, b = comps[0], comps[1]
    assert any(type(c) is Gaussian for c in a.b.p.terms.values())
    # derivatives and products of entries over rho^1 sit over rho^2, so
    # no sum is lifted from a lower power by polynomial arithmetic
    minus_i = -_I
    entries = ((_I, a.b, 0), (Fraction(1, 2), a.a, 2))
    products = ((minus_i, a.b, b.c), (Fraction(3, 2), a.c, b.b))
    calls = []
    for name in "__mul__ __rmul__ __add__ __radd__ __sub__ __rsub__ __neg__".split():
        op = getattr(Gaussian, name)
        counted = lambda *args, op=op, name=name: calls.append(name) or op(*args)
        monkeypatch.setattr(Gaussian, name, counted)
    got = instanton._entry_sum(entries, products)
    bare = instanton._entry_sum(((minus_i, b.c, None),), ())
    curvature = instanton._curvature_of(comps)
    assert calls == []
    monkeypatch.undo()
    assert got and bare == b.c * minus_i and any(curvature.values())


def test_mixed_power_entry_takes_its_highest_uncancelled_power():
    # products over rho^1 and rho^2 whose rho^2 products cancel: the
    # entry is x1 x2 over rho^1, where the entry arithmetic lifts it to
    # x1 x2 rho over rho^2 before the cancellation; the value is the same
    low = (1, _RhoFrac(_X1, 1), _RhoFrac(_X2))
    high = (1, _RhoFrac(_X3, 1), _RhoFrac(_X4, 1))
    cancelling = (low, high, (-1,) + high[1:])
    got = instanton._entry_sum((), cancelling)
    composed = _composed_products(cancelling)
    assert _same_pair(got, _RhoFrac(_X1 * _X2, 1))
    assert _same_pair(composed, _RhoFrac(_X1 * _X2 * RHO, 2))
    assert got == composed
    # with nothing cancelled the rho^1 sum is lifted to rho^2
    got = instanton._entry_sum((), (low, high))
    assert _same_pair(got, _RhoFrac(_X1 * _X2 * RHO + _X3 * _X4, 2))
    assert got == _composed_products((low, high))
    # and where both powers cancel the entry is zero over rho^0
    assert _same_pair(instanton._entry_sum((), cancelling[1:]), _RF0)


def _composed_products(products):
    """The sum of coef * x * y on the entry arithmetic, which lifts each
    partial sum to the larger power of rho as it adds."""
    acc = _RF0
    for coef, x, y in products:
        acc = acc + x * y * coef
    return acc


def _fused(v, products):
    # the nonzero parts of the entry, d v and the products, sit at one
    # power of rho
    return len(_entry_sum_powers(((1, v, 0),), products)) == 1


def _cancels(a, m, var):
    # two or more nonzero parts of a fused entry sum to zero
    out = _covariant(a, m, var)
    for (v, products), got in zip(_kernel_parts(a, m), (out.a, out.b, out.c)):
        derivative = 1 if _rho_derivative(v, var) else 0
        nonzero = derivative + sum(1 for _, x, y in products if x and y)
        if _fused(v, products) and nonzero > 1 and not got:
            return True
    return False


_KERNEL_BRANCHES = {
    "zero_entry": lambda a, m, var: any(
        not v and _fused(v, ps) for v, ps in _kernel_parts(a, m)
    ),
    "zero_product": lambda a, m, var: any(
        v and _fused(v, ps) and not all(x and y for _, x, y in ps)
        for v, ps in _kernel_parts(a, m)
    ),
    "entry_at_k0": lambda a, m, var: any(
        v and not v.k and _fused(v, ps) for v, ps in _kernel_parts(a, m)
    ),
    "powers_differ": lambda a, m, var: any(
        len(_entry_sum_powers(((1, v, 0),), ps)) > 1 for v, ps in _kernel_parts(a, m)
    ),
    "cancels_to_zero": _cancels,
}


@pytest.mark.parametrize("branch", sorted(_KERNEL_BRANCHES))
def test_covariant_cases_reach_every_branch(branch):
    holds = _KERNEL_BRANCHES[branch]
    _reaches(_covariant_cases(), lambda case: holds(*case))


# ----------------------------------------------------------------------
# signed covariant sums and the self-dual part against the composed form
# ----------------------------------------------------------------------

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
        m = draw(_su2s())
        kind = draw(st.sampled_from(("covariant", "derivative", "entry")))
        if kind == "entry":
            terms.append((coef, None, m, None))
        else:
            a = draw(_su2s()) if kind == "covariant" else None
            terms.append((coef, a, m, draw(st.integers(0, 3))))
    if draw(st.integers(0, 3)) == 0:
        terms += [(-coef, a, m, var) for coef, a, m, var in terms]
    return terms


def _composed_terms(terms):
    """The covariant sum on the entry grids, with the composed
    derivative and the closed-form commutator: each term's d_var M + [A,
    M] (d_var M without A, M itself without var) scaled by its
    coefficient, then added."""
    acc = _grid(ZERO)
    for coef, a, m, var in terms:
        g = _grid(m)
        part = g if var is None else _gderiv(g, var, _rho_derivative)
        if a is not None:
            part = _gadd(part, _closed_comm(_grid(a), g))
        acc = _gadd(acc, _gscale(part, coef))
    return acc


def _sum_parts(terms):
    """Per entry a, b and c, the parts of the sum as the kernel groups
    them, each a (power of rho, scaled value) pair: the derivative of a
    nonzero entry of M over rho^(k+1) (rho^0 at k = 0), a bare entry
    over its own rho^k, and the two commutator products with no zero
    factor over the sum of their factors' powers.  A term with
    coefficient 0 has none."""
    parts = [[] for _ in range(3)]
    for coef, a, m, var in terms:
        if not coef:
            continue
        for found, v in zip(parts, (m.a, m.b, m.c)):
            if v and var is None:
                found.append((v.k, v * coef))
            elif v:
                found.append((v.k + 1 if v.k else 0, _rho_derivative(v, var) * coef))
        if a is None:
            continue
        for found, (_, products) in zip(parts, _kernel_parts(a, m)):
            for s, x, y in products:
                if x and y:
                    found.append((x.k + y.k, x * y * (s * coef)))
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


def _assert_matches_composed(got, want, parts):
    """The triple got is the trace-free entry grid want in value, in
    Q(i) normal form.  Each of its entries a, b and c is also want's
    (p, k) pair when its parts (one list per entry in ``parts``) sit at
    one power of rho, and follows the pair rule when they do not: the
    value over the highest power whose parts do not cancel."""
    assert got == _triple(want)
    (w00, w01), (w10, _) = want
    for found, g, w in zip(parts, (got.a, got.b, got.c), (w00, w01, w10)):
        assert all(in_normal_form(c) for c in g.p.terms.values())
        if not _mixed(found):
            assert _same_pair(g, w)
        else:
            assert g.k == (_rule_power(found) if g else 0)


# one bare entry each: negated, times i, and over rho^1, where it stays
# (a derivative of it would sit over rho^2)
_SUM_NEGATED = [(-1, None, Su2(_x(1), 0, 0), None)]
_SUM_TIMES_I = [(_I, None, Su2(_x(1), 0, 0), None)]
_SUM_BARE_OVER_RHO = [(1, None, Su2(_RhoFrac(_X1, 1), 0, 0), None)]
# the a entry's derivative d_1 x1 = 1 sits over rho^0 and its product
# (x3 / rho) x2 over rho^1: two powers, each summed on its own
_SUM_TWO_POWERS = [(1, Su2(0, _RhoFrac(_X3, 1), 0), Su2(_x(1), 0, _x(2)), 0)]
# x1 + x1 / 2: the kernel adds the coefficient triples (1, 0, 1) and
# (1, 0, 2), whose denominators differ, by cross-multiplying
_SUM_UNEQUAL_DENOMINATORS = [
    (1, None, Su2(_x(1), 0, 0), None),
    (Fraction(1, 2), None, Su2(_x(1), 0, 0), None),
]


@given(_sum_terms())
@example(_SUM_NEGATED)
@example(_SUM_TIMES_I)
@example(_SUM_BARE_OVER_RHO)
@example(_SUM_TWO_POWERS)
@example(_SUM_UNEQUAL_DENOMINATORS)
@settings(max_examples=60, deadline=None)
def test_covariant_sum_matches_composed_form(terms):
    got = _covariant_sum(terms)
    _assert_matches_composed(got, _composed_terms(terms), _sum_parts(terms))


def _has_coef(c):
    # a term with coefficient c whose matrix is nonzero
    return lambda terms: any(
        coef == c and type(coef) is type(c) and m for coef, _, m, _ in terms
    )


def _sum_cancels(terms):
    # nonzero parts whose sum is the zero matrix
    parts = any(_gnonzero(_composed_terms([t])) for t in terms)
    return parts and not _covariant_sum(terms)


def _sums_unequal_denominators(terms):
    # the kernel adds two coefficient triples over different denominators
    with mock.patch.object(instanton, "_cross_add", wraps=instanton._cross_add) as spy:
        _covariant_sum(terms)
    return spy.called


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
    "unequal_denominators": _sums_unequal_denominators,
}


@pytest.mark.parametrize("branch", sorted(_SUM_BRANCHES))
def test_sum_terms_reach_every_branch(branch):
    _reaches(_sum_terms(), _SUM_BRANCHES[branch])


def test_entry_unit_scalars_copy_nothing():
    v = _RhoFrac(R4.gen(0).scale(_I) + R4.one(), 1)
    assert v * 1 is v and 1 * v is v
    for got in (v * -1, -1 * v):
        assert _same_pair(got, _RhoFrac(v.p.scale(-1), 1))
    m = Su2(v, v, 0)
    assert m * 1 == m and m * -1 == -m and not (m * -1 + m)


_PAIRS = tuple(combinations(range(1, 5), 2))


def _star_key(key):
    comp, s = star_blade(_pair_mask(*key))
    return blade_indices(comp), s


def _old_sd_asd_split(f):
    """The duality split as ``sd_asd_split`` computed it before
    ``self_dual_part``: (F + *F) / 2 and (F - *F) / 2 on the entry grids,
    over the keys of F and *F."""
    starred = two_form_star(f)
    half = Fraction(1, 2)
    plus, minus = {}, {}
    for key in sorted(set(f) | set(starred)):
        fk = _grid(f.get(key, ZERO))
        sk = _grid(starred.get(key, ZERO))
        plus[key] = _gscale(_gadd(fk, sk), half)
        minus[key] = _gscale(_gadd(fk, _gscale(sk, -1)), half)
    return plus, minus


@st.composite
def _two_forms(draw):
    """An su(2)-valued 2-form on some of the six pairs; a third of them
    are G - *G for a drawn G, so anti-self-dual."""
    keys = draw(st.sets(st.sampled_from(_PAIRS), min_size=1))
    f = {key: draw(_su2s()) for key in sorted(keys)}
    if draw(st.integers(0, 2)) == 0:
        starred = two_form_star(f)
        f = {key: f.get(key, ZERO) - starred[key] for key in sorted(starred)}
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


# F_12 = x1 / rho alone is not anti-self-dual: its self-dual part is
# x1 / (2 rho) at (1, 2) and +-x1 / (2 rho) at (3, 4), each a bare entry
# over rho^1
_SPLIT_ONE_KEY = {(1, 2): Su2(_RhoFrac(_X1, 1), 0, 0)}


@given(_two_forms())
@example(_SPLIT_ONE_KEY)
@settings(max_examples=40, deadline=None)
def test_self_dual_part_matches_the_old_split(f):
    want_plus, want_minus = _old_sd_asd_split(f)
    parts = _split_parts(f)
    plus = self_dual_part(f)
    assert list(plus) == list(want_plus) == sorted(parts)
    for key, m in plus.items():
        _assert_matches_composed(m, want_plus[key], parts[key])
    got_plus, got_minus = sd_asd_split(f)
    assert list(got_plus) == list(got_minus) == list(want_minus)
    for key, m in got_minus.items():
        assert m == _triple(want_minus[key]) and got_plus[key] == plus[key]
    assert asd_check(f) == (not any(_gnonzero(m) for m in want_plus.values()))


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
    _reaches(_two_forms(), _SPLIT_BRANCHES[branch])


def _act(f, psi, zero):
    """The curvature action as ``curvature_acts`` computed it before its
    one-pass form, on the full spinor: the grid F_mn * phi[r] added to
    row r, key by key, from the zero grid ``zero``."""
    out = [zero] * 4
    for (m, n), mat in f.items():
        phi = GAMMA.act(Multivector.blade(_pair_mask(m, n)), psi)
        for r in range(4):
            if phi[r]:
                out[r] = _gadd(out[r], _gscale(mat, phi[r]))
    return out


def _composed_action(f, psi):
    return _act({key: _grid(m) for key, m in f.items()}, psi, _grid(ZERO))


def _action_parts(f, psi):
    """Per spinor row, entry by entry (a, b, c), the parts of the
    action: each nonzero product F_mn entry * phi[r] with its power of
    rho."""
    parts = [[[] for _ in range(3)] for _ in range(4)]
    for (m, n), mat in f.items():
        phi = GAMMA.act(Multivector.blade(_pair_mask(m, n)), psi)
        for found, v in zip(parts, phi):
            if v:
                for p, x in zip(found, (mat.a, mat.b, mat.c)):
                    if x:
                        p.append((x.k + v.k, x * v))
    return parts


def _leaks(psi, block):
    return any(psi[r] for r in BLOCKS[_OTHER[block]])


@st.composite
def _actions(draw):
    """A 2-form from _two_forms(), a block, and a spinor of _entries() in
    that block; in one draw in eight the spinor also has a nonzero entry
    outside the block, which ``curvature_acts`` refuses."""
    f = draw(_two_forms())
    block = draw(st.sampled_from(sorted(BLOCKS)))
    psi = [_RF0] * 4
    for r in BLOCKS[block]:
        psi[r] = draw(_entries())
    if draw(st.integers(0, 7)) == 0:
        psi[draw(st.sampled_from(BLOCKS[_OTHER[block]]))] = _RhoFrac(R4.gen(0), 1)
    return f, tuple(psi), block


# on S+, e3 e4 . psi = -e1 e2 . psi, so the products of F_12 = F_34 over
# rho^1 cancel in row 0, and F_13's product over rho^0 is left: the
# kernel's pair is (x2, 0), where the composed sum, which adds F_13's
# product first, keeps x2 rho over rho^1
_F = Su2(_RhoFrac(_X1, 1), 0, 0)
_ACTION_TOP_CANCELS = (
    {(1, 2): _F, (1, 3): Su2(_X2, 0, 0), (3, 4): _F},
    (_RhoFrac(R4.one()),) * 2 + (_RF0,) * 2,
    "S+",
)


@given(_actions())
@example(_ACTION_TOP_CANCELS)
@settings(max_examples=25, deadline=None)
def test_curvature_acts_matches_composed_form(case):
    f, psi, block = case
    if _leaks(psi, block):
        with pytest.raises(VerificationError):
            curvature_acts(f, psi, block)
        return
    got = curvature_acts(f, psi, block)
    full, parts = _composed_action(f, psi), _action_parts(f, psi)
    assert got.block == block
    assert not any(_gnonzero(full[r]) for r in BLOCKS[_OTHER[block]])
    for g, r in zip(got.components, BLOCKS[block]):
        _assert_matches_composed(g, full[r], parts[r])


def test_actions_reach_mixed_rho_powers():
    _reaches(
        _actions(),
        lambda case: any(map(_mixed, sum(_action_parts(*case[:2]), []))),
    )


def test_actions_reach_a_leaking_spinor():
    _reaches(_actions(), lambda case: _leaks(*case[1:]))


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


def _oracle_bpst(scale_first=1):
    mi = ((_rc(), _rc(0, -1)), (_rc(0, -1), _rc()))
    mj = ((_rc(), _rc(-1)), (_rc(1), _rc()))
    mk = ((_rc(0, -1), _rc()), (_rc(), _rc(0, 1)))
    m1 = ((_rc(1), _rc()), (_rc(), _rc(1)))
    x = _ogrid(ZERO)
    for i, q in enumerate((mi, mj, mk, m1)):
        x = _gadd(x, _gscale(q, RatFunc(R4.gen(i))))
    inv_rho = RatFunc(R4.one(), RHO)
    comps = []
    for qc in (_gscale(mi, -1), _gscale(mj, -1), _gscale(mk, -1), m1):
        m = _gmul(x, qc)
        half_trace = (m[0][0] + m[1][1]) * Fraction(1, 2)
        traceless = _gadd(m, _gscale(m1, -half_trace))
        comps.append(_gscale(traceless, inv_rho))
    comps[0] = _gscale(comps[0], scale_first)
    return comps


def _ocurvature(comps):
    out = {}
    for m, n in combinations(range(1, 5), 2):
        am, an = comps[m - 1], comps[n - 1]
        d = _gadd(_gderiv(an, m - 1), _gscale(_gderiv(am, n - 1), -1))
        out[(m, n)] = _gadd(d, _gcomm(am, an))
    return out


def _ostar(f):
    out = {}
    for key, mat in f.items():
        dual, s = _star_key(key)
        out[dual] = _gscale(mat, s)
    return out


def _ocovariant_d(comps, g2):
    def d_dir(i, m):
        return _gadd(_gderiv(m, i - 1), _gcomm(comps[i - 1], m))

    return {
        (lam, mu, nu): _gadd(
            _gadd(d_dir(lam, g2[(mu, nu)]), _gscale(d_dir(mu, g2[(lam, nu)]), -1)),
            d_dir(nu, g2[(lam, mu)]),
        )
        for lam, mu, nu in combinations(range(1, 5), 3)
    }


def _ocoupled_dirac(comps, field):
    out = [_ogrid(ZERO) for _ in range(4)]
    for i in range(4):
        theta = [_gadd(_gderiv(m, i), _gcomm(comps[i], m)) for m in field]
        g = GAMMA.gamma[i]
        for r in range(4):
            for c in range(4):
                if g[r][c]:
                    out[r] = _gadd(out[r], _gscale(theta[c], g[r][c]))
    return out


def _assert_mat_equal(got: Su2, want):
    """The triple is the RatFunc grid want: a, b, c and -a at (1, 1)."""
    for v, w in zip((got.a, got.b, got.c, -got.a), (*want[0], *want[1])):
        assert _equals_oracle(v, w)


def _assert_field_equal(field: CoupledField, want):
    """The coupled field is the four RatFunc grids want: its block's two
    components, and zero in the rows of the other block."""
    comps = dict(zip(BLOCKS[field.block], field.components))
    for r, w in enumerate(want):
        _assert_mat_equal(comps.get(r, ZERO), w)


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
        field = curvature_acts(f, s.components, ACTS_ON)
        ofield = _act(of, tuple(_oracle(v) for v in s.components), _ogrid(ZERO))
        _assert_field_equal(field, ofield)
        odirac = _ocoupled_dirac(ocomps, ofield)
        _assert_field_equal(coupled_dirac(a, field), odirac)
        dirac_values.extend(odirac)
    # the control leaves nonzero Yang-Mills and Dirac values to compare
    assert any(map(_gnonzero, oym.values())) == (scale_first != 1)
    assert any(map(_gnonzero, dirac_values)) == (scale_first != 1)
