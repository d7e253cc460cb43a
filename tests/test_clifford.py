"""Clifford algebra layer: blade product against an independent sign
oracle and a frozen table, star conventions, the two product identities,
and the exact spin representation."""

from fractions import Fraction

import pytest
from gaussian_oracle import parts
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from spincert import VerificationError
from spincert.clifford import (
    DIM,
    NBLADES,
    VOLUME_MASK,
    GammaRep,
    Multivector,
    asd_basis,
    blade_indices,
    blade_mul,
    decomposition_defect,
    grade,
    hodge_star,
    identity_decomposition,
    identity_sandwich,
    is_asd,
    sandwich_raw,
    sd_basis,
    star_blade,
    two_form,
    vector_basis,
    wedge,
)
from spincert.exactalg import Gaussian

# Independent oracle: blades as sorted index words, product by sorting the
# concatenation with a swap count and cancelling adjacent equal letters at
# a cost of -1 each.


def _word_product(wa, wb):
    word = list(wa + wb)
    sign = 1
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 1 < len(word):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
                changed = True
            elif word[k] == word[k + 1]:
                del word[k : k + 2]
                sign = -sign
                changed = True
            else:
                k += 1
    return tuple(word), sign


def _mask_of_word(word):
    m = 0
    for i in word:
        m |= 1 << (i - 1)
    return m


SIGN_TABLE = (
    (+1, +1, +1, +1, +1, +1, +1, +1, +1, +1, +1, +1, +1, +1, +1, +1),
    (+1, -1, +1, -1, +1, -1, +1, -1, +1, -1, +1, -1, +1, -1, +1, -1),
    (+1, -1, -1, +1, +1, -1, -1, +1, +1, -1, -1, +1, +1, -1, -1, +1),
    (+1, +1, -1, -1, +1, +1, -1, -1, +1, +1, -1, -1, +1, +1, -1, -1),
    (+1, -1, -1, +1, -1, +1, +1, -1, +1, -1, -1, +1, -1, +1, +1, -1),
    (+1, +1, -1, -1, -1, -1, +1, +1, +1, +1, -1, -1, -1, -1, +1, +1),
    (+1, +1, +1, +1, -1, -1, -1, -1, +1, +1, +1, +1, -1, -1, -1, -1),
    (+1, -1, +1, -1, -1, +1, -1, +1, +1, -1, +1, -1, -1, +1, -1, +1),
    (+1, -1, -1, +1, -1, +1, +1, -1, -1, +1, +1, -1, +1, -1, -1, +1),
    (+1, +1, -1, -1, -1, -1, +1, +1, -1, -1, +1, +1, +1, +1, -1, -1),
    (+1, +1, +1, +1, -1, -1, -1, -1, -1, -1, -1, -1, +1, +1, +1, +1),
    (+1, -1, +1, -1, -1, +1, -1, +1, -1, +1, -1, +1, +1, -1, +1, -1),
    (+1, +1, +1, +1, +1, +1, +1, +1, -1, -1, -1, -1, -1, -1, -1, -1),
    (+1, -1, +1, -1, +1, -1, +1, -1, -1, +1, -1, +1, -1, +1, -1, +1),
    (+1, -1, -1, +1, +1, -1, -1, +1, -1, +1, +1, -1, -1, +1, +1, -1),
    (+1, +1, -1, -1, +1, +1, -1, -1, -1, -1, +1, +1, -1, -1, +1, +1),
)


def test_blade_product_matches_oracle_and_frozen_table():
    for ma in range(NBLADES):
        for mb in range(NBLADES):
            word, osign = _word_product(blade_indices(ma), blade_indices(mb))
            mask, sign = blade_mul(ma, mb)
            assert mask == ma ^ mb == _mask_of_word(word)
            assert sign == osign == SIGN_TABLE[ma][mb]


def test_generator_anticommutation():
    es = vector_basis()
    for i in range(DIM):
        for j in range(DIM):
            expect = Multivector.blade(0, -2 if i == j else 0)
            assert es[i] * es[j] + es[j] * es[i] == expect


small_gaussians = st.builds(
    Gaussian,
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)

multivectors = st.dictionaries(
    st.integers(min_value=0, max_value=NBLADES - 1),
    small_gaussians,
    max_size=4,
).map(Multivector)


@settings(max_examples=60)
@given(multivectors, multivectors, multivectors)
def test_product_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(multivectors, multivectors)
def test_wedge_is_top_grade_part_and_alternating(a, b):
    for ma in a.coeffs:
        for mb in b.coeffs:
            pa = Multivector.blade(ma, a.coeffs[ma])
            pb = Multivector.blade(mb, b.coeffs[mb])
            assert wedge(pa, pb) == (pa * pb).grade_project(grade(ma) + grade(mb))
    a1, b1 = a.grade_project(1), b.grade_project(1)
    assert wedge(a1, b1) == -wedge(b1, a1)
    assert not wedge(a1, a1)


def test_star_frozen_values():
    assert hodge_star(Multivector.blade(0)) == Multivector.blade(VOLUME_MASK)
    assert hodge_star(Multivector.blade(VOLUME_MASK)) == Multivector.blade(0)
    expected_two_forms = {
        (1, 2): ((3, 4), +1),
        (3, 4): ((1, 2), +1),
        (1, 3): ((2, 4), -1),
        (2, 4): ((1, 3), -1),
        (1, 4): ((2, 3), +1),
        (2, 3): ((1, 4), +1),
    }
    for (i, j), ((k, l), s) in expected_two_forms.items():
        assert hodge_star(two_form(i, j)) == two_form(k, l) * s
    # 1-forms and 3-forms, under the module's grade-3 calibration
    e = {i: Multivector.vector(i) for i in range(1, 5)}
    tri = lambda i, j, k: e[i] * e[j] * e[k]
    assert hodge_star(e[1]) == tri(2, 3, 4)
    assert hodge_star(e[2]) == -tri(1, 3, 4)
    assert hodge_star(e[3]) == tri(1, 2, 4)
    assert hodge_star(e[4]) == -tri(1, 2, 3)
    assert hodge_star(tri(2, 3, 4)) == e[1]
    assert hodge_star(tri(1, 3, 4)) == -e[2]
    assert hodge_star(tri(1, 2, 4)) == e[3]
    assert hodge_star(tri(1, 2, 3)) == -e[4]


def test_star_involutive_on_two_forms_and_duality_split():
    for mask in range(NBLADES):
        if grade(mask) == 2:
            w = Multivector.blade(mask)
            assert hodge_star(hodge_star(w)) == w
    for w in asd_basis():
        assert hodge_star(w) == -w
        assert is_asd(w)
    for w in sd_basis():
        assert hodge_star(w) == w
        assert not is_asd(w)


rational_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def asd_elements(draw):
    cs = [draw(rational_coeffs) for _ in range(3)]
    w = Multivector({})
    for c, b in zip(cs, asd_basis()):
        w = w + b * c
    return w


@st.composite
def one_forms(draw):
    w = Multivector({})
    for i in range(1, DIM + 1):
        w = w + Multivector.vector(i, draw(rational_coeffs))
    return w


def test_decomposition_identity_on_basis_pairs():
    for a in vector_basis():
        for w in asd_basis():
            part3, part1 = identity_decomposition(a, w)
            assert part3 == wedge(a, w)
            assert part1 == -hodge_star(wedge(a, w))
            assert part3 + part1 == a * w


@settings(max_examples=60)
@given(one_forms(), asd_elements())
def test_decomposition_identity_randomized(a, w):
    part3, part1 = identity_decomposition(a, w)
    assert part3 + part1 == a * w


def test_decomposition_rejects_bad_arguments():
    with pytest.raises(ValueError):
        identity_decomposition(two_form(1, 2), asd_basis()[0])
    with pytest.raises(ValueError):
        identity_decomposition(Multivector.vector(1), sd_basis()[0])


def test_decomposition_defect_is_negative_control():
    for a in vector_basis():
        for w in asd_basis():
            assert not decomposition_defect(a, w)
        for w in sd_basis():
            assert decomposition_defect(a, w)


@settings(max_examples=40)
@given(asd_elements())
def test_sandwich_vanishes_on_antiselfdual_input(w):
    assert not identity_sandwich(w)


def test_sandwich_rejects_selfdual_input():
    for w in sd_basis():
        with pytest.raises(ValueError):
            identity_sandwich(w)


def test_raw_sandwich_vanishes_for_every_two_form_in_rank_four():
    # The generator sandwich kills all 2-forms here, not just the
    # antiselfdual ones; duality sensitivity lives in the decomposition
    # defect instead.
    for mask in range(NBLADES):
        if grade(mask) == 2:
            assert not sandwich_raw(Multivector.blade(mask))
    assert sandwich_raw(Multivector.vector(1))


# ----------------------------------------------------------------------
# spin representation
# ----------------------------------------------------------------------


def _gm(re=0, im=0):
    return Gaussian(re, im)


def _freeze(mat):
    # each Q(i) entry as the pair (real part, imaginary part)
    return tuple(tuple(parts(c) for c in row) for row in mat)


def _anticommutator_defect(rep, i, j):
    """gamma_i gamma_j + gamma_j gamma_i + 2 delta_ij, which must be 0."""
    gi, gj = rep.gamma[i - 1], rep.gamma[j - 1]
    return tuple(
        tuple(
            sum(
                (gi[r][k] * gj[k][c] + gj[r][k] * gi[k][c] for k in range(4)),
                _gm(2 if i == j and r == c else 0),
            )
            for c in range(4)
        )
        for r in range(4)
    )


GAMMA_FROZEN = (
    (
        ((0, 0), (0, 0), (0, 0), (0, -1)),
        ((0, 0), (0, 0), (0, -1), (0, 0)),
        ((0, 0), (0, -1), (0, 0), (0, 0)),
        ((0, -1), (0, 0), (0, 0), (0, 0)),
    ),
    (
        ((0, 0), (0, 0), (0, 0), (-1, 0)),
        ((0, 0), (0, 0), (1, 0), (0, 0)),
        ((0, 0), (-1, 0), (0, 0), (0, 0)),
        ((1, 0), (0, 0), (0, 0), (0, 0)),
    ),
    (
        ((0, 0), (0, 0), (0, -1), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (0, 1)),
        ((0, -1), (0, 0), (0, 0), (0, 0)),
        ((0, 0), (0, 1), (0, 0), (0, 0)),
    ),
    (
        ((0, 0), (0, 0), (1, 0), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (1, 0)),
        ((-1, 0), (0, 0), (0, 0), (0, 0)),
        ((0, 0), (-1, 0), (0, 0), (0, 0)),
    ),
)


def test_gamma_matrices_frozen():
    rep = GammaRep()
    assert tuple(_freeze(g) for g in rep.gamma) == GAMMA_FROZEN


def test_gamma_relations_and_chirality():
    rep = GammaRep()
    for i in range(1, 5):
        for j in range(1, 5):
            defect = _anticommutator_defect(rep, i, j)
            assert not any(c for row in defect for c in row)
    assert rep.chirality_signs() == [_gm(1), _gm(1), _gm(-1), _gm(-1)]
    assert rep.positive_chirality_indices() == (0, 1)
    assert rep.negative_chirality_indices() == (2, 3)


def test_rep_is_an_algebra_map_on_blades():
    rep = GammaRep()
    for ma in range(NBLADES):
        for mb in range(NBLADES):
            a = Multivector.blade(ma)
            b = Multivector.blade(mb)
            lhs = rep.rep(a * b)
            prod_a, prod_b = rep.rep(a), rep.rep(b)
            rhs = tuple(
                tuple(
                    sum((prod_a[i][k] * prod_b[k][j] for k in range(4)), _gm())
                    for j in range(4)
                )
                for i in range(4)
            )
            assert lhs == rhs
    assert rep.rep(Multivector.blade(VOLUME_MASK)) == rep.gamma5


def test_asd_two_forms_act_on_positive_chirality_only():
    rep = GammaRep()
    record = rep.asd_action_record()
    assert record == {"acts_on": "S+", "annihilates": "S-"}
    w1 = asd_basis()[0]
    m = rep.rep(w1)
    frozen = _freeze(m)
    assert frozen == (
        ((0, -2), (0, 0), (0, 0), (0, 0)),
        ((0, 0), (0, 2), (0, 0), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (0, 0)),
    )


def test_act_matches_matrix_product():
    rep = GammaRep()
    spinor = (_gm(1), _gm(0, 1), _gm(2), _gm(3, 1))
    for w in (Multivector.vector(2), asd_basis()[1], Multivector.blade(VOLUME_MASK)):
        m = rep.rep(w)
        expected = tuple(
            sum((m[r][c] * spinor[c] for c in range(4)), _gm()) for r in range(4)
        )
        assert rep.act(w, spinor) == expected


_REP = GammaRep()

# single basis blades with coefficient 1, the table lookup of rep, among
# general multivectors, which rep builds as a scaled sum of blade matrices
acting_multivectors = st.one_of(
    st.integers(min_value=0, max_value=NBLADES - 1).map(Multivector.blade),
    multivectors,
)


def _blade_sum(w):
    """The matrix of w as the sum of c times each blade's table matrix,
    with no table lookup for a unit blade."""
    acc = [[0] * 4 for _ in range(4)]
    for mask, c in w.coeffs.items():
        m = _REP._blade_mats[mask]
        for r in range(4):
            for k in range(4):
                acc[r][k] = acc[r][k] + c * m[r][k]
    return acc


def _rep_action(w, spinor):
    m = _blade_sum(w)
    return tuple(sum((m[r][c] * spinor[c] for c in range(4)), 0) for r in range(4))


@settings(max_examples=60)
@given(acting_multivectors)
# i times the scalar blade: a single blade whose coefficient is not 1
@example(Multivector({0: Gaussian(0, 1)}))
def test_rep_matches_blade_sum(w):
    assert [list(row) for row in _REP.rep(w)] == _blade_sum(w)


@settings(max_examples=60)
@given(acting_multivectors, st.tuples(*[small_gaussians] * 4))
def test_act_matches_rep_based_action(w, spinor):
    assert _REP.act(w, spinor) == _rep_action(w, spinor)


def _single_blade(w, c):
    return len(w.coeffs) == 1 and list(w.coeffs.values()) == [c]


_ACT_BRANCHES = {
    "unit_blade": lambda w: _single_blade(w, 1),
    "scaled_blade": lambda w: len(w.coeffs) == 1 and not _single_blade(w, 1),
    "sum_of_blades": lambda w: len(w.coeffs) > 1,
    "zero": lambda w: not w,
}


@pytest.mark.parametrize("branch", sorted(_ACT_BRANCHES))
def test_acting_multivectors_reach_every_branch(branch):
    find(
        acting_multivectors,
        _ACT_BRANCHES[branch],
        settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
    )


def test_vector_grade_bookkeeping():
    a = Multivector.vector(1) + Multivector.vector(3, Fraction(1, 2))
    b = two_form(2, 3)
    assert Multivector.blade(VOLUME_MASK).grades() == [4]
    assert (a * b).grades() == [1, 3]
    assert star_blade(VOLUME_MASK) == (0, 1)
