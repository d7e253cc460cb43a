"""Acceptance gate: eight numbered criteria, one test per criterion so
``pytest -v`` emits one pass/fail line for each.  Every assertion is
exact (no tolerances), and each criterion enforces its wall-clock
budget.  Run with ``-s`` to also see one printed PASS line per
criterion."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from spincert import cli
from spincert.clifford import (
    asd_basis,
    decomposition_defect,
    identity_decomposition,
    identity_sandwich,
    sd_basis,
    vector_basis,
)
from spincert.exactalg import PolyRing, QQ, proportional as proportional_over_q
from spincert.hyperell import (
    Divisor,
    canonical_divisor,
    h0_all_theta,
    rr_space,
    spin_power_divisor,
    standard_curve,
)
from spincert.instanton import (
    Connection,
    asd_check,
    bianchi_residual,
    bpst_connection,
    curvature,
    form_is_zero,
    sd_asd_split,
    verify_curvature_dirac_solutions,
    yang_mills_residual,
)
from spincert.nrmoduli import (
    Q_RING,
    distinguished_vector_polys,
    h_consistency,
    kernel_at_branch,
    standard_branch_config,
    verify_distinguished_covector,
)
from spincert.oddmoduli import (
    PointTriple,
    plane_curve_divisor,
    plane_through,
    standard_embedding,
    triple_plane_report,
)
from spincert.repsl2 import (
    BinaryForm,
    equivariance_check,
    invariance_check,
    isotropy_check_m3,
    moment_map,
    quadratic_matrix_det,
)
from spincert.thetachar import arf_model_crosscheck, enumerate_chars, parity_counts


def _budget(start, limit, label):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, "%s exceeded %.0f s budget: %.2f s" % (
        label,
        limit,
        elapsed,
    )


def test_criterion_1_clifford_grade_identities():
    start = time.perf_counter()
    vectors = vector_basis()
    antiselfdual = asd_basis()
    assert len(vectors) == 4
    assert len(antiselfdual) == 3
    pairs = 0
    for a in vectors:
        for w in antiselfdual:
            part3, part1 = identity_decomposition(a, w)
            assert not (part3 + part1 - a * w)
            assert not decomposition_defect(a, w)
            pairs += 1
    assert pairs == 12
    for w in antiselfdual:
        assert not identity_sandwich(w)
    for w in sd_basis():
        for a in vectors:
            assert decomposition_defect(a, w)
    _budget(start, 1.0, "criterion 1")
    print("criterion 1 (clifford grade identities, 12 pairs + controls): PASS")


def test_criterion_2_instanton_curvature_and_dirac():
    start = time.perf_counter()
    conn = bpst_connection()
    f = curvature(conn)
    assert asd_check(f) is True
    assert form_is_zero(bianchi_residual(conn))
    assert form_is_zero(yang_mills_residual(conn))
    report = verify_curvature_dirac_solutions(conn)
    assert report["passed"] is True
    assert report["residual_zero"] == [True, True, True, True]
    assert report["independent_count"] == 4
    comps = list(conn.components)
    comps[0] = comps[0] * Fraction(2)
    perturbed = Connection(comps)
    sd_part, _ = sd_asd_split(curvature(perturbed))
    assert not form_is_zero(sd_part)
    assert not form_is_zero(yang_mills_residual(perturbed))
    _budget(start, 60.0, "criterion 2")
    print("criterion 2 (exact instanton curvature, Dirac solutions, controls): PASS")


def test_criterion_3_sl2_invariance_and_isotropy():
    start = time.perf_counter()
    for m in (1, 3, 5):
        assert invariance_check(m)["passed"] is True
        assert equivariance_check(m)["passed"] is True
    ring = PolyRing(QQ, ("a0", "a1"))
    u = BinaryForm((ring.gen(0), ring.gen(1)))
    assert quadratic_matrix_det(moment_map(u, u)) == ring.zero()
    assert isotropy_check_m3() is True
    _budget(start, 10.0, "criterion 3")
    print("criterion 3 (binary-form invariance, nilpotency, isotropy): PASS")


def test_criterion_4_parity_counts_three_models():
    start = time.perf_counter()
    for g in range(1, 7):
        odd, even = parity_counts(g)
        assert odd == 2 ** (g - 1) * (2 ** g - 1)
        assert even == 2 ** (g - 1) * (2 ** g + 1)
    for g in range(1, 5):
        assert arf_model_crosscheck(g) is True
    sweep = h0_all_theta(standard_curve())
    assert sweep["counts"] == (6, 10)
    classes = enumerate_chars(2)
    assert len(classes) == 16
    for cls in classes:
        assert sweep["table"][cls.members] == cls.parity_bit
    odd_members = {cls.members for cls in classes if cls.parity_bit}
    assert odd_members == {frozenset({i}) for i in range(1, 7)}
    _budget(start, 30.0, "criterion 4")
    print("criterion 4 (parity counts by three models, class-by-class): PASS")


def test_criterion_5_riemann_roch_dimensions():
    start = time.perf_counter()
    curve = standard_curve()
    members = (1, 2, 3)
    spaces = {
        1: rr_space(curve, Divisor()),
        2: rr_space(curve, canonical_divisor(curve)),
        None: rr_space(curve, spin_power_divisor(curve, members, 3)),
        4: rr_space(curve, spin_power_divisor(curve, members, 5)),
    }
    assert spaces[1].dimension == 1
    assert spaces[2].dimension == 2
    assert spaces[None].dimension == 2
    assert spaces[4].dimension == 4
    for space in spaces.values():
        record = space.rr_record
        assert record is not None
        assert record["identity"] is True
        assert record["dim"] - record["dual_dim"] == record["deg"] - record["genus"] + 1
    _budget(start, 10.0, "criterion 5")
    print("criterion 5 (section-space dimensions 1/2/2/4 with identity): PASS")


def test_criterion_6_branch_kernels_and_covector():
    start = time.perf_counter()
    covector = verify_distinguished_covector()
    assert covector["passed"] is True
    assert len(covector["vanishing"]) == 5
    assert all(covector["vanishing"].values())
    assert covector["incidence_zero"] is True
    config = standard_branch_config()
    first = None
    for i in range(1, 7):
        kernel = kernel_at_branch(i)
        assert kernel["dimension"] == 1
        if i == 1:
            first = kernel
    generator = tuple(Q_RING.parse(s) for s in first["generator"])
    assert proportional_over_q(generator, distinguished_vector_polys())
    assert h_consistency(config) is True
    _budget(start, 30.0, "criterion 6")
    print("criterion 6 (covector vanishing, six 1-dim kernels, h agreement): PASS")


def test_criterion_7_collinearity_equivalence():
    start = time.perf_counter()
    embedded = standard_embedding()
    places = embedded.curve.all_standard_places()
    rng = random.Random(20260816)
    pool = list(combinations(range(8), 3))
    engineered = [(0, 1, 2), (3, 4, 5)]
    picked = rng.sample(pool, 20)
    reports = {}
    for idx in picked + engineered:
        if idx in reports:
            continue
        triple = PointTriple(tuple(places[i] for i in idx))
        reports[idx] = triple_plane_report(embedded, triple)
    assert len(reports) >= 20
    for idx, report in reports.items():
        assert report["match"] is True
        if report["collinear"]:
            assert report["section_dimension"] == 2
            assert report["square_root_identification"]["confirmed"] is True
        else:
            assert report["section_dimension"] == 1
            assert report["intersection_degree"] == 5
    for idx in engineered:
        assert reports[idx]["collinear"] is True
    mixed = PointTriple((places[0], places[1], places[6]))
    section = plane_curve_divisor(embedded, plane_through(embedded, mixed))
    assert section.degree == 5
    _budget(start, 60.0, "criterion 7")
    print("criterion 7 (collinear iff 2 sections, identification, degree 5): PASS")


def test_criterion_8_finite_scope_boundary():
    assert cli.SUITES == (
        "clifford",
        "instanton",
        "nr",
        "odd",
        "parity",
        "repsl2",
        "theta",
    )
    with pytest.raises(ValueError):
        cli.run("curved-space")
    print("criterion 8 (verification surface is the seven finite suites): PASS")
