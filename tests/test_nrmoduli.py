"""The fifteen signed quadratic forms, the quadratic differential they
assemble, its branch-point evaluation, and the exact one-dimensional
kernels at the six branch points."""

import random
from fractions import Fraction

import echelon_oracle
import nr_oracle
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from spincert import VerificationError, nrmoduli
from spincert.cli import main
from spincert.exactalg import RatFunc, nullspace, proportional
from spincert.nrmoduli import (
    BranchConfig,
    Q_RING,
    QP_RING,
    QPX_RING,
    _parse_linear,
    alt_r_table,
    build_r_table,
    distinguished_vector_polys,
    h_consistency,
    kernel_at_branch,
    signed_permutation_record,
    standard_branch_config,
    transcription_crosscheck,
    verify_distinguished_covector,
)


@pytest.fixture(scope="module")
def table():
    return build_r_table()


@pytest.fixture(scope="module")
def config():
    return standard_branch_config()


def frac_point(*vals):
    return [Fraction(v) for v in vals]


def linear_form(table, i, j):
    """l_{ij} as a polynomial in the 8-variable (q, p) ring."""
    return nrmoduli._grid_poly(table.linear_grid(i, j), QP_RING)


class TestTable:
    def test_crosscheck_passes(self):
        report = transcription_crosscheck()
        assert report["passed"]
        assert report["pairs"] == 15

    def test_all_fifteen_pairs(self, table):
        assert len(table.pairs) == 15
        assert table.pairs == tuple(
            (i, j) for i in range(1, 7) for j in range(i + 1, 7)
        )

    def test_r12_leading_term(self, table):
        r12 = table.quadratic(1, 2)
        assert r12.terms[(2, 0, 0, 0, 2, 0, 0, 0)] == 1

    def test_r14_sign(self, table):
        assert table.sign(1, 4) == -1
        r14 = table.quadratic(1, 4)
        assert r14.terms[(2, 0, 0, 0, 0, 0, 0, 2)] == -1

    def test_frozen_scalar_values(self, table):
        pt = frac_point(1, 2, 3, 4, 5, 6, 7, 8)
        assert table.quadratic(5, 6).eval(pt) == 16
        assert table.quadratic(1, 4).eval(pt) == -256

    def test_bidegree_two_two(self, table):
        for pair in table.pairs:
            q = table.quadratic(*pair)
            for exps in q.terms:
                assert sum(exps[:4]) == 2
                assert sum(exps[4:]) == 2

    def test_alt_table_same_pairs(self, table):
        assert alt_r_table().pairs == table.pairs

    def test_perturbed_flips_exactly_one_sign(self, table):
        bad = table.perturbed(2, 5)
        assert bad.sign(2, 5) == -table.sign(2, 5)
        assert bad.quadratic(2, 5) == -table.quadratic(2, 5)
        others = [p for p in table.pairs if p != (2, 5)]
        assert all(bad.quadratic(*p) == table.quadratic(*p) for p in others)
        assert table.sign(2, 5) == 1

    def test_parser_rejects_malformed_terms(self):
        with pytest.raises(ValueError):
            _parse_linear("q1p1 +q2p2")
        with pytest.raises(ValueError):
            _parse_linear("+q1p1 +q1p1")
        with pytest.raises(ValueError):
            _parse_linear("+q5p1")


class TestBranchConfig:
    def test_standard_points(self, config):
        assert config.points == tuple(Fraction(v) for v in range(6))
        assert config.point(1) == 0
        assert config.point(6) == 5

    def test_distinctness_required(self):
        with pytest.raises(ValueError):
            BranchConfig([0, 1, 2, 3, 4, 4])

    def test_six_points_required(self):
        with pytest.raises(ValueError):
            BranchConfig([0, 1, 2, 3, 4])

    def test_index_range(self, config):
        with pytest.raises(ValueError):
            config.point(0)
        with pytest.raises(ValueError):
            config.point(7)


_PAIRS = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]


def _h_consistency_ratfunc(config, table, reference_table):
    """Oracle: the identity in its rational-function form, the partial
    fractions of ``table`` against the polynomial sum of
    ``reference_table`` over y^2."""
    ring = QPX_RING
    x = ring.gen(8)
    lin_factors = {i: x - config.point(i) for i in range(1, 7)}
    y2 = ring.one()
    for i in range(1, 7):
        y2 = y2 * lin_factors[i]
    partial = RatFunc(ring.zero())
    polynomial = ring.zero()
    for (i, j) in table.pairs:
        partial = partial + RatFunc(
            table.quadratic(i, j, ring), lin_factors[i] * lin_factors[j]
        )
        cofactor = ring.one()
        for k in range(1, 7):
            if k != i and k != j:
                cofactor = cofactor * lin_factors[k]
        polynomial = polynomial + cofactor * reference_table.quadratic(i, j, ring)
    return partial == RatFunc(polynomial, y2)


class TestHConsistency:
    def test_standard_config(self, config):
        assert h_consistency(config) is True

    def test_random_rational_configs(self):
        rng = random.Random(20260816)
        for _ in range(3):
            pts = set()
            while len(pts) < 6:
                pts.add(Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
            assert h_consistency(BranchConfig(sorted(pts))) is True

    def test_sign_flip_breaks_identity(self, config, table):
        assert h_consistency(config, table=table.perturbed(1, 4)) is False
        assert h_consistency(config, reference_table=alt_r_table().perturbed(3, 6)) is False

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=7),
            min_size=6,
            max_size=6,
            unique=True,
        ),
        flip=st.none() | st.sampled_from(_PAIRS),
        reference_flip=st.none() | st.sampled_from(_PAIRS),
    )
    @example(points=list(range(6)), flip=(2, 5), reference_flip=(2, 5))
    def test_matches_rational_function_form(self, points, flip, reference_flip):
        config = BranchConfig(points)
        table, reference = build_r_table(), alt_r_table()
        if flip is not None:
            table = table.perturbed(*flip)
        if reference_flip is not None:
            reference = reference.perturbed(*reference_flip)
        want = _h_consistency_ratfunc(config, table, reference)
        assert want is (flip == reference_flip)
        assert h_consistency(config, table, reference) is want

    def test_numeric_sampling(self, config, table):
        # secondary oracle: plain Fraction arithmetic straight off the
        # coefficient grids, no polynomial layer involved
        rng = random.Random(7)
        for _ in range(5):
            q = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
            p = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
            x = Fraction(rng.randint(6, 30), rng.randint(1, 5))
            lhs = Fraction(0)
            rhs = Fraction(0)
            y2 = Fraction(1)
            for k in range(1, 7):
                y2 *= x - config.point(k)
            for (i, j) in table.pairs:
                grid = table.linear_grid(i, j)
                l = sum(
                    Fraction(grid[a][b]) * q[a] * p[b]
                    for a in range(4)
                    for b in range(4)
                )
                rij = table.sign(i, j) * l * l
                lhs += rij / ((x - config.point(i)) * (x - config.point(j)))
                cof = Fraction(1)
                for k in range(1, 7):
                    if k != i and k != j:
                        cof *= x - config.point(k)
                rhs += cof * rij
            assert lhs == rhs / y2


class TestEvalAtBranch:
    def test_exactly_five_contributions(self, config, table):
        # frozen cofactor products for branch points 0..5 at x = 0
        weights = {2: 120, 3: 60, 4: 40, 5: 30, 6: 24}
        oracle = QP_RING.zero()
        for j, w in weights.items():
            oracle = oracle + table.quadratic(1, j) * w
        assert nr_oracle.eval_at_branch(config, 1) == oracle

    def test_vanishes_at_distinguished_vector(self, config):
        q = nr_oracle.eval_at_branch(config, 1)
        subs = {
            4: QP_RING.gen(1),
            5: -QP_RING.gen(0),
            6: QP_RING.gen(3),
            7: -QP_RING.gen(2),
        }
        assert not nr_oracle.subs(q, subs)

    def test_generic_cotangent_value_nonzero(self, config):
        # p = (2, -1, 0, 0) pairs to zero with q = (1, 2, 3, 4)
        q = nr_oracle.eval_at_branch(config, 1)
        assert q.eval(frac_point(1, 2, 3, 4, 2, -1, 0, 0)) == 3356

    def test_every_branch_is_quadratic_in_p(self, config):
        for i in range(1, 7):
            q = nr_oracle.eval_at_branch(config, i)
            assert q
            for exps in q.terms:
                assert sum(exps[:4]) == 2
                assert sum(exps[4:]) == 2

    def test_index_validation(self, config):
        with pytest.raises(ValueError):
            nr_oracle.eval_at_branch(config, 0)
        with pytest.raises(ValueError):
            nr_oracle.eval_at_branch(config, 7)


class TestDistinguishedCovector:
    def test_report_passes(self):
        report = verify_distinguished_covector()
        assert report["passed"]
        assert report["incidence_zero"]
        assert set(report["vanishing"]) == {"12", "13", "14", "15", "16"}
        assert all(report["vanishing"].values())

    def test_single_form_vanishes(self, table):
        l13 = linear_form(table, 1, 3)
        subs = {
            4: QP_RING.gen(1),
            5: -QP_RING.gen(0),
            6: QP_RING.gen(3),
            7: -QP_RING.gen(2),
        }
        assert not nr_oracle.subs(l13, subs)

    def test_wrong_vector_fails(self, table):
        # dropping the sign flips leaves l_{12} at 2 q1 q2 - 2 q3 q4
        subs = {
            4: QP_RING.gen(1),
            5: QP_RING.gen(0),
            6: QP_RING.gen(3),
            7: QP_RING.gen(2),
        }
        residual = nr_oracle.subs(linear_form(table, 1, 2), subs)
        assert residual

    def test_perturbed_table_still_passes(self, table):
        # sign flips do not move the zero locus of the linear forms
        report = verify_distinguished_covector(table.perturbed(1, 3))
        assert report["passed"]


class TestKernelAtBranch:
    def test_dimension_one_everywhere(self):
        for i in range(1, 7):
            report = kernel_at_branch(i)
            assert report["dimension"] == 1

    def test_branch_one_generator(self, table):
        report = kernel_at_branch(1, table)
        gen = tuple(Q_RING.parse(s) for s in report["generator"])
        assert proportional(gen, distinguished_vector_polys())
        assert report["reduced_generator"] == ("1*q2", "-1*q1", "1*q4", "-1*q3")

    @pytest.mark.parametrize("i", range(1, 7))
    @pytest.mark.parametrize("perturb", [False, True], ids=["table", "perturbed"])
    @pytest.mark.parametrize(
        "points", [range(6), (1, 2, 3, 5, 8, 13)], ids=["standard", "fibonacci"]
    )
    def test_linear_certificate_matches_quadratic_oracle(self, points, perturb, i):
        # the 8-variable substitution of the generator into the
        # branch-evaluated quadratic (the certificate kernel_at_branch
        # once made) vanishes wherever the five-linear-form check passes
        table = build_r_table()
        if perturb:
            table = table.perturbed(1, 4)
        report = kernel_at_branch(i, table)
        assert report["dimension"] == 1
        gen = nrmoduli._kernel_generator(i, table)
        lifted = {4 + b: nr_oracle._lift_to_qp(gen[b]) for b in range(4)}
        quad = nr_oracle.eval_at_branch(BranchConfig(points), i, table)
        assert not nr_oracle.subs(quad, lifted)

    @pytest.mark.parametrize("entry", range(4))
    @pytest.mark.parametrize("i", range(1, 7))
    def test_sign_flipped_generator_is_refused(self, i, entry):
        # negative control: a planted generator with one entry's sign
        # flipped fails the certificate, and the old quadratic oracle
        # refuses it too
        table = build_r_table()
        gen = nrmoduli._kernel_generator(i, table)
        bad = tuple(-g if a == entry else g for a, g in enumerate(gen))
        table._kernels[i] = bad
        with pytest.raises(VerificationError):
            kernel_at_branch(i, table)
        lifted = {4 + b: nr_oracle._lift_to_qp(bad[b]) for b in range(4)}
        config = standard_branch_config()
        assert nr_oracle.subs(nr_oracle.eval_at_branch(config, i, table), lifted)

    @pytest.mark.parametrize("i", range(1, 7))
    def test_cotangent_non_kernel_vector_is_refused(self, i):
        # (q2, -q1, 0, 0) pairs to zero with q, so only the linear forms
        # can refuse it: it has zero entries, and no branch kernel does
        table = build_r_table()
        q1, q2 = Q_RING.gen(0), Q_RING.gen(1)
        table._kernels[i] = (q2, -q1, Q_RING.zero(), Q_RING.zero())
        with pytest.raises(VerificationError, match="linear form"):
            kernel_at_branch(i, table)

    @pytest.mark.parametrize("i", range(1, 7))
    def test_generator_rescales_the_ratfunc_kernel(self, table, i):
        # the RatFunc back-substitution nullspace once ran (kept in
        # echelon_oracle) gives the same kernel line: each of its entries
        # is the reported entry times one common polynomial
        (old,) = echelon_oracle.nullspace(nrmoduli._kernel_rows(i, table))
        new = nrmoduli._kernel_generator(i, table)
        assert [bool(p) for p in old] == [bool(p) for p in new]
        factors = [o.exact_div(n) for o, n in zip(old, new) if n]
        assert factors[0] is not None
        assert all(f == factors[0] for f in factors)
        if i == 1:
            q1, q2, q3, q4 = (Q_RING.gen(a) for a in range(4))
            assert factors[0] == q3**2 * (q1 * q2 - q3 * q4) ** 2

    def test_generators_solve_numeric_samples(self, table):
        # secondary smoke: the symbolic kernel vector, specialized at a
        # random rational q, kills every 4x4-grid row numerically
        rng = random.Random(99)
        for i in range(1, 7):
            report = kernel_at_branch(i, table)
            gen = [Q_RING.parse(s) for s in report["generator"]]
            qv = frac_point(*(rng.randint(1, 40) for _ in range(4)))
            pv = [g.eval(qv) for g in gen]
            assert any(v != 0 for v in pv)
            for j in range(1, 7):
                if j == i:
                    continue
                grid = table.linear_grid(i, j)
                val = sum(
                    Fraction(grid[a][b]) * qv[a] * pv[b]
                    for a in range(4)
                    for b in range(4)
                )
                assert val == 0

    def test_symmetry_record_structure(self):
        record = signed_permutation_record()
        assert set(record["images"]) == set(range(1, 7))
        assert record["images"][1]["pattern"] == ("+q2", "-q1", "+q4", "-q3")
        for info in record["images"].values():
            assert isinstance(info["signed_permutation"], bool)
            if info["signed_permutation"]:
                assert len(info["pattern"]) == 4

    def test_index_validation(self):
        with pytest.raises(ValueError):
            kernel_at_branch(0)

    @pytest.mark.parametrize("flags", [[], ["--perturb"]], ids=["plain", "perturb"])
    def test_run_nr_solves_each_kernel_once(self, flags, tmp_path, monkeypatch):
        # branch_kernels and kernel_symmetry_record share one table, so
        # each of the six branch systems is solved once per run
        solves = []

        def counting_nullspace(rows):
            solves.append(len(rows))
            return nullspace(rows)

        monkeypatch.setattr(nrmoduli, "nullspace", counting_nullspace)
        main(["run", "nr", *flags, "--out", str(tmp_path / "nr.json")])
        assert solves == [5] * 6

    @pytest.mark.parametrize("flags", [[], ["--perturb"]], ids=["plain", "perturb"])
    def test_run_nr_reduces_each_kernel_once(self, flags, tmp_path, monkeypatch):
        # branch_kernels and kernel_symmetry_record share each branch's
        # signed-permutation reduction through the table
        reductions = []
        original = nrmoduli._signed_permutation_candidate

        def counting(gen):
            reductions.append(gen)
            return original(gen)

        monkeypatch.setattr(nrmoduli, "_signed_permutation_candidate", counting)
        main(["run", "nr", *flags, "--out", str(tmp_path / "nr.json")])
        assert len(reductions) == 6

    def test_perturbed_table_starts_unsolved(self, table):
        kernel_at_branch(1, table)
        assert 1 in table._kernels
        assert table.perturbed(1, 4)._kernels == {}


_PROBE = nrmoduli._PROBE_POINT
_small_ints = st.integers(-4, 4)


@st.composite
def candidate_inputs(draw):
    """Four polynomials over Q[q1..q4]: a signed permutation of the
    variables, that vector times a scalar or a linear factor (which may
    vanish at the probe), one entry moved by a multiple of q_k - p_k
    (same probe values, not proportional), one entry copied or doubled
    from another, or four random linear forms."""
    w = draw(st.permutations(range(4)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4))
    gen = [Q_RING.gen(w[a]) * signs[a] for a in range(4)]
    kind = draw(st.sampled_from(("plain", "scaled", "probe_shift", "copied", "random")))
    if kind == "scaled":
        k = draw(st.integers(0, 3))
        factor = Q_RING.gen(k) * draw(_small_ints) + Q_RING.const(
            draw(st.fractions(-20, 20, max_denominator=4).filter(bool))
        )
        gen = [g * factor for g in gen]
    elif kind == "probe_shift":
        a, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        shift = Q_RING.gen(k) - Q_RING.const(_PROBE[k])
        gen[a] = gen[a] + shift * draw(_small_ints.filter(bool))
    elif kind == "copied":
        a, b = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
        gen[a] = gen[b] * draw(st.sampled_from((1, -1, 2)))
    elif kind == "random":
        gen = [
            sum(
                (Q_RING.gen(k) * draw(_small_ints) for k in range(4)),
                Q_RING.const(draw(_small_ints)),
            )
            for _ in range(4)
        ]
    return tuple(gen)


def _candidate_branch(gen):
    """Which way the reduction goes for gen."""
    vals = [g.eval(_PROBE) for g in gen]
    if any(v == 0 for v in vals):
        return "zero_value"
    if len({abs(v) for v in vals}) < 4:
        return "tied_magnitudes"
    if nr_oracle._signed_permutation_candidate(gen) is not None:
        return "signed_permutation"
    mags = sorted(abs(v) for v in vals)
    if len({m / p for m, p in zip(mags, _PROBE)}) == 1:
        return "not_proportional"
    return "unequal_ratios"


class TestSignedPermutationCandidate:
    @settings(max_examples=300, deadline=None)
    @given(candidate_inputs())
    def test_matches_the_24_permutation_oracle(self, gen):
        assert nrmoduli._signed_permutation_candidate(
            gen
        ) == nr_oracle._signed_permutation_candidate(gen)

    @pytest.mark.parametrize(
        "branch",
        [
            "zero_value",
            "tied_magnitudes",
            "unequal_ratios",
            "not_proportional",
            "signed_permutation",
        ],
    )
    def test_inputs_reach_every_branch(self, branch):
        find(
            candidate_inputs(),
            lambda gen: _candidate_branch(gen) == branch,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )

    @pytest.mark.parametrize("perturb", [False, True], ids=["plain", "perturb"])
    def test_branch_generators_match_the_oracle(self, table, perturb):
        used = table.perturbed(1, 4) if perturb else table
        for i in range(1, 7):
            gen = nrmoduli._kernel_generator(i, used)
            assert nrmoduli._signed_permutation_candidate(
                gen
            ) == nr_oracle._signed_permutation_candidate(gen)
