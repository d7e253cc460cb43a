"""The product embedding of the genus-2 fixture, its bidegree (2,3)
implicit equation, the sheet involution as a projective matrix, planes
through point triples, degree-5 plane sections, and the equivalence
between collinearity and the section count of the associated twist."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import plane_section_oracle
from spincert import VerificationError
from spincert.exactalg import MultiPoly, UPoly, nullspace
from spincert.hyperell import (
    FieldElem,
    HyperCurve,
    rr_space,
    standard_curve,
    theta_divisor,
)
from spincert import cli, oddmoduli
from spincert.oddmoduli import (
    S_MONOS,
    T_MONOS,
    _degree_monos,
    _monomial_products,
    _relation_kernel,
    Collinear,
    PlaneP3,
    PointTriple,
    TS_RING,
    bidegree_relation_count,
    embed,
    embed_point,
    even_theta_obstruction,
    involution_matrix,
    place_label,
    plane_curve_divisor,
    plane_through,
    quadric_congruence_scale,
    riemann_hurwitz,
    sigma_place,
    standard_embedding,
    triple_plane_report,
)
from spincert.thetachar import CharClass, enumerate_chars


@pytest.fixture(scope="module")
def E():
    return standard_embedding()


@pytest.fixture(scope="module")
def places(E):
    return E.curve.all_standard_places()


@pytest.fixture(scope="module")
def split_E():
    return embed(HyperCurve.from_roots([0, 1, 2, 3, 4, -14]), CharClass(2, (1, 2, 3)))


def triple_of(places, i, j, k):
    return PointTriple((places[i], places[j], places[k]))


class TestEmbed:
    def test_section_space_dimensions(self, E):
        assert len(E.canonical_basis) == 2
        assert len(E.spin_cube_basis) == 2

    def test_implicit_equation_frozen(self, E):
        expected = MultiPoly(
            TS_RING,
            {
                (2, 0, 3, 0): 60,
                (2, 0, 2, 1): -47,
                (2, 0, 1, 2): 12,
                (2, 0, 0, 3): -1,
                (0, 2, 2, 1): 2,
                (0, 2, 1, 2): -3,
                (0, 2, 0, 3): 1,
            },
        )
        assert E.implicit == expected

    def test_implicit_bidegree(self, E):
        for exps in E.implicit.terms:
            assert exps[0] + exps[1] == 2
            assert exps[2] + exps[3] == 3

    def test_bidegree_is_exact(self, E):
        assert bidegree_relation_count(E, 2, 2) == 0
        assert bidegree_relation_count(E, 1, 3) == 0
        assert bidegree_relation_count(E, 2, 3) == 1

    def test_images_satisfy_segre_quadric(self, E, places):
        for place in places:
            z = embed_point(E, place)
            assert z[0] * z[3] - z[1] * z[2] == 0

    def test_branch_images_frozen(self, E, places):
        for i, x in enumerate((0, 1, 2)):
            assert embed_point(E, places[i]) == (0, 0, 1, x)
        for i, x in zip((3, 4, 5), (3, 4, 5)):
            assert embed_point(E, places[i]) == (1, x, 0, 0)
        assert embed_point(E, places[6]) == (0, 1, 0, 1)
        assert embed_point(E, places[7]) == (0, 1, 0, -1)

    def test_odd_theta_rejected(self):
        with pytest.raises(ValueError):
            embed(standard_curve(), CharClass(2, (1,)))

    def test_wrong_genus_rejected(self):
        g1 = HyperCurve.from_roots([0, 1, 2, 3])
        with pytest.raises(ValueError):
            embed(g1, CharClass(2, (1, 2, 3)))


class TestInvolution:
    def test_matrix_frozen(self, E):
        M = involution_matrix(E)
        eye = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        assert [list(row) for row in M] == eye
        # the QQ normal form: ints, not integral Fractions
        assert all(type(c) is int for row in M for c in row)

    def test_matrix_squares_to_scalar(self, E):
        M = involution_matrix(E)
        sq = [
            [sum(M[i][k] * M[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        scale = sq[0][0]
        assert scale != 0
        for i in range(4):
            for j in range(4):
                assert sq[i][j] == (scale if i == j else 0)

    def test_fixes_branch_images(self, E, places):
        M = involution_matrix(E)
        for place in places[:6]:
            v = embed_point(E, place)
            mv = [sum(M[r][c] * v[c] for c in range(4)) for r in range(4)]
            assert [abs(c) for c in mv] == [abs(c) for c in v]
            ratios = {mv[k] / v[k] for k in range(4) if v[k]}
            assert len(ratios) == 1

    def test_swaps_infinite_images(self, E, places):
        M = involution_matrix(E)
        v = embed_point(E, places[6])
        w = embed_point(E, places[7])
        mv = [sum(M[r][c] * v[c] for c in range(4)) for r in range(4)]
        assert tuple(mv) == w

    def test_quadric_congruence_scale(self, E):
        scale = quadric_congruence_scale(involution_matrix(E))
        assert scale == -1 and type(scale) is int

    def test_sigma_place_mapping(self, E, places):
        assert sigma_place(places[0]) == places[0]
        assert sigma_place(places[6]) == places[7]
        assert sigma_place(places[7]) == places[6]

    def test_sigma_split_place(self, split_E):
        sp = split_E.curve.split_place(6, 120)
        assert sigma_place(sp) == split_E.curve.split_place(6, -120)
        assert sigma_place(sigma_place(sp)) == sp


class TestPlaneThrough:
    def test_generic_triple(self, E, places):
        plane = plane_through(E, triple_of(places, 0, 3, 6))
        assert plane == PlaneP3((3, -1, 0, 1))
        for i in (0, 3, 6):
            assert plane.value(embed_point(E, places[i])) == 0

    def test_apply_sigma(self, E, places):
        plane = plane_through(E, triple_of(places, 0, 3, 6).apply_sigma())
        assert plane == PlaneP3((3, -1, 0, -1))

    def test_ruling_triples_collinear(self, E, places):
        for idx in ((0, 1, 2), (3, 4, 5)):
            verdict = plane_through(E, triple_of(places, *idx))
            assert isinstance(verdict, Collinear)
            assert verdict.rank == 2

    def test_exactly_two_collinear_triples(self, E, places):
        hits = []
        for idx in combinations(range(8), 3):
            verdict = plane_through(E, triple_of(places, *idx))
            if isinstance(verdict, Collinear):
                hits.append(idx)
        assert hits == [(0, 1, 2), (3, 4, 5)]

    def test_coincident_rejected(self, E, places):
        with pytest.raises(ValueError):
            plane_through(E, triple_of(places, 0, 0, 3))

    def test_normalization(self):
        assert PlaneP3((2, -4, 0, 6)).coeffs == (1, -2, 0, 3)
        assert PlaneP3((-2, 4, 0, -6)) == PlaneP3((2, -4, 0, 6))
        plane = PlaneP3((Fraction(1, 2), 0, Fraction(-5, 1), Fraction(3, 4)))
        assert plane.coeffs == (2, 0, -20, 3)
        assert all(type(c) is int for c in plane.coeffs)
        with pytest.raises(ValueError):
            PlaneP3((0, 0, 0, 0))

    def test_coordinates_are_primitive_int_vectors(self, E, split_E):
        # image points and planes are primitive vectors of ints, as the
        # reports print them, with a positive leading entry
        for emb in (E, split_E):
            places = list(emb.curve.all_standard_places())
            for idx in combinations(range(len(places)), 3):
                verdict = plane_through(emb, PointTriple([places[i] for i in idx]))
                vectors = [embed_point(emb, places[i]) for i in idx]
                if not isinstance(verdict, Collinear):
                    vectors.append(verdict.coeffs)
                for vec in vectors:
                    assert all(type(c) is int for c in vec), vec
                    assert next(c for c in vec if c) > 0
                    assert gcd(*vec) == 1


class TestPlaneSection:
    def test_generic_section_frozen(self, E, places):
        section = plane_curve_divisor(E, PlaneP3((3, -1, 0, 1)))
        assert section.degree == 5
        assert section.irrational_degree == 2
        assert section.divisor.degree == 3
        for i in (0, 3, 6):
            assert section.divisor.coeff(places[i]) == 1

    def test_degree_five_for_random_planes(self, E):
        rng = random.Random(11)
        seen = 0
        while seen < 20:
            coeffs = [rng.randint(-9, 9) for _ in range(4)]
            if not any(coeffs):
                continue
            section = plane_curve_divisor(E, PlaneP3(coeffs))
            assert section.degree == 5
            assert section.divisor.is_effective() or section.divisor.degree == 0
            assert section.divisor.degree + section.irrational_degree == 5
            seen += 1

    def test_tangency_multiplicity(self, E, places):
        # tangent to the curve at branch x=3 and passing through branch x=4
        plane = PlaneP3((0, 0, 3, -1))
        section = plane_curve_divisor(E, plane)
        assert section.degree == 5
        assert section.divisor.coeff(places[3]) >= 2
        assert section.divisor.coeff(places[4]) >= 1

    def test_split_support_section(self, split_E):
        curve = split_E.curve
        sp = curve.split_place(6, 120)
        triple = PointTriple((sp, curve.branch_place(4), curve.infinite_place(-1)))
        plane = plane_through(split_E, triple)
        section = plane_curve_divisor(split_E, plane)
        assert section.degree == 5
        assert section.divisor.coeff(sp) >= 1


def section_planes(embeddings):
    """(embedding, plane) pairs: a plane with small random coefficients,
    mostly cut on irrational points, or the plane through three rational
    places, the standard ones and those over x = 6 where f is a square."""

    def planes(E):
        places = E.curve.all_standard_places() + E.curve.places_over(6)
        coeffs = st.lists(st.integers(-9, 9), min_size=4, max_size=4).filter(any)
        triples = st.lists(st.sampled_from(places), min_size=3, max_size=3, unique=True)
        through = triples.map(lambda t: plane_through(E, PointTriple(t)))
        through = through.filter(lambda verdict: isinstance(verdict, PlaneP3))
        return st.one_of(coeffs.map(PlaneP3), through)

    return st.sampled_from(embeddings).flatmap(
        lambda E: st.tuples(st.just(E), planes(E))
    )


_SECTION_CASES = {
    "rational": lambda s: s.irrational_degree == 0,
    "partly_irrational": lambda s: 0 < s.irrational_degree < s.degree,
    "split_support": lambda s: any(p.kind == "split" for p in s.divisor.support),
}


class TestOnePathSection:
    """``plane_curve_divisor`` reads every section off one certified
    ``rational_divisor`` call; the two-path body it replaced is the
    oracle in ``tests/plane_section_oracle.py``."""

    def test_lowered_branch_valuation_is_refused(self, E, monkeypatch):
        # one order too low at branch place 1: a check of the rational
        # part alone takes this section with irrational degree 3 for 2,
        # the degree-zero certificate refuses it
        place = E.curve.branch_place(1)
        valuation = FieldElem.valuation
        monkeypatch.setattr(
            FieldElem, "valuation", lambda h, p: valuation(h, p) - (p == place)
        )
        # the certificate's own error, not the intersection degree check
        # that plane_curve_divisor makes after it
        with pytest.raises(VerificationError, match="left out"):
            plane_curve_divisor(E, PlaneP3((3, -1, 0, 1)))

    def test_one_divisor_call_per_section(self, E, monkeypatch):
        calls = []
        real = oddmoduli.rational_divisor
        monkeypatch.setattr(
            oddmoduli, "rational_divisor", lambda h: calls.append(h) or real(h)
        )
        for coeffs in ((3, -1, 0, 1), (3, -1, 0, -1), (1, 2, 3, 4)):
            plane_curve_divisor(E, PlaneP3(coeffs))
        assert len(calls) == 3

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_sections_match_two_path_oracle(self, E, split_E, data):
        emb, plane = data.draw(section_planes((E, split_E)))
        got = plane_curve_divisor(emb, plane)
        want = plane_section_oracle.plane_curve_divisor(emb, plane)
        assert got.divisor == want.divisor
        assert got.degree == want.degree == 5
        assert got.irrational_degree == want.irrational_degree

    @pytest.mark.parametrize("case", sorted(_SECTION_CASES))
    def test_section_planes_reach_every_case(self, E, split_E, case):
        holds = _SECTION_CASES[case]
        find(
            section_planes((E, split_E)),
            lambda pair: holds(plane_curve_divisor(*pair)),
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )


class TestTripleReports:
    def test_generic_report(self, E, places):
        report = triple_plane_report(E, triple_of(places, 0, 3, 6))
        assert report["collinear"] is False
        assert report["section_dimension"] == 1
        assert report["match"] is True
        assert report["plane"] == [3, -1, 0, 1]
        assert report["sigma_plane"] == [3, -1, 0, -1]
        assert report["intersection_degree"] == 5

    def test_collinear_report_theta_triple(self, E, places):
        report = triple_plane_report(E, triple_of(places, 0, 1, 2))
        assert report["collinear"] is True
        assert report["section_dimension"] == 2
        cert = report["square_root_identification"]
        assert cert["confirmed"] is True
        assert cert["witness"] == "((1) + 0*y)/(1)"
        assert "distinguished_section" in cert

    def test_collinear_report_complement_triple(self, E, places):
        report = triple_plane_report(E, triple_of(places, 3, 4, 5))
        assert report["collinear"] is True
        cert = report["square_root_identification"]
        assert cert["confirmed"] is True
        assert cert["witness"] == "(0 + (1)*y)/(-60,47,-12,1)"

    def test_equivalence_on_sampled_triples(self, E, places):
        rng = random.Random(23)
        pool = list(combinations(range(8), 3))
        for idx in rng.sample(pool, 20):
            report = triple_plane_report(E, triple_of(places, *idx))
            assert report["match"] is True
            expected_dim = 2 if report["collinear"] else 1
            assert report["section_dimension"] == expected_dim

    def test_split_fixture_report(self, split_E):
        curve = split_E.curve
        triple = PointTriple(
            (
                curve.split_place(6, 120),
                curve.branch_place(4),
                curve.infinite_place(-1),
            )
        )
        report = triple_plane_report(split_E, triple)
        assert report["collinear"] is False
        assert report["section_dimension"] == 1
        assert report["intersection_degree"] == 5

    def test_coincident_rejected(self, E, places):
        with pytest.raises(ValueError):
            triple_plane_report(E, triple_of(places, 2, 2, 5))

    def test_triple_helpers(self, E, places):
        t = triple_of(places, 0, 3, 6)
        assert t.distinct
        assert not triple_of(places, 0, 0, 6).distinct
        moved = t.apply_sigma()
        assert moved.places == (places[0], places[3], places[7])
        assert place_label(places[0]) == "branch x=0"
        assert place_label(places[6]) == "inf+"


class TestFamilyAndConjugation:
    def test_conjugation_check(self, E, places):
        # the plane through the sigma image of a triple is the plane
        # through the triple moved by the involution matrix
        M = involution_matrix(E)
        for idx in ((0, 3, 6), (1, 4, 7)):
            triple = triple_of(places, *idx)
            plane = plane_through(E, triple)
            moved = [
                sum(plane.coeffs[r] * M[r][c] for r in range(4)) for c in range(4)
            ]
            assert PlaneP3(moved) == plane_through(E, triple.apply_sigma())


class TestEvenTheta:
    def test_obstruction_on_fixture(self, E):
        assert even_theta_obstruction(E) is True

    def test_parity_table_consistency(self):
        curve = standard_curve()
        for char in enumerate_chars(2):
            dim = rr_space(curve, theta_divisor(curve, char.members)).dimension
            assert dim == (1 if char.parity_bit else 0)

    def test_odd_theta_negative_control(self):
        curve = standard_curve()
        space = rr_space(curve, theta_divisor(curve, (1,)))
        assert space.dimension == 1


class TestRiemannHurwitz:
    def test_branched_double_cover(self):
        assert riemann_hurwitz(2, 2, 4) == 5

    def test_quotient_dimension_gap(self):
        assert riemann_hurwitz(2, 2, 4) - 2 == 3

    def test_unramified_double_cover(self):
        assert riemann_hurwitz(2, 2, 0) == 3

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            riemann_hurwitz(2, 2, 3)
        with pytest.raises(ValueError):
            riemann_hurwitz(-1, 2, 0)
        with pytest.raises(ValueError):
            riemann_hurwitz(0, 3, 0)


class TestRandomEmbedding:
    def test_seeded_embedding(self):
        # a second fixture: six integer branch points and an even class
        curve = HyperCurve.from_roots([-11, -10, -8, -2, 0, 8])
        E3 = embed(curve, CharClass(2, (1, 3, 5)))
        assert E3.curve.genus == 2
        for exps in E3.implicit.terms:
            assert exps[0] + exps[1] == 2
            assert exps[2] + exps[3] == 3
        assert quadric_congruence_scale(involution_matrix(E3)) == -1
        members = sorted(E3.theta.members)
        branches = PointTriple(tuple(E3.curve.branch_place(i) for i in members))
        report = triple_plane_report(E3, branches)
        assert report["collinear"] is True
        assert report["square_root_identification"]["confirmed"] is True


class TestRelationKernel:
    """The lcm-cleared kernel against the product-cleared one it
    replaced: both clear to a common multiple of the denominators, so
    ``nullspace`` must return the same canonical basis."""

    @staticmethod
    def product_cleared_kernel(funcs):
        common = UPoly((1,))
        for fe in funcs:
            common = common * fe.den
        cleared = []
        for fe in funcs:
            q, r = common.divmod(fe.den)
            assert not r
            cleared.append((fe.a * q, fe.b * q))
        deg = max(max(a.degree, b.degree) for a, b in cleared)
        rows = []
        for k in range(deg + 1):
            rows.append([a.coeff(k) for a, _ in cleared])
            rows.append([b.coeff(k) for _, b in cleared])
        return nullspace(rows)

    @pytest.mark.parametrize("fixture", ["E", "split_E"])
    def test_monomial_products_match_repeated_products(self, fixture, request):
        # the composition from one power table per section against the
        # power-by-power product it replaced: FieldElem cancels nothing,
        # so the two must agree in a, b and den, not only in value
        E = request.getfixturevalue(fixture)
        spin, canon = E.spin_cube_basis, E.canonical_basis

        def power(fe, n):
            out = FieldElem(fe.curve, UPoly((1,)))
            for _ in range(n):
                out = out * fe
            return out

        for t_monos, s_monos in (
            (T_MONOS, S_MONOS),
            (_degree_monos(2), _degree_monos(2)),
            (_degree_monos(1), _degree_monos(3)),
            (_degree_monos(0), _degree_monos(4)),
        ):
            got = _monomial_products(spin, canon, t_monos, s_monos)
            want = [
                power(spin[0], a0) * power(spin[1], a1) * power(canon[0], b0)
                * power(canon[1], b1)
                for (a0, a1) in t_monos
                for (b0, b1) in s_monos
            ]
            assert len(got) == len(want) == len(t_monos) * len(s_monos)
            for h, w in zip(got, want):
                assert (h.a, h.b, h.den) == (w.a, w.b, w.den)

    @pytest.mark.parametrize("fixture", ["E", "split_E"])
    def test_embed_systems_match_product_clearing(self, fixture, request):
        E = request.getfixturevalue(fixture)
        spin, canon = E.spin_cube_basis, E.canonical_basis
        systems = [
            _monomial_products(spin, canon, T_MONOS, S_MONOS),
            _monomial_products(spin, canon, _degree_monos(2), _degree_monos(2)),
            _monomial_products(spin, canon, _degree_monos(1), _degree_monos(3)),
        ]
        # the _in_span systems of involution_matrix
        for basis in (spin, canon):
            systems += [(basis[0], basis[1], g.conjugate()) for g in basis]
        dims = []
        for funcs in systems:
            kernel = _relation_kernel(funcs)
            assert kernel == self.product_cleared_kernel(funcs)
            dims.append(len(kernel))
        assert dims[:3] == [1, 0, 0]
        assert dims[3:] == [1, 1, 1, 1]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_shared_factor_denominators_match_product_clearing(self, data):
        curve = standard_curve()
        # denominators built from a common pool of factors, so they
        # differ but often share some
        pool = [UPoly.x_minus(r) for r in (0, 1, -2)]
        coeffs = st.lists(st.integers(min_value=-3, max_value=3), max_size=3)

        def draw_den():
            den = UPoly.const(data.draw(st.sampled_from((1, 2, -3))))
            for factor in pool:
                den = den * factor ** data.draw(st.integers(min_value=0, max_value=2))
            return den

        funcs = [
            FieldElem(
                curve, UPoly(data.draw(coeffs)), UPoly(data.draw(coeffs)), draw_den()
            )
            for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
        ]
        if data.draw(st.booleans()):
            # a combination of the others, over a further shared factor,
            # so the kernel is not empty
            combo = FieldElem(curve, UPoly())
            for fe in funcs:
                combo = combo + data.draw(st.integers(min_value=-2, max_value=2)) * fe
            extra = draw_den()
            funcs.append(
                FieldElem(curve, combo.a * extra, combo.b * extra, combo.den * extra)
            )
        assert _relation_kernel(funcs) == self.product_cleared_kernel(funcs)


@pytest.mark.parametrize("roots", [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, -14)])
def test_embed_builds_no_branch_place_series(roots):
    # leading coefficients come from the closed form, so embedding a
    # fresh curve never expands a series at a branch place
    curve = HyperCurve.from_roots(roots)
    embed(curve, CharClass(2, (1, 2, 3)))
    assert "branch" not in {kind for kind, _ in curve._cache["series"]}


class TestTripleSweepDedup:
    """``run odd`` certifies each distinct drawn triple once and lists
    its report at every draw, in draw order."""

    @staticmethod
    def _sweep(monkeypatch, seed, triples):
        calls = []

        def counting(E, triple):
            calls.append(triple.labels())
            return triple_plane_report(E, triple)

        monkeypatch.setattr(oddmoduli, "triple_plane_report", counting)
        code, report = cli.run("odd", seed=seed, triples=triples)
        assert code == 0
        checks = {c["name"]: c for c in report["suites"][0]["checks"]}
        return calls, checks["triple_sweep"]["details"]

    @staticmethod
    def _draws(seed, triples):
        # the draw order of run_odd: random triples, then the theta
        # triple and its complement
        rng = random.Random(seed)
        pool = list(combinations(range(8), 3))
        return [pool[rng.randrange(len(pool))] for _ in range(triples)] + [
            (0, 1, 2),
            (3, 4, 5),
        ]

    def test_seed_29_certifies_19_of_22_draws(self, E, places, monkeypatch):
        calls, details = self._sweep(monkeypatch, 29, 20)
        draws = self._draws(29, 20)
        assert len(calls) == len(set(calls)) == len(set(draws)) == 19
        assert details["random_triples"] == 20
        want = [
            cli._jsonable(triple_plane_report(E, triple_of(places, *idx)))
            for idx in draws
        ]
        assert details["reports"] == want

    def test_sixty_draws_certify_at_most_the_pool(self, monkeypatch):
        calls, details = self._sweep(monkeypatch, 7, 60)
        assert len(details["reports"]) == 62
        assert len(calls) == len(set(calls)) == len(set(self._draws(7, 60))) <= 56
