"""Mutation ledger for the exact fast paths.

Each entry breaks one fast path on purpose: in one file under
``src/spincert`` it replaces one exact snippet, which occurs there
exactly once, and names the tests expected to fail on the result.  The
entries cover the QQ and Q(i) normal forms, where a bare ``/`` on two
ints is a float that compares equal to the exact value
(``0.5 == Fraction(1, 2)``), and an integral Fraction or a real
Gaussian prints like an int, so only a test that looks at types can see
the fault.  The ``kernel_`` entries break the one-pass signed sums of
covariant derivatives of ``instanton``: the power of rho each part is
grouped at, the drop of a power whose parts cancel, the lift of a lower
power's sum, the normal form, the scaling, the sum of coefficient
triples over different denominators and the closed-form commutator of
su(2) triples.  Others break the halving in the closed-form trace-free
part of the BPST connection, the three-entry rank rows, the self-dual
part, the chirality blocks of the Dirac operator and of the curvature
action, the blade matrix coefficients of the curvature action, the
quarter of the twistor residual, and the blade-table lookup of
``clifford.GammaRep.rep``.  The last entries break the curve code's
build-once paths and certificates: the interned places, the unchecked
divisor merge and scale, the degree certificate of
``rational_divisor``, the re-check of ``_sqrt_head``, and the tuple
list of reduced branch subsets; then three let ``exactalg.UPoly``
take a bool for a scalar, and the last makes ``cli`` run every suite
module when it loads.

    PYTHONPATH=src python tests/mutants.py [NAME...]

applies each mutant, or only the mutants named, to a temporary copy of
``src`` and ``tests``, runs its tests there with pytest, and prints
``killed`` or ``survived`` with the seconds that copy and test run
took; the exit status is 1 when a mutant survives, and 2 when a name is
not in the ledger or the named tests fail on the unmutated code.  A
surviving mutant means a missing test: the answer is a new test,
never an edited mutant.  The tests run in the order named, stopping at
the first failure, so each mutant names its fastest killing test first,
and a property test that kills a mutant carries the killing input as an
``@example``: the kill then comes on that example, not after hypothesis
has searched for a counterexample and shrunk it.
``tests/test_mutants.py`` checks, in the tier-1 run, that every snippet
still occurs exactly once in its file and that every test a mutant
names is defined in its test file."""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spincert"

# (name, file under src/spincert, snippet, replacement, tests)
MUTANTS = (
    (
        "leading_term_branch_bare_division",
        "hyperell.py",
        "return v - 2 * kd, exact_quotient(lead * slope ** (kd - k), cd)",
        "return v - 2 * kd, lead * slope ** (kd - k) / cd",
        ("tests/test_hyperell.py::test_leading_term_matches_series_oracle",),
    ),
    (
        "leading_term_split_bare_division",
        "hyperell.py",
        "return k - kd, exact_quotient(lead, cd)",
        "return k - kd, lead / cd",
        ("tests/test_hyperell.py::test_leading_term_matches_series_oracle",),
    ),
    (
        # the conjugate's lead on the cancelling sheet is 2 lc(a)
        "leading_term_inf_cancel_drops_2",
        "hyperell.py",
        "exact_quotient(n.lead(), 2 * a.lead())",
        "exact_quotient(n.lead(), a.lead())",
        (
            "tests/test_hyperell.py::test_leading_term_rare_branches_frozen",
            "tests/test_hyperell.py::test_leading_term_matches_series_oracle",
        ),
    ),
    (
        "normalize_returns_fractions",
        "oddmoduli.py",
        "return tuple(v.numerator * (l // v.denominator) // g for v in vec)",
        "return tuple(Fraction(v.numerator * (l // v.denominator), g) for v in vec)",
        (
            "tests/test_oddmoduli.py::TestPlaneThrough::test_normalization",
            "tests/test_oddmoduli.py::TestPlaneThrough"
            "::test_coordinates_are_primitive_int_vectors",
        ),
    ),
    (
        "exact_div_bare_division",
        "exactalg/polys.py",
        "qc = exact_quotient(rem[rexp], lc)",
        "qc = rem[rexp] / lc",
        (
            "tests/test_exactalg.py::test_qq_arithmetic_matches_fraction_oracle",
            "tests/test_exactalg.py::test_exact_div_of_product",
        ),
    ),
    (
        "mul_drops_normalization",
        "exactalg/polys.py",
        "                    if type(s) is Fraction and s.denominator == 1:\n"
        "                        s = s.numerator\n"
        "                    out[e] = s\n",
        "                    out[e] = s\n",
        (
            "tests/test_exactalg.py::test_qq_arithmetic_matches_fraction_oracle",
            "tests/test_exactalg.py::test_poly_arithmetic_matches_sympy",
        ),
    ),
    (
        "rho_eval_bare_division",
        "instanton.py",
        "return exact_quotient(value, den)",
        "return value / den",
        (
            "tests/test_instanton.py::test_field_values_are_exact_and_in_normal_form",
            "tests/test_instanton.py::test_rho_entries_match_ratfunc_oracle",
        ),
    ),
    (
        # skips the gcd only where the result is a Gaussian: a zero or
        # real result would show as an integral Fraction, which any type
        # check sees, but an unreduced Gaussian triple equals its value
        "gaussian_int_product_skips_gcd",
        "exactalg/scalars.py",
        "g = gcd(other, d)",
        "g = gcd(other, d) if not (other and b1) else 1",
        ("tests/test_exactalg.py::test_gaussian_matches_fraction_pair_oracle",),
    ),
    (
        "bareiss_exact_div_bare_division",
        "exactalg/linalg.py",
        "    return exact_quotient(a, b)\n",
        "    return a / b\n",
        ("tests/test_exactalg.py::test_mixed_int_gaussian_matrices",),
    ),
    (
        "kernel_drops_minus_2k_term",
        "instanton.py",
        "minus_2k = -2 * k",
        "minus_2k = 0",
        (
            "tests/test_instanton.py::test_rho_entries_match_ratfunc_oracle",
            "tests/test_instanton.py"
            "::test_covariant_kernel_matches_composed_form_and_ratfunc",
        ),
    ),
    (
        # a derivative's numerator is then summed over rho^k, not
        # rho^(k+1), so the suite's Dirac residuals are no longer zero
        "kernel_power_k_for_k_plus_1",
        "instanton.py",
        "(v.k + 1 if v.k else 0) if var is not None else v.k",
        "v.k",
        (
            "tests/test_instanton.py::test_run_instanton_fuses_every_covariant_entry",
            "tests/test_instanton.py"
            "::test_covariant_kernel_matches_composed_form_and_ratfunc",
        ),
    ),
    (
        "kernel_skips_normal_form",
        "instanton.py",
        "{e: _reduced(*t) for e, t in out.items() if t[0] or t[1]}",
        "{e: Fraction(t[0], t[2]) if not t[1] else _reduced(*t)"
        " for e, t in out.items() if t[0] or t[1]}",
        (
            "tests/test_instanton.py"
            "::test_covariant_kernel_stores_integral_coefficients_as_ints",
        ),
    ),
    (
        # the a entry of [A, M] = (b o - n c, ...) is then b o + n c
        "kernel_adds_second_product",
        "instanton.py",
        "pa += ((coef, a.b, m.c), (-coef, m.b, a.c))",
        "pa += ((coef, a.b, m.c), (coef, m.b, a.c))",
        (
            "tests/test_instanton.py"
            "::test_covariant_kernel_matches_composed_form_and_ratfunc",
            "tests/test_instanton.py::test_main_verification_passes",
        ),
    ),
    (
        # every product is then summed at the power of the first part
        # grouped, whatever its own power
        "kernel_fuses_unequal_powers",
        "instanton.py",
        "_add_product(sums.setdefault(x.k + y.k, {}), x, y, coef)",
        "_add_product(sums.setdefault(next(iter(sums), x.k + y.k), {}), x, y, coef)",
        (
            "tests/test_instanton.py"
            "::test_mixed_power_entry_takes_its_highest_uncancelled_power",
            "tests/test_instanton.py"
            "::test_covariant_kernel_matches_composed_form_and_ratfunc",
            "tests/test_instanton.py::test_covariant_sum_matches_composed_form",
        ),
    ),
    (
        # a power whose parts cancel then still sets the power of the
        # entry: the right value, at the pair the entry arithmetic gave
        "kernel_keeps_cancelled_power",
        "instanton.py",
        "polys = {k: p for k, p in polys.items() if p.terms}",
        "polys = {k: p for k, p in polys.items()}",
        (
            "tests/test_instanton.py"
            "::test_mixed_power_entry_takes_its_highest_uncancelled_power",
        ),
    ),
    (
        # the sums at lower powers of rho are then added unlifted; no
        # suite entry has parts at two powers
        "kernel_skips_lift",
        "instanton.py",
        "p * RHO ** (top - k)",
        "p",
        (
            "tests/test_instanton.py"
            "::test_mixed_power_entry_takes_its_highest_uncancelled_power",
        ),
    ),
    (
        "kernel_minus_one_as_one",
        "instanton.py",
        "return [(e, (-a, -b, d)) for e, (a, b, d) in terms]",
        "return terms",
        (
            "tests/test_instanton.py::test_bpst_matches_ratfunc_transcription",
            "tests/test_instanton.py::test_covariant_sum_matches_composed_form",
        ),
    ),
    (
        # the suite's only other coefficients are +-i and 1/2, so this
        # treats +-i as 1 in the Dirac sum
        "kernel_skips_scalar_multiply",
        "instanton.py",
        "return [(e, (a * ca - b * cb, a * cb + b * ca, d * cd))"
        " for e, (a, b, d) in terms]",
        "return terms",
        (
            "tests/test_instanton.py::test_bpst_matches_ratfunc_transcription",
            "tests/test_instanton.py::test_covariant_sum_matches_composed_form",
        ),
    ),
    (
        # numerators over different denominators are then added as if
        # over the first one, so x1 + x1 / 2 sums to 2 x1
        "kernel_sums_unequal_denominators_as_equal",
        "instanton.py",
        "acc[:] = a1 * d + a * d1, b1 * d + b * d1, d1 * d",
        "acc[:] = a1 + a, b1 + b, d1",
        (
            "tests/test_instanton.py::test_covariant_sum_matches_composed_form",
            "tests/test_instanton.py"
            "::test_covariant_kernel_matches_composed_form_and_ratfunc",
        ),
    ),
    (
        # a bare entry over rho^k is then summed as if over rho^(k+1)
        "kernel_bare_entry_power_as_derivative",
        "instanton.py",
        "(v.k + 1 if v.k else 0) if var is not None else v.k",
        "v.k + 1 if v.k else 0",
        (
            "tests/test_instanton.py::test_covariant_sum_matches_composed_form",
            "tests/test_instanton.py::test_self_dual_part_matches_the_old_split",
        ),
    ),
    (
        # x00 - x11 of a triple is 2a: without the 2 the (0, 1) and
        # (1, 0) commutator entries are halved
        "kernel_commutator_drops_double",
        "instanton.py",
        "two = 2 * coef",
        "two = coef",
        (
            "tests/test_instanton.py"
            "::test_covariant_kernel_matches_composed_form_and_ratfunc",
            "tests/test_instanton.py::test_bpst_matches_ratfunc_transcription",
        ),
    ),
    (
        # the closed form of the BPST connection then keeps m00 - m11,
        # twice the trace-free (0, 0) coefficient, so the connection is no
        # longer its own
        "trace_free_part_drops_half",
        "instanton.py",
        "(m00 - m11) * Fraction(1, 2)",
        "(m00 - m11)",
        (
            "tests/test_instanton.py::test_bpst_components_frozen",
            "tests/test_instanton.py::test_bpst_matches_ratfunc_transcription",
        ),
    ),
    (
        # the rank of the BPST fields stays 4 without the b column, so
        # only the oracle row and fields nonzero in few slots see it
        "field_row_drops_an_entry",
        "instanton.py",
        "row += (m.a.eval(point, rho), m.b.eval(point, rho), m.c.eval(point, rho))",
        "row += (m.a.eval(point, rho), m.c.eval(point, rho))",
        (
            "tests/test_instanton.py::test_independent_count_matches_the_full_rank",
            "tests/test_instanton.py::test_field_values_are_exact_and_in_normal_form",
        ),
    ),
    (
        # the Dirac operator then sums gamma_i[r][c] over c in the block
        # it maps to, where gamma_i is zero, so every Dirac value is zero
        "dirac_sums_the_wrong_block",
        "instanton.py",
        "cols = BLOCKS[field.block]",
        "cols = BLOCKS[_OTHER[field.block]]",
        (
            "tests/test_instanton.py::test_coupled_dirac_flat_cases",
            "tests/test_instanton.py::test_bpst_matches_ratfunc_transcription",
        ),
    ),
    (
        # a spinor with entries in both blocks then acts as its part in
        # the named block
        "action_skips_leak_check",
        "instanton.py",
        "if any(psi_t[r] for r in BLOCKS[_OTHER[block]]):",
        "if False:",
        (
            "tests/test_instanton.py"
            "::test_curvature_acts_refuses_spinors_outside_the_block",
            "tests/test_instanton.py::test_curvature_acts_matches_composed_form",
        ),
    ),
    (
        # the BPST curvature is anti-self-dual, so F + *F is zero with or
        # without the 1/2: only a 2-form that is not sees it
        "self_dual_drops_half",
        "instanton.py",
        "half = Fraction(1, 2)",
        "half = 1",
        ("tests/test_instanton.py::test_self_dual_part_matches_the_old_split",),
    ),
    (
        # every product of the curvature action then takes the blade
        # matrix entry as 1, so the produced fields are no longer the
        # Clifford action and fail the coupled Dirac equation
        "action_blade_coefficient_as_one",
        "instanton.py",
        "out.append((coef, x, v))",
        "out.append((1, x, v))",
        (
            "tests/test_instanton.py::test_main_verification_passes",
            "tests/test_instanton.py::test_curvature_acts_matches_composed_form",
        ),
    ),
    (
        # the defect is then d_i psi + e_i . (Dirac psi), which no affine
        # field of the family zeroes, so building the family raises
        "twistor_residual_drops_quarter",
        "instanton.py",
        "quarter = Fraction(1, 4)",
        "quarter = 1",
        (
            "tests/test_instanton.py::test_twistor_basis_properties",
            "tests/test_instanton.py"
            "::test_flat_dirac_and_twistor_residual_match_composed_action",
        ),
    ),
    (
        # a scaled blade then is represented as the blade itself
        "rep_table_ignores_coefficient",
        "clifford.py",
        "            if c == 1:\n",
        "            if True:\n",
        ("tests/test_clifford.py::test_rep_matches_blade_sum",),
    ),
    (
        "qi_constructor_returns_real_gaussian",
        "exactalg/scalars.py",
        "    if b:\n        z = _new(Gaussian)\n",
        "    if True:\n        z = _new(Gaussian)\n",
        (
            "tests/test_exactalg.py::test_gaussian_matches_fraction_pair_oracle",
            "tests/test_exactalg.py::test_poly_arithmetic_matches_sympy",
        ),
    ),
    (
        # the branch place x = 1 and the infinite place +1 then share a slot
        "place_cache_keyed_by_key_alone",
        "hyperell.py",
        "        place = places.get((kind, key))\n"
        "        if place is None:\n"
        "            place = places[(kind, key)] = Place(self, kind, key)\n",
        "        place = places.get(key)\n"
        "        if place is None:\n"
        "            place = places[key] = Place(self, kind, key)\n",
        (
            "tests/test_hyperell.py"
            "::test_interned_places_equal_and_hash_like_fresh_places",
            "tests/test_hyperell.py::test_canonical_divisor_small_genus",
        ),
    ),
    (
        "divisor_merge_keeps_cancelled_place",
        "hyperell.py",
        "        if m:\n            out[p] = m\n        else:\n            del out[p]\n",
        "        out[p] = m\n",
        (
            "tests/test_hyperell.py::test_divisor_arithmetic_matches_rebuild_oracle",
            "tests/test_hyperell.py::test_divisor_arithmetic",
        ),
    ),
    (
        "divisor_scale_skips_int_check",
        "hyperell.py",
        "        if type(k) is not int:\n"
        '            raise ValueError("divisor coefficients must be integers: %r" % (k,))\n',
        "",
        ("tests/test_hyperell.py::test_divisor_scale_rejects_non_integer_factors",),
    ),
    (
        "rational_divisor_skips_degree_certificate",
        "hyperell.py",
        "    if div.degree + zeros != poles:\n",
        "    if False:\n",
        (
            "tests/test_hyperell.py::test_rational_divisor_certifies_its_degree",
            "tests/test_oddmoduli.py::TestOnePathSection"
            "::test_lowered_branch_valuation_is_refused",
        ),
    ),
    (
        # the recurrence alone never sees an s_0 that misses u_0
        "sqrt_head_skips_recheck",
        "hyperell.py",
        "    for k in range(c):\n"
        "        if sum(s[j] * s[k - j] for j in range(k + 1)) != u[k]:\n"
        '            raise VerificationError("s^2 differs from u at t^%d" % k)\n',
        "",
        ("tests/test_hyperell.py::test_sqrt_head_frozen",),
    ),
    (
        "reduced_subsets_halves_drop_label_1",
        "thetachar.py",
        "halves = ((1,) + rest for rest in",
        "halves = (rest for rest in",
        (
            "tests/test_thetachar.py"
            "::test_reduced_subset_tuples_match_the_frozenset_oracle",
        ),
    ),
    (
        # True is then the coefficient 1, and a UPoly equals True
        "upoly_accepts_bool_coefficient",
        "exactalg/upoly.py",
        "if type(c) is bool or not isinstance(c, (int, Fraction)):",
        "if not isinstance(c, (int, Fraction)):",
        (
            "tests/test_hyperell.py::test_upoly_constructor_refuses_bool",
            "tests/test_hyperell.py::test_upoly_equality_refuses_bool",
        ),
    ),
    (
        "upoly_scales_by_bool",
        "exactalg/upoly.py",
        "                if type(other) is bool:\n"
        '                    raise TypeError("expected a rational scalar, got %r" % (other,))\n',
        "",
        ("tests/test_hyperell.py::test_upoly_scalar_product_refuses_bool",),
    ),
    (
        "upoly_evaluates_at_bool",
        "exactalg/upoly.py",
        "        x = _qq(x)\n",
        "",
        ("tests/test_hyperell.py::test_upoly_eval_refuses_bool",),
    ),
    (
        # the module then runs at once, though it is still bound by name
        "lazy_module_runs_eagerly",
        "cli.py",
        "importlib.util.LazyLoader(spec.loader).exec_module(module)",
        "spec.loader.exec_module(module)",
        (
            "tests/test_cli.py::TestLazySuites"
            "::test_run_instanton_runs_no_other_suite_module",
        ),
    ),
)


def apply(tree, name, path, snippet, replacement):
    """Write the mutant into the copy under tree; the snippet must occur
    exactly once in its file."""
    target = Path(tree) / "src" / "spincert" / path
    text = target.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        raise SystemExit(
            "%s: snippet occurs %d times in %s" % (name, text.count(snippet), path)
        )
    target.write_text(text.replace(snippet, replacement), encoding="utf-8")


def failed(tests, mutant=None):
    """Whether the tests fail on a copy of src and tests, with the mutant
    applied when one is given.  A pytest error other than a test failure
    stops the ledger."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory() as tree:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tree) / part, ignore=ignore)
        if mutant is not None:
            apply(tree, *mutant[:4])
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = str(Path(tree) / "src")
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
            + list(tests),
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
        )
    if child.returncode not in (0, 1):
        raise SystemExit("pytest exited %d\n%s" % (child.returncode, child.stdout))
    return child.returncode == 1


def main(argv=None):
    # the mutants named on the command line, in ledger order, or all
    names = set(sys.argv[1:] if argv is None else argv)
    unknown = names - {mutant[0] for mutant in MUTANTS}
    if unknown:
        print("unknown mutant: %s" % ", ".join(sorted(unknown)))
        return 2
    mutants = [mutant for mutant in MUTANTS if not names or mutant[0] in names]
    # every named test must pass on the unmutated code, or a kill means
    # nothing
    named = sorted({test for mutant in mutants for test in mutant[4]})
    if failed(named):
        print("the ledger's tests fail on the unmutated code")
        return 2
    survived = 0
    for mutant in mutants:
        start = time.perf_counter()
        killed = failed(mutant[4], mutant)
        seconds = time.perf_counter() - start
        survived += not killed
        verdict = "killed" if killed else "survived"
        print("%-42s %-8s %6.1f s" % (mutant[0], verdict, seconds), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
