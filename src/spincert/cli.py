"""Batch verification driver: every area's exact certificates grouped
into named suites, run one after another in suite-name order, and
assembled into one deterministic JSON report.

Report layout: a versioned top-level object (schema 1) holding one
block per suite, ordered by suite name.  Each block records the
conventions the computations were pinned to, a list of check reports
(name, status, details), and wall-time fields.  A check that raises an
unexpected exception is recorded with status "error" and the exception
type, and counts as failed; the remaining checks still run.  A suite
whose setup raises (before any check runs) becomes a block with status
"error", the exception in its details and no checks, and the remaining
suites still run.  Identical
seeds and fixtures reproduce the JSON byte for byte once the stamped
time fields are stripped.  The exit code is zero exactly when no check
failed or errored; skipped checks (cost guards) do not fail a run.
Out-of-range arguments raise ValueError before any suite runs.

The --perturb flag injects a deliberately broken input into the suites
that define a negative control (a rescaled connection component, a
flipped quadratic-form sign) so the failure path and the counterexample
reporting stay exercised end to end.

Importing this module runs no suite module.  Each is bound lazily and
runs when a runner first reads one of its names, so a run executes the
modules of the suites it runs and no others.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
import random

from . import VerificationError
from .exactalg import PolyRing, QQ, UPoly


def _lazy(name):
    """The submodule ``name`` of this package, registered in
    ``sys.modules`` and bound on the package as an import would, but run
    only when one of its attributes is first read."""
    fullname = "%s.%s" % (__package__, name)
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        vars(sys.modules[__package__])[name] = module
        importlib.util.LazyLoader(spec.loader).exec_module(module)
    return module


clifford = _lazy("clifford")
hyperell = _lazy("hyperell")
instanton = _lazy("instanton")
nrmoduli = _lazy("nrmoduli")
oddmoduli = _lazy("oddmoduli")
repsl2 = _lazy("repsl2")
thetachar = _lazy("thetachar")

SUITES = ("clifford", "instanton", "nr", "odd", "parity", "repsl2", "theta")
DEFAULT_SEED = 1729
DEFAULT_TRIPLES = 20
ARF_GENUS_LIMIT = 4


def _jsonable(value):
    """Exact values to stable JSON: fractions as canonical strings,
    set-like containers sorted, non-string keys stringified."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {_json_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [_jsonable(v) for v in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def _json_key(key):
    if isinstance(key, str):
        return key
    if isinstance(key, (int, Fraction)):
        return str(key)
    if isinstance(key, (tuple, frozenset)):
        return ",".join(str(x) for x in (sorted(key) if isinstance(key, frozenset) else key))
    return repr(key)


def _run_check(name, fn):
    start = time.perf_counter()
    try:
        details = fn()
        status = "pass"
        if isinstance(details, dict):
            if details.pop("_skipped", False):
                status = "skipped"
            elif details.get("passed") is False:
                status = "fail"
    except (VerificationError, ValueError) as exc:
        details = {"error": str(exc)}
        status = "fail"
    except Exception as exc:
        details = {"error": str(exc), "type": type(exc).__name__}
        status = "error"
    return {
        "name": name,
        "status": status,
        "details": _jsonable(details),
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
    }


def _run_suite(name, opts):
    """One suite's block; an exception from the runner's setup becomes a
    block with status "error" and no checks."""
    start = time.perf_counter()
    try:
        return _RUNNERS[name](opts)
    except Exception as exc:
        return {
            "suite": name,
            "status": "error",
            "details": {"error": str(exc), "type": type(exc).__name__},
            "failed_checks": [],
            "checks": [],
            "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
        }


def _suite_block(name, conventions, named_checks):
    start = time.perf_counter()
    checks = [_run_check(n, fn) for n, fn in named_checks]
    failed = [c["name"] for c in checks if c["status"] in ("fail", "error")]
    return {
        "suite": name,
        "conventions": _jsonable(conventions),
        "status": "fail" if failed else "pass",
        "failed_checks": failed,
        "checks": checks,
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 3),
    }


# ----------------------------------------------------------------------
# suite runners
# ----------------------------------------------------------------------


def run_clifford(opts):
    gamma = clifford.GammaRep()
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    star = clifford.hodge_star
    star_square = not any(
        star(star(clifford.two_form(i, j))) - clifford.two_form(i, j) for i, j in pairs
    )
    conventions = {
        "generator_square": -1,
        "volume": "ascending generator product",
        "star_square_on_two_forms": 1 if star_square else -1,
        "asd_spinor_block": gamma.asd_action_record()["acts_on"],
    }

    def grade_decomposition():
        count = 0
        for e in clifford.vector_basis():
            for w in clifford.asd_basis():
                clifford.identity_decomposition(e, w)
                count += 1
        return {"pairs": count, "passed": count == 12}

    def generator_sandwich():
        for w in clifford.asd_basis():
            clifford.identity_sandwich(w)
        return {"forms": 3, "passed": True}

    def selfdual_control():
        zero_defects = []
        for e in clifford.vector_basis():
            for w in clifford.sd_basis():
                if not clifford.decomposition_defect(e, w):
                    zero_defects.append([str(e), str(w)])
        return {
            "pairs": 12,
            "vanishing_defects": zero_defects,
            "passed": not zero_defects,
        }

    return _suite_block(
        "clifford",
        conventions,
        [
            ("grade_decomposition", grade_decomposition),
            ("generator_sandwich", generator_sandwich),
            ("selfdual_control", selfdual_control),
        ],
    )


def _perturbed_connection(conn):
    """The negative control: ``conn`` with its first component doubled."""
    comps = list(conn.components)
    comps[0] = comps[0] * Fraction(2)
    return instanton.Connection(comps)


def _nonzero_form_keys(f):
    return [",".join(str(x) for x in key) for key, m in sorted(f.items()) if m]


def run_instanton(opts):
    # the instanton module's own spin representation: the conventions it
    # certifies with
    gamma_record = instanton.GAMMA.asd_action_record()
    conn = instanton.bpst_connection()
    if opts.perturb:
        conn = _perturbed_connection(conn)
    conventions = {
        "asd_spinor_block": gamma_record["acts_on"],
        "perturbed_input": bool(opts.perturb),
    }

    def anti_self_dual():
        bad = _nonzero_form_keys(instanton.self_dual_part(conn))
        return {"self_dual_part_components": bad, "passed": not bad}

    def bianchi():
        bad = _nonzero_form_keys(instanton.bianchi_residual(conn))
        return {"nonzero_components": bad, "passed": not bad}

    def yang_mills():
        bad = _nonzero_form_keys(instanton.yang_mills_residual(conn))
        return {"nonzero_components": bad, "passed": not bad}

    def dirac_solutions():
        return instanton.verify_curvature_dirac_solutions(conn)

    def perturbed_control():
        if opts.perturb:
            return {"_skipped": True, "reason": "whole suite already perturbed"}
        bad_conn = _perturbed_connection(conn)
        sd_keys = _nonzero_form_keys(instanton.self_dual_part(bad_conn))
        ym_keys = _nonzero_form_keys(instanton.yang_mills_residual(bad_conn))
        return {
            "self_dual_part_components": sd_keys,
            "yang_mills_components": ym_keys,
            "passed": bool(sd_keys and ym_keys),
        }

    return _suite_block(
        "instanton",
        conventions,
        [
            ("anti_self_dual_curvature", anti_self_dual),
            ("bianchi_identity", bianchi),
            ("yang_mills_equations", yang_mills),
            ("coupled_dirac_solutions", dirac_solutions),
            ("perturbed_control", perturbed_control),
        ],
    )


def run_repsl2(opts):
    degrees = opts.m or (1, 3, 5)
    checks = []
    for m in degrees:
        checks.append(
            ("pairing_invariance_m%d" % m, lambda m=m: repsl2.invariance_check(m))
        )
        checks.append(
            (
                "contraction_equivariance_m%d" % m,
                lambda m=m: repsl2.equivariance_check(m),
            )
        )
    if 1 in degrees:

        def nilpotency():
            ring = PolyRing(QQ, ("a0", "a1"))
            u = repsl2.BinaryForm((ring.gen(0), ring.gen(1)))
            d = repsl2.quadratic_matrix_det(repsl2.moment_map(u, u))
            return {"det_is_zero": d == ring.zero(), "passed": d == ring.zero()}

        checks.append(("nilpotency_m1", nilpotency))
    if 3 in degrees:
        checks.append(
            ("isotropy_m3", lambda: {"passed": repsl2.isotropy_check_m3()})
        )
    return _suite_block("repsl2", {"degrees": list(degrees)}, checks)


def run_theta(opts):
    genera = opts.g or (1, 2, 3, 4, 5, 6)
    checks = []
    for g in genera:

        def counts(g=g):
            odd, even = thetachar.parity_counts(g)
            want_odd = 2 ** (g - 1) * (2**g - 1)
            want_even = 2 ** (g - 1) * (2**g + 1)
            return {
                "odd": odd,
                "even": even,
                "expected": [want_odd, want_even],
                "passed": (odd, even) == (want_odd, want_even),
            }

        checks.append(("parity_counts_g%d" % g, counts))

        def arf(g=g):
            if g > ARF_GENUS_LIMIT:
                return {
                    "_skipped": True,
                    "reason": "quadratic-form sweep grows as 16^g",
                }
            return {"passed": thetachar.arf_model_crosscheck(g)}

        checks.append(("arf_crosscheck_g%d" % g, arf))
    return _suite_block("theta", {"genera": list(genera)}, checks)


def run_parity(opts):
    curve = opts.fixture_curve or hyperell.standard_curve()
    conventions = {"curve": [str(c) for c in curve.f.coeffs]}

    def three_way():
        sweep = hyperell.h0_all_theta(curve)
        table = sweep["table"]
        mismatches = []
        odd_members = []
        for cls in thetachar.enumerate_chars(2):
            if table[cls.members] != cls.parity_bit:
                mismatches.append(sorted(cls.members))
            if table[cls.members] == 1:
                odd_members.append(sorted(cls.members))
        singletons = sorted(m for m in odd_members if len(m) == 1)
        return {
            "counts": list(sweep["counts"]),
            "mismatches": mismatches,
            "odd_classes": sorted(odd_members),
            "passed": (
                sweep["counts"] == (6, 10)
                and not mismatches
                and len(singletons) == 6
            ),
        }

    def rr_dimensions():
        tset = (1, 2, 3)
        rr, spin = hyperell.rr_space, hyperell.spin_power_divisor
        dims = {
            "trivial": rr(curve, hyperell.Divisor()).dimension,
            "canonical": rr(curve, hyperell.canonical_divisor(curve)).dimension,
            "spin_cube": rr(curve, spin(curve, tset, 3)).dimension,
            "spin_fifth": rr(curve, spin(curve, tset, 5)).dimension,
        }
        want = {"trivial": 1, "canonical": 2, "spin_cube": 2, "spin_fifth": 4}
        return {"dimensions": dims, "expected": want, "passed": dims == want}

    def complement_witnesses():
        # theta_complement_witness raises unless div(h) = theta(T) - theta(T^c)
        certified = []
        for cls in thetachar.enumerate_chars(2):
            hyperell.theta_complement_witness(curve, cls.members)
            certified.append(sorted(cls.members))
        return {"certified": certified, "passed": len(certified) == 16}

    return _suite_block(
        "parity",
        conventions,
        [
            ("three_way_class_table", three_way),
            ("rr_engine_dimensions", rr_dimensions),
            ("theta_complement_witnesses", complement_witnesses),
        ],
    )


def run_nr(opts):
    config = opts.branch_config or nrmoduli.standard_branch_config()
    table = nrmoduli.build_r_table()
    used = table.perturbed(1, 4) if opts.perturb else table
    conventions = {
        "branch_points": [str(config.point(i)) for i in range(1, 7)],
        "perturbed_input": bool(opts.perturb),
    }

    def crosscheck():
        return nrmoduli.transcription_crosscheck()

    def consistency():
        ok = nrmoduli.h_consistency(config, table=used)
        return {"consistent": ok, "passed": ok}

    def covector():
        return nrmoduli.verify_distinguished_covector(used)

    def kernels():
        out = {}
        for i in range(1, 7):
            rec = nrmoduli.kernel_at_branch(i, used)
            entry = {
                "dimension": rec["dimension"],
                "generator": list(rec["generator"]),
            }
            if "reduced_generator" in rec:
                entry["reduced_generator"] = list(rec["reduced_generator"])
            out[str(i)] = entry
        return {"kernels": out, "passed": True}

    def symmetry():
        return {"record": nrmoduli.signed_permutation_record(used), "passed": True}

    return _suite_block(
        "nr",
        conventions,
        [
            ("transcription_crosscheck", crosscheck),
            ("quadratic_differential_consistency", consistency),
            ("distinguished_covector", covector),
            ("branch_kernels", kernels),
            ("kernel_symmetry_record", symmetry),
        ],
    )


def run_odd(opts):
    curve = opts.fixture_curve or hyperell.standard_curve()
    theta = thetachar.CharClass(2, (1, 2, 3))
    E = oddmoduli.embed(curve, theta)
    conventions = {
        "curve": [str(c) for c in curve.f.coeffs],
        "theta_members": sorted(theta.members),
        "segre_order": "z[2i+j] = t_i * s_j",
        "first_factor": "square-root cube sections",
    }

    def embedding():
        relations = [
            oddmoduli.bidegree_relation_count(E, 2, 2),
            oddmoduli.bidegree_relation_count(E, 1, 3),
        ]
        return {
            "canonical_dim": len(E.canonical_basis),
            "spin_cube_dim": len(E.spin_cube_basis),
            "implicit_terms": len(E.implicit.terms),
            "lower_bidegree_relations": relations,
            "passed": relations == [0, 0],
        }

    def involution():
        M = oddmoduli.involution_matrix(E)
        scale = oddmoduli.quadric_congruence_scale(M)
        return {
            "matrix": [[str(c) for c in row] for row in M],
            "quadric_scale": str(scale),
            "passed": True,
        }

    def obstruction():
        return {"passed": oddmoduli.even_theta_obstruction(E)}

    def triples():
        rng = random.Random(opts.seed)
        places = E.curve.all_standard_places()
        pool = list(combinations(range(8), 3))
        chosen = [
            pool[rng.randrange(len(pool))] for _ in range(opts.triples)
        ]
        members = sorted(E.theta.members)
        complement = sorted(set(range(1, 7)) - set(members))
        engineered = [
            tuple(m - 1 for m in members),
            tuple(c - 1 for c in complement),
        ]
        reports = []
        counts = {"collinear": 0, "plane": 0}
        certified = {}  # a repeated draw reuses its triple's report
        for idx in chosen + engineered:
            if idx not in certified:
                triple = oddmoduli.PointTriple(tuple(places[i] for i in idx))
                certified[idx] = oddmoduli.triple_plane_report(E, triple)
            rep = certified[idx]
            counts["collinear" if rep["collinear"] else "plane"] += 1
            reports.append(rep)
        engineered_ok = all(
            rep["collinear"] for rep in reports[len(chosen):]
        )
        degrees_ok = all(
            rep.get("intersection_degree") == 5
            for rep in reports
            if not rep["collinear"]
        )
        return {
            "random_triples": len(chosen),
            "engineered_collinear": len(engineered),
            "verdict_counts": counts,
            "reports": reports,
            "passed": engineered_ok and degrees_ok,
        }

    def covering_genus():
        values = {
            "branched_double_cover": oddmoduli.riemann_hurwitz(2, 2, 4),
            "unramified_double_cover": oddmoduli.riemann_hurwitz(2, 2, 0),
        }
        return {
            "values": values,
            "quotient_dimension_gap": values["branched_double_cover"] - 2,
            "passed": values == {
                "branched_double_cover": 5,
                "unramified_double_cover": 3,
            },
        }

    return _suite_block(
        "odd",
        conventions,
        [
            ("embedding_certificates", embedding),
            ("involution_matrix", involution),
            ("even_theta_obstruction", obstruction),
            ("triple_sweep", triples),
            ("riemann_hurwitz", covering_genus),
        ],
    )


_RUNNERS = {
    "clifford": run_clifford,
    "instanton": run_instanton,
    "nr": run_nr,
    "odd": run_odd,
    "parity": run_parity,
    "repsl2": run_repsl2,
    "theta": run_theta,
}


# ----------------------------------------------------------------------
# fixtures and argument plumbing
# ----------------------------------------------------------------------


def load_curve_fixture(path) -> hyperell.HyperCurve:
    """Two-line fixture: declared genus, then ascending exact rational
    coefficients of the defining sextic."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != 2:
        raise ValueError("fixture must have a genus line and a coefficient line")
    try:
        genus = int(lines[0])
        coeffs = tuple(Fraction(tok) for tok in lines[1].split())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("malformed fixture: %s" % exc) from None
    curve = hyperell.HyperCurve(UPoly(coeffs))
    if curve.genus != genus:
        raise ValueError(
            "declared genus %d but the polynomial gives genus %d"
            % (genus, curve.genus)
        )
    if genus != 2:
        raise ValueError("only genus-2 fixtures are supported")
    return curve


def _csv_values(text, conv, what):
    """The values of a comma-separated list option, each read by conv.  A
    blank text is the empty tuple; an empty token, as in ``1,,3`` or
    ``2,``, makes the list malformed rather than being skipped.  Only
    text is read: any other value is a TypeError."""
    if not isinstance(text, str):
        raise TypeError("a %s list is comma-separated text, not %r" % (what, text))
    tokens = [tok.strip() for tok in text.split(",")]
    if tokens == [""]:
        return ()
    try:
        if not all(tokens):
            raise ValueError("empty token")
        return tuple(conv(tok) for tok in tokens)
    except (ValueError, ZeroDivisionError):
        raise ValueError("malformed %s list: %r" % (what, text)) from None


def run(
    suite,
    seed=DEFAULT_SEED,
    curve=None,
    branch=None,
    m=None,
    g=None,
    triples=DEFAULT_TRIPLES,
    perturb=False,
):
    """Run one named suite or all of them; returns (exit_code, report)."""
    if suite == "all":
        selected = list(SUITES)
    elif suite in SUITES:
        selected = [suite]
    else:
        raise ValueError("unknown suite: %r" % (suite,))
    # a given but empty value is an error, not a request for the default
    fixture_curve = load_curve_fixture(curve) if curve is not None else None
    branch_config = (
        nrmoduli.BranchConfig(_csv_values(branch, Fraction, "branch"))
        if branch is not None
        else None
    )
    if m is not None:
        m = _csv_values(m, int, "degree")
    if g is not None:
        g = _csv_values(g, int, "genus")
    if m is not None and not m:
        raise ValueError("empty degree list")
    if g is not None and not g:
        raise ValueError("empty genus list")
    # a repeated value would list one check name twice in a suite
    if m is not None and len(set(m)) != len(m):
        raise ValueError("repeated degree: %r" % (m,))
    if g is not None and len(set(g)) != len(g):
        raise ValueError("repeated genus: %r" % (g,))
    if any(d < 1 or d % 2 == 0 for d in m or ()):
        raise ValueError("degrees must be odd and positive: %r" % (m,))
    if g is not None:
        genus_range = thetachar.GENUS_RANGE
        if any(x not in genus_range for x in g):
            raise ValueError(
                "genera must lie in %d..%d: %r" % (genus_range[0], genus_range[-1], g)
            )
    if triples < 0:
        raise ValueError("triple count must be non-negative: %d" % triples)
    opts = SimpleNamespace(
        seed=seed,
        triples=triples,
        perturb=perturb,
        fixture_curve=fixture_curve,
        branch_config=branch_config,
        m=m,
        g=g,
    )
    blocks = [_run_suite(name, opts) for name in selected]
    status = "pass" if all(b["status"] == "pass" for b in blocks) else "fail"
    report = {
        "schema": 1,
        "seed": seed,
        "generated": datetime.now(timezone.utc).isoformat(),
        "status": status,
        "suites": blocks,
    }
    return (0 if status == "pass" else 1), report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spincert",
        description="Exact verification suites with JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run verification suites")
    choices = SUITES + ("all",)
    runp.add_argument("suite_pos", nargs="?", choices=choices, metavar="suite")
    runp.add_argument("--suite", dest="suite_opt", choices=choices)
    runp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    runp.add_argument("--out", help="write the JSON report to this path")
    runp.add_argument("--curve", help="curve fixture file (genus line, coefficient line)")
    runp.add_argument("--branch", help="six comma-separated rational branch points")
    runp.add_argument("--m", help="comma-separated representation degrees")
    runp.add_argument("--g", help="comma-separated genera")
    runp.add_argument("--triples", type=int, default=DEFAULT_TRIPLES)
    runp.add_argument("--perturb", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    suite = args.suite_pos or args.suite_opt
    if suite is None:
        parser.error("a suite is required (positional or --suite)")
    if args.suite_pos and args.suite_opt and args.suite_pos != args.suite_opt:
        parser.error("conflicting suite names given")
    try:
        code, report = run(
            suite,
            seed=args.seed,
            curve=args.curve,
            branch=args.branch,
            m=args.m,
            g=args.g,
            triples=args.triples,
            perturb=args.perturb,
        )
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
