"""The verification driver: suite selection, report shape, determinism,
negative controls through --perturb, and fixture handling."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from spincert import VerificationError, cli, oddmoduli, thetachar
from spincert.cli import (
    DEFAULT_SEED,
    SUITES,
    build_parser,
    load_curve_fixture,
    main,
    run,
)
from spincert.exactalg import UPoly


def _strip_times(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_times(v)
            for k, v in obj.items()
            if k not in ("generated", "elapsed_ms")
        }
    if isinstance(obj, list):
        return [_strip_times(v) for v in obj]
    return obj


def _check(block, name):
    matches = [c for c in block["checks"] if c["name"] == name]
    assert len(matches) == 1
    return matches[0]


def _fixture_text(roots):
    f = UPoly((1,))
    for r in roots:
        f = f * UPoly.x_minus(r)
    return "2\n" + " ".join(str(c) for c in f.coeffs) + "\n"


class TestRun:
    def test_all_suites_aggregate(self):
        code, report = run("all")
        assert code == 0
        assert report["schema"] == 1
        assert report["status"] == "pass"
        assert report["seed"] == DEFAULT_SEED
        names = [b["suite"] for b in report["suites"]]
        assert names == sorted(SUITES)
        assert len(names) == 7
        for block in report["suites"]:
            assert block["status"] == "pass"
            assert block["failed_checks"] == []

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run("bogus")

    def test_deterministic_reports(self):
        first = json.dumps(_strip_times(run("nr", seed=3)[1]), sort_keys=True)
        second = json.dumps(_strip_times(run("nr", seed=3)[1]), sort_keys=True)
        assert first == second
        # odd is the seeded suite: the seed picks its random triples
        first = json.dumps(
            _strip_times(run("odd", seed=3, triples=2)[1]), sort_keys=True
        )
        second = json.dumps(
            _strip_times(run("odd", seed=3, triples=2)[1]), sort_keys=True
        )
        assert first == second

    def test_unexpected_exception_is_recorded(self, monkeypatch):
        def broken(g):
            raise AssertionError("broken count at genus %d" % g)

        # broken as cli sees it: arf_model_crosscheck, inside thetachar,
        # still counts with the real parity_counts
        seen = SimpleNamespace(**vars(thetachar))
        seen.parity_counts = broken
        monkeypatch.setattr(cli, "thetachar", seen)
        code, report = run("theta", g="1,2")
        assert code == 1
        assert report["status"] == "fail"
        block = report["suites"][0]
        assert block["status"] == "fail"
        assert block["failed_checks"] == ["parity_counts_g1", "parity_counts_g2"]
        for g in (1, 2):
            errored = _check(block, "parity_counts_g%d" % g)
            assert errored["status"] == "error"
            assert errored["details"] == {
                "error": "broken count at genus %d" % g,
                "type": "AssertionError",
            }
            assert _check(block, "arf_crosscheck_g%d" % g)["status"] == "pass"
        json.dumps(report)

    def test_reports_are_json_serializable(self):
        _, report = run("theta", g="1,2")
        json.dumps(report)


class TestSetupGuard:
    """An exception raised while a suite sets up, before its checks run,
    becomes a suite block with status "error"; the run goes on and exits
    1.  ``embed`` is the odd suite's setup."""

    @staticmethod
    def break_embed(monkeypatch, exc_type):
        def broken(curve, theta):
            raise exc_type("embedding broke")

        monkeypatch.setattr(oddmoduli, "embed", broken)

    @pytest.mark.parametrize(
        "exc_type", [VerificationError, ArithmeticError, ValueError]
    )
    def test_setup_exception_is_an_errored_suite(self, exc_type, monkeypatch, capsys):
        self.break_embed(monkeypatch, exc_type)
        assert main(["run", "odd", "--triples", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["status"] == "fail"
        assert _strip_times(report["suites"]) == [
            {
                "suite": "odd",
                "status": "error",
                "details": {"error": "embedding broke", "type": exc_type.__name__},
                "failed_checks": [],
                "checks": [],
            }
        ]

    def test_other_suites_still_run_under_run_all(self, monkeypatch):
        self.break_embed(monkeypatch, VerificationError)
        code, report = run("all")
        assert code == 1
        assert report["status"] == "fail"
        statuses = {block["suite"]: block["status"] for block in report["suites"]}
        assert statuses == {s: "error" if s == "odd" else "pass" for s in SUITES}
        json.dumps(report)


class TestLazySuites:
    """``cli`` binds the suite modules lazily: a run executes the modules
    of the suites it runs and no others.  A module that is registered
    but has not run is still a lazy subclass of ``ModuleType``, and
    ``type`` reads that without running it."""

    CHILD = """
import contextlib, io, json, sys, types
from spincert.cli import main

def modules():
    return {
        name: type(module) is types.ModuleType
        for name, module in sys.modules.items()
        if name.startswith("spincert.")
    }

with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["run", "instanton"])]
    instanton = modules()
    codes.append(main(["run", "all", "--triples", "1"]))
print(json.dumps({"codes": codes, "instanton": instanton, "all": modules()}))
"""

    @pytest.fixture(scope="class")
    def child(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", self.CHILD],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        return json.loads(out.stdout)

    def test_run_instanton_runs_no_other_suite_module(self, child):
        assert child["codes"] == [0, 0]
        ran = child["instanton"]
        for name in ("hyperell", "oddmoduli", "nrmoduli", "repsl2", "thetachar"):
            assert ran["spincert." + name] is False, name
        # only nrmoduli imports it, and nrmoduli has not run
        assert ran.get("spincert._rtable_alt") is not True
        for name in ("cli", "instanton", "clifford", "exactalg", "exactalg.polys"):
            assert ran["spincert." + name] is True, name

    def test_run_all_runs_every_module(self, child):
        root = Path(cli.__file__).resolve().parent
        modules = {
            ".".join(("spincert",) + path.relative_to(root).with_suffix("").parts)
            for path in root.rglob("*.py")
            if path.name != "__init__.py"
        }
        assert modules <= set(child["all"])
        assert [name for name in sorted(modules) if not child["all"][name]] == []


class TestNegativeControls:
    def test_instanton_report_frozen(self):
        code, report = run("instanton")
        assert code == 0
        sd_keys = ["1,2", "1,3", "1,4", "2,3", "2,4", "3,4"]
        assert _strip_times(report) == {
            "schema": 1,
            "seed": DEFAULT_SEED,
            "status": "pass",
            "suites": [
                {
                    "suite": "instanton",
                    "conventions": {
                        "asd_spinor_block": "S+",
                        "perturbed_input": False,
                    },
                    "status": "pass",
                    "failed_checks": [],
                    "checks": [
                        {
                            "name": "anti_self_dual_curvature",
                            "status": "pass",
                            "details": {
                                "self_dual_part_components": [],
                                "passed": True,
                            },
                        },
                        {
                            "name": "bianchi_identity",
                            "status": "pass",
                            "details": {"nonzero_components": [], "passed": True},
                        },
                        {
                            "name": "yang_mills_equations",
                            "status": "pass",
                            "details": {"nonzero_components": [], "passed": True},
                        },
                        {
                            "name": "coupled_dirac_solutions",
                            "status": "pass",
                            "details": {
                                "check": "curvature_dirac_solutions",
                                "convention_record": {
                                    "acts_on": "S+",
                                    "relabeled": False,
                                },
                                "connection_asd": True,
                                "degenerate": False,
                                "residual_zero": [True, True, True, True],
                                "independent_count": 4,
                                "passed": True,
                            },
                        },
                        {
                            "name": "perturbed_control",
                            "status": "pass",
                            "details": {
                                "self_dual_part_components": sd_keys,
                                "yang_mills_components": [
                                    "1,2,3",
                                    "1,2,4",
                                    "1,3,4",
                                    "2,3,4",
                                ],
                                "passed": True,
                            },
                        },
                    ],
                }
            ],
        }

    def test_perturbed_instanton_names_components(self):
        code, report = run("instanton", perturb=True)
        assert code == 1
        block = report["suites"][0]
        assert block["status"] == "fail"
        assert "anti_self_dual_curvature" in block["failed_checks"]
        asd = _check(block, "anti_self_dual_curvature")
        assert asd["details"]["self_dual_part_components"] == [
            "1,2",
            "1,3",
            "1,4",
            "2,3",
            "2,4",
            "3,4",
        ]
        dirac = _check(block, "coupled_dirac_solutions")
        assert dirac["details"]["residual_zero"] == [False, False, False, False]
        control = _check(block, "perturbed_control")
        assert control["status"] == "skipped"

    def test_perturbed_nr_fails_consistency(self):
        code, report = run("nr", perturb=True)
        assert code == 1
        block = report["suites"][0]
        assert block["failed_checks"] == ["quadratic_differential_consistency"]
        bad = _check(block, "quadratic_differential_consistency")
        assert bad["details"]["consistent"] is False


class TestFlags:
    @pytest.mark.parametrize("branch", ["0,1,2,3,4,5", "1,2,3,5,8,13"])
    def test_branch_kernels_in_report(self, branch):
        # the kernels never read the branch x-values
        code, report = run("nr", branch=branch)
        assert code == 0
        details = _check(report["suites"][0], "branch_kernels")["details"]
        _, plain = run("nr")
        assert details == _check(plain["suites"][0], "branch_kernels")["details"]
        kernels = details["kernels"]
        assert sorted(kernels) == ["1", "2", "3", "4", "5", "6"]
        for entry in kernels.values():
            assert entry["dimension"] == 1
            assert len(entry["generator"]) == 4
        assert kernels["1"]["reduced_generator"] == [
            "1*q2",
            "-1*q1",
            "1*q4",
            "-1*q3",
        ]

    def test_theta_genus_selection_and_cost_guard(self):
        code, report = run("theta", g="2,6")
        assert code == 0
        block = report["suites"][0]
        names = {c["name"]: c["status"] for c in block["checks"]}
        assert names == {
            "parity_counts_g2": "pass",
            "arf_crosscheck_g2": "pass",
            "parity_counts_g6": "pass",
            "arf_crosscheck_g6": "skipped",
        }

    def test_repsl2_degree_selection(self):
        code, report = run("repsl2", m="1")
        assert code == 0
        names = [c["name"] for c in report["suites"][0]["checks"]]
        assert names == [
            "pairing_invariance_m1",
            "contraction_equivariance_m1",
            "nilpotency_m1",
        ]

    def test_malformed_lists_rejected(self):
        with pytest.raises(ValueError):
            run("repsl2", m="1,x")
        with pytest.raises(ValueError):
            run("nr", branch="0,1,2")


class TestCurveFixture:
    def test_valid_fixture(self, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text(_fixture_text((-1, 0, 1, 2, 3, 4)))
        curve = load_curve_fixture(str(path))
        assert curve.genus == 2
        code, report = run("parity", curve=str(path))
        assert code == 0
        assert report["suites"][0]["conventions"]["curve"][0] == "0"

    def test_odd_and_parity_on_second_curve(self, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text(_fixture_text((0, 1, 2, 3, 4, -14)))
        for argv in (
            ["run", "odd", "--seed", "3", "--triples", "2"],
            ["run", "parity"],
        ):
            out = tmp_path / "report.json"
            assert main(argv + ["--curve", str(path), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["suites"][0]["conventions"]["curve"][1] == "336"

    def test_genus_mismatch(self, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text("3\n" + _fixture_text((-1, 0, 1, 2, 3, 4)).split("\n")[1])
        with pytest.raises(ValueError):
            load_curve_fixture(str(path))

    def test_malformed_coefficients(self, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text("2\nnot a polynomial\n")
        with pytest.raises(ValueError):
            load_curve_fixture(str(path))

    def test_missing_line(self, tmp_path):
        path = tmp_path / "curve.txt"
        path.write_text("2\n")
        with pytest.raises(ValueError):
            load_curve_fixture(str(path))


class TestMain:
    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "clifford", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["suites"][0]["suite"] == "clifford"
        assert capsys.readouterr().out == ""

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "r.json"
        code = main(["run", "clifford", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_stdout_json(self, capsys):
        code = main(["run", "repsl2", "--m", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"

    def test_suite_flag_equivalent(self, capsys):
        code = main(["run", "--suite", "repsl2", "--m", "3"])
        assert code == 0
        capsys.readouterr()

    def test_conflicting_suites(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "clifford", "--suite", "theta"])
        capsys.readouterr()

    def test_suite_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])
        capsys.readouterr()

    def test_unknown_suite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "nosuch"])
        assert info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "theta", "--g", "0"],
            ["run", "theta", "--g=-1"],
            ["run", "theta", "--g", "2,7"],
            ["run", "repsl2", "--m", "0"],
            ["run", "repsl2", "--m", "2"],
            ["run", "odd", "--triples", "-3"],
            ["run", "theta", "--g", "1,1"],
            ["run", "repsl2", "--m", "1,1"],
            ["run", "theta", "--g", "2,6,2"],
        ],
    )
    def test_bad_arguments_exit_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "repsl2", "--m", ","],
            ["run", "repsl2", "--m", ""],
            ["run", "theta", "--g", ","],
            ["run", "theta", "--g", ""],
            ["run", "nr", "--branch", ""],
            ["run", "parity", "--curve", ""],
            # an empty token inside a list is malformed, not skipped
            ["run", "repsl2", "--m", "1,,3"],
            ["run", "theta", "--g", "2,"],
            ["run", "nr", "--branch", ",0,1,2,3,4,5"],
        ],
    )
    def test_empty_values_exit_two(self, argv, capsys):
        # a flag given with no value is bad input, not the default
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_empty_lists_rejected_by_run(self):
        with pytest.raises(ValueError):
            run("repsl2", m="")
        with pytest.raises(ValueError):
            run("theta", g="")

    @pytest.mark.parametrize("option", ["m", "g"])
    @pytest.mark.parametrize("value", [(True,), (1,)], ids=repr)
    def test_list_options_take_text_only(self, option, value):
        # a bool is an int, so a tuple (True,) used to run the m = 1 or
        # g = 1 checks and report [true]
        with pytest.raises(TypeError):
            run("repsl2" if option == "m" else "theta", **{option: value})

    def test_omitted_lists_run_the_defaults(self, capsys):
        assert main(["run", "repsl2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"][0]["conventions"]["degrees"] == [1, 3, 5]
        assert main(["run", "theta"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in report["suites"][0]["checks"]]
        assert [n for n in names if n.startswith("parity_counts")] == [
            "parity_counts_g%d" % g for g in range(1, 7)
        ]

    def test_fixture_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\nbroken\n")
        code = main(["run", "parity", "--curve", str(path)])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "all", "--seed", "9", "--triples", "5"])
        assert args.suite_pos == "all"
        assert args.seed == 9
        assert args.triples == 5


# ----------------------------------------------------------------------
# argv fuzz: exit 2 exactly on bad input, never a traceback
# ----------------------------------------------------------------------

# the odd and parity suites and ``run all`` cost too much per draw
_CHEAP_SUITES = ("clifford", "instanton", "nr", "repsl2", "theta")

# per flag: the tokens the grammar accepts, then tokens it rejects
_LIST_TOKENS = {
    "--m": (("1", "3", "5"), ("0", "2", "-1", "x", "1.5", "")),
    "--g": (("1", "2", "3", "4", "5", "6"), ("0", "7", "-2", "y", "")),
    "--branch": (("0", "1", "2", "3", "4", "5", "-1", "1/2", "7/3"), ("x", "1/0", "")),
}
_SCALAR_TOKENS = {
    "--seed": (("0", "7", "1729", "-3"), ("x", "1.5", "")),
    "--triples": (("0", "1", "3"), ("-1", "two", "")),
}


def _list_is_valid(flag, text):
    """A list value is valid when it is nonempty, its tokens are all
    accepted and distinct, and a branch list has exactly six."""
    accepted = _LIST_TOKENS[flag][0]
    tokens = text.split(",") if text else []
    if flag == "--branch" and len(tokens) != 6:
        return False
    return (
        bool(tokens)
        and len(set(tokens)) == len(tokens)
        and all(t in accepted for t in tokens)
    )


@st.composite
def cli_argv(draw):
    """(argv, valid): a run command drawn from the CLI grammar, with
    valid and invalid values for each flag, and whether the grammar
    accepts it.  Half the draws keep to accepted tokens, so that valid
    commands come up often; validity is judged from the tokens alone."""
    clean = draw(st.booleans())
    suites = st.sampled_from(_CHEAP_SUITES + (() if clean else ("nosuch",)))
    positional = draw(suites if clean else st.none() | suites)
    option = draw(st.none() | (st.just(positional) if clean else suites))
    given_names = [s for s in (positional, option) if s is not None]
    valid = (
        bool(given_names)
        and all(s in _CHEAP_SUITES for s in given_names)
        and len(set(given_names)) == 1
    )
    flags = []
    for flag, (accepted, rejected) in _LIST_TOKENS.items():
        if draw(st.booleans()):
            if clean:
                size = (6, 6) if flag == "--branch" else (1, len(accepted))
                tokens = st.lists(
                    st.sampled_from(accepted),
                    min_size=size[0],
                    max_size=size[1],
                    unique=True,
                )
            else:
                tokens = st.lists(st.sampled_from(accepted + rejected), max_size=7)
            text = ",".join(draw(tokens))
            valid = valid and _list_is_valid(flag, text)
            flags.append("%s=%s" % (flag, text))
    for flag, (accepted, rejected) in _SCALAR_TOKENS.items():
        if draw(st.booleans()):
            text = draw(st.sampled_from(accepted if clean else accepted + rejected))
            valid = valid and text in accepted
            flags.append("%s=%s" % (flag, text))
    if option is not None:
        flags.append("--suite=%s" % option)
    if draw(st.booleans()):
        flags.append("--perturb")
    argv = ["run"] + ([positional] if positional else []) + draw(st.permutations(flags))
    return argv, valid


@given(cli_argv())
@settings(max_examples=80, deadline=None)
def test_argv_fuzz_exits_two_exactly_on_bad_input(case):
    argv, valid = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), argv
    assert (code == 2) == (not valid), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 2:
        report = json.loads(out.getvalue())
        assert report["status"] == ("pass" if code == 0 else "fail")


@pytest.mark.parametrize("valid", [True, False])
def test_argv_draws_reach_valid_and_invalid_commands(valid):
    find(
        cli_argv(),
        lambda case: case[1] == valid,
        settings=settings(max_examples=200, database=None, phases=[Phase.generate]),
    )
