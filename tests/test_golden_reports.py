"""Frozen CLI reports: each run's JSON report, with the volatile
``generated`` and ``elapsed_ms`` fields removed, must equal its checked-in
golden file byte for byte, and the run must exit with the recorded code.

The golden files under ``tests/golden`` were written by
``spincert run ... --out`` and then stripped of those two fields; a
change to a report's contents has to update them on purpose.

The shape test covers the golden runs and the ``--perturb`` runs: every
check status is one of four, check names are unique within a suite, and
the only floats in a report are ``elapsed_ms`` timings, so no computed
value ever reaches the report as a float.

The hash-seed test makes two golden runs in fresh interpreters under
``PYTHONHASHSEED`` 0 and 1: places hash their kind string, so a divisor
or a check whose order came from a set of places would show here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincert
from spincert.cli import main
from spincert.hyperell import Place

GOLDEN = Path(__file__).parent / "golden"
FIXTURE = str(GOLDEN / "curve_roots_0_1_2_3_4_-14.txt")
# 4 x (x - 1/2) (x - 1) (x - 3/2) (x - 2) (x + 7/3): branch points and
# slopes with denominators above 1
HALVES = str(GOLDEN / "curve_roots_0_1-2_1_3-2_2_-7-3.txt")

RUNS = [
    ("run_all_seed1729", ["run", "all", "--seed", "1729"], 0),
    (
        "run_odd_fixture_seed3_triples2",
        ["run", "odd", "--curve", FIXTURE, "--seed", "3", "--triples", "2"],
        0,
    ),
    ("run_parity_fixture", ["run", "parity", "--curve", FIXTURE], 0),
    # the degrees 7 and 9 that run_all_seed1729 does not reach
    ("run_repsl2_m7_9", ["run", "repsl2", "--m", "1,3,5,7,9"], 0),
    (
        "run_odd_halves_seed3_triples8",
        ["run", "odd", "--curve", HALVES, "--seed", "3", "--triples", "8"],
        0,
    ),
    ("run_parity_halves", ["run", "parity", "--curve", HALVES], 0),
    ("run_instanton", ["run", "instanton"], 0),
    # the negative control: its lists of nonzero components are pinned
    ("run_instanton_perturb", ["run", "instanton", "--perturb"], 1),
]


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


def stripped_report_text(path):
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    return json.dumps(_strip_times(report), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name, argv, code", RUNS, ids=[r[0] for r in RUNS])
def test_report_matches_golden(name, argv, code, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    want = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert stripped_report_text(out) == want


_CLI_CHILD = "import sys; from spincert.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("name, argv, code", RUNS[:2], ids=[r[0] for r in RUNS[:2]])
def test_report_ignores_the_hash_seed(name, argv, code, hash_seed, tmp_path):
    src = str(Path(spincert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = tmp_path / "report.json"
    child = subprocess.run(
        [sys.executable, "-c", _CLI_CHILD, *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert child.returncode == code
    want = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert stripped_report_text(out) == want


@pytest.mark.parametrize("name, argv, code", RUNS, ids=[r[0] for r in RUNS])
def test_run_builds_no_local_series(name, argv, code, tmp_path, monkeypatch):
    # the Riemann-Roch rows read truncated square roots, so no
    # production run expands a place's local series
    calls = []
    monkeypatch.setattr(
        Place, "_compute_series", lambda self, prec: calls.append((self, prec))
    )
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == code
    assert calls == []


SHAPE_RUNS = RUNS + [
    ("run_nr_perturb", ["run", "nr", "--perturb"], 1),
    ("run_all_perturb", ["run", "all", "--perturb"], 1),
]
STATUSES = {"pass", "fail", "skipped", "error"}


def _stray_floats(obj, path="report"):
    """Paths of the floats in a parsed report that do not sit under an
    ``elapsed_ms`` key."""
    if isinstance(obj, float):
        return [path]
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    return [
        p
        for key, value in items
        if key != "elapsed_ms" or not isinstance(value, float)
        for p in _stray_floats(value, "%s[%r]" % (path, key))
    ]


@pytest.mark.parametrize("name, argv, code", SHAPE_RUNS, ids=[r[0] for r in SHAPE_RUNS])
def test_report_shape(name, argv, code, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["suites"]
    for block in report["suites"]:
        names = [check["name"] for check in block["checks"]]
        assert len(names) == len(set(names)), block["suite"]
        assert {check["status"] for check in block["checks"]} <= STATUSES
    assert _stray_floats(report) == []
