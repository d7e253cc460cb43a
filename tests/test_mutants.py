"""Every mutant of the ledger in ``tests/mutants.py`` still names a
snippet that occurs exactly once in its file, and tests that are
defined in their test files, so the ledger keeps breaking the code it
was written for and a deleted or renamed test fails here, not only when
the ledger runs.  The ledger itself runs with
``PYTHONPATH=src python tests/mutants.py``, or with mutant names after
it to run only those."""

import ast

import pytest

from mutants import MUTANTS, PACKAGE, ROOT, main


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_snippet_occurs_once(mutant):
    name, path, snippet, replacement, tests = mutant
    assert snippet != replacement
    assert (PACKAGE / path).read_text(encoding="utf-8").count(snippet) == 1


def _defined(path, names):
    """Whether the test node names (a function or class at the top of
    the file, then a method of that class) are defined in the file."""
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [
            node
            for node in scope
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_named_tests_are_defined(mutant):
    for test in mutant[4]:
        path, *names = test.split("::")
        # a parametrized node id names its function before the brackets
        names[-1] = names[-1].split("[")[0]
        assert names and _defined(ROOT / path, names), test


def _fake_runs(monkeypatch):
    """Record the mutant of each ledger run instead of running pytest:
    the named tests pass on the unmutated code and kill every mutant."""
    runs = []
    monkeypatch.setattr(
        "mutants.failed",
        lambda tests, mutant=None: runs.append(mutant) or mutant is not None,
    )
    return runs


def test_named_mutants_run_alone_in_ledger_order(monkeypatch):
    runs = _fake_runs(monkeypatch)
    first, last = MUTANTS[0], MUTANTS[-1]
    assert main([last[0], first[0]]) == 0
    assert runs == [None, first, last]


def test_unknown_mutant_name_exits_2_before_any_run(monkeypatch, capsys):
    runs = _fake_runs(monkeypatch)
    assert main([MUTANTS[0][0], "no_such_mutant"]) == 2
    assert runs == []
    assert "no_such_mutant" in capsys.readouterr().out
