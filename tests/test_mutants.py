"""Every mutant of the ledger in ``tests/mutants.py`` still names a
snippet that occurs exactly once in its file, so the ledger keeps
breaking the code it was written for.  The ledger itself runs with
``PYTHONPATH=src python tests/mutants.py``."""

import pytest

from mutants import MUTANTS, PACKAGE


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_snippet_occurs_once(mutant):
    name, path, snippet, replacement, tests = mutant
    assert snippet != replacement
    assert (PACKAGE / path).read_text(encoding="utf-8").count(snippet) == 1
