"""The ``test`` extra of pyproject.toml pins the versions that the CI
workflow installs, so ``pip install -e .[test]`` draws the same
derandomized hypothesis examples as CI does.  The files are read as
text: ``tomllib`` is not in the standard library before CPython 3.11."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PIN = re.compile(r"([A-Za-z0-9_.-]+)==([A-Za-z0-9_.+-]+)")


def _pins(path, marker):
    """{name: version} of the ``name==version`` pins on the one line of
    the file that contains ``marker``."""
    lines = [
        line
        for line in (ROOT / path).read_text(encoding="utf-8").splitlines()
        if marker in line
    ]
    assert len(lines) == 1, (path, marker, lines)
    return dict(_PIN.findall(lines[0]))


def test_test_extra_pins_the_ci_versions():
    ci = _pins(".github/workflows/tier1.yml", "pip install pytest")
    extra = _pins("pyproject.toml", "test = [")
    assert ci and set(ci) == {"pytest", "hypothesis", "sympy"}
    assert extra == ci
