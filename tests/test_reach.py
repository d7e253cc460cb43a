"""Reach ledger: every function in ``src/spincert``, dunder methods
included, is either reached by the command-line runs below or named
with the reason it stays, in ``ALLOWLIST`` for ordinary functions and in
``DUNDER_ALLOWLIST`` for protocol methods.  A new function that no run
reaches fails here, and so does an allowlisted function that a run now
reaches, which keeps the lists true.

The runs are every golden invocation of ``test_golden_reports.RUNS``
(the ``run instanton --perturb`` control among them), ``run nr
--perturb`` and two bad-argument runs, made in process under
``sys.setprofile``, and the ``import spincert.cli`` that starts every
command-line run, profiled alike in a fresh interpreter.

A function is keyed by its file and the line of its first decorator (or
of ``def`` when it has none), which is the line CPython records as the
code object's ``co_firstlineno``.  Every module of the package is run
before the profile starts, so a function that only a module's import
calls counts as unreached; the import of ``cli`` is the exception, and
it runs no suite module, since ``cli`` binds those lazily.  A
class-level alias such as ``__rmul__ = __mul__`` shares its target's
code object, so the profiler cannot tell a call through it
from a call of the target; for the runs each alias is rebound to a
counting wrapper, keyed ``path:Class.__rmul__``, and put back after.
The module runs without pytest, so
``PYTHONPATH=src python tests/test_reach.py`` prints the unreached
functions and the unreached dunders, aliases among them, as two
groups."""

import ast
import contextlib
import functools
import importlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import test_golden_reports

import spincert
from spincert.cli import main

SRC = Path(spincert.__file__).resolve().parent

RUNS = tuple((argv, code) for _, argv, code in test_golden_reports.RUNS) + (
    (["run", "nr", "--perturb"], 1),
    (["run", "theta", "--g", "0"], 2),
    (["run", "repsl2", "--m", "2"], 2),
)

_SERIES = (
    "series or RatFunc code: the benchmark tracer binds its names, so it "
    "stays in src until ROADMAP item 4 moves it to the tests"
)

ALLOWLIST = {
    "exactalg/polys.py:PolyRing.parse": (
        "reads the report's kernel generator strings back (acceptance criterion 6)"
    ),
    "exactalg/polys.py:PolyRing._parse_term": "one term of PolyRing.parse",
    # only RatFunc calls these two
    "exactalg/polys.py:MultiPoly.constant_value": _SERIES,
    "exactalg/polys.py:MultiPoly.is_constant": _SERIES,
    "exactalg/polys.py:MultiPoly.derivative": (
        "only RatFunc.derivative and the tests' entry oracle call it; an "
        "instanton entry is differentiated by the one-pass entry sum"
    ),
    "exactalg/scalars.py:GaussianField.one": (
        "PolyRing.gen builds a generator over Q(i) with it; instanton builds "
        "all of its generators when it loads, before any run"
    ),
    "exactalg/ratfunc.py:RatFunc._coerce": _SERIES,
    "exactalg/ratfunc.py:RatFunc.as_poly": _SERIES,
    "exactalg/ratfunc.py:RatFunc.derivative": _SERIES,
    "exactalg/ratfunc.py:RatFunc.eval": _SERIES,
    "exactalg/ratfunc.py:RatFunc.is_polynomial": _SERIES,
    "exactalg/ratfunc.py:RatFunc.ring": _SERIES,
    "hyperell.py:FieldElem.expand_at": _SERIES,
    "hyperell.py:LSeries.coeff": _SERIES,
    "hyperell.py:LSeries.invert": _SERIES,
    "hyperell.py:LSeries.is_plainly_zero": _SERIES,
    "hyperell.py:LSeries.shift": _SERIES,
    "hyperell.py:LSeries.sqrt": _SERIES,
    "hyperell.py:LSeries.term": _SERIES,
    "hyperell.py:LSeries.truncate": _SERIES,
    "hyperell.py:LSeries.val": _SERIES,
    "hyperell.py:LSeries.zero": _SERIES,
    "hyperell.py:Place._compute_series": _SERIES,
    "hyperell.py:Place.local_series": _SERIES,
    "hyperell.py:_prec_pad": _SERIES,
    "hyperell.py:_fr": _SERIES,
    "hyperell.py:poly_at_series": _SERIES,
    "hyperell.py:HyperCurve.split_place": (
        "validates split support in _rr_system and sigma_place; no suite "
        "input has split support, the row oracle tests it"
    ),
    "hyperell.py:_taylor": (
        "shifts f to a split place for _rr_system; no suite input has split "
        "support, the row oracle tests it"
    ),
    "instanton.py:sd_asd_split": (
        "the public duality split that acceptance criterion 2 reads; runs "
        "need only its self-dual part"
    ),
    "oddmoduli.py:standard_embedding": (
        "the embedding acceptance criterion 7 certifies"
    ),
    "thetachar.py:QuadFormGF2.arf_by_majority": (
        "the basis-free Arf oracle for the quadratic-form model"
    ),
    "thetachar.py:QuadFormGF2.value": "the form that arf_by_majority counts zeros of",
}

# Reasons a protocol method stays although no run calls it.
_MESSAGE = "a src error message formats it"
_SHOWN = "hypothesis prints drawn values with it when a property test fails"
_TEST_EQ = "tests compare values with it; no run does"
_HASH = "tests hash equal values alike, or keep them in sets"
_SU2 = (
    "su(2) arithmetic: sd_asd_split takes F - F_plus with it, and tests "
    "compose triples with it; a run builds every triple with the kernel"
)

DUNDER_ALLOWLIST = {
    # only RatFunc.__pow__ calls it
    "exactalg/polys.py:MultiPoly.__pow__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__add__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__radd__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__rmul__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__bool__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__eq__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__hash__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__init__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__mul__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__neg__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__pow__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__repr__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__rsub__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__rtruediv__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__str__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__sub__": _SERIES,
    "exactalg/ratfunc.py:RatFunc.__truediv__": _SERIES,
    "hyperell.py:LSeries.__add__": _SERIES,
    "hyperell.py:LSeries.__init__": _SERIES,
    "hyperell.py:LSeries.__mul__": _SERIES,
    "hyperell.py:LSeries.__neg__": _SERIES,
    "hyperell.py:LSeries.__repr__": _SERIES,
    "hyperell.py:LSeries.__sub__": _SERIES,
    "exactalg/polys.py:MultiPoly.__rmul__": (
        "perfbench/tracing.py rebinds it by identity to the traced __mul__"
    ),
    "exactalg/polys.py:MultiPoly.__radd__": (
        "sums that start from the int 0, as sum() and the transvectant "
        "oracle's do, add a MultiPoly to 0 with it"
    ),
    "exactalg/scalars.py:Gaussian.__init__": (
        "the public constructor: clifford builds its unit i with it at "
        "import, and tests build values with it; every value a run computes "
        "comes from the normal-form constructor scalars._qi"
    ),
    "exactalg/scalars.py:Gaussian.__str__": (
        "MultiPoly.to_str and Multivector.__str__ format coefficients with it"
    ),
    "clifford.py:Multivector.__str__": _MESSAGE,
    "exactalg/scalars.py:Gaussian.__repr__": _MESSAGE,
    "hyperell.py:FieldElem.__repr__": _MESSAGE,
    "hyperell.py:Place.__repr__": _MESSAGE,
    "exactalg/upoly.py:UPoly.__repr__": _MESSAGE,
    "oddmoduli.py:PointTriple.__repr__": _MESSAGE,
    "exactalg/polys.py:MultiPoly.__repr__": _SHOWN,
    "hyperell.py:Divisor.__repr__": _SHOWN,
    "instanton.py:Su2.__repr__": _SHOWN,
    "instanton.py:_RhoFrac.__repr__": _SHOWN,
    "oddmoduli.py:PlaneP3.__repr__": _SHOWN,
    "repsl2.py:BinaryForm.__repr__": _SHOWN,
    "clifford.py:Multivector.__eq__": _TEST_EQ,
    "instanton.py:Su2.__eq__": _TEST_EQ,
    "instanton.py:_RhoFrac.__eq__": _TEST_EQ,
    "oddmoduli.py:PlaneP3.__eq__": _TEST_EQ,
    "repsl2.py:BinaryForm.__eq__": _TEST_EQ,
    "thetachar.py:CharClass.__eq__": _TEST_EQ,
    "hyperell.py:Place.__eq__": (
        "value equality of places on distinct but equal curves; a run meets "
        "only the interned place of its curve, which dicts find by identity"
    ),
    "exactalg/polys.py:PolyRing.__eq__": (
        "the ring check of MultiPoly operands and of instanton entries: a "
        "run's polynomials share their ring object, which MultiPoly._check "
        "finds by identity, and only tests hand an entry a bare MultiPoly"
    ),
    "exactalg/polys.py:MultiPoly.__hash__": _HASH,
    "exactalg/polys.py:PolyRing.__hash__": _HASH,
    "exactalg/scalars.py:Gaussian.__hash__": _HASH,
    "exactalg/upoly.py:UPoly.__hash__": _HASH,
    "thetachar.py:CharClass.__hash__": _HASH,
    "instanton.py:_RhoFrac.__neg__": (
        "entry negation for Su2.__neg__ and for tests; a run negates "
        "through the kernel's -1 coefficients"
    ),
    "instanton.py:_RhoFrac.__add__": (
        "tests compose entries with it; a run adds through the kernel"
    ),
    "instanton.py:_RhoFrac.__rmul__": (
        "tests compose entries with it; a run writes every entry product "
        "with the entry on the left"
    ),
    "instanton.py:_RhoFrac.__sub__": (
        "entry difference for Su2.__sub__ and _RhoFrac.__eq__, which tests "
        "compare with; a run subtracts through the kernel's -1 coefficients"
    ),
    "instanton.py:Su2.__add__": _SU2,
    "instanton.py:Su2.__neg__": _SU2,
    "instanton.py:Su2.__sub__": _SU2,
    "hyperell.py:FieldElem.__neg__": (
        "tests write functions such as -y with it, and the zero test checks x - x"
    ),
    "hyperell.py:FieldElem.__sub__": (
        "tests write functions such as x - 1 with it, and the zero test checks x - x"
    ),
}


def _is_dunder(name):
    short = name.rsplit(".", 1)[-1]
    return short.startswith("__") and short.endswith("__")


def _functions():
    """{(filename, first line): "path:qualname"} for every function and
    method under SRC, dunders included."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = child.decorator_list[0] if child.decorator_list else child
                    out[(str(path), first.lineno)] = "%s:%s" % (rel, name)
                    walk(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _module_name(rel):
    """The module of a file path relative to SRC."""
    name = "spincert." + rel[: -len(".py")].replace("/", ".")
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


def _aliases():
    """{"path:Class.__rop__": (module, class name, attribute)} for every
    class-level ``__rop__ = __op__`` alias of a method under SRC."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        module = _module_name(rel)
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Name)
                    and _is_dunder(stmt.value.id)
                ):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and _is_dunder(target.id):
                            name = "%s:%s.%s" % (rel, cls.name, target.id)
                            out[name] = (module, cls.name, target.id)
    return out


# the calls that importing cli makes, as (file, first line) pairs
_IMPORT_CLI = """
import json, sys
seen = set()
def profile(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
import spincert.cli
sys.setprofile(None)
print(json.dumps(sorted(seen)))
"""


def _import_calls():
    env = dict(os.environ)
    src = str(SRC.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLI],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return {tuple(pair) for pair in json.loads(out.stdout)}


def _counting(fn, name, seen):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        seen.add(name)
        return fn(*args, **kwargs)

    return wrapper


def unreached():
    """Names of the functions and aliases under SRC that none of RUNS
    calls."""
    seen = _import_calls()
    seen_aliases = set()
    aliases = []
    # run the modules that cli bound lazily, so that no import runs
    # under the profile
    for path in sorted(SRC.rglob("*.py")):
        vars(importlib.import_module(_module_name(path.relative_to(SRC).as_posix())))
    for name, (module, cls_name, attr) in _aliases().items():
        cls = getattr(importlib.import_module(module), cls_name)
        aliases.append((name, cls, attr, vars(cls)[attr]))

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    old, old_thread = sys.getprofile(), threading.getprofile()
    sink = io.StringIO()
    codes = []
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for name, cls, attr, fn in aliases:
            setattr(cls, attr, _counting(fn, name, seen_aliases))
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv, _ in RUNS:
                codes.append(main(argv))
    finally:
        sys.setprofile(old)
        threading.setprofile(old_thread)
        for _, cls, attr, fn in aliases:
            setattr(cls, attr, fn)
    assert codes == [code for _, code in RUNS], codes
    seen = {(os.path.realpath(f), line) for f, line in seen}
    dead = {
        name
        for (path, line), name in _functions().items()
        if (os.path.realpath(path), line) not in seen
    }
    return dead | {name for name, *_ in aliases if name not in seen_aliases}


def test_unreached_functions_are_the_allowlist():
    dead = unreached()
    listed = set(ALLOWLIST) | set(DUNDER_ALLOWLIST)
    new = sorted(dead - listed)
    assert not new, "no run reaches these; delete or allowlist them: %s" % new
    reached = sorted(listed - dead)
    assert not reached, "a run reaches these; drop them from the allowlists: %s" % reached


def test_every_allowlist_entry_names_a_function_and_a_reason():
    names = set(_functions().values()) | set(_aliases())
    for allowlist, dunders in ((ALLOWLIST, False), (DUNDER_ALLOWLIST, True)):
        for name, reason in allowlist.items():
            assert name in names, name
            assert _is_dunder(name) == dunders, name
            assert reason.strip(), name


if __name__ == "__main__":
    dead = sorted(unreached())
    for title, dunders in (("functions", False), ("dunders", True)):
        group = [name for name in dead if _is_dunder(name) == dunders]
        print("unreached %s (%d):" % (title, len(group)))
        for name in group:
            print("  " + name)
