"""The runtime uses only the standard library: running every spincert
module in a fresh interpreter loads no third-party package.  And every
name a spincert module imports is used there or exported through its
``__all__``, so a deletion cannot strand an import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import spincert

_CHILD = """
import importlib, json, pkgutil, sys
startup = {name.split(".")[0] for name in sys.modules}
import spincert
for info in pkgutil.walk_packages(spincert.__path__, "spincert."):
    # cli binds the suite modules lazily, and import_module need not run
    # such a module (CPython 3.10's does not); reading its namespace does
    vars(importlib.import_module(info.name))
loaded = {name.split(".")[0] for name in sys.modules}
print(json.dumps({"startup": sorted(startup), "loaded": sorted(loaded)}))
"""


def test_every_module_imports_only_the_standard_library():
    src = str(Path(spincert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    names = json.loads(out.stdout)
    # what the interpreter loaded before spincert (site hooks, __main__)
    # is not spincert's doing
    added = set(names["loaded"]) - set(names["startup"])
    assert "spincert" in added
    foreign = sorted(
        n for n in added if n != "spincert" and n not in sys.stdlib_module_names
    )
    assert foreign == []


def _imported_names(tree):
    """(name, line) for every binding made by an import statement,
    ``from __future__`` imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used_or_exported():
    root = Path(spincert.__file__).resolve().parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _exported_names(tree)
        for name, line in _imported_names(tree):
            if name not in used:
                unused.append("%s:%d %s" % (path.relative_to(root), line, name))
    assert unused == []


# every runner in cli._RUNNERS takes the parsed options, used or not
_UNREAD_PARAMETER_ALLOWLIST = {"cli.py:run_clifford": {"opts"}}


def test_every_parameter_is_read():
    # a parameter no body reads is an option no caller can rely on
    root = Path(spincert.__file__).resolve().parent
    unread = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for stmt in fn.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            key = "%s:%s" % (path.relative_to(root).as_posix(), fn.name)
            allowed = _UNREAD_PARAMETER_ALLOWLIST.get(key, set())
            for p in params:
                if p.arg in ("self", "cls") or p.arg in allowed:
                    continue
                if p.arg not in read:
                    unread.append("%s(%s)" % (key, p.arg))
    assert unread == []
