"""Layering of the package: ``exactalg`` owns every scalar and
polynomial type and is the substrate the geometry modules build on, so
no module under it imports one of them, and the dense polynomial class
and its integer kernel are defined in ``exactalg.upoly`` alone.  Both
checks read the source, so a function-level import counts too."""

import ast
from pathlib import Path

import spincert
from spincert.exactalg import UPoly

SRC = Path(spincert.__file__).resolve().parent
GEOMETRY = (
    "hyperell",
    "instanton",
    "oddmoduli",
    "nrmoduli",
    "repsl2",
    "thetachar",
    "clifford",
    "cli",
)
UPOLY_NAMES = (
    "UPoly",
    "_qq",
    "_upoly",
    "_ZERO",
    "_ONE",
    "_normal",
    "_sum",
    "_horner",
    "_pseudo_divmod",
    "_divisors",
    "_root_order",
    "_strip_root",
    "rational_sqrt",
)


def _imported_modules(path, package):
    """Absolute names of every module an import in a file of the package
    may load: for ``from m import n`` both m and m.n, as n may be a
    submodule."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = base + "." + node.module if node.module else base
            else:
                module = node.module
            yield module
            yield from (module + "." + alias.name for alias in node.names)


def test_exactalg_imports_no_geometry_module():
    paths = sorted((SRC / "exactalg").glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for module in _imported_modules(path, "spincert.exactalg"):
            for name in GEOMETRY:
                top = "spincert." + name
                if module == top or module.startswith(top + "."):
                    found.append("%s: %s" % (path.relative_to(SRC).as_posix(), module))
    assert found == []


def test_upoly_lives_in_exactalg_alone():
    assert UPoly.__module__ == "spincert.exactalg.upoly"
    tree = ast.parse((SRC / "hyperell.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert defined, "hyperell defines nothing"
    assert sorted(defined & set(UPOLY_NAMES)) == []
