"""One immutability rule for every class under ``src/spincert``: an
object's attributes are bound only in its ``__init__`` (on ``self``), or
on a fresh ``object.__new__`` instance inside the helper that made it.
A lazy cache is an entry in a dict that ``__init__`` bound.  Nothing in
the package may call ``setattr``, ``object.__setattr__``, or define
``__setattr__``/``__delattr__``.

The rule is checked statically on the AST of every source file, since
no class refuses a late write at run time."""

import ast
from pathlib import Path

import pytest

import spincert

SRC = Path(spincert.__file__).resolve().parent
_FORBIDDEN_DEFS = ("__setattr__", "__delattr__")


def _is_new(call, aliases):
    """Is ``call`` ``object.__new__(...)``, directly or through a
    module-level alias of it?"""
    if not isinstance(call, ast.Call):
        return False
    func = ast.unparse(call.func)
    return func == "object.__new__" or func in aliases


def _fresh_names(fn, aliases):
    """Names that ``fn`` binds to a fresh ``object.__new__`` instance."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_new(node.value, aliases):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def violations(text, filename="<src>"):
    """Every breach of the rule in one module's source text, as
    "file:line: what" strings."""
    tree = ast.parse(text)
    aliases = {
        t.id
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.value) == "object.__new__"
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    out = []

    def bad(node, what):
        out.append("%s:%d: %s" % (filename, node.lineno, what))

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name in _FORBIDDEN_DEFS:
                    bad(child, "defines %s" % child.name)
                visit(child, child)
                continue
            if isinstance(child, ast.Attribute):
                if child.attr == "__setattr__":
                    bad(child, "uses %s" % ast.unparse(child))
                if isinstance(child.ctx, (ast.Store, ast.Del)) and not allowed(child, fn):
                    bad(child, "binds %s outside its constructor" % ast.unparse(child))
            if isinstance(child, ast.Call) and ast.unparse(child.func) in ("setattr", "delattr"):
                bad(child, "calls %s" % ast.unparse(child.func))
            visit(child, fn)

    def allowed(attr, fn):
        if fn is None or not isinstance(attr.value, ast.Name):
            return False
        owner = attr.value.id
        if fn.name == "__init__" and fn.args.args and owner == fn.args.args[0].arg:
            return True
        return owner in _fresh_names(fn, aliases)

    visit(tree, None)
    return out


# one breach of each kind, which the check must catch
_CONTROLS = {
    "late slot write": """
class Table:
    __slots__ = ("entries",)
    def __init__(self):
        self.entries = {}
    def clear(self):
        self.entries = {}
""",
    "cache slot write": """
def curvature(a):
    a._curvature = 1
""",
    "augmented write": """
class C:
    def __init__(self):
        self.n = 0
    def bump(self):
        self.n += 1
""",
    "guard": """
class T:
    def __init__(self, x):
        object.__setattr__(self, "x", x)
    def __setattr__(self, name, value):
        raise AttributeError("T is immutable")
""",
    "setattr": """
def rebind(x):
    setattr(x, "y", 1)
""",
    "helper writing to an object it did not make": """
def _raw(other):
    self = object.__new__(type(other))
    other.terms = self
""",
}


# each idiom the rule allows, which the check must accept
_ALLOWED = """
_new = object.__new__

class Curve:
    __slots__ = ("a", "_cache")
    def __init__(self, a):
        self.a = a
        self._cache = {}
    def sigma(self):
        self._cache["sigma"] = self.a
        return self._cache["sigma"]

def _raw(cls, a):
    self = object.__new__(cls)
    self.a = a
    return self

def _fast(cls, a):
    obj = _new(cls)
    obj.a = a
    return obj
"""


@pytest.mark.parametrize("label", sorted(_CONTROLS))
def test_rule_catches_each_breach(label):
    assert violations(_CONTROLS[label]), label


def test_rule_accepts_constructors_and_dict_caches():
    assert violations(_ALLOWED) == []


def test_src_binds_attributes_only_in_constructors():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        found += violations(path.read_text(encoding="utf-8"), rel)
    assert not found, "\n".join(found)
