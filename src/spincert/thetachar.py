"""Mod-2 combinatorics of square roots of the canonical bundle on a
hyperelliptic curve of genus g: subsets of the 2g+2 branch labels modulo
complement, their parity, and the equivalent quadratic-form model over
GF(2) with its Arf invariant.

The parity rule on a reduced subset T (size at most g+1, congruent to
g+1 mod 2) is the mod-2 value of (g+1-|T|)/2.  It is calibrated so that
at genus 2 the six singletons are odd and the ten triples are even, and
it reproduces the closed-form counts 2^(g-1)(2^g -+ 1) in the whole
supported range; the test suite rejects any other rule.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, product

from . import VerificationError

GENUS_RANGE = range(1, 7)


class CharClass:
    """A square-root class: reduced branch-label subset at a fixed genus.
    The genus must lie in ``GENUS_RANGE`` and the labels must be distinct
    ints (not bools) in 1..2g+2; anything else is a ValueError, not a
    coercion."""

    __slots__ = ("g", "members")

    def __init__(self, g, members):
        if type(g) is not int or g not in GENUS_RANGE:
            raise ValueError("supported genus range is 1..6")
        labels = list(members)
        n = 2 * g + 2
        if not all(type(i) is int and 1 <= i <= n for i in labels):
            raise ValueError("labels must be integers in 1..%d" % n)
        ms = frozenset(labels)
        if len(ms) != len(labels):
            raise ValueError("labels must be distinct")
        if len(ms) % 2 != (g + 1) % 2:
            raise ValueError("subset size must be congruent to g+1 mod 2")
        self.g = g
        self.members = _reduce(ms, g)

    def __eq__(self, other):
        if not isinstance(other, CharClass):
            return NotImplemented
        return self.g == other.g and self.members == other.members

    def __hash__(self):
        return hash((self.g, self.members))

    @property
    def parity_bit(self):
        return _parity_bit(self.g, len(self.members))


def _parity_bit(g, size):
    """Parity of a reduced class with ``size`` members at genus g."""
    return ((g + 1 - size) // 2) % 2


def _reduce(t: frozenset, g: int) -> frozenset:
    full = frozenset(range(1, 2 * g + 3))
    comp = full - t
    if len(t) < len(comp):
        return t
    if len(comp) < len(t):
        return comp
    return t if 1 in t else comp


def _reduced_subsets(g: int):
    """The reduced member sets of all 2^(2g) classes, as sorted label
    tuples: the subsets of size below g+1 (smaller than their
    complements) and those of size g+1 that contain label 1, each of a
    size congruent to g+1 mod 2, so every generated subset is already
    reduced.  Sorted tuples are equal exactly when their sets are, so
    the list is checked to hold no repeat and to have 2^(2g) entries."""
    if g not in GENUS_RANGE:
        raise ValueError("supported genus range is 1..6")
    n = 2 * g + 2
    smaller = chain.from_iterable(
        combinations(range(1, n + 1), size) for size in range((g + 1) % 2, g + 1, 2)
    )
    halves = ((1,) + rest for rest in combinations(range(2, n + 1), g))
    subsets = list(chain(smaller, halves))
    if len(subsets) != 1 << (2 * g) or len(set(subsets)) != len(subsets):
        raise VerificationError("class enumeration miscounted")
    return subsets


def enumerate_chars(g: int):
    """All 2^(2g) classes, as reduced representatives, made without the
    constructor's checks, since every subset is already valid and reduced."""
    out = []
    for s in _reduced_subsets(g):
        c = object.__new__(CharClass)
        c.g = g
        c.members = frozenset(s)
        out.append(c)
    return out


def parity_counts(g: int):
    """(odd, even) class counts; matches 2^(g-1)(2^g - 1) and
    2^(g-1)(2^g + 1)."""
    sizes = Counter(map(len, _reduced_subsets(g)))
    odd = sum(k for size, k in sizes.items() if _parity_bit(g, size))
    return odd, sum(sizes.values()) - odd


# ----------------------------------------------------------------------
# quadratic-form model over GF(2)
# ----------------------------------------------------------------------


class QuadFormGF2:
    """Quadratic refinement of the standard symplectic pairing on
    (Z/2)^(2g), stored by its values on the hyperbolic basis."""

    __slots__ = ("g", "basis_values")

    def __init__(self, g, basis_values):
        vals = tuple(int(v) % 2 for v in basis_values)
        if len(vals) != 2 * g:
            raise ValueError("need one value per basis vector")
        self.g = g
        self.basis_values = vals

    def value(self, u):
        support = [i for i, b in enumerate(u) if b]
        acc = 0
        for i in support:
            acc ^= self.basis_values[i]
        for a in range(len(support)):
            for b in range(a + 1, len(support)):
                i, j = support[a], support[b]
                if i // 2 == j // 2:
                    acc ^= 1
        return acc

    def arf(self):
        acc = 0
        for i in range(self.g):
            acc ^= self.basis_values[2 * i] & self.basis_values[2 * i + 1]
        return acc

    def arf_by_majority(self):
        """Arf via the zero-count signature, independent of any basis."""
        zeros = 0
        for u in product((0, 1), repeat=2 * self.g):
            if self.value(u) == 0:
                zeros += 1
        half = 1 << (2 * self.g - 1)
        bump = 1 << (self.g - 1)
        if zeros == half + bump:
            return 0
        if zeros == half - bump:
            return 1
        raise VerificationError("zero count %d is not a refinement signature" % zeros)


def all_quad_forms(g: int):
    return [QuadFormGF2(g, vals) for vals in product((0, 1), repeat=2 * g)]


def quad_form_counts(g: int):
    """(odd, even) = (#Arf 1, #Arf 0) over all refinements."""
    odd = sum(q.arf() for q in all_quad_forms(g))
    return odd, (1 << (2 * g)) - odd


def arf_model_crosscheck(g: int) -> bool:
    """Certifies that the subset model and the quadratic-form model
    agree on (odd, even) counts, and that both equal the closed form.
    Raises on any mismatch."""
    if g > 4:
        raise ValueError("crosscheck enumeration supported for g <= 4")
    subset_counts = parity_counts(g)
    quad_counts = quad_form_counts(g)
    closed = (
        (1 << (g - 1)) * ((1 << g) - 1),
        (1 << (g - 1)) * ((1 << g) + 1),
    )
    if subset_counts != quad_counts or subset_counts != closed:
        raise VerificationError(
            "parity counts disagree: subsets %s, forms %s, closed %s"
            % (subset_counts, quad_counts, closed)
        )
    return True
