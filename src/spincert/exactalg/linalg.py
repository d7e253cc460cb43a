"""Exact linear algebra by fraction-free elimination.

Rank and nullspace are computed with the Bareiss scheme (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22 (1968)): cross-multiplication steps
followed by an exact division by the previous pivot.  Division happens
only by construction-guaranteed exact divisors, so the entries stay in
the coefficient domain (integers, Gaussians or polynomials) and never
pick up spurious denominators mid-computation.

Each call works over one entry domain: rationals (Fractions and ints),
Gaussians, or MultiPolys over one ring.  Rational rows are cleared to
integer rows before elimination, each scaled by the lcm of its own
denominators; that leaves the rank, the pivot columns and the kernel
unchanged, and the elimination divides exactly with ``//``.  Entries
answer for themselves: ``not x`` is the zero test, and zero and one come
from a sample entry.  Nullspace vectors are returned over the entry
domain (Fractions for rational rows, denominator-free in the polynomial
case) and are checked against ``M v = 0`` exactly: rational rows as
their integer multiples against each vector cleared of denominators,
other rows as given.
The exact-vector helpers shared by the geometry layers live here too:
the rational content of a vector and the cross-multiplication
proportionality test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import floordiv

from .polys import MultiPoly
from .ratfunc import RatFunc


def _exact_div(a, b):
    if isinstance(a, MultiPoly):
        q = a.exact_div(b)
        if q is None:
            raise ArithmeticError("fraction-free step produced inexact division")
        return q
    return a / b


def _integer_row(row):
    """A rational row times the lcm of its denominators: an integer row
    with the same zero pattern and the same span."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _is_rational(rows):
    return bool(rows and rows[0]) and isinstance(rows[0][0], (int, Fraction))


def _echelon(rows):
    """Bareiss forward elimination of a list of rows over one domain;
    rational rows are eliminated as their integer multiples.

    Returns (matrix, pivot columns); the input rows are left untouched.
    """
    if _is_rational(rows):
        m = [_integer_row(r) for r in rows]
        div = floordiv
    else:
        m = [list(r) for r in rows]
        div = _exact_div
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    piv_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        p = None
        for i in range(r, nrows):
            if m[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        top = m[r]
        pivot = top[c]
        zero = pivot * 0
        for i in range(r + 1, nrows):
            row = m[i]
            lead = row[c]
            for j in range(c + 1, ncols):
                t = pivot * row[j] - lead * top[j]
                row[j] = div(t, prev) if prev != 1 else t
            row[c] = zero
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m, piv_cols


def rank(rows):
    if not rows:
        return 0
    return len(_echelon(rows)[1])


def _to_frac_field(x):
    if isinstance(x, MultiPoly):
        return RatFunc(x)
    return x


def nullspace(rows):
    """Exact right-nullspace basis of the matrix.

    Polynomial matrices yield denominator-free MultiPoly vectors; scalar
    matrices yield scalar vectors.  Every vector is verified against the
    matrix before being returned.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ech, piv_cols = _echelon(rows)
    free_cols = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    sample = rows[0][0]
    polynomial = isinstance(sample, MultiPoly)
    # Fraction zero for integer rows too, so their vectors stay exact
    zero = Fraction(0) if isinstance(sample, int) else _to_frac_field(sample * 0)
    one = zero + 1
    for fc in free_cols:
        v = [None] * ncols
        for c in free_cols:
            v[c] = one if c == fc else zero
        for k in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[k]
            acc = None
            for j in range(pc + 1, ncols):
                if not ech[k][j]:
                    continue
                t = _to_frac_field(ech[k][j]) * v[j]
                acc = t if acc is None else acc + t
            if acc is None:
                v[pc] = zero
            else:
                v[pc] = -acc / _to_frac_field(ech[k][pc])
        if polynomial:
            common = sample.ring.one()
            for x in v:
                if not x.den.is_constant():
                    common = common * x.den
            vec = _strip_content(
                [RatFunc(x.num * common, x.den).as_poly() for x in v]
            )
        else:
            vec = v
        basis.append(vec)
    _assert_in_kernel(rows, basis)
    return basis


def rational_content(values) -> Fraction:
    """Gcd of the numerators over the lcm of the denominators: the
    positive c for which values / c is a primitive integer vector, or 0
    when every value is zero."""
    g, l = 0, 1
    for c in values:
        g = gcd(g, c.numerator)
        l = lcm(l, c.denominator)
    return Fraction(g, l)


def _strip_content(vec):
    """Divide a Fraction-coefficient polynomial vector by its rational
    content and normalize the sign of the first leading coefficient."""
    ring = vec[0].ring
    if ring.field.name != "QQ":
        return vec
    content = rational_content(c for p in vec for c in p.terms.values())
    for p in vec:
        if p:
            if p.lead()[1] < 0:
                content = -content
            break
    if content in (0, 1):
        return vec
    inv = 1 / content
    return [MultiPoly(ring, {e: c * inv for e, c in p.terms.items()}) for p in vec]


def proportional(u, v) -> bool:
    """Whether two vectors over one domain are proportional, by exact
    cross-multiplication; False when either is the zero vector."""
    if not any(u) or not any(v):
        return False
    n = len(u)
    return all(
        u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n)
    )


def _assert_in_kernel(rows, vectors):
    """M v = 0 exactly for each vector.  Rational rows are checked as
    their integer multiples (``_integer_row``) against each vector times
    the lcm of its denominators, so the check runs on integers; a nonzero
    multiple of M v is zero exactly when M v is."""
    if _is_rational(rows):
        rows = [_integer_row(r) for r in rows]
        vectors = [_integer_row(v) for v in vectors]
    for vec in vectors:
        for row in rows:
            acc = None
            for a, b in zip(row, vec):
                t = a * b
                acc = t if acc is None else acc + t
            if acc:
                raise AssertionError("nullspace vector fails M v = 0")
