"""Exact linear algebra by fraction-free elimination.

Rank and nullspace are computed with the Bareiss scheme (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22 (1968)): cross-multiplication steps
followed by an exact division by the previous pivot.  Division happens
only by construction-guaranteed exact divisors, so the entries stay in
the coefficient domain (integers, Gaussians or polynomials) and never
pick up spurious denominators mid-computation.

Each call works over one entry domain: rationals (Fractions and ints),
Gaussians, or MultiPolys over one ring, the domain of the first entry
that is not rational; ints and Fractions among polynomial entries are
lifted into that domain first.  Among Gaussian entries they stay as
they are, since a real Q(i) scalar in the normal form of ``scalars`` is
an int or a Fraction, and Gaussian rows divide through
``exact_quotient``, never a bare ``/``.  Rational rows are cleared to
integer rows once, before elimination, each scaled by the lcm of its own
denominators; that leaves the rank, the pivot columns and the kernel
unchanged, and the elimination divides exactly with ``//``.  Entries
answer for themselves: ``not x`` is the zero test, and zero and one come
from a sample entry.  The nullspace is read off the echelon form by one
fraction-free back-substitution in the same domain (Nakos, Turner and
Williams, ACM SIGSAM Bull. 31 (1997)), each kernel vector scaled by the
last pivot d: by Cramer's rule d times the normalised vector lies in the
domain, so every division is exact.  The vectors are checked against
``M v = 0`` on the same domain rows the elimination started from,
rational rows as their integer multiples, and then returned over the
entry domain: scalars in the normal form (an int when integral, else a
Fraction, or a Gaussian when not real) for rational and Gaussian rows,
and for polynomial rows denominator-free MultiPolys stripped of
content.
The exact-vector helpers shared by the geometry layers live here too:
the rational content of a vector and the cross-multiplication
proportionality test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import floordiv

from .polys import MultiPoly
from .scalars import exact_quotient


def _exact_div(a, b):
    if isinstance(a, MultiPoly):
        q = a.exact_div(b)
        if q is None:
            raise ArithmeticError("fraction-free step produced inexact division")
        return q
    return exact_quotient(a, b)


def _integer_row(row):
    """A rational row times the lcm of its denominators: an integer row
    with the same zero pattern and the same span."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _domain_zero(rows):
    """The zero of the entry domain, read off the first entry that is not
    rational: the int 0 for a Gaussian, whose zero is in the Q(i) normal
    form, the zero polynomial for a MultiPoly; None when every entry is
    an int or a Fraction."""
    for row in rows:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                return x * 0
    return None


def _domain_rows(rows):
    """(rows, exact division) over one entry domain: rational rows as
    their integer multiples under ``//``, polynomial rows with their
    rational entries lifted into the ring of the first polynomial entry,
    and Gaussian rows as copies, since a real Q(i) scalar is an int or a
    Fraction.  The rows are new lists; the input rows are left
    untouched."""
    zero = _domain_zero(rows)
    if zero is None:
        return [_integer_row(r) for r in rows], floordiv
    if isinstance(zero, MultiPoly):
        rows = [
            [zero + x if isinstance(x, (int, Fraction)) else x for x in r]
            for r in rows
        ]
    else:
        rows = [list(r) for r in rows]
    return rows, _exact_div


def _echelon(rows):
    """Bareiss forward elimination of a list of rows over one domain;
    rational rows are eliminated as their integer multiples, and the
    rational entries of polynomial rows are first lifted into that
    domain.

    Returns (matrix, pivot columns); the input rows are left untouched.
    """
    return _eliminate(*_domain_rows(rows))


def _eliminate(m, div):
    """Bareiss forward elimination of the domain rows m in place, with
    ``div`` the domain's exact division; returns (m, pivot columns)."""
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


def nullspace(rows):
    """Exact right-nullspace basis of the matrix, one vector per free
    column, by back-substitution from the Bareiss form.

    Polynomial matrices yield denominator-free MultiPoly vectors; scalar
    matrices yield scalar vectors.  Every vector is verified against the
    matrix before being returned.
    """
    if not rows or not rows[0]:
        return []
    # the domain rows are cleared once: eliminated as a copy, then kept
    # for the kernel check
    domain_rows, div = _domain_rows(rows)
    ech, piv_cols = _eliminate([list(r) for r in domain_rows], div)
    ncols = len(ech[0])
    zero = ech[0][0] * 0
    # the last pivot: a nonzero maximal minor on the pivot columns
    d = ech[len(piv_cols) - 1][piv_cols[-1]] if piv_cols else zero + 1
    basis = []
    for fc in range(ncols):
        if fc in piv_cols:
            continue
        v = [zero] * ncols
        v[fc] = d
        for k in range(len(piv_cols) - 1, -1, -1):
            row = ech[k]
            acc = None
            for j in range(piv_cols[k] + 1, ncols):
                if row[j] and v[j]:
                    t = row[j] * v[j]
                    acc = t if acc is None else acc + t
            if acc is not None:
                v[piv_cols[k]] = div(-acc, row[piv_cols[k]])
        basis.append(v)
    _assert_in_kernel(domain_rows, basis)
    if isinstance(zero, MultiPoly):
        return [_strip_content(v) for v in basis]
    return [[exact_quotient(x, d) for x in v] for v in basis]


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
    """M v = 0 exactly for each vector, in the domain the rows and the
    vectors share.  ``nullspace`` checks its integer vectors against the
    integer multiples of rational rows (``_domain_rows``); a nonzero
    multiple of M v is zero exactly when M v is."""
    for vec in vectors:
        for row in rows:
            acc = None
            for a, b in zip(row, vec):
                t = a * b
                acc = t if acc is None else acc + t
            if acc:
                raise AssertionError("nullspace vector fails M v = 0")
