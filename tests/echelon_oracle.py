"""The Bareiss elimination that ``spincert.exactalg.linalg`` ran on
Fraction rows before it cleared rational rows to integer rows, kept
unchanged (with the ``rank`` and ``nullspace`` built on it) as the oracle
for the differential tests in ``test_exactalg.py`` and
``test_nrmoduli.py``: every entry stays a ``fractions.Fraction`` and
every step is Fraction arithmetic, and ``nullspace`` back-substitutes in
the fraction field, through ``RatFunc`` for polynomial rows.  Give it
Fraction rows; on int rows its ``/`` steps produce floats."""

from __future__ import annotations

from spincert.exactalg.linalg import _strip_content
from spincert.exactalg.polys import MultiPoly
from spincert.exactalg.ratfunc import RatFunc


def _exact_div(a, b):
    if isinstance(a, MultiPoly):
        q = a.exact_div(b)
        if q is None:
            raise ArithmeticError("fraction-free step produced inexact division")
        return q
    return a / b


def _echelon(rows):
    """Bareiss forward elimination of a list of rows over one domain.

    Returns (matrix, pivot columns); the input rows are left untouched.
    """
    m = [list(r) for r in rows]
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
        pivot = m[r][c]
        zero = pivot * 0
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                t = pivot * m[i][j] - m[i][c] * m[r][j]
                m[i][j] = _exact_div(t, prev) if prev != 1 else t
            m[i][c] = zero
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
    zero = _to_frac_field(sample * 0)
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
        _assert_in_kernel(rows, vec)
        basis.append(vec)
    return basis


def _assert_in_kernel(rows, vec):
    for row in rows:
        acc = None
        for a, b in zip(row, vec):
            t = a * b
            acc = t if acc is None else acc + t
        if acc:
            raise AssertionError("nullspace vector fails M v = 0")
