"""The Riemann-Roch row builder ``hyperell._rr_system`` as it stood
before its binomial rows came from one ``_shift_row`` helper, kept
unchanged as the oracle for ``test_hyperell.py``: the rows it builds
must equal the current builder's exactly, entry for entry.  It reads y
from ``Place.local_series``, so it is also the oracle for the truncated
square roots the current builder reads instead."""

from __future__ import annotations

from fractions import Fraction
from math import comb

from spincert.exactalg import UPoly
from spincert.hyperell import Divisor, HyperCurve, _ceil_div, _group_divisor


def _rr_system(curve: HyperCurve, divisor: Divisor):
    """Denominator, degree bounds, and constraint rows for the L(D)
    ansatz h = (a(x) + b(x) y)/d(x)."""
    g = curve.genus
    branch, split, inf = _group_divisor(curve, divisor)
    d = UPoly((1,))
    branch_e = {}
    for x0, n in branch.items():
        e = max(_ceil_div(n, 2), 0)
        branch_e[x0] = e
        d = d * UPoly.x_minus(x0) ** e
    split_e = {}
    for x0, ys in split.items():
        e = max(max(ys.values()), 0)
        split_e[x0] = e
        d = d * UPoly.x_minus(x0) ** e
    n_inf = max(inf[1], inf[-1], 0)
    na = d.degree + n_inf
    nb = na - (g + 1)
    ncols = (na + 1) + (nb + 1 if nb >= 0 else 0)

    rows = []

    def a_col(k):
        return k

    def b_col(k):
        return na + 1 + k

    # branch constraints: the even and odd parts cannot cancel, so the
    # pole bound splits into independent order conditions on a and b
    for x0, n in branch.items():
        c = 2 * branch_e[x0] - n
        need_a = max(_ceil_div(c, 2), 0)
        need_b = max(_ceil_div(c - 1, 2), 0)
        for j in range(need_a):
            row = [Fraction(0)] * ncols
            for k in range(j, na + 1):
                row[a_col(k)] = Fraction(comb(k, j)) * x0 ** (k - j)
            rows.append(row)
        if nb >= 0:
            for j in range(need_b):
                row = [Fraction(0)] * ncols
                for k in range(j, nb + 1):
                    row[b_col(k)] = Fraction(comb(k, j)) * x0 ** (k - j)
                rows.append(row)

    # split constraints: leading series coefficients on each sheet over
    # the x-value, including the sheet absent from the divisor
    for x0, ys in split.items():
        e = split_e[x0]
        y0ref = next(iter(ys))
        sheets = {y0ref: ys.get(y0ref, 0), -y0ref: ys.get(-y0ref, 0)}
        for y0, n in sheets.items():
            c = e - n
            if c <= 0:
                continue
            place = curve.split_place(x0, y0)
            _, yseries = place.local_series(c + curve.f.degree + 6)
            for j in range(c):
                row = [Fraction(0)] * ncols
                for k in range(j, na + 1):
                    row[a_col(k)] += Fraction(comb(k, j)) * x0 ** (k - j)
                if nb >= 0:
                    for k in range(nb + 1):
                        for jj in range(0, min(k, j) + 1):
                            coeff_b = Fraction(comb(k, jj)) * x0 ** (k - jj)
                            row[b_col(k)] += coeff_b * yseries.coeff(j - jj)
                rows.append(row)

    # infinity constraints: Laurent coefficients below the allowed pole
    for sign in (1, -1):
        c_needed = n_inf - inf[sign]
        if c_needed <= 0:
            continue
        place = curve.infinite_place(sign)
        _, yseries = place.local_series(na + curve.f.degree + 6)
        for j in range(-na, -na + c_needed):
            row = [Fraction(0)] * ncols
            if 0 <= -j <= na:
                row[a_col(-j)] += 1
            if nb >= 0:
                for k in range(nb + 1):
                    row[b_col(k)] += yseries.coeff(j + k)
            rows.append(row)

    return d, na, nb, rows
