"""The transvectant that ``spincert.repsl2`` computed before it read
each derivative slot off a closed form, kept unchanged as the oracle for
the differential test in ``test_repsl2.py``: ``_apply_derivatives``
applies the r single derivatives one after another through ``_d_first``
and ``_d_second``, and ``_convolve`` multiplies every pair of
coefficients, zeros included, starting each slot from the int 0."""

from __future__ import annotations

from math import comb

from spincert.repsl2 import BinaryForm


def _d_first(a, m):
    return tuple(a[j] * (m - j) for j in range(m))


def _d_second(a, m):
    return tuple(a[j + 1] * (j + 1) for j in range(m))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def _apply_derivatives(coeffs, deg, n_first, n_second):
    a, d = tuple(coeffs), deg
    for _ in range(n_first):
        a = _d_first(a, d)
        d -= 1
    for _ in range(n_second):
        a = _d_second(a, d)
        d -= 1
    return a


def transvectant(u: BinaryForm, v: BinaryForm, r: int) -> BinaryForm:
    """Bare r-fold transvectant on homogenized coefficient vectors.

    Output degree is deg u + deg v - 2r.  No leading normalization
    constant is applied; callers pin their own."""
    mu, mv = u.degree, v.degree
    if r < 0 or r > min(mu, mv):
        raise ValueError("transvectant order out of range")
    out = None
    for s in range(r + 1):
        fs = _apply_derivatives(u.coeffs, mu, r - s, s)
        gs = _apply_derivatives(v.coeffs, mv, s, r - s)
        w = comb(r, s) * (-1) ** s
        term = tuple(c * w for c in _convolve(fs, gs))
        out = term if out is None else tuple(x + y for x, y in zip(out, term))
    return BinaryForm(out, mu + mv - 2 * r)
