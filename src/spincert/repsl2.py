"""Irreducible actions of the rank-one special linear algebra on binary
forms of odd degree: the graded generator action, the alternating
pairing on coefficients, the contraction of two forms down to a
quadratic, and exact invariance and equivariance certificates.

A form of degree m is stored as the coefficient vector (a_0 .. a_m) of
a_0 z^m + a_1 z^(m-1) + ... + a_m; equivalently the two-variable
homogeneous form sum a_j X^(m-j) Y^j.  Coefficients may be exact
scalars or polynomial ring elements, so every identity can be certified
both numerically and symbolically.

Fixed conventions, each pinned by a certificate in this module:

* generators E (raising), H (grading), F (lowering) obey [H,E] = 2E,
  [H,F] = -2F, [E,F] = H exactly, and arise by differentiating the
  degree-m substitution action at the identity;
* the pairing on odd degree m = 2k-1 is
  sum over l < k of (-1)^l l! (m-l)! (u_l v_{m-l} - u_{m-l} v_l);
* the contraction of two degree-m forms is their bare (m-1)-fold
  transvectant, normalized so that at m = 1 the contraction of a form
  with itself is its square;
* quadratics c_0 z^2 + c_1 z + c_2 are identified with trace-free 2x2
  matrices by z^2 -> [[0,1],[0,0]], z -> [[1/2,0],[0,-1/2]],
  1 -> [[0,0],[-1,0]], i.e. the matrix [[c_1/2, c_0], [-c_2, -c_1/2]].
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from . import VerificationError

GENERATORS = ("E", "H", "F")


class BinaryForm:
    """Coefficient vector of a one-variable polynomial of fixed degree;
    the leading coefficient may vanish."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, coeffs, degree=None):
        cs = tuple(coeffs)
        if degree is None:
            if not cs:
                raise ValueError("empty coefficient vector needs a degree")
            degree = len(cs) - 1
        if len(cs) != degree + 1:
            raise ValueError("expected %d coefficients" % (degree + 1))
        self.degree = degree
        self.coeffs = cs

    @classmethod
    def basis_vector(cls, m, j):
        return cls(tuple(1 if i == j else 0 for i in range(m + 1)))

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return "BinaryForm(%r)" % (self.coeffs,)


def generator_action(x: str, u: BinaryForm) -> BinaryForm:
    """Infinitesimal substitution action of one generator.

    E raises the grading (slot factor j), H multiplies slot j by
    m - 2j, F lowers (slot factor m - j + 1).
    """
    m = u.degree
    a = u.coeffs
    if x == "H":
        return BinaryForm(tuple(a[j] * (m - 2 * j) for j in range(m + 1)))
    if x == "E":
        return BinaryForm(
            tuple(a[j + 1] * (j + 1) if j < m else a[0] * 0 for j in range(m + 1))
        )
    if x == "F":
        return BinaryForm(
            tuple(a[j - 1] * (m - j + 1) if j > 0 else a[0] * 0 for j in range(m + 1))
        )
    raise ValueError("unknown generator %r" % (x,))


def _require_odd_pair(u: BinaryForm, v: BinaryForm):
    if u.degree != v.degree:
        raise ValueError("degree mismatch")
    if u.degree % 2 == 0:
        raise ValueError("pairing requires odd degree")


def symplectic_form(u: BinaryForm, v: BinaryForm):
    _require_odd_pair(u, v)
    m = u.degree
    k = (m + 1) // 2
    acc = 0
    for l in range(k):
        w = (-1) ** l * factorial(l) * factorial(m - l)
        acc = acc + (u.coeffs[l] * v.coeffs[m - l] - u.coeffs[m - l] * v.coeffs[l]) * w
    return acc


def _convolve(a, b):
    """Coefficients of the product of two forms; zero factors are
    skipped, and each slot starts from the domain's zero."""
    zero = a[0] * 0 + b[0] * 0
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] = out[j] + x * y
    return tuple(out)


def _apply_derivatives(coeffs, deg, n_first, n_second):
    """n_first derivatives in X, then n_second in Y, of the form
    sum a_j X^(deg-j) Y^j, in one pass: slot j of the result is
    a_(j+n2) (deg-j-n2)!/(deg-j-n2-n1)! (j+n2)!/j!."""
    n1, n2 = n_first, n_second
    return tuple(
        coeffs[j + n2] * (perm(deg - j - n2, n1) * perm(j + n2, n2))
        for j in range(deg - n1 - n2 + 1)
    )


def transvectant(u: BinaryForm, v: BinaryForm, r: int) -> BinaryForm:
    """Bare r-fold transvectant on homogenized coefficient vectors:

        (u, v)_r = sum over s of (-1)^s C(r, s)
                   (d_X^(r-s) d_Y^s u) (d_X^s d_Y^(r-s) v),

    where, on a form sum a_j X^(m-j) Y^j, d_X^n1 d_Y^n2 has coefficient
    a_(j+n2) (m-j-n2)!/(m-j-n2-n1)! (j+n2)!/j! at slot j.

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


def moment_map(u: BinaryForm, v: BinaryForm) -> BinaryForm:
    """Contraction of two odd-degree forms down to a quadratic: the
    (m-1)-fold transvectant, whose m = 1 case is the plain product."""
    _require_odd_pair(u, v)
    return transvectant(u, v, u.degree - 1)


def quadratic_matrix_det(q: BinaryForm):
    """Determinant of the trace-free matrix [[c1/2, c0], [-c2, -c1/2]]
    that the fixed identification gives the quadratic q."""
    c0, c1, c2 = q.coeffs
    return c0 * c2 - c1 * c1 * Fraction(1, 4)


def _basis_pairs(basis):
    """Each generator x and basis pair (i, j), with the nonzero
    coefficients (k, c) of x e_i and of x e_j."""
    for x in GENERATORS:
        acts = [
            [(k, c) for k, c in enumerate(generator_action(x, e).coeffs) if c]
            for e in basis
        ]
        for i, xi in enumerate(acts):
            for j, xj in enumerate(acts):
                yield x, i, j, xi, xj


def _report(check: str, m: int, failures: list) -> dict:
    return {
        "check": check,
        "m": m,
        "pairs": (m + 1) ** 2,
        "generators": list(GENERATORS),
        "failures": failures,
        "passed": not failures,
    }


def invariance_check(m: int) -> dict:
    """Certifies pairing invariance: w(Xu, v) + w(u, Xv) = 0 for every
    generator and every basis pair.  The pairing is bilinear, so the
    table W[i][j] = w(e_i, e_j) gives w(Xe_i, e_j) = sum_k (Xe_i)_k W[k][j]."""
    basis = [BinaryForm.basis_vector(m, j) for j in range(m + 1)]
    table = [[symplectic_form(u, v) for v in basis] for u in basis]
    failures = []
    for x, i, j, xi, xj in _basis_pairs(basis):
        val = sum(c * table[k][j] for k, c in xi) + sum(c * table[i][k] for k, c in xj)
        if val != 0:
            failures.append({"generator": x, "pair": [i, j], "value": str(val)})
    return _report("pairing_invariance", m, failures)


def equivariance_check(m: int) -> dict:
    """Certifies contraction equivariance: the generator acting on the
    quadratic output matches the sum of its actions on the inputs.  The
    contraction is bilinear, so the table T[i][j] = moment_map(e_i, e_j)
    gives each left-hand side by the same sums as in invariance_check."""
    basis = [BinaryForm.basis_vector(m, j) for j in range(m + 1)]
    table = [[moment_map(u, v) for v in basis] for u in basis]
    failures = []
    for x, i, j, xi, xj in _basis_pairs(basis):
        terms = [(c, table[k][j]) for k, c in xi] + [(c, table[i][k]) for k, c in xj]
        lhs = [sum(c * q.coeffs[s] for c, q in terms) for s in range(3)]
        if lhs != list(generator_action(x, table[i][j]).coeffs):
            failures.append({"generator": x, "pair": [i, j]})
    return _report("contraction_equivariance", m, failures)


def isotropy_check_m3() -> bool:
    """The m = 3 coordinate subspace with the two leading coefficients
    zero is half-dimensional and the pairing vanishes identically on it."""
    m = 3
    basis = [BinaryForm.basis_vector(m, j) for j in range(m + 1)]
    sub = basis[2:]
    if len(sub) * 2 != m + 1:
        raise VerificationError("subspace is not half-dimensional")
    for u in sub:
        for v in sub:
            if symplectic_form(u, v) != 0:
                raise VerificationError("pairing does not vanish on the subspace")
    if symplectic_form(basis[0], basis[3]) == 0:
        raise VerificationError("pairing degenerated off the subspace")
    return True
