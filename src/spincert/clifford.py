"""The real Clifford algebra of rank 4 with negative-definite generators,
its grading, the Hodge star on the exterior identification, and an exact
4x4 spin representation over the Gaussian rationals.

Basis blades are indexed by bitmasks over the four generators, so the
algebra product is subset symmetric difference with a transposition sign.
Conventions fixed here and consumed by the instanton module:

* generators square to -1 and anticommute;
* the volume blade is the ascending product of all four generators;
* the star on grades 0, 1, 2, 4 carries a blade to its complement with
  the sign of the permutation (blade, complement), while on grade 3 the
  sign of (complement, blade) is used.  The grade-3 choice is the one
  calibrated so that the vector-times-antiselfdual decomposition identity
  holds (probe: first generator against the first antiselfdual basis
  element); with the untouched sign the identity fails by a global sign.

Multivector coefficients and matrix entries are Gaussian rationals in
the Q(i) normal form of ``exactalg.scalars``: a real value is an int or
a Fraction, and only a non-real one is a ``Gaussian``, so purely
rational input stays rational in type as well as in value.
"""

from __future__ import annotations

from . import VerificationError
from .exactalg import QI, Gaussian
from .exactalg.scalars import _SCALARS

DIM = 4
NBLADES = 1 << DIM
VOLUME_MASK = NBLADES - 1


def blade_indices(mask):
    return tuple(i + 1 for i in range(DIM) if mask >> i & 1)


def grade(mask):
    return bin(mask).count("1")


def blade_mul(mask_a, mask_b):
    """Product of basis blades: resulting mask and sign.

    The sign counts the transpositions needed to move each generator of
    the right factor into place, plus one flip per squared generator.
    """
    sign = 1
    acc = mask_a
    for i in range(DIM):
        if not mask_b >> i & 1:
            continue
        higher = acc >> (i + 1)
        sign *= -1 if bin(higher).count("1") & 1 else 1
        if acc >> i & 1:
            sign = -sign  # e_i * e_i = -1
        acc ^= 1 << i
    return acc, sign


def _perm_sign(word):
    sign = 1
    for a in range(len(word)):
        for b in range(a + 1, len(word)):
            if word[a] > word[b]:
                sign = -sign
    return sign


def star_blade(mask):
    """Hodge dual blade and sign under the module's fixed convention."""
    comp = VOLUME_MASK ^ mask
    if grade(mask) == 3:
        word = blade_indices(comp) + blade_indices(mask)
    else:
        word = blade_indices(mask) + blade_indices(comp)
    return comp, _perm_sign(word)


class Multivector:
    """An element of the algebra: bitmask-indexed Gaussian coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for mask, c in (coeffs or {}).items():
            if not 0 <= mask < NBLADES:
                raise ValueError("blade mask out of range")
            c = QI.coerce(c)
            if c:
                clean[mask] = c
        self.coeffs = clean

    @classmethod
    def blade(cls, mask, c=1):
        return cls({mask: c})

    @classmethod
    def vector(cls, i, c=1):
        if not 1 <= i <= DIM:
            raise ValueError("generator index out of range")
        return cls({1 << (i - 1): c})

    def __bool__(self):
        return bool(self.coeffs)

    def grades(self):
        return sorted({grade(m) for m in self.coeffs})

    def grade_project(self, k):
        return Multivector({m: c for m, c in self.coeffs.items() if grade(m) == k})

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Multivector({0: other})
        if not isinstance(other, Multivector):
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, 0) + c
            if not s:
                out.pop(m, None)
            else:
                out[m] = s
        return Multivector(out)

    def __neg__(self):
        return Multivector({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = Multivector({0: other})
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Multivector({m: c * other for m, c in self.coeffs.items()})
        if not isinstance(other, Multivector):
            return NotImplemented
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                m, s = blade_mul(ma, mb)
                c = ca * cb
                if s < 0:
                    c = -c
                acc = out.get(m, 0) + c
                if not acc:
                    out.pop(m, None)
                else:
                    out[m] = acc
        return Multivector(out)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Multivector({0: other})
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            name = "e" + "".join(str(i) for i in blade_indices(m)) if m else "1"
            parts.append("(%s)%s" % (self.coeffs[m], name))
        return " + ".join(parts)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product on the blade identification: disjoint blades only."""
    out = Multivector({})
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            if ma & mb:
                continue
            m, s = blade_mul(ma, mb)
            out = out + Multivector({m: ca * cb * s})
    return out


def hodge_star(w: Multivector) -> Multivector:
    out = {}
    for mask, c in w.coeffs.items():
        comp, s = star_blade(mask)
        out[comp] = c * s
    return Multivector(out)


def vector_basis():
    return tuple(Multivector.vector(i) for i in range(1, DIM + 1))


def two_form(i, j, c=1):
    return Multivector.vector(i) * Multivector.vector(j) * c


def asd_basis():
    """The three antiselfdual basis 2-forms: e12-e34, e23-e14, e31-e24."""
    return (
        two_form(1, 2) - two_form(3, 4),
        two_form(2, 3) - two_form(1, 4),
        two_form(3, 1) - two_form(2, 4),
    )


def sd_basis():
    return (
        two_form(1, 2) + two_form(3, 4),
        two_form(2, 3) + two_form(1, 4),
        two_form(3, 1) + two_form(2, 4),
    )


def is_asd(w: Multivector) -> bool:
    return w.grades() in ([], [2]) and not (hodge_star(w) + w)


def identity_decomposition(a: Multivector, w: Multivector):
    """Split the Clifford product of a 1-form with an antiselfdual 2-form.

    Returns (grade-3 part, grade-1 part) of ``a * w`` after verifying the
    two exact identities: the grade-3 part is the exterior product and the
    grade-1 part is minus the star of the exterior product.  Raises on
    non-vector ``a``, non-antiselfdual ``w``, or identity failure.
    """
    if a.grades() not in ([], [1]):
        raise ValueError("first argument must be a 1-form")
    if not is_asd(w):
        raise ValueError("second argument must be antiselfdual")
    prod = a * w
    if not set(prod.grades()) <= {1, 3}:
        raise VerificationError("product has unexpected grades: %s" % prod.grades())
    part3 = prod.grade_project(3)
    part1 = prod.grade_project(1)
    wedge_part = wedge(a, w)
    if part3 - wedge_part:
        raise VerificationError("grade-3 part differs from the exterior product")
    if part1 + hodge_star(wedge_part):
        raise VerificationError("grade-1 part differs from minus the dual")
    return part3, part1


def decomposition_defect(a: Multivector, w: Multivector) -> Multivector:
    """Grade-1 part of ``a*w`` plus the star of ``a`` wedge ``w``.

    Zero exactly when the decomposition identity holds; nonzero for
    selfdual ``w``, which is the negative control.
    """
    return (a * w).grade_project(1) + hodge_star(wedge(a, w))


def sandwich_raw(w: Multivector) -> Multivector:
    acc = Multivector({})
    for e in vector_basis():
        acc = acc + e * w * e
    return acc


def identity_sandwich(w: Multivector) -> Multivector:
    """Sum of generator conjugates of an antiselfdual 2-form; must vanish.

    The antiselfdual hypothesis is part of the contract and is enforced,
    although in rank 4 the sum vanishes for every 2-form; the genuinely
    duality-sensitive negative control lives in
    :func:`decomposition_defect`.
    """
    if not is_asd(w):
        raise ValueError("argument must be an antiselfdual 2-form")
    out = sandwich_raw(w)
    if out:
        raise VerificationError("generator sandwich sum is nonzero: %s" % out)
    return out


# ----------------------------------------------------------------------
# spin representation
# ----------------------------------------------------------------------


_I = Gaussian(0, 1)


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def _mat_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(4)) for i in range(4))


def _mat_scale(c, a):
    return tuple(tuple(c * a[i][j] for j in range(4)) for i in range(4))


_ZERO4 = ((0,) * 4,) * 4
_ID4 = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))

# the 2x2 matrices of the quaternion units i, j, k, 1, as rows of Q(i)
# scalars in normal form; the one convention both this module and the
# instanton module build on
QUATERNION_UNITS = (
    ((0, -_I), (-_I, 0)),
    ((0, -1), (1, 0)),
    ((-_I, 0), (0, _I)),
    ((1, 0), (0, 1)),
)


class GammaRep:
    """Exact 4x4 matrices over the Gaussian rationals representing the
    generator action on spinors, built from quaternion multiplication
    blocks.  The chirality operator (the represented volume blade) is
    diagonal with entries +1, +1, -1, -1: the positive block is called
    S+ and the negative block S-."""

    def __init__(self):
        mi, mj, mk, m1 = QUATERNION_UNITS
        conj = tuple(
            tuple(tuple(-x for x in row) for row in q) for q in (mi, mj, mk)
        ) + (m1,)
        gammas = []
        for q, qc in zip(QUATERNION_UNITS, conj):
            gm = [[0] * 4 for _ in range(4)]
            for r in range(2):
                for c in range(2):
                    gm[r][c + 2] = q[r][c]
                    gm[r + 2][c] = -qc[r][c]
            gammas.append(tuple(tuple(row) for row in gm))
        self.gamma = tuple(gammas)
        g5 = _ID4
        for g in self.gamma:
            g5 = _mat_mul(g5, g) if g5 is not _ID4 else g
        self.gamma5 = g5
        self._blade_mats = self._build_blade_matrices()

    def _build_blade_matrices(self):
        mats = {0: _ID4}
        for mask in range(1, NBLADES):
            low = mask & -mask
            i = low.bit_length() - 1
            rest = mask ^ low
            mats[mask] = _mat_mul(self.gamma[i], mats[rest]) if rest else self.gamma[i]
        return mats

    def rep(self, w: Multivector):
        """The represented matrix of a multivector.  A single basis blade
        with coefficient 1, as ``Multivector.vector`` and
        ``Multivector.blade`` give, is its precomputed table matrix."""
        if len(w.coeffs) == 1:
            [(mask, c)] = w.coeffs.items()
            if c == 1:
                return self._blade_mats[mask]
        acc = _ZERO4
        for mask, c in w.coeffs.items():
            acc = _mat_add(acc, _mat_scale(c, self._blade_mats[mask]))
        return acc

    def act(self, w: Multivector, spinor):
        """Apply a represented multivector to a length-4 spinor.

        Spinor entries may be any values multipliable by Gaussian
        coefficients (Gaussians themselves, or the p / rho^k entries of
        the instanton module)."""
        m = self.rep(w)
        out = []
        for r in range(4):
            acc = None
            for c in range(4):
                coef = m[r][c]
                if not coef:
                    continue
                t = coef * spinor[c]
                acc = t if acc is None else acc + t
            if acc is None:
                acc = 0 * spinor[0]
            out.append(acc)
        return tuple(out)

    def chirality_signs(self):
        diag = [self.gamma5[k][k] for k in range(4)]
        off_ok = not any(
            self.gamma5[r][c] for r in range(4) for c in range(4) if r != c
        )
        if not off_ok:
            raise VerificationError("chirality operator is not diagonal")
        return diag

    def positive_chirality_indices(self):
        return tuple(k for k, s in enumerate(self.chirality_signs()) if s == 1)

    def negative_chirality_indices(self):
        return tuple(k for k, s in enumerate(self.chirality_signs()) if s == -1)

    def asd_action_record(self):
        """Which chirality block the antiselfdual 2-forms act on.

        Returns a dict naming the block acted on nontrivially and the
        block annihilated; raises if the three basis elements disagree.
        """
        pos = self.positive_chirality_indices()
        neg = self.negative_chirality_indices()
        acted = set()
        for w in asd_basis():
            m = self.rep(w)
            pos_nonzero = any(m[r][c] for r in pos for c in range(4))
            neg_nonzero = any(m[r][c] for r in neg for c in range(4))
            acted.add((pos_nonzero, neg_nonzero))
        if acted == {(True, False)}:
            return {"acts_on": "S+", "annihilates": "S-"}
        if acted == {(False, True)}:
            return {"acts_on": "S-", "annihilates": "S+"}
        raise VerificationError("antiselfdual action is not chirally pure: %s" % acted)
