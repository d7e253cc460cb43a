"""The rank-2 moduli-space side of the genus-2 verification: a table of
fifteen signed squared linear forms on cotangent coordinates (q, p), the
quadratic differential they assemble into over a six-branch-point curve,
and the exact common-kernel computation showing each branch point singles
out one cotangent direction: the kernel of the five linear forms paired
with it, certified on those linear forms over Q[q1..q4].

Coordinates: q1..q4 are homogeneous coordinates on the moduli space,
p1..p4 fiber coordinates of its cotangent bundle subject to the
incidence relation q1 p1 + q2 p2 + q3 p3 + q4 p4 = 0.  Sums over index
pairs use unordered pairs i < j throughout; every verified statement is
invariant under overall scale.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import VerificationError
from .exactalg import MultiPoly, PolyRing, QQ, nullspace, proportional
from .exactalg.scalars import exact_quotient
from ._rtable_alt import ALT_TABLE

_QP_NAMES = ("q1", "q2", "q3", "q4", "p1", "p2", "p3", "p4")
QP_RING = PolyRing(QQ, _QP_NAMES)
Q_RING = PolyRing(QQ, _QP_NAMES[:4])
QPX_RING = PolyRing(QQ, _QP_NAMES + ("x",))

# primary transcription: one token per summand of the linear form, the
# overall sign of the squared term kept separate
_PRIMARY_TABLE = {
    (1, 2): (1, "+q1p1 +q2p2 -q3p3 -q4p4"),
    (1, 3): (1, "+q1p4 -q2p3 -q3p2 +q4p1"),
    (1, 4): (-1, "+q1p4 +q2p3 -q3p2 -q4p1"),
    (1, 5): (-1, "+q1p3 -q2p4 -q3p1 +q4p2"),
    (1, 6): (1, "+q1p3 +q2p4 +q3p1 +q4p2"),
    (2, 3): (-1, "+q1p4 -q2p3 +q3p2 -q4p1"),
    (2, 4): (1, "+q1p4 +q2p3 +q3p2 +q4p1"),
    (2, 5): (1, "+q1p3 -q2p4 +q3p1 -q4p2"),
    (2, 6): (-1, "+q1p3 +q2p4 -q3p1 -q4p2"),
    (3, 4): (1, "+q1p1 -q2p2 +q3p3 -q4p4"),
    (3, 5): (1, "+q1p2 +q2p1 +q3p4 +q4p3"),
    (3, 6): (-1, "+q1p2 -q2p1 -q3p4 +q4p3"),
    (4, 5): (-1, "+q1p2 -q2p1 +q3p4 -q4p3"),
    (4, 6): (1, "+q1p2 +q2p1 -q3p4 -q4p3"),
    (5, 6): (1, "+q1p1 -q2p2 -q3p3 +q4p4"),
}

_TERM_RE = re.compile(r"([+-])q([1-4])p([1-4])")


def _parse_linear(text: str):
    grid = [[0] * 4 for _ in range(4)]
    tokens = text.split()
    for tok in tokens:
        m = _TERM_RE.fullmatch(tok)
        if m is None:
            raise ValueError("bad term %r" % tok)
        a, b = int(m.group(2)) - 1, int(m.group(3)) - 1
        if grid[a][b]:
            raise ValueError("repeated monomial %r" % tok)
        grid[a][b] = 1 if m.group(1) == "+" else -1
    if sum(1 for row in grid for c in row if c) != len(tokens):
        raise ValueError("token count mismatch")
    return tuple(tuple(row) for row in grid)


class RijTable:
    """The fifteen signed quadratic forms r_{ij} = sign * l_{ij}^2 on
    the eight cotangent coordinates, indexed by unordered branch pairs.
    The table is immutable, so the kernel generator at each branch and
    its signed-permutation reduction are computed on first use and kept
    in private slots."""

    __slots__ = ("entries", "_kernels", "_reductions")

    def __init__(self, entries):
        pairs = {(i, j) for i in range(1, 7) for j in range(i + 1, 7)}
        if set(entries) != pairs:
            raise ValueError("expected exactly the 15 unordered pairs")
        clean = {}
        for key, (sign, grid) in entries.items():
            if sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            grid = tuple(tuple(int(c) for c in row) for row in grid)
            if len(grid) != 4 or any(len(row) != 4 for row in grid):
                raise ValueError("grid must be 4x4")
            if any(c not in (-1, 0, 1) for row in grid for c in row):
                raise ValueError("grid entries must be -1, 0, or 1")
            clean[key] = (sign, grid)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "_kernels", {})
        object.__setattr__(self, "_reductions", {})

    def __setattr__(self, name, value):
        raise AttributeError("RijTable is immutable")

    @property
    def pairs(self):
        return tuple(sorted(self.entries))

    def sign(self, i, j):
        return self.entries[_pair(i, j)][0]

    def linear_grid(self, i, j):
        return self.entries[_pair(i, j)][1]

    def quadratic(self, i, j, ring=QP_RING):
        """r_{ij} = sign * l_{ij}^2, with l_{ij} bilinear in (q, p)."""
        sign, grid = self.entries[_pair(i, j)]
        l = _grid_poly(grid, ring)
        return l * l if sign == 1 else -(l * l)

    def perturbed(self, i, j):
        """Copy with one sign flipped; negative-control input."""
        entries = dict(self.entries)
        sign, grid = entries[_pair(i, j)]
        entries[_pair(i, j)] = (-sign, grid)
        return RijTable(entries)


def _pair(i, j):
    if i == j or not (1 <= i <= 6 and 1 <= j <= 6):
        raise ValueError("indices must be distinct in 1..6")
    return (i, j) if i < j else (j, i)


def _grid_poly(grid, ring):
    nv = ring.nvars
    terms = {}
    for a in range(4):
        for b in range(4):
            c = grid[a][b]
            if c:
                exps = [0] * nv
                exps[a] += 1
                exps[4 + b] += 1
                terms[tuple(exps)] = c
    return MultiPoly(ring, terms)


def build_r_table() -> RijTable:
    """The primary transcription, parsed from its token form."""
    return RijTable(
        {key: (sign, _parse_linear(text)) for key, (sign, text) in _PRIMARY_TABLE.items()}
    )


def alt_r_table() -> RijTable:
    """The independently keyed second transcription."""
    return RijTable(ALT_TABLE)


def transcription_crosscheck() -> dict:
    """Expand both transcriptions and compare all 15 quadratics; the
    only defence against a copying slip, so a mismatch is an error."""
    primary = build_r_table()
    alt = alt_r_table()
    mismatches = [
        pair
        for pair in primary.pairs
        if primary.quadratic(*pair) != alt.quadratic(*pair)
        or primary.sign(*pair) != alt.sign(*pair)
    ]
    if mismatches:
        raise VerificationError(
            "transcriptions disagree at %s" % (mismatches,)
        )
    return {"check": "r_table_transcription", "pairs": 15, "passed": True}


class BranchConfig:
    """Six distinct rational branch x-values."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple(Fraction(p) for p in points)
        if len(pts) != 6:
            raise ValueError("exactly six branch points required")
        if len(set(pts)) != 6:
            raise ValueError("branch points must be distinct")
        object.__setattr__(self, "points", pts)

    def __setattr__(self, name, value):
        raise AttributeError("BranchConfig is immutable")

    def point(self, i):
        if not 1 <= i <= 6:
            raise ValueError("branch index out of range")
        return self.points[i - 1]


def standard_branch_config() -> BranchConfig:
    return BranchConfig(range(6))


def h_consistency(
    config: BranchConfig,
    table: RijTable = None,
    reference_table: RijTable = None,
) -> bool:
    """The two displayed forms of the quadratic differential agree: the
    partial-fraction sum over pairs of Q_ij / ((x - x_i)(x - x_j)) equals
    the polynomial sum of cofactor_ij * Q'_ij divided by the curve's y^2,
    where cofactor_ij = y^2 / ((x - x_i)(x - x_j)).  Since y^2 is a
    nonzero polynomial, the identity is checked after multiplying it
    through by y^2, as the polynomial identity

        sum over pairs of cofactor_ij * (Q_ij - Q'_ij) = 0

    in all nine variables.

    Q comes from ``table`` (default: the parsed primary transcription)
    and Q' from ``reference_table`` (default: the independently keyed
    copy), so the identity doubles as an end-to-end transcription check:
    one sign slip in either copy breaks it.  Sums run over unordered
    pairs; the ordered-sum convention differs by an overall factor of
    two on both sides, which cancels.
    """
    if table is None:
        table = build_r_table()
    if reference_table is None:
        reference_table = alt_r_table()
    ring = QPX_RING
    x = ring.gen(8)
    lin_factors = {i: x - config.point(i) for i in range(1, 7)}
    total = ring.zero()
    for (i, j) in table.pairs:
        cofactor = ring.one()
        for k in range(1, 7):
            if k != i and k != j:
                cofactor = cofactor * lin_factors[k]
        diff = table.quadratic(i, j, ring) - reference_table.quadratic(i, j, ring)
        total = total + cofactor * diff
    return not total


DISTINGUISHED_SUBSTITUTION = (
    ("q2", 1),
    ("q1", -1),
    ("q4", 1),
    ("q3", -1),
)


def distinguished_vector_polys():
    subs = []
    for name, sgn in DISTINGUISHED_SUBSTITUTION:
        poly = Q_RING.gen(Q_RING.var_index(name))
        subs.append(poly if sgn == 1 else -poly)
    return tuple(subs)


_Q_GENS = tuple(Q_RING.gen(a) for a in range(4))


def _dot(row, vec):
    """Sum of row[b] * vec[b] over Q[q1..q4]."""
    out = Q_RING.zero()
    for r, v in zip(row, vec):
        out = out + r * v
    return out


def verify_distinguished_covector(table: RijTable = None) -> dict:
    """Substituting p = (q2, -q1, q4, -q3) kills every linear form
    paired with branch index 1, and the substitution is a genuine
    cotangent vector: its pairing with q vanishes identically."""
    if table is None:
        table = build_r_table()
    vec = distinguished_vector_polys()
    residuals = {
        (1, j): _dot(row, vec)
        for j, row in zip(range(2, 7), _kernel_rows(1, table))
    }
    incidence = _dot(_Q_GENS, vec)
    nonzero = [pair for pair, poly in residuals.items() if poly]
    report = {
        "check": "distinguished_covector",
        "substitution": "(q2, -q1, q4, -q3)",
        "vanishing": {"%d%d" % pair: not poly for pair, poly in residuals.items()},
        "incidence_zero": not incidence,
        "passed": not nonzero and not incidence,
    }
    if not report["passed"]:
        raise VerificationError(
            "nonzero residuals at %s" % (nonzero,)
        )
    return report


def _kernel_generator(i: int, table: RijTable):
    """The unique kernel vector (up to scale) of the 5x4 system over
    Q[q1..q4] in the fiber coordinates, solved once per table."""
    gen = table._kernels.get(i)
    if gen is None:
        gen = table._kernels[i] = _solve_kernel(i, table)
    return gen


def _kernel_rows(i: int, table: RijTable):
    """The 5x4 system over Q[q1..q4] paired with branch index i: the
    row for j is l_{ij} read as a linear form in p, so that
    l_{ij}(q, p) = sum over b of row[b] * p_b."""
    rows = []
    for j in range(1, 7):
        if j == i:
            continue
        grid = table.linear_grid(i, j)
        row = []
        for b in range(4):
            terms = {}
            for a in range(4):
                c = grid[a][b]
                if c:
                    exps = [0] * 4
                    exps[a] = 1
                    terms[tuple(exps)] = c
            row.append(MultiPoly(Q_RING, terms))
        rows.append(row)
    return rows


def _solve_kernel(i: int, table: RijTable):
    kernel = nullspace(_kernel_rows(i, table))
    if len(kernel) != 1:
        raise VerificationError(
            "kernel at branch %d has dimension %d" % (i, len(kernel))
        )
    return tuple(kernel[0])


_PROBE_POINT = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))


def _signed_permutation_candidate(gen):
    """If gen is proportional to (s_1 q_{w(1)}, ..., s_4 q_{w(4)}) for a
    permutation w and signs s, return that vector of monomials; else
    None.  The probe coordinates are distinct ascending primes, so only
    the w sending the a-th smallest |vals| entry to the a-th coordinate
    can make every |vals[a] / probe[w(a)]| equal; the proportionality is
    certified by exact cross-multiplication."""
    vals = [g.eval(_PROBE_POINT) for g in gen]
    if any(v == 0 for v in vals):
        return None
    order = sorted(range(4), key=lambda a: abs(vals[a]))
    w = [order.index(a) for a in range(4)]
    ratios = [exact_quotient(vals[a], _PROBE_POINT[w[a]]) for a in range(4)]
    if len({abs(r) for r in ratios}) != 1:
        return None
    flip = -1 if ratios[0] < 0 else 1
    candidate = tuple(
        Q_RING.gen(w[a]) if flip * ratios[a] > 0 else -Q_RING.gen(w[a])
        for a in range(4)
    )
    return candidate if proportional(gen, candidate) else None


def _reduced_generator(i: int, table: RijTable):
    """``_signed_permutation_candidate`` of the kernel generator at
    branch i, computed once per table; None when it is not a signed
    permutation."""
    if i not in table._reductions:
        gen = _kernel_generator(i, table)
        table._reductions[i] = _signed_permutation_candidate(gen)
    return table._reductions[i]


def kernel_at_branch(i: int, table: RijTable = None) -> dict:
    """Exact common kernel over the fraction field of Q[q1..q4] of the
    five linear forms paired with branch index i, as a 5x4 system in p.
    The dimension must be exactly 1; the generator is certified to be a
    cotangent vector and to make each of the five linear forms
    l_{ij}(q, gen) the zero polynomial.  That implies the quadratic
    form at x = x_i, the sum over j of w_j * sign_ij * l_{ij}^2, vanishes
    at the generator for every choice of signs and of branch x-values
    (which only enter the weights w_j), so the certificate needs neither.
    A failed check raises, so the record carries no pass flags: only the
    dimension, the generator and, when the generator is a signed
    permutation of the q-variables, its reduced form."""
    if table is None:
        table = build_r_table()
    if not 1 <= i <= 6:
        raise ValueError("branch index out of range")
    gen = _kernel_generator(i, table)
    if _dot(_Q_GENS, gen):
        raise VerificationError("kernel generator is not a cotangent vector")
    if any(_dot(row, gen) for row in _kernel_rows(i, table)):
        raise VerificationError("kernel generator leaves a linear form nonzero")
    report = {"dimension": 1, "generator": tuple(g.to_str() for g in gen)}
    reduced = _reduced_generator(i, table)
    if reduced is not None:
        report["reduced_generator"] = tuple(g.to_str() for g in reduced)
    return report


def signed_permutation_record(table: RijTable = None) -> dict:
    """Empirical record: which branch kernels are coordinatewise signed
    permutations of the q-variables, like the branch-1 generator.  No
    claim is asserted; the record is informational."""
    if table is None:
        table = build_r_table()
    images = {}
    for i in range(1, 7):
        reduced = _reduced_generator(i, table)
        if reduced is None:
            images[i] = {"signed_permutation": False, "pattern": None}
            continue
        pattern = []
        for entry in reduced:
            exps, coeff = next(iter(entry.terms.items()))
            pattern.append(("+" if coeff > 0 else "-") + Q_RING.names[exps.index(1)])
        images[i] = {"signed_permutation": True, "pattern": tuple(pattern)}
    return {"check": "kernel_symmetry_record", "images": images}
