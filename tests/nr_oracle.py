"""The branch-point certificate ``nrmoduli.kernel_at_branch`` once made,
kept unchanged as an oracle for the tests: ``eval_at_branch`` builds the
weighted quadratic form at x = x_i in the 8-variable (q, p) ring,
``_lift_to_qp`` lifts a kernel generator over Q[q1..q4] into that ring,
and ``subs`` (``MultiPoly.subs`` as it stood, as a function of the
polynomial) substitutes it for p.  ``test_exactalg.py`` checks ``subs``
against the per-term oracle in ``subs_oracle.py``.

``_signed_permutation_candidate`` is the reduction as it stood before it
tried only the one permutation the probe's rank order allows: it tries
all 24."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from spincert.exactalg import MultiPoly, proportional
from spincert.nrmoduli import (
    _PROBE_POINT,
    Q_RING,
    QP_RING,
    BranchConfig,
    RijTable,
    build_r_table,
)


def eval_at_branch(config: BranchConfig, i: int, table: RijTable = None) -> MultiPoly:
    """The quadratic form in p obtained from the polynomial form at
    x = x_i: only the pairs containing i survive, each weighted by the
    product of the remaining branch differences."""
    if table is None:
        table = build_r_table()
    if not 1 <= i <= 6:
        raise ValueError("branch index out of range")
    xi = config.point(i)
    out = QP_RING.zero()
    for j in range(1, 7):
        if j == i:
            continue
        weight = Fraction(1)
        for k in range(1, 7):
            if k != i and k != j:
                weight = weight * (xi - config.point(k))
        out = out + table.quadratic(i, j) * weight
    return out


def _lift_to_qp(poly: MultiPoly) -> MultiPoly:
    terms = {exps + (0, 0, 0, 0): c for exps, c in poly.terms.items()}
    return MultiPoly(QP_RING, terms)


def subs(poly: MultiPoly, assignment) -> MultiPoly:
    """Substitute polynomials for variables; ``assignment`` maps
    variable index to a MultiPoly of the same ring.  Each power of a
    variable's image is built once per call, however many terms
    share it."""
    ring = poly.ring
    powers = {}
    out = ring.zero()
    for exps, c in poly.terms.items():
        term = ring.const(c)
        for i, k in enumerate(exps):
            if k == 0:
                continue
            power = powers.get((i, k))
            if power is None:
                base = assignment[i] if i in assignment else ring.gen(i)
                power = powers[(i, k)] = base**k
            term = term * power
        out = out + term
    return out


def _signed_permutation_candidate(gen):
    """If gen is proportional to (s_1 q_{w(1)}, ..., s_4 q_{w(4)}) for a
    permutation w and signs s, return that vector of monomials; else
    None.  The guess comes from one evaluation at distinct primes, the
    proportionality is certified by exact cross-multiplication."""
    vals = [g.eval(_PROBE_POINT) for g in gen]
    if any(v == 0 for v in vals):
        return None
    for w in permutations(range(4)):
        ratios = [vals[a] / _PROBE_POINT[w[a]] for a in range(4)]
        if len({abs(r) for r in ratios}) != 1:
            continue
        flip = -1 if ratios[0] < 0 else 1
        candidate = tuple(
            Q_RING.gen(w[a]) if flip * ratios[a] > 0 else -Q_RING.gen(w[a])
            for a in range(4)
        )
        if proportional(gen, candidate):
            return candidate
    return None
