"""``MultiPoly.subs`` as it stood before it built each power of a
variable's image once per call, kept unchanged (as a function of the
polynomial) as the oracle for the differential test of ``nr_oracle.subs``
in ``test_exactalg.py``: it raises the image to the power afresh for
every term."""

from __future__ import annotations


def subs(self, assignment):
    """Substitute polynomials for variables; ``assignment`` maps
    variable index to a MultiPoly of the same ring."""
    out = self.ring.zero()
    for exps, c in self.terms.items():
        term = self.ring.const(c)
        for i, k in enumerate(exps):
            if k == 0:
                continue
            if i in assignment:
                term = term * (assignment[i] ** k)
            else:
                term = term * (self.ring.gen(i) ** k)
        out = out + term
    return out
