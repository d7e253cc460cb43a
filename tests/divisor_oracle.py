"""The divisor arithmetic that ``spincert.hyperell.Divisor`` used before
its sums, differences, negations and multiples merged into one dict
through an unchecked constructor, kept unchanged as the oracle for the
differential tests in ``test_hyperell.py``: every result is rebuilt and
checked again by the public ``Divisor(...)`` constructor, and a
difference negates first."""

from spincert.hyperell import Divisor


def add(a, b):
    out = dict(a.coeffs)
    for p, n in b.coeffs.items():
        out[p] = out.get(p, 0) + n
    return Divisor(out)


def neg(a):
    return Divisor({p: -n for p, n in a.coeffs.items()})


def sub(a, b):
    return add(a, neg(b))


def scale(a, k):
    return Divisor({p: n * k for p, n in a.coeffs.items()})


def eq(a, b):
    return a.coeffs == b.coeffs


def degree(a):
    return sum(a.coeffs.values())


def support(a):
    return tuple(a.coeffs)
