"""The pairing and contraction certificates that ``spincert.repsl2``
made before it read each left-hand side off a bilinear table, kept
unchanged as the oracle for ``test_repsl2.py``: for every generator and
every basis pair they call ``symplectic_form`` twice and ``moment_map``
three times.  Both names are looked up in this module, so a test that
injects a fault patches them here as well as in ``spincert.repsl2``.

``BinaryForm`` has no arithmetic of its own, since no certificate adds
forms; ``add`` and ``sub`` below are the coefficientwise sum and
difference these checks and the tests use."""

from __future__ import annotations

from spincert.repsl2 import (
    GENERATORS,
    BinaryForm,
    generator_action,
    moment_map,
    symplectic_form,
)


def add(u: BinaryForm, v: BinaryForm) -> BinaryForm:
    if u.degree != v.degree:
        raise ValueError("degree mismatch")
    return BinaryForm(tuple(a + b for a, b in zip(u.coeffs, v.coeffs)))


def sub(u: BinaryForm, v: BinaryForm) -> BinaryForm:
    if u.degree != v.degree:
        raise ValueError("degree mismatch")
    return BinaryForm(tuple(a - b for a, b in zip(u.coeffs, v.coeffs)))


def invariance_check(m: int) -> dict:
    """Certifies pairing invariance: w(Xu, v) + w(u, Xv) = 0 for every
    generator and every basis pair."""
    basis = [BinaryForm.basis_vector(m, j) for j in range(m + 1)]
    failures = []
    for x in GENERATORS:
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                val = symplectic_form(generator_action(x, u), v) + symplectic_form(
                    u, generator_action(x, v)
                )
                if val != 0:
                    failures.append({"generator": x, "pair": [i, j], "value": str(val)})
    return {
        "check": "pairing_invariance",
        "m": m,
        "pairs": (m + 1) ** 2,
        "generators": list(GENERATORS),
        "failures": failures,
        "passed": not failures,
    }


def equivariance_check(m: int) -> dict:
    """Certifies contraction equivariance: the generator acting on the
    quadratic output matches the sum of its actions on the inputs."""
    basis = [BinaryForm.basis_vector(m, j) for j in range(m + 1)]
    failures = []
    for x in GENERATORS:
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                lhs = add(
                    moment_map(generator_action(x, u), v),
                    moment_map(u, generator_action(x, v)),
                )
                rhs = generator_action(x, moment_map(u, v))
                if any(sub(lhs, rhs).coeffs):
                    failures.append({"generator": x, "pair": [i, j]})
    return {
        "check": "contraction_equivariance",
        "m": m,
        "pairs": (m + 1) ** 2,
        "generators": list(GENERATORS),
        "failures": failures,
        "passed": not failures,
    }

