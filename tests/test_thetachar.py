"""Square-root classes: enumeration, reduction, parity counts, and the
GF(2) quadratic-form model with its Arf invariant."""

from itertools import chain, combinations, product

import pytest

from spincert.thetachar import (
    GENUS_RANGE,
    CharClass,
    _reduced_subsets,
    all_quad_forms,
    arf_model_crosscheck,
    enumerate_chars,
    parity_counts,
    quad_form_counts,
)

CLOSED_COUNTS = {
    1: (1, 3),
    2: (6, 10),
    3: (28, 36),
    4: (120, 136),
    5: (496, 528),
    6: (2016, 2080),
}


def _pairing(u, v):
    """The standard symplectic pairing on (Z/2)^(2g), hyperbolic basis."""
    acc = 0
    for i in range(0, len(u), 2):
        acc ^= (u[i] & v[i + 1]) ^ (u[i + 1] & v[i])
    return acc


def _frozenset_subsets(g):
    """The generator of reduced member frozensets that ``_reduced_subsets``
    was before it listed sorted tuples, kept as the oracle."""
    n = 2 * g + 2
    smaller = chain.from_iterable(
        combinations(range(1, n + 1), size) for size in range((g + 1) % 2, g + 1, 2)
    )
    halves = ((1,) + rest for rest in combinations(range(2, n + 1), g))
    seen = set()
    for s in map(frozenset, chain(smaller, halves)):
        assert s not in seen
        seen.add(s)
        yield s
    assert len(seen) == 1 << (2 * g)


@pytest.mark.parametrize("g", range(1, 7))
def test_reduced_subset_tuples_match_the_frozenset_oracle(g):
    subsets = _reduced_subsets(g)
    assert all(list(t) == sorted(t) for t in subsets)
    assert [frozenset(t) for t in subsets] == list(_frozenset_subsets(g))
    assert [c.members for c in enumerate_chars(g)] == list(_frozenset_subsets(g))


@pytest.mark.parametrize("g", range(1, 7))
def test_enumeration_size(g):
    chars = enumerate_chars(g)
    assert len(chars) == 4**g
    assert len(set(chars)) == 4**g


@pytest.mark.parametrize("g", range(1, 5))
def test_reduction_is_a_two_to_one_involution(g):
    n = 2 * g + 2
    labels = range(1, n + 1)
    hits = {}
    for size in range(n + 1):
        if size % 2 != (g + 1) % 2:
            continue
        for t in combinations(labels, size):
            c = CharClass(g, t)
            hits[c] = hits.get(c, 0) + 1
    chars = set(enumerate_chars(g))
    assert set(hits) == chars
    assert all(v == 2 for v in hits.values())


def test_reduction_canonical_representative():
    c1 = CharClass(2, {4, 5, 6})
    c2 = CharClass(2, {1, 2, 3})
    assert c1 == c2
    assert c1.members == frozenset({1, 2, 3})
    full_tie = CharClass(1, {2, 3})
    assert full_tie.members == frozenset({1, 4})


def test_charclass_rejects_bad_subsets():
    with pytest.raises(ValueError):
        CharClass(2, {1, 2})
    with pytest.raises(ValueError):
        CharClass(2, {7})


@pytest.mark.parametrize("g", GENUS_RANGE)
def test_enumerated_classes_pass_the_validating_constructor(g):
    for c in enumerate_chars(g):
        checked = CharClass(g, c.members)
        assert type(c) is CharClass
        assert c == checked and c.members == checked.members


@pytest.mark.parametrize(
    "g, members",
    [
        (2, (1.9, 2, 3)),  # a non-integer label, once truncated to 1
        (2, (1, 1, 2, 3)),  # a repeated label, once read as {1, 2, 3}
        (2, ("1",)),
        (0, (1,)),  # genus outside GENUS_RANGE, once accepted
        (7, ()),
        (True, (1, 2)),  # a bool genus, once read as genus 1
        (2, (True, 2, 3)),  # a bool label, once read as label 1
    ],
)
def test_charclass_rejects_what_it_used_to_coerce(g, members):
    with pytest.raises(ValueError):
        CharClass(g, members)


def test_parity_frozen_examples():
    assert CharClass(2, {1}).parity_bit == 1
    assert CharClass(2, {1, 2, 3}).parity_bit == 0
    g1 = enumerate_chars(1)
    odd_classes = [c for c in g1 if c.parity_bit]
    assert len(odd_classes) == 1
    assert odd_classes[0].members == frozenset()


@pytest.mark.parametrize("g", range(1, 7))
def test_parity_counts_closed_form(g):
    assert parity_counts(g) == CLOSED_COUNTS[g]
    odd, even = parity_counts(g)
    assert odd == 2 ** (g - 1) * (2**g - 1)
    assert even == 2 ** (g - 1) * (2**g + 1)


@pytest.mark.parametrize("g", [1, 2])
def test_quadratic_refinement_law_exhaustive(g):
    vectors = list(product((0, 1), repeat=2 * g))
    for q in all_quad_forms(g):
        for u in vectors:
            for v in vectors:
                s = tuple(a ^ b for a, b in zip(u, v))
                assert q.value(s) == q.value(u) ^ q.value(v) ^ _pairing(u, v)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_arf_majority_matches_basis_formula(g):
    for q in all_quad_forms(g):
        assert q.arf() == q.arf_by_majority()


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_quad_form_counts(g):
    assert quad_form_counts(g) == CLOSED_COUNTS[g]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_crosscheck_passes(g):
    assert arf_model_crosscheck(g) is True

