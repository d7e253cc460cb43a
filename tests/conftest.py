"""Hypothesis profiles for the test suite.

``derandomized``, loaded here, draws every property test's examples from
a seed fixed by the test itself, so a run on any machine draws the same
examples and every ``find`` in the reach tests meets the same draws.
``random`` draws afresh; the CI runs the property tests under it once
more with ``--hypothesis-profile=random --hypothesis-seed=<seed>``, and
the same two options replay a failure of that step.  Neither profile
keeps an example database, and a failure prints the blob that
``@reproduce_failure`` replays."""

from hypothesis import settings

settings.register_profile(
    "derandomized", derandomize=True, database=None, print_blob=True
)
settings.register_profile("random", derandomize=False, database=None, print_blob=True)
settings.load_profile("derandomized")
