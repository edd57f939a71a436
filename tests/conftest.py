"""Hypothesis draws the same examples on every run (seeded from each test),
so a tier-1 run cannot fail on a draw that an earlier run never made."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
