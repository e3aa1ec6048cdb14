"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, and without a per-example deadline, because the
heavier examples (2^12-point maps, Blaschke powers) take a variable time on
a busy host.
"""

from hypothesis import settings

settings.register_profile("spheremaps", deadline=None, derandomize=True)
settings.load_profile("spheremaps")
