"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, and without a per-example deadline, because the
heavier examples (2^12-point maps, Blaschke powers) take a variable time on
a busy host.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("spheremaps", deadline=None, derandomize=True)
settings.load_profile("spheremaps")


@pytest.fixture
def fast_switches():
    """Switch threads often, so that work split across threads interleaves
    finely."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)
