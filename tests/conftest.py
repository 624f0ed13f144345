"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, and without a per-example deadline, so a slow
shared machine does not turn a passing example into a failure.
"""

from hypothesis import settings

settings.register_profile("towerval", derandomize=True, deadline=None)
settings.load_profile("towerval")
