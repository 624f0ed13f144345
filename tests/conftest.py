"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, and without a per-example deadline, so a slow
shared machine does not turn a passing example into a failure.

Every test starts with empty contact-cell and face memos, so what it sees
does not depend on the tests that ran before it in the same process.
"""

import pytest
from hypothesis import settings

from towerval import jets

settings.register_profile("towerval", derandomize=True, deadline=None)
settings.load_profile("towerval")


@pytest.fixture(autouse=True)
def fresh_memo():
    jets._cell_memo.clear()
    jets._face_memo.clear()
