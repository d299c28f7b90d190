"""Every test starts with an empty Monte Carlo draw memo, so no test sees a
draw that an earlier test left behind.

``--hypothesis-profile=exact-sum`` runs each property test 2000 times with
no deadline; the exact sum's rounding check is wrong, if at all, on rare
near-ties, which the default 100 examples seldom reach.
"""

import pytest
from hypothesis import settings

from optev import harness

settings.register_profile("exact-sum", max_examples=2000, deadline=None)


@pytest.fixture(autouse=True)
def empty_draw_memo():
    harness._last_draw = None
