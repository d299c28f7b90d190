"""Every test starts with an empty Monte Carlo draw memo, so no test sees a
draw that an earlier test left behind.

``--hypothesis-profile=thorough`` runs each property test 2000 times with
no deadline; the estimators' shift-and-scale and posterior-mean bounds fail,
if at all, on rare subnormal eigenvalues or sums, and the reduce's rounding
bound on rare sizes and spreads, which the default 100 examples seldom reach.
"""

import pytest
from hypothesis import settings

from optev import harness

settings.register_profile("thorough", max_examples=2000, deadline=None)


@pytest.fixture(autouse=True)
def empty_draw_memo():
    harness._last_draw = None
