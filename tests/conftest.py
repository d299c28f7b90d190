"""Every test starts with an empty Monte Carlo draw memo, so no test sees a
draw that an earlier test left behind."""

import pytest

from optev import harness


@pytest.fixture(autouse=True)
def empty_draw_memo():
    harness._last_draw = None
