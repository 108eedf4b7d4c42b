import sys

import pytest

from kripkelam import encoding


@pytest.fixture(autouse=True)
def _the_guard_leaves_nothing_behind():
    # A budget left on this thread would turn every later guarded call here
    # into a nested one; a call left in flight would keep the limit raised.
    limit = sys.getrecursionlimit()
    yield
    assert encoding._guard.budget is None
    assert encoding._in_flight == 0
    assert sys.getrecursionlimit() == limit
