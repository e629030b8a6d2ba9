"""Checks that every test shares: no thread of the package outlives the test that started it."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a ``momentineq*`` thread running: every such thread is joined
    by the call that starts it (a split pass, ``run_mc``, ``power_sweep``, ``invert_region``)."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in set(threading.enumerate()) - before
            if t.name.startswith("momentineq")]
    if left:
        pytest.fail(f"threads left running after the test: {left}")
