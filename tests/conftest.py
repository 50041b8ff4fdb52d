"""A per-test time limit for the suite.

Each test's call runs under a SIGALRM timer of ``TIME_LIMIT_S`` seconds,
far above the slowest test (about 13 s), so a defect that hangs fails its
own test with ``TimeoutError`` instead of stalling the whole run.  Where
SIGALRM does not exist (Windows) or the test does not run in the main
thread, no limit is set.
"""

from __future__ import annotations

import signal
import threading

import pytest

TIME_LIMIT_S = 300


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        return (yield)

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past the per-test limit of {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
