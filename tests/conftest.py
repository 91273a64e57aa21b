"""Shared pytest configuration: a per-test wall-clock timeout.

The fault-injection suite exercises recovery paths that, when broken,
manifest as *hangs* (a retransmission pump that never fires, an RPC
retry loop that never times out).  CI must turn those into failures,
and ``pytest-timeout`` is not part of the pinned toolchain — so a
minimal ``SIGALRM`` alarm wraps every test instead.

The default budget is generous (no tier-1 test takes more than a few
seconds); override with the ``REPRO_TEST_TIMEOUT_S`` environment
variable, ``0`` disabling the alarm entirely.  On platforms without
``SIGALRM`` (or off the main thread) tests simply run unbounded, as
before.
"""

import os
import signal
import threading

import pytest

DEFAULT_TIMEOUT_S = 120.0


def _timeout_s() -> float:
    try:
        return float(os.environ.get("REPRO_TEST_TIMEOUT_S", ""))
    except ValueError:
        return DEFAULT_TIMEOUT_S


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    budget = _timeout_s()
    usable = (budget > 0 and hasattr(signal, "SIGALRM")
              and hasattr(signal, "setitimer")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def _expired(signum, frame):
        pytest.fail(f"test exceeded the {budget:g}s wall-clock budget "
                    f"(REPRO_TEST_TIMEOUT_S to adjust)", pytrace=False)

    old_handler = signal.signal(signal.SIGALRM, _expired)
    old_timer = signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *old_timer)
        signal.signal(signal.SIGALRM, old_handler)
