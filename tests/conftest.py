"""Hypothesis draws the same examples on every run (seeded from each test),
so a tier-1 run cannot fail on a draw that an earlier run never made.

Every test must also end with the threads and child processes it started
gone: a thread still alive, or a child not yet reaped, fails it."""

import os
import threading

import pytest
from hypothesis import settings

from _procs import children

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_thread_or_child_left():
    threads, started = set(threading.enumerate()), children(os.getpid())
    yield
    left = [t for t in threading.enumerate() if t not in threads]
    for thread in left:  # one that is returning gets a moment to end
        thread.join(timeout=5)
    assert [t.name for t in left if t.is_alive()] == [], "threads left alive"
    assert sorted(children(os.getpid()) - started) == [], "child processes left unreaped"
