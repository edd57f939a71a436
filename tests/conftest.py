"""Hypothesis draws the same examples on every run (seeded from each test),
so a tier-1 run cannot fail on a draw that an earlier run never made.

Every test must also end with the threads and child processes it started
gone: a thread still alive, or a child not yet reaped, fails it."""

import os
import threading
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def _children() -> set[int]:
    """Pids of this process's children, running or unreaped (Linux /proc;
    an empty set elsewhere)."""
    tasks = Path(f"/proc/{os.getpid()}/task")
    return {int(pid) for f in tasks.glob("*/children") for pid in f.read_text().split()}


@pytest.fixture(autouse=True)
def no_thread_or_child_left():
    threads, children = set(threading.enumerate()), _children()
    yield
    left = [t for t in threading.enumerate() if t not in threads]
    for thread in left:  # one that is returning gets a moment to end
        thread.join(timeout=5)
    assert [t.name for t in left if t.is_alive()] == [], "threads left alive"
    assert sorted(_children() - children) == [], "child processes left unreaped"
