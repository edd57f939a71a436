"""Process probes through Linux /proc: a process's children, whether it
ignores SIGINT, its CPU time, and whether it has ended."""

from __future__ import annotations

import os
import signal
from pathlib import Path


def children(pid: int) -> set[int]:
    """Pids of ``pid``'s children, running or unreaped; an empty set where
    /proc has no children files. A thread that ends between the listing and
    the read is skipped: its children pass to another thread of ``pid``."""
    found = set()
    for f in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found.update(int(child) for child in f.read_text().split())
        except FileNotFoundError:
            pass
    return found


def ignores_sigint(pid: int) -> bool:
    """Whether ``pid`` ignores SIGINT (its ``SigIgn`` mask); False for a
    process that has ended."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    (mask,) = (line.split()[1] for line in status.splitlines() if line.startswith("SigIgn:"))
    return bool(int(mask, 16) >> (signal.SIGINT - 1) & 1)


def running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not ended (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has run; 0.0 for a process that
    has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return 0.0
    utime, stime = stat.rsplit(")", 1)[1].split()[11:13]
    return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")
