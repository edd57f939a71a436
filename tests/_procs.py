"""Process probes through Linux /proc: a process's children, and whether a
process has ended."""

from __future__ import annotations

from pathlib import Path


def children(pid: int) -> set[int]:
    """Pids of ``pid``'s children, running or unreaped; an empty set where
    /proc has no children files."""
    tasks = Path(f"/proc/{pid}/task")
    return {int(child) for f in tasks.glob("*/children") for child in f.read_text().split()}


def running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not ended (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
