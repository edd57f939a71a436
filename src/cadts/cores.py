"""The process's core budget and its one policy for numpy's BLAS and the
heap.

A process may keep its affinity mask busy; a ``--jobs`` worker shares it
with its siblings. The program, not the BLAS, spreads eval chunks over the
budget: ``process_policy`` sets numpy's BLAS to one thread per call, once,
before the first train step or eval chunk, unless ``OPENBLAS_NUM_THREADS``
or ``OMP_NUM_THREADS`` pins it. The setting persists for the rest of the
process, in a library caller too. The BLAS is found by name through
``ctypes`` (scipy-openblas, then plain OpenBLAS); an unknown one is left
alone. The heap policy is glibc's ``mallopt``, also through ``ctypes``;
without it the heap policy is not set.

Every child process cadts starts, a ``--jobs`` worker or a forked CSV
parser, dies with the process that started it (``die_with``).
"""

from __future__ import annotations

import ctypes
import functools
import os
import signal

import numpy as np

_workers = 1  # processes sharing the affinity mask; set in each --jobs worker

# glibc's mallopt parameters, and the one heap policy of every process: a
# block below 32 MiB (every eval chunk and train step temporary) comes from
# the heap, and up to 256 MiB of free heap top is kept. glibc otherwise
# moves its mmap threshold to the largest block freed so far and trims the
# heap top above 128 KiB, so whether a chunk's arrays fault in fresh pages
# would depend on what the process freed before.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20

_PR_SET_PDEATHSIG = 1  # linux/prctl.h


def budget() -> int:
    """Cores this process may keep busy: its share of the affinity mask."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cores or 1) // _workers)


def _blas_set_threads():
    """The thread-count setter of numpy's BLAS, or None."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
        set_threads = getattr(lib, name, None)
        if set_threads is not None:
            set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
            return set_threads
    return None


def _set_heap_policy() -> None:
    """The mallopt thresholds above; nothing without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


@functools.cache
def process_policy() -> int | None:
    """Set the heap policy and the BLAS threads, once per process. Returns
    the threads each BLAS call runs: the pinned count, else 1; None for an
    unknown BLAS, which is left as found."""
    _set_heap_policy()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) >= 1:
            return int(value)
    set_threads = _blas_set_threads()
    if set_threads is None:
        return None
    set_threads(1)
    return 1


def die_with(parent: int) -> None:
    """In a child process: be killed when ``parent`` ends (Linux
    ``PR_SET_PDEATHSIG``), and leave now if it already has."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.restype, prctl.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_ulong]
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it ended before prctl took effect
        os._exit(1)


def enter_worker(workers: int, parent: int | None = None) -> None:
    """``ProcessPoolExecutor`` initializer: this process is one of
    ``workers`` sharing the affinity mask, and dies with ``parent``, the
    process that started the pool, when one is given; then it ignores
    SIGINT (a Ctrl-C), which the parent answers."""
    global _workers
    _workers = workers
    if parent is not None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        die_with(parent)


def eval_threads() -> int:
    """The number of threads to run independent eval chunks on, with the
    process policy set: the budget // the BLAS threads per call, or 1 with
    an unknown BLAS."""
    blas = process_policy()
    return 1 if blas is None else max(1, budget() // blas)
