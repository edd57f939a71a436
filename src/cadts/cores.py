"""The process's core budget, the thread count of numpy's BLAS, and its
heap policy.

A process may keep its affinity mask busy; a ``--jobs`` worker shares it
with its siblings. The program, not the BLAS, spreads eval chunks over the
budget. The BLAS is found by name through ``ctypes`` (scipy-openblas, then
plain OpenBLAS); an unknown one gives ``None`` and is left alone. The heap
policy is glibc's ``mallopt``, also through ``ctypes``; without it the
policy is not set.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

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


def budget() -> int:
    """Cores this process may keep busy: its share of the affinity mask."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cores or 1) // _workers)


def _pinned_blas_threads() -> int | None:
    """The BLAS thread count the environment sets explicitly, if any."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) >= 1:
            return int(value)
    return None


@functools.cache
def blas_threads_api():
    """(get, set) thread-count functions of numpy's BLAS, or None."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@functools.cache
def heap_policy() -> None:
    """Set the heap policy, once per process; a no-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def enter_worker(workers: int) -> None:
    """``ProcessPoolExecutor`` initializer: this process is one of
    ``workers``; its BLAS pool gets its budget unless the environment pins it."""
    global _workers
    _workers = workers
    api = blas_threads_api()
    if api is not None and _pinned_blas_threads() is None:
        api[1](budget())


@contextlib.contextmanager
def eval_threads():
    """The number of threads to run independent chunks on. Unless the
    environment pins the BLAS (then budget // its threads), the BLAS runs
    one thread per call for the block; with an unknown BLAS, one thread."""
    pinned, api = _pinned_blas_threads(), blas_threads_api()
    if pinned is not None:
        yield max(1, budget() // pinned)
    elif api is None:
        yield 1
    else:
        get, set_ = api
        before = get()
        set_(1)
        try:
            yield budget()
        finally:
            set_(before)
