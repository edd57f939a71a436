"""The core budget, the BLAS thread switch, and eval chunks on helper threads."""

import ctypes
import functools
import os
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadts import cli, cores
from cadts.data import SeriesMatrix, make_windows
from cadts.evaluate import SCORE_CHUNK, score_series
from cadts.model import VARIANTS, ModelConfig, build_model, window_errors

from _synth import chunks_of

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def cores_and_blas(budget: int):
    """Patches for the block: ``budget`` cores in the affinity mask and no
    BLAS thread variable in the environment."""
    env = mock.patch.dict(os.environ, {name: "" for name in BLAS_VARIABLES})
    mask = mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(budget)), create=True)
    return env, mask


def serial_errors(model, windows, targets, batch):
    """The one-chunk-at-a-time loop, with the BLAS threads as found."""
    errors = np.empty(len(windows), dtype=np.float64)
    for start in range(0, len(windows), batch):
        pred = model.forward_batch(windows[start : start + batch], mode="eval")
        err = pred.data - targets[start : start + batch].astype(model.config.np_dtype)
        errors[start : start + len(err)] = (err * err).mean(axis=1)
    return errors


@functools.cache
def smd_shaped_model(variant, dtype):
    return build_model(ModelConfig(variant=variant, dtype=dtype), n_metrics=38, rng_seed=11)


@settings(max_examples=40)
@given(
    variant=st.sampled_from(VARIANTS),
    dtype=st.sampled_from(("float32", "float64")),
    n_windows=st.one_of(st.integers(1, 3), st.integers(SCORE_CHUNK - 2, SCORE_CHUNK + 2),
                        st.integers(2 * SCORE_CHUNK - 2, 3 * SCORE_CHUNK + 2)),
    budget=st.sampled_from((1, 2, 3)),
)
def test_window_errors_on_any_budget_bitwise_equal_to_the_serial_loop(variant, dtype, n_windows, budget):
    model = smd_shaped_model(variant, dtype)
    cfg = model.config
    series = SeriesMatrix(values=np.random.default_rng(n_windows).random((n_windows + cfg.l + cfg.h - 1, 38)))
    windows = make_windows(series, cfg.l, cfg.h)
    want = serial_errors(model, windows.windows, windows.targets, SCORE_CHUNK)
    env, mask = cores_and_blas(budget)
    with env, mask:
        got = window_errors(model, *chunks_of(windows), SCORE_CHUNK)
    assert got.tobytes() == want.tobytes()


def small_scoring_case(n_windows=3 * SCORE_CHUNK + 5):
    cfg = ModelConfig(l=4, h=1, experts=2, kernels=2, embed_dim=8, tower_hidden=4)
    model = build_model(cfg, n_metrics=3, rng_seed=5)
    series = SeriesMatrix(values=np.random.default_rng(5).random((n_windows + cfg.l + cfg.h - 1, 3)))
    return model, series


def test_many_threads_take_every_chunk_once_under_fast_switching(monkeypatch):
    model, series = small_scoring_case(300)
    windows = make_windows(series, model.config.l, model.config.h)
    want = serial_errors(model, windows.windows, windows.targets, 1)
    calls = []
    forward = type(model).forward_batch

    def counted(self, chunk, mode="eval", rng=None):
        calls.append(1)
        return forward(self, chunk, mode, rng)

    monkeypatch.setattr(type(model), "forward_batch", counted)
    got = []
    env, mask = cores_and_blas(8)  # more threads than this host has cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with env, mask:
            run = threading.Thread(
                target=lambda: got.append(window_errors(model, *chunks_of(windows), 1))
            )
            run.start()
            run.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not run.is_alive()
    assert len(calls) == len(windows)
    assert got[0].tobytes() == want.tobytes()


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started while the test runs, in order."""
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    return started


@pytest.fixture
def fake_blas(monkeypatch):
    """A BLAS at 2 threads that records every thread count set on it."""
    blas = SimpleNamespace(threads=2, set_calls=[])

    def set_threads(n):
        blas.set_calls.append(n)
        blas.threads = n

    monkeypatch.setattr(cores, "blas_threads_api", lambda: (lambda: blas.threads, set_threads))
    return blas


def test_score_series_leaves_no_thread_behind(thread_starts):
    model, series = small_scoring_case()
    env, mask = cores_and_blas(3)
    before = threading.active_count()
    with env, mask:
        scored = score_series(model, series)
    assert threading.active_count() == before
    assert len(thread_starts) == 2  # the caller plus two helpers
    assert not any(t.is_alive() for t in thread_starts)
    assert np.isfinite(scored.scores).all()


def test_helper_error_is_raised_in_the_caller_and_the_blas_restored(fake_blas, monkeypatch):
    model, series = small_scoring_case()
    calls = []
    forward = type(model).forward_batch

    def failing_forward(self, windows, mode="eval", rng=None):
        calls.append(threading.current_thread())
        if len(calls) == 3:
            raise RuntimeError("chunk failed")
        return forward(self, windows, mode, rng)

    monkeypatch.setattr(type(model), "forward_batch", failing_forward)
    env, mask = cores_and_blas(3)
    before = threading.active_count()
    with env, mask, pytest.raises(RuntimeError, match="chunk failed"):
        score_series(model, series)
    assert threading.active_count() == before
    assert fake_blas.set_calls == [1, 2]


def test_chunks_run_on_one_blas_thread_each(fake_blas, monkeypatch):
    model, series = small_scoring_case()
    seen = []
    forward = type(model).forward_batch

    def watched(self, *args, **kwargs):
        seen.append(fake_blas.threads)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(type(model), "forward_batch", watched)
    env, mask = cores_and_blas(2)
    with env, mask:
        score_series(model, series)
    assert seen == [1] * 4 and fake_blas.set_calls == [1, 2]


def test_explicit_blas_setting_is_kept(fake_blas, thread_starts, monkeypatch):
    monkeypatch.setattr(cores, "_workers", 1)
    model, series = small_scoring_case()
    env, mask = cores_and_blas(4)
    with env, mask:
        os.environ["OPENBLAS_NUM_THREADS"] = "2"
        cores.enter_worker(1)
        score_series(model, series)
        os.environ["OPENBLAS_NUM_THREADS"] = ""
        os.environ["OMP_NUM_THREADS"] = "4"
        with cores.eval_threads() as threads:
            assert threads == 1
    assert fake_blas.set_calls == []
    assert len(thread_starts) == 1  # 4 cores // 2 BLAS threads: one helper


@pytest.fixture
def blas_library(monkeypatch):
    """Sets the symbols the BLAS lookup finds in numpy's core extension."""
    def use(**symbols):
        monkeypatch.setattr(cores.ctypes, "CDLL", lambda path: SimpleNamespace(**symbols))
        cores.blas_threads_api.cache_clear()

    yield use
    cores.blas_threads_api.cache_clear()


def test_missing_blas_symbol_means_serial_chunks(blas_library, thread_starts):
    blas_library(scipy_openblas_get_num_threads64_=lambda: 2)  # no setter
    assert cores.blas_threads_api() is None
    model, series = small_scoring_case()
    env, mask = cores_and_blas(3)
    with env, mask:
        with cores.eval_threads() as threads:
            assert threads == 1
        score_series(model, series)
    assert thread_starts == []


def test_blas_lookup_falls_back_to_plain_openblas_names(blas_library):
    def get():
        return 7

    def set_threads(n):
        pass

    blas_library(openblas_get_num_threads=get, openblas_set_num_threads=set_threads)
    assert cores.blas_threads_api() == (get, set_threads)


def probe_worker() -> tuple[int, int | None]:
    api = cores.blas_threads_api()
    return cores.budget(), None if api is None else api[0]()


def test_jobs_worker_takes_its_share_of_the_cores(tmp_path, monkeypatch):
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    if cores.blas_threads_api() is None:
        pytest.skip("numpy's BLAS has no known thread-count functions")
    share = max(1, len(os.sched_getaffinity(0)) // 2)
    inputs = [tmp_path / "input"] * 2
    inputs[0].write_text("x")
    results = list(cli._run_tasks(probe_worker, [(), ()], 2, inputs))
    assert results == [(share, share)] * 2
    assert cores.budget() == len(os.sched_getaffinity(0))  # this process keeps every core


@pytest.fixture
def libc(monkeypatch):
    """Sets the symbols the heap policy finds in the C library."""
    def use(**symbols):
        monkeypatch.setattr(cores.ctypes, "CDLL", lambda path: SimpleNamespace(**symbols))
        cores.heap_policy.cache_clear()

    yield use
    cores.heap_policy.cache_clear()


def test_heap_policy_is_set_once_per_process(libc):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc(mallopt=mallopt)
    cores.heap_policy()
    cores.heap_policy()
    assert calls == [(cores.M_MMAP_THRESHOLD, 32 << 20), (cores.M_TRIM_THRESHOLD, 256 << 20)]


def test_heap_policy_without_mallopt_does_nothing(libc, monkeypatch):
    libc()
    cores.heap_policy()

    def no_library(path):
        raise OSError("no C library")

    monkeypatch.setattr(cores.ctypes, "CDLL", no_library)
    cores.heap_policy.cache_clear()
    cores.heap_policy()
    model, series = small_scoring_case()
    assert len(score_series(model, series)) == len(series.values)


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def test_heap_policy_keeps_chunk_sized_blocks_on_the_heap():
    """Under the policy glibc maps a block of its own only from 32 MiB up,
    whatever blocks the process freed before."""
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError):
        pytest.skip("no glibc mallinfo2")
    mallinfo2.restype = _Mallinfo2
    cores.heap_policy()

    def mapped_while_held(nbytes):
        before = mallinfo2().hblkhd
        block = np.ones(nbytes, dtype=np.uint8)
        mapped = mallinfo2().hblkhd - before
        del block
        return mapped

    assert mapped_while_held(4 << 20) == 0
    assert mapped_while_held(40 << 20) >= 40 << 20


def test_heap_policy_comes_before_the_first_eval_chunk_and_train_step(monkeypatch):
    from cadts.model import CadModel
    from cadts.train import TrainConfig, train_model

    events = []
    forward = CadModel.forward_batch
    monkeypatch.setattr(cores, "heap_policy", lambda: events.append("policy"))
    monkeypatch.setattr(CadModel, "forward_batch",
                        lambda self, windows, mode="eval", rng=None:
                        events.append(mode) or forward(self, windows, mode, rng))
    model, series = small_scoring_case(10)
    score_series(model, series)
    assert events[:2] == ["policy", "eval"]
    events.clear()
    cfg = TrainConfig(l=4, h=1, experts=2, kernels=2, embed_dim=8, tower_hidden=4, batch=4, max_epochs=1)
    train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    assert events[:2] == ["policy", "train"]
