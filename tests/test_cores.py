"""The core budget, the once-per-process BLAS and heap policy, and eval
chunks on helper threads."""

import contextlib
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
from cadts.data import SeriesMatrix, apply_minmax, fit_minmax, make_windows
from cadts.evaluate import SCORE_CHUNK, score_series, window_errors
from cadts.model import VARIANTS, ModelConfig, build_model

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextlib.contextmanager
def cores_and_blas(budget: int):
    """``budget`` cores in the affinity mask and no BLAS thread variable in
    the environment, under a process policy of the block's own: it is set
    at the block's first train step or eval chunk, from that environment."""
    env = mock.patch.dict(os.environ, {name: "" for name in BLAS_VARIABLES})
    mask = mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(budget)), create=True)
    policy = mock.patch.object(cores, "process_policy", functools.cache(cores.process_policy.__wrapped__))
    with env, mask, policy:
        yield


def blas_threads() -> int | None:
    """The thread count of numpy's BLAS as it stands, or None if unknown."""
    core = getattr(np, "_core", None) or np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(lib, name, None)
        if get is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            return get()
    return None


def serial_errors(model, windows, targets, batch):
    """The one-chunk-at-a-time loop, with the BLAS threads as found."""
    errors = np.empty(len(windows), dtype=np.float64)
    for start in range(0, len(windows), batch):
        pred = model.forward_batch(windows[start : start + batch], mode="eval")
        err = pred - targets[start : start + batch].astype(model.config.np_dtype)
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
    clip=st.sampled_from((None, True, False)),
)
def test_window_errors_on_any_budget_bitwise_equal_to_the_serial_loop(variant, dtype, n_windows, budget, clip):
    """With no scaler (``clip`` None), or one fitted on other rows, so that
    some of these fall outside its range; the serial loop scales the whole
    series first."""
    model = smd_shaped_model(variant, dtype)
    cfg = model.config
    rng = np.random.default_rng(n_windows)
    series = SeriesMatrix(values=rng.random((n_windows + cfg.l + cfg.h - 1, 38)))
    scaler = None if clip is None else fit_minmax(SeriesMatrix(values=rng.uniform(0.1, 0.9, (50, 38))), clip)
    windows = make_windows(series if scaler is None else apply_minmax(scaler, series), cfg.l, cfg.h)
    want = serial_errors(model, windows.windows, windows.targets, SCORE_CHUNK)
    with cores_and_blas(budget):
        got = window_errors(model, series.values, scaler, SCORE_CHUNK, cores.eval_threads())
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
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cores_and_blas(8):  # more threads than this host has cores
            run = threading.Thread(
                target=lambda: got.append(window_errors(model, series.values, None, 1, cores.eval_threads()))
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

    monkeypatch.setattr(cores, "_blas_set_threads", lambda: set_threads)
    return blas


def test_score_series_leaves_no_thread_behind(thread_starts):
    model, series = small_scoring_case()
    before = threading.active_count()
    with cores_and_blas(3):
        scored = score_series(model, series)
    assert threading.active_count() == before
    assert len(thread_starts) == 2  # the caller plus two helpers
    assert not any(t.is_alive() for t in thread_starts)
    assert np.isfinite(scored.scores).all()


def test_validation_runs_on_the_training_thread(thread_starts):
    """Training's validation forwards its chunks on the caller's thread,
    which reuses the heap the train steps freed; scoring keeps its helper."""
    from cadts.train import TrainConfig, train_model

    model, series = small_scoring_case()
    cfg = TrainConfig(l=4, h=1, experts=2, kernels=2, embed_dim=8, tower_hidden=4, batch=16, max_epochs=1)
    windows = make_windows(series, cfg.l, cfg.h)
    assert int(len(windows) * cfg.val_fraction) > cfg.batch  # two validation chunks or more
    with cores_and_blas(2):
        _, history = train_model(model, windows, cfg)
        assert history.epochs[0].val_loss is not None
        assert thread_starts == []
        score_series(model, series)
    assert len(thread_starts) == 1


def test_helper_error_is_raised_in_the_caller_and_the_blas_kept_at_one_thread(fake_blas, monkeypatch):
    model, series = small_scoring_case()
    calls = []
    forward = type(model).forward_batch

    def failing_forward(self, windows, mode="eval", rng=None):
        calls.append(threading.current_thread())
        if len(calls) == 3:
            raise RuntimeError("chunk failed")
        return forward(self, windows, mode, rng)

    monkeypatch.setattr(type(model), "forward_batch", failing_forward)
    before = threading.active_count()
    with cores_and_blas(3), pytest.raises(RuntimeError, match="chunk failed"):
        score_series(model, series)
    assert threading.active_count() == before
    assert fake_blas.set_calls == [1] and fake_blas.threads == 1


def test_chunks_run_on_one_blas_thread_each(fake_blas, monkeypatch):
    """The BLAS is set to one thread once per process, never restored:
    two score passes and a training run set it once."""
    from cadts.train import TrainConfig, train_model

    model, series = small_scoring_case()
    seen = []
    forward = type(model).forward_batch

    def watched(self, *args, **kwargs):
        seen.append(fake_blas.threads)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(type(model), "forward_batch", watched)
    with cores_and_blas(2):
        score_series(model, series)
        assert seen == [1] * 4 and fake_blas.set_calls == [1]
        score_series(model, series)
        cfg = TrainConfig(l=4, h=1, experts=2, kernels=2, embed_dim=8, tower_hidden=4, batch=256, max_epochs=1)
        train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    assert set(seen) == {1} and fake_blas.set_calls == [1]


def test_explicit_blas_setting_is_kept(fake_blas, thread_starts, monkeypatch):
    monkeypatch.setattr(cores, "_workers", 1)
    model, series = small_scoring_case()
    with cores_and_blas(4):
        os.environ["OPENBLAS_NUM_THREADS"] = "2"
        cores.enter_worker(1)
        score_series(model, series)
    with cores_and_blas(4):
        os.environ["OMP_NUM_THREADS"] = "4"
        assert cores.eval_threads() == 1
    assert fake_blas.set_calls == []
    assert len(thread_starts) == 1  # 4 cores // 2 BLAS threads: one helper


@pytest.fixture
def blas_library(monkeypatch):
    """Sets the symbols the BLAS lookup finds in numpy's core extension."""
    def use(**symbols):
        monkeypatch.setattr(cores.ctypes, "CDLL", lambda path: SimpleNamespace(**symbols))

    return use


def test_missing_blas_symbol_means_serial_chunks(blas_library, thread_starts):
    blas_library(scipy_openblas_get_num_threads64_=lambda: 2)  # no setter
    assert cores._blas_set_threads() is None
    model, series = small_scoring_case()
    with cores_and_blas(3):
        assert cores.eval_threads() == 1
        score_series(model, series)
    assert thread_starts == []


def test_blas_lookup_falls_back_to_plain_openblas_names(blas_library):
    calls = []

    def set_threads(n):
        calls.append(n)

    blas_library(openblas_get_num_threads=lambda: 7, openblas_set_num_threads=set_threads)
    assert cores._blas_set_threads() is set_threads
    with cores_and_blas(2):
        assert cores.eval_threads() == 2
    assert calls == [1]


def probe_worker(_input) -> tuple[int, int, int | None]:
    return cores.budget(), cores.eval_threads(), blas_threads()


def test_jobs_worker_takes_its_share_of_the_cores(tmp_path, monkeypatch):
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    if cores._blas_set_threads() is None:
        pytest.skip("numpy's BLAS has no known thread-count functions")
    # the workers fork from this process: each sets its own policy
    monkeypatch.setattr(cores, "process_policy", functools.cache(cores.process_policy.__wrapped__))
    share = max(1, len(os.sched_getaffinity(0)) // 2)
    inputs = [tmp_path / "input"] * 2
    inputs[0].write_text("x")
    results = list(cli._run_tasks(probe_worker, [(inputs[0],), (inputs[1],)], 2))
    assert results == [(share, share, 1)] * 2
    assert cores.budget() == len(os.sched_getaffinity(0))  # this process keeps every core


def test_two_threads_scoring_at_once_get_the_serial_scores(thread_starts):
    """Two callers that score at once, each on chunk threads of its own,
    get bitwise the scores of one pass at a time, and leave the BLAS at one
    thread: no thread sets it back while another's chunks run."""
    model = smd_shaped_model("full", "float32")
    series = [SeriesMatrix(values=np.random.default_rng(seed).random((3 * SCORE_CHUNK + 40, 38)))
              for seed in (1, 2)]
    with cores_and_blas(1):
        want = [score_series(model, s).scores for s in series]
    got = [None, None]

    def score(i):
        got[i] = score_series(model, series[i]).scores

    with cores_and_blas(2):
        callers = [threading.Thread(target=score, args=(i,)) for i in (0, 1)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    assert not any(caller.is_alive() for caller in callers)
    assert len(thread_starts) == 4  # two callers, each with one helper
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert blas_threads() in (1, None)


@pytest.fixture
def libc(monkeypatch):
    """Sets the symbols the process policy finds in the C library, under a
    policy of the test's own and no BLAS thread variable."""
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(cores, "process_policy", functools.cache(cores.process_policy.__wrapped__))

    def use(**symbols):
        monkeypatch.setattr(cores.ctypes, "CDLL", lambda path: SimpleNamespace(**symbols))
        cores.process_policy.cache_clear()

    return use


def test_heap_policy_is_set_once_per_process(libc):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc(mallopt=mallopt)
    cores.process_policy()
    cores.process_policy()
    assert calls == [(cores.M_MMAP_THRESHOLD, 32 << 20), (cores.M_TRIM_THRESHOLD, 256 << 20)]


def test_heap_policy_without_mallopt_does_nothing(libc, monkeypatch):
    libc()
    cores.process_policy()

    def no_library(path):
        raise OSError("no C library")

    monkeypatch.setattr(cores.ctypes, "CDLL", no_library)
    cores.process_policy.cache_clear()
    assert cores.process_policy() is None  # no BLAS setter either
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
    cores.process_policy()

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
    monkeypatch.setattr(cores, "process_policy", lambda: events.append("policy") or 1)
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
