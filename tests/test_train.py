"""Loss, training loop, early stopping and checkpoint persistence."""

import struct
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cadts.data import Scaler, SeriesMatrix, apply_minmax, fit_minmax, make_windows
from cadts.errors import DataError, NumericError
from cadts.evaluate import score_series, window_errors
from cadts.model import VARIANTS, ModelConfig, build_model
from cadts.numcore.optim import AdamState, adam_step
from cadts.numcore.tensor import Tape, Tensor
from cadts.train import (
    TrainConfig,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    train_model,
    write_history,
)

from _synth import make_sines


def small_cfg(**kw):
    base = dict(
        l=8, h=1, experts=2, kernels=4, epsilon=0.7, batch=32, max_epochs=3,
        embed_dim=16, tower_hidden=8, seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


def build_for(cfg: TrainConfig, n_metrics: int):
    return build_model(cfg.model_config(), n_metrics=n_metrics, rng_seed=cfg.seed)


def test_default_config_is_the_reference_setting():
    cfg = TrainConfig()
    assert (cfg.l, cfg.h, cfg.experts, cfg.kernels) == (16, 3, 5, 16)
    assert cfg.epsilon == 0.7
    assert (cfg.lr0, cfg.batch, cfg.max_epochs) == (0.001, 128, 10)
    assert cfg.early_stop_patience == 2
    assert cfg.model_config().embed_dim == 128


# --- loss ---------------------------------------------------------------------


def test_mse_zero_residual():
    assert mse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0


def test_mse_two_metrics():
    assert mse_loss(Tensor([1.0, 0.0]), Tensor([0.0, 0.0])).item() == 0.5


def test_mse_single_metric():
    assert mse_loss(Tensor([2.0]), Tensor([5.0])).item() == 9.0


def test_mse_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        mse_loss(Tensor([1.0, 2.0]), Tensor([1.0]))


def test_mse_permutation_invariant():
    rng = np.random.default_rng(50)
    for _ in range(20):
        y, yhat = rng.normal(size=(2, 9))
        perm = rng.permutation(9)
        assert mse_loss(Tensor(y[perm]), Tensor(yhat[perm])).item() == pytest.approx(
            mse_loss(Tensor(y), Tensor(yhat)).item(), rel=1e-12
        )


def test_single_step_descends():
    rng = np.random.default_rng(51)
    for trial in range(20):
        cfg = ModelConfig(
            l=6, h=1, experts=2, kernels=3, epsilon=0.7, embed_dim=12,
            tower_hidden=6, dropout_rate=0.0, dtype="float64",
        )
        model = build_model(cfg, n_metrics=3, rng_seed=100 + trial)
        window = rng.normal(size=(1, 3, 6))
        target = Tensor(rng.normal(size=(1, 3)))
        params = model.parameters()

        def loss_now():
            return mse_loss(target, model.forward_batch(window)).item()

        before = loss_now()
        with Tape(params) as tape:
            loss = mse_loss(target, model.forward_batch(window))
        grads = tape.grad(loss)
        adam_step(AdamState.for_params(params), params, grads, lr=1e-5)
        assert loss_now() <= before + 1e-12


# --- training loop ------------------------------------------------------------


def test_training_fits_noiseless_sines():
    series = make_sines(t=2000, n_metrics=4, seed=3)
    cfg = TrainConfig(
        l=16, h=3, experts=3, kernels=8, epsilon=0.7, batch=128, max_epochs=10,
        seed=7, early_stop_patience=None,
    )
    model = build_for(cfg, 4)
    windows = make_windows(series, cfg.l, cfg.h)
    _, history = train_model(model, windows, cfg)
    first = history.epochs[0].train_loss
    last = history.epochs[-1].train_loss
    assert last < 0.1 * first


def test_fixed_seed_reproduces_history_exactly():
    series = make_sines(t=400, n_metrics=3, seed=4)
    cfg = small_cfg(seed=11, max_epochs=3)
    runs = []
    for _ in range(2):
        model = build_for(cfg, 3)
        _, history = train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
        runs.append(history)
    a, b = runs
    assert a.stopping_reason == b.stopping_reason
    for ea, eb in zip(a.epochs, b.epochs):
        assert (ea.train_loss, ea.val_loss, ea.lr) == (eb.train_loss, eb.val_loss, eb.lr)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_last_val_loss_is_window_errors_of_the_raw_validation_rows(dtype):
    """Training's validation and scoring go through one eval loop: the loss
    of windows made from scaled rows is that of the raw rows scaled by it."""
    raw = make_sines(t=400, n_metrics=3, seed=12)
    raw.values[:] = 40.0 * raw.values - 7.0
    cfg = small_cfg(seed=13, max_epochs=2, val_fraction=0.3, dtype=dtype)
    scaler = fit_minmax(raw, clip=cfg.clip)
    windows = make_windows(apply_minmax(scaler, raw), cfg.l, cfg.h)
    model, history = train_model(build_for(cfg, 3), windows, cfg)
    n_train = len(windows) - int(len(windows) * cfg.val_fraction)
    want = window_errors(model, raw.values[n_train:], scaler, cfg.batch, 1).mean()
    assert np.float64(history.epochs[-1].val_loss).tobytes() == want.tobytes()


def test_each_steps_gradients_die_with_their_adam_step(monkeypatch):
    """No step's gradients outlive their ``adam_step``: by the next step's
    forward, every gradient array of the steps before is freed."""
    from cadts import train

    series = make_sines(t=300, n_metrics=3, seed=8)
    cfg = small_cfg(max_epochs=2, seed=5)
    model = build_for(cfg, 3)
    given, alive_at_forward = [], []
    forward = type(model).forward_batch

    def watched_adam(state, params, grads, lr):
        given.extend(weakref.ref(g) for g in grads)
        adam_step(state, params, grads, lr)

    def watched_forward(self, windows, mode="eval", rng=None):
        if mode == "train":
            alive_at_forward.append(sum(ref() is not None for ref in given))
        return forward(self, windows, mode, rng)

    monkeypatch.setattr(train, "adam_step", watched_adam)
    monkeypatch.setattr(type(model), "forward_batch", watched_forward)
    windows = make_windows(series, cfg.l, cfg.h)
    train_model(model, windows, cfg)
    n_train = len(windows) - int(len(windows) * cfg.val_fraction)
    assert alive_at_forward == [0] * (cfg.max_epochs * -(-n_train // cfg.batch))
    assert len(given) == len(alive_at_forward) * len(model.parameters())


def test_early_stop_after_patience_without_improvement():
    # learning rate too small to move: validation loss never improves on its
    # first value, so training halts after patience + 1 epochs
    series = make_sines(t=300, n_metrics=2, seed=5)
    cfg = small_cfg(lr0=1e-12, max_epochs=10, early_stop_patience=2, seed=2)
    model = build_for(cfg, 2)
    _, history = train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    assert history.stopping_reason == "early_stop"
    assert len(history.epochs) == cfg.early_stop_patience + 1


def test_unlimited_patience_runs_max_epochs():
    series = make_sines(t=300, n_metrics=2, seed=6)
    cfg = small_cfg(max_epochs=4, early_stop_patience=None, seed=3)
    model = build_for(cfg, 2)
    _, history = train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    assert history.stopping_reason == "max_epochs"
    assert len(history.epochs) == 4


def test_no_validation_split_disables_early_stopping():
    series = make_sines(t=300, n_metrics=2, seed=7)
    cfg = small_cfg(val_fraction=0.0, max_epochs=3, early_stop_patience=1, seed=4)
    model = build_for(cfg, 2)
    _, history = train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    assert len(history.epochs) == 3
    assert all(e.val_loss is None for e in history.epochs)


def test_empty_window_set_rejected():
    cfg = small_cfg()
    model = build_for(cfg, 2)
    series = make_sines(t=cfg.l + cfg.h, n_metrics=2, seed=8)
    windows = make_windows(series, cfg.l, cfg.h)
    windows.windows = windows.windows[:0]
    windows.targets = windows.targets[:0]
    with pytest.raises(DataError, match="empty"):
        train_model(model, windows, cfg)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_loss_reports_epoch_and_batch():
    series = make_sines(t=300, n_metrics=2, seed=9)
    cfg = small_cfg(seed=5)
    model = build_for(cfg, 2)
    model.params["tower.w2"].data[:] = np.inf
    with pytest.raises(NumericError, match="epoch 1, batch 1"):
        train_model(model, make_windows(series, cfg.l, cfg.h), cfg)


def test_non_finite_validation_loss_reports_the_epoch():
    # finite training windows, and validation windows whose errors overflow
    series = make_sines(t=300, n_metrics=2, seed=9)
    series.values[-20:, 0] = 1e30
    cfg = small_cfg(seed=5)
    with pytest.raises(NumericError, match="non-finite validation loss at epoch 1"):
        train_model(build_for(cfg, 2), make_windows(series, cfg.l, cfg.h), cfg)


def test_history_file_deterministic(tmp_path):
    series = make_sines(t=300, n_metrics=2, seed=10)
    cfg = small_cfg(seed=6)
    model = build_for(cfg, 2)
    _, history = train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    write_history(history, tmp_path / "a.tsv")
    write_history(history, tmp_path / "b.tsv")
    a = (tmp_path / "a.tsv").read_bytes()
    assert a == (tmp_path / "b.tsv").read_bytes()
    assert a.splitlines()[0] == b"epoch\ttrain_loss\tval_loss\tlr"
    assert a.splitlines()[-1].startswith(b"stopping\t")


# --- checkpoints -----------------------------------------------------------------


def trained_pair(tmp_path, seed=12, dtype="float32"):
    series = make_sines(t=300, n_metrics=3, seed=seed)
    cfg = small_cfg(seed=seed, dtype=dtype)
    model = build_for(cfg, 3)
    train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    scaler = Scaler(mins=np.array([0.0, 0.1, -1.5]), maxs=np.array([1.0, 2.0, 3.5]), clip=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, scaler, path, cfg)
    return model, scaler, path


def test_checkpoint_roundtrip_scores_bitwise(tmp_path):
    for dtype in ("float32", "float64"):
        model, _, path = trained_pair(tmp_path, dtype=dtype)
        loaded, _ = load_checkpoint(path)
        rng = np.random.default_rng(52)
        test = SeriesMatrix(values=rng.random((40, 3)))
        original = score_series(model, test)
        restored = score_series(loaded, test)
        assert np.array_equal(original.scores, restored.scores), dtype


def test_checkpoint_roundtrip_parameters_bitwise(tmp_path):
    for dtype in ("float32", "float64"):
        model, scaler, path = trained_pair(tmp_path, dtype=dtype)
        loaded, loaded_scaler = load_checkpoint(path)
        assert loaded.config.dtype == dtype
        for (name_a, a), (name_b, b) in zip(model.params.items(), loaded.params.items()):
            assert name_a == name_b
            assert a.dtype == b.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(loaded_scaler.mins, scaler.mins)
        np.testing.assert_array_equal(loaded_scaler.maxs, scaler.maxs)
        assert loaded_scaler.clip == scaler.clip


def test_checkpoint_save_is_idempotent(tmp_path):
    model, scaler, path = trained_pair(tmp_path)
    save_checkpoint(model, scaler, tmp_path / "again.ckpt", small_cfg(seed=12))
    assert path.read_bytes() == (tmp_path / "again.ckpt").read_bytes()


def test_checkpoint_header_reports_hyperparameters(tmp_path):
    series = make_sines(t=300, n_metrics=2, seed=13)
    cfg = small_cfg(experts=5, seed=13)
    model = build_for(cfg, 2)
    train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    path = tmp_path / "m5.ckpt"
    save_checkpoint(model, None, path, cfg)
    loaded, scaler = load_checkpoint(path)
    assert loaded.config.experts == 5
    assert loaded.config.variant == "full"
    assert scaler is None


def test_checkpoint_rejects_bad_magic(tmp_path):
    _, _, path = trained_pair(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTCKPT0"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(bad)


def test_checkpoint_rejects_truncation(tmp_path):
    _, _, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(cut)


def test_checkpoint_rejects_a_header_implying_another_layout(tmp_path):
    # the values' size follows from the header, so a wider layout runs out of
    # bytes and a narrower one leaves some over
    _, _, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    assert b"kernels=4" in blob
    tampered = tmp_path / "tampered.ckpt"
    for kernels, reason in ((b"6", "truncated checkpoint"), (b"2", "trailing data after last parameter")):
        tampered.write_bytes(blob.replace(b"kernels=4", b"kernels=" + kernels, 1))
        with pytest.raises(DataError) as err:
            load_checkpoint(tampered)
        assert str(err.value) == f"{tampered}: {reason}"


def test_checkpoint_roundtrip_every_variant(tmp_path):
    rng = np.random.default_rng(53)
    windows = rng.normal(size=(4, 3, 8)).astype(np.float32)
    for variant in VARIANTS:
        cfg = small_cfg(variant=variant, seed=14)
        model = build_for(cfg, 3)
        path = tmp_path / f"{variant}.ckpt"
        save_checkpoint(model, None, path, cfg)
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(
            model.forward_batch(windows).data, loaded.forward_batch(windows).data
        )


@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_reload_resaves_byte_exactly(tmp_path, variant):
    """save(load(path)) writes the original bytes, so the loaded model's
    parameters keep the stored layout order."""
    scaler = Scaler(mins=np.array([0.0, 0.1, -1.5]), maxs=np.array([1.0, 2.0, 3.5]), clip=False)
    for dtype in ("float32", "float64"):
        cfg = small_cfg(variant=variant, seed=15, dtype=dtype)
        path, again = tmp_path / f"{dtype}.ckpt", tmp_path / f"{dtype}.again.ckpt"
        save_checkpoint(build_for(cfg, 3), scaler, path, cfg)
        save_checkpoint(*load_checkpoint(path), again)
        assert again.read_bytes() == path.read_bytes(), dtype


@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_parameters_load_as_aligned_views_of_one_buffer(tmp_path, variant):
    for dtype in ("float32", "float64"):
        cfg = small_cfg(variant=variant, seed=15, dtype=dtype)
        path = tmp_path / f"{dtype}.ckpt"
        save_checkpoint(build_for(cfg, 3), None, path, cfg)
        buffers = set()
        for param in load_checkpoint(path)[0].parameters():
            assert param.data.flags.aligned and param.data.flags.c_contiguous and not param.data.flags.owndata
            base = param.data
            while isinstance(base, np.ndarray):
                base = base.base
            buffers.add(id(base.obj))  # the memoryview's exporter
        assert len(buffers) == 1, dtype


def test_checkpoint_rejects_bad_version(tmp_path):
    _, _, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    tampered = tmp_path / "v9.ckpt"
    assert b"version=4\n" in blob
    tampered.write_bytes(blob.replace(b"version=4", b"version=9", 1))
    with pytest.raises(DataError) as err:
        load_checkpoint(tampered)
    assert str(err.value) == f"{tampered}: unsupported checkpoint version 9"


def test_checkpoint_rejects_non_utf8_header(tmp_path):
    _, _, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    tampered = tmp_path / "bytes.ckpt"
    tampered.write_bytes(blob.replace(b"variant=full", b"variant=\xff\xfeul", 1))
    with pytest.raises(DataError, match="UTF-8"):
        load_checkpoint(tampered)


def test_checkpoint_header_line_order_is_free(tmp_path):
    # earlier writers put the header keys in another order
    model, scaler, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    lines = blob[16 : 16 + n].decode("utf-8").splitlines()
    reordered = tmp_path / "reordered.ckpt"
    body = blob[:16] + "".join(f"{x}\n" for x in reversed(lines)).encode() + blob[16 + n : -4]
    reordered.write_bytes(body + struct.pack("<I", zlib.crc32(body)))  # sealed again
    loaded, loaded_scaler = load_checkpoint(reordered)
    assert loaded.config == model.config
    np.testing.assert_array_equal(loaded_scaler.mins, scaler.mins)
    for a, b in zip(model.params.values(), loaded.params.values()):
        np.testing.assert_array_equal(a.data, b.data)


def test_a_large_file_that_is_not_a_checkpoint_is_refused_after_its_magic(tmp_path):
    path = tmp_path / "large.bin"
    with path.open("wb") as fh:
        fh.truncate(32 << 20)  # 32 MB of zero bytes, sparse on disk
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="bad magic"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- the loader under corruption ---------------------------------------------------


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """Bytes of a tiny minmax-scaled checkpoint, and a path to write
    corrupted copies to."""
    cfg = TrainConfig(l=4, h=1, experts=2, kernels=3, embed_dim=8, tower_hidden=4, seed=1)
    model = build_model(cfg.model_config(), n_metrics=3, rng_seed=cfg.seed)
    scaler = Scaler(mins=np.array([0.0, 0.1, -1.5]), maxs=np.array([1.0, 2.0, 3.5]), clip=True)
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    save_checkpoint(model, scaler, path, cfg)
    return path.read_bytes(), path.with_name("corrupt.ckpt")


def _byte_offset(blob: bytes, field: str) -> int:
    """Byte offset of ``field`` in ``blob``; for a u64 length, the offset of
    its top byte, where one flipped bit asks for exabytes."""
    values = 16 + struct.unpack("<Q", blob[8:16])[0]  # first parameter's first byte
    return {
        "start": 0,
        "header_len": 8 + 7,
        "padding": blob.index(b"\n\n", 16, values) + 1,  # an LF after the last header line
        "values": values,
        "crc": len(blob) - 4,
        "l": blob.index(b"\nl=") + 3,
        "scaler": blob.index(b"\nscaler=") + 8,
    }[field]


@settings(max_examples=300, deadline=None)
@given(field=st.just("start"), bit=st.integers(0, 2**16), truncate=st.booleans())
@example(field="header_len", bit=6, truncate=False)
@example(field="padding", bit=7, truncate=False)  # a byte that is not UTF-8
@example(field="padding", bit=5, truncate=False)  # LF -> '*', a line without '='
@example(field="values", bit=6, truncate=False)
@example(field="crc", bit=0, truncate=False)
@example(field="l", bit=2, truncate=False)  # l=4 -> l=0
@example(field="scaler", bit=0, truncate=False)  # minmax -> linmax
@example(field="values", bit=0, truncate=True)
def test_corrupt_checkpoint_raises_data_error(tiny_checkpoint, field, bit, truncate):
    """A single flipped bit, or a cut, at any position raises DataError: no
    MemoryError, OverflowError, UnicodeDecodeError or ConfigError, and no
    checkpoint that loads with other values."""
    blob, path = tiny_checkpoint
    position = (8 * _byte_offset(blob, field) + bit) % (8 * len(blob))
    corrupt = bytearray(blob)
    if truncate:
        corrupt = corrupt[: position // 8]
    else:
        corrupt[position // 8] ^= 1 << (position % 8)
    path.write_bytes(corrupt)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_every_cut_of_a_checkpoint_raises_data_error(tiny_checkpoint):
    blob, path = tiny_checkpoint
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(DataError, match="truncated checkpoint"):
            load_checkpoint(path)
