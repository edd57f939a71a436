"""Mini-batch training (Adam + cosine LR + early stopping) and checkpoints.

The checkpoint wire format: magic ``CADCKPT1``, a u64-length-prefixed
UTF-8 key=value header (version, metric count, one line per ``ModelConfig``
field, seed, scaler arrays; read in any order) padded with LFs to a
multiple of 8 bytes, then every parameter's raw little-endian values in the
model dtype (``<f4`` or ``<f8``), row-major, in ``parameter_layout`` order,
and last the u32 little-endian ``zlib.crc32`` of every byte before it. The
header implies every parameter's shape, so none is stored, and each starts
at an offset aligned for the dtype. Only version 4 is read: versions 1-3
are rejected, to be retrained. The header's length is checked against the
bytes left in the file, the bytes after it against the size its layout
implies, and then the CRC. The checkpoint and ``history.tsv`` are written
by ``data.atomic_write``; header lines split by ``split_lines``.
"""

from __future__ import annotations

import math
import os
import struct
import time
import zlib
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import cores
from .data import Scaler, WindowSet, atomic_write, open_input, split_lines, table_text
from .errors import ConfigError, DataError, NumericError
from .evaluate import window_errors
from .model import CadModel, ModelConfig, parameter_layout, parse_value
from .numcore.optim import AdamState, adam_step, cosine_lr
from .numcore.tensor import Tape, Tensor, square, sub, tmean

CHECKPOINT_MAGIC = b"CADCKPT1"
CHECKPOINT_VERSION = 4


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    """Model plus training hyperparameters; defaults are the reference SMD
    settings."""

    lr0: float = 0.001
    lr_min: float = 0.0
    batch: int = 128
    max_epochs: int = 10
    early_stop_patience: int | None = 2
    val_fraction: float = 0.1
    seed: int = 0
    scale: bool = True
    clip: bool = True

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def validate(self) -> None:
        super().validate()
        bad = []
        if not 0.0 < self.lr0 < math.inf:
            bad.append(f"lr0={self.lr0} (need finite > 0)")
        if not 0.0 <= self.lr_min < math.inf:
            bad.append(f"lr_min={self.lr_min} (need finite >= 0)")
        if self.batch < 1:
            bad.append(f"batch={self.batch} (need >= 1)")
        if self.max_epochs < 1:
            bad.append(f"max_epochs={self.max_epochs} (need >= 1)")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            bad.append(f"early_stop_patience={self.early_stop_patience} (need >= 1 or none)")
        if not 0.0 <= self.val_fraction <= 0.5:
            bad.append(f"val_fraction={self.val_fraction} (need 0 <= f <= 0.5)")
        if self.seed < 0:
            bad.append(f"seed={self.seed} (need >= 0)")
        if bad:
            raise ConfigError("invalid train config: " + "; ".join(bad))


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None
    lr: float
    wall_time: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    stopping_reason: str = "max_epochs"


def mse_loss(y: Tensor, yhat: Tensor) -> Tensor:
    """Mean of squared per-metric errors; doubles as the anomaly score."""
    if y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: y {y.shape} vs yhat {yhat.shape}")
    return tmean(square(sub(y, yhat)))


def train_model(model: CadModel, windows: WindowSet, cfg: TrainConfig) -> tuple[CadModel, TrainHistory]:
    """Train in place: shuffled mini-batches over the chronologically first
    1 - val_fraction of samples, Adam with a cosine schedule over all batch
    steps, early stop when validation stops improving."""
    cfg.validate()
    if len(windows) == 0:
        raise DataError("empty window set")
    n_val = int(len(windows) * cfg.val_fraction)
    n_train = len(windows) - n_val
    train_x, train_y = windows.windows[:n_train], windows.targets[:n_train]
    val_rows = windows.rows[n_train:]  # the rows of the last n_val windows

    batches_per_epoch = (n_train + cfg.batch - 1) // cfg.batch
    total_steps = batches_per_epoch * cfg.max_epochs
    shuffle_rng, dropout_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(2)
    )

    params = model.parameters()
    state = AdamState.for_params(params)
    history = TrainHistory()
    best_val = np.inf
    stale_epochs = 0
    step = 0
    cores.process_policy()

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n_train)
        epoch_lr = cosine_lr(step, total_steps, cfg.lr0, cfg.lr_min)
        loss_sum = 0.0
        for start in range(0, n_train, cfg.batch):
            idx = order[start : start + cfg.batch]
            xb = train_x[idx]
            yb = Tensor(train_y[idx].astype(model.config.np_dtype))
            lr = cosine_lr(step, total_steps, cfg.lr0, cfg.lr_min)
            with Tape(params) as tape:
                pred = model.forward_batch(xb, mode="train", rng=dropout_rng)
                loss = mse_loss(yb, pred)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch + 1}"
                )
            # unnamed, so the gradients are freed before the next forward
            adam_step(state, params, tape.grad(loss), lr)
            step += 1
            loss_sum += loss_value * len(idx)

        # on this thread alone: a helper thread would get a malloc arena of
        # its own instead of the heap the train steps just freed
        val_loss = float(window_errors(model, val_rows, None, cfg.batch, threads=1).mean()) if n_val else None
        if val_loss is not None and not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        history.epochs.append(
            EpochStats(
                epoch=epoch,
                train_loss=loss_sum / n_train,
                val_loss=val_loss,
                lr=epoch_lr,
                wall_time=time.perf_counter() - t0,
            )
        )
        if val_loss is not None:
            if val_loss < best_val:
                best_val = val_loss
                stale_epochs = 0
            else:
                stale_epochs += 1
            if cfg.early_stop_patience is not None and stale_epochs >= cfg.early_stop_patience:
                history.stopping_reason = "early_stop"
                break
    return model, history


def write_history(history: TrainHistory, path) -> None:
    """Per-epoch rows and the stopping reason (``table_text``); no wall time,
    so fixed-seed runs are byte-identical."""
    rows = [("epoch", "train_loss", "val_loss", "lr")]
    rows += [(e.epoch, e.train_loss, e.val_loss, e.lr) for e in history.epochs]
    rows.append(("stopping", history.stopping_reason))
    atomic_write(path, [table_text(rows).encode()])


# --- checkpoint persistence ---------------------------------------------------


def _header_text(model: CadModel, scaler: Scaler | None, cfg: TrainConfig | None) -> str:
    pairs = [("version", CHECKPOINT_VERSION), ("n_metrics", model.n_metrics)]
    pairs += [(f.name, getattr(model.config, f.name)) for f in fields(ModelConfig)]
    pairs.append(("seed", cfg.seed if cfg is not None else model.seed))
    if scaler is None:
        pairs.append(("scaler", "none"))
    else:
        pairs.append(("scaler", "minmax"))
        pairs.append(("scaler_clip", int(scaler.clip)))
        pairs.append(("scaler_min", ",".join(repr(float(v)) for v in scaler.mins)))
        pairs.append(("scaler_max", ",".join(repr(float(v)) for v in scaler.maxs)))
    return "".join(f"{k}={v}\n" for k, v in pairs)


def save_checkpoint(model: CadModel, scaler: Scaler | None, path, cfg: TrainConfig | None = None) -> None:
    """Write the checkpoint atomically, sealed by the CRC of its blocks."""
    header = _header_text(model, scaler, cfg).encode("utf-8")
    header += b"\n" * (-len(header) % 8)
    wire = model.config.np_dtype.newbyteorder("<")
    blob = [CHECKPOINT_MAGIC, struct.pack("<Q", len(header)), header]
    blob += [np.ascontiguousarray(tensor.data, dtype=wire).tobytes() for tensor in model.params.values()]
    crc = 0
    for block in blob:
        crc = zlib.crc32(block, crc)
    atomic_write(path, [*blob, struct.pack("<I", crc)])


def load_checkpoint(path) -> tuple[CadModel, Scaler | None]:
    """The stored model, in the layout its header implies, and its scaler:
    the magic bytes first, then the rest in one buffer, where ``take``
    checks every length; each parameter is a view of that buffer."""
    with open_input(path) as fh:
        if (magic := fh.read(len(CHECKPOINT_MAGIC))) != CHECKPOINT_MAGIC:
            whole = len(magic) == len(CHECKPOINT_MAGIC)
            raise DataError(f"{path}: {'bad magic bytes, not a checkpoint' if whole else 'truncated checkpoint'}")
        buf = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
        view = memoryview(buf)[: fh.readinto(buf)]
    at = 0

    def take(n: int) -> memoryview:
        nonlocal at
        if n > len(view) - at:
            raise DataError(f"{path}: truncated checkpoint")
        at += n
        return view[at - n : at]

    try:
        text = str(take(int.from_bytes(take(8), "little")), "utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: checkpoint header is not UTF-8") from None
    pairs = [line.partition("=") for line in filter(None, split_lines(text))]
    for line, sep, _ in pairs:
        if not sep:
            raise DataError(f"{path}: malformed checkpoint header line {line!r}")
    header = {key: rest for key, _, rest in pairs}

    def value(kind, key: str):
        """``key`` by ``parse_value`` (``list``: of floats), or DataError."""
        if key not in header:
            raise DataError(f"{path}: checkpoint header missing key {key!r}")
        try:
            if kind is list:
                return np.array([parse_value(float, key, v) for v in header[key].split(",")])
            return parse_value(kind, key, header[key])
        except ValueError as exc:
            raise DataError(f"{path}: checkpoint header: {exc}") from None

    version = value(int, "version")
    if version < CHECKPOINT_VERSION:
        raise DataError(f"{path}: checkpoint version {version} is no longer read; retrain")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    hints = get_type_hints(ModelConfig)
    config = ModelConfig(**{key: value(hints[key], key) for key in hints})
    n_metrics, seed = value(int, "n_metrics"), value(int, "seed")
    scaler = None
    if (kind := value(str, "scaler")) == "minmax":
        mins, maxs = value(list, "scaler_min"), value(list, "scaler_max")
        if not len(mins) == len(maxs) == n_metrics:
            raise DataError(f"{path}: scaler has {len(mins)} mins and {len(maxs)} maxs for {n_metrics} metrics")
        scaler = Scaler(mins=mins, maxs=maxs, clip=value(bool, "scaler_clip"))
    elif kind != "none":
        raise DataError(f"{path}: unknown scaler {kind!r} (none or minmax)")
    try:
        layout = parameter_layout(config, n_metrics)
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint header: {exc}") from None

    wire = config.np_dtype.newbyteorder("<")
    params = {
        name: Tensor(np.frombuffer(take(wire.itemsize * math.prod(shape)), wire).reshape(shape), config.np_dtype, name)
        for name, (shape, _) in layout.items()
    }
    sealed = int.from_bytes(take(4), "little") == zlib.crc32(view[:-4], zlib.crc32(CHECKPOINT_MAGIC))
    if at < len(view):
        raise DataError(f"{path}: trailing data after last parameter")
    if not sealed:
        raise DataError(f"{path}: checksum mismatch")
    return CadModel(config, n_metrics, params, seed), scaler
