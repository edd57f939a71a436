"""The conflict-aware detector network.

M convolutional experts read the full K x l window; one gate per metric,
blending a shared matrix with a per-metric personalized matrix over the
metric's own local window, mixes the expert embeddings; a per-metric tower
condenses the mixed embedding into one predicted value.

Variant wiring (ablations, selectable at build time):

    full          experts + dual gate on the metric's local window
    no_gate       shared-bottom: unweighted mean of expert embeddings
    no_selection  dual gate, but fed the flattened full window
    no_sgate      personalized gate only
    no_pgate      shared gate only
    no_conv       experts are two dense layers on the flattened window
    single_task   one isolated expert+tower per metric, input is only
                  that metric's own window

Forward passes are vectorized over the batch. Experts are stored stacked
along an expert axis (the MMoE layout), towers and personalized gate
matrices along the metric axis, so every variant runs its experts, gates and
towers as a handful of batched matrix products; single_task is the same
expert path with one expert per metric, each reading only its metric's row.

``parameter_layout`` is the one parameter table: the name, shape and fan-in
of every tensor a variant holds (``expert.*``, ``gate.shared``,
``gate.personalized``, ``tower.*``). A ``CadModel`` is its config plus a
dict of tensors keyed and ordered by that table; ``build_model`` draws them,
the checkpoint loader fills them from the stored records, and the forward
pass looks them up by name.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import get_args, get_type_hints

import numpy as np

from .errors import ConfigError
from .numcore import (
    Tensor,
    conv_rows,
    dense,
    dropout,
    matmul,
    reshape,
    softmax,
    tmean,
    transpose,
)

VARIANTS = ("full", "no_gate", "no_selection", "no_sgate", "no_pgate", "no_conv", "single_task")

EMBED_DIM = 128

_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")


def parse_value(kind, key: str, text: str):
    """``text`` as a value of the annotated type ``kind``: ``int``, ``float``,
    ``str``, ``bool`` (true/1/yes/on or false/0/no/off) or ``X | None``
    (none/off). Raises ValueError naming ``key`` if the text does not parse."""
    lowered = text.strip().lower()
    options = get_args(kind)
    if type(None) in options:
        if lowered in ("none", "off"):
            return None
        (kind,) = set(options) - {type(None)}
    try:
        if kind is not bool:
            return kind(text)
        if lowered in _TRUE or lowered in _FALSE:
            return lowered in _TRUE
        raise ValueError(text)
    except ValueError:
        raise ValueError(f"bad value {text!r} for key {key!r}") from None


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults follow the reference setup."""

    l: int = 16
    h: int = 3
    experts: int = 5
    kernels: int = 16
    epsilon: float = 0.7
    variant: str = "full"
    embed_dim: int = EMBED_DIM
    tower_hidden: int = 32
    dropout_rate: float = 0.1
    dtype: str = "float32"

    def validate(self) -> None:
        bad = []
        if self.variant not in VARIANTS:
            bad.append(f"variant={self.variant!r} (known: {', '.join(VARIANTS)})")
        if self.l < 1:
            bad.append(f"l={self.l} (need >= 1)")
        if self.h < 1:
            bad.append(f"h={self.h} (need >= 1)")
        if self.experts < 1:
            bad.append(f"experts={self.experts} (need >= 1)")
        if self.kernels < 1:
            bad.append(f"kernels={self.kernels} (need >= 1)")
        if self.variant in ("full", "no_selection") and not 0.5 < self.epsilon <= 1.0:
            bad.append(f"epsilon={self.epsilon} (need 0.5 < epsilon <= 1)")
        if self.embed_dim < 1:
            bad.append(f"embed_dim={self.embed_dim} (need >= 1)")
        if self.tower_hidden < 1:
            bad.append(f"tower_hidden={self.tower_hidden} (need >= 1)")
        if not 0.0 <= self.dropout_rate < 1.0:
            bad.append(f"dropout_rate={self.dropout_rate} (need 0 <= rate < 1)")
        if self.dtype not in ("float32", "float64"):
            bad.append(f"dtype={self.dtype!r} (float32 or float64)")
        if bad:
            raise ConfigError("invalid model config: " + "; ".join(bad))

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    @classmethod
    def from_text(cls, raw: Mapping[str, str]):
        """An instance from ``field name -> text``, each value parsed by its
        field's annotation (``parse_value``); unset fields keep defaults."""
        hints = get_type_hints(cls)
        return cls(**{key: parse_value(hints[key], key, text) for key, text in raw.items()})


@dataclass
class CadModel:
    """A wired model: ``params`` maps every ``parameter_layout`` name to its
    tensor, in layout order (the checkpoint's record order)."""

    config: ModelConfig
    n_metrics: int
    params: dict[str, Tensor]
    seed: int = 0

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    # --- forward --------------------------------------------------------

    def forward_batch(
        self,
        windows: np.ndarray,
        mode: str = "eval",
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Predictions (B, K) for a batch of windows (B, K, l).

        ``mode='train'`` enables tower dropout and requires ``rng``; eval
        mode is a pure function of (parameters, input).
        """
        cfg = self.config
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        win = self._as_windows(windows)
        use_dropout = mode == "train" and cfg.dropout_rate > 0.0
        if use_dropout and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")
        batch = win.shape[0]
        p = self.params

        # expert outputs are computed once and reused across all metrics
        embeddings = self._embed(win)  # (E, B, W)
        if cfg.variant == "single_task":
            mixed = embeddings  # expert k is metric k's own
        elif cfg.variant == "no_gate":
            mixed = tmean(embeddings, axis=0)  # (B, W), broadcast over the K towers
        else:
            gate = self._gate_weights_batch(win)  # (B, K, M)
            blended = matmul(gate, transpose(embeddings, (1, 0, 2)))  # (B, K, W)
            mixed = transpose(blended, (1, 0, 2))  # (K, B, W)

        hidden = dense(mixed, p["tower.w1"], p["tower.b1"], relu=True)  # (K, B, hidden)
        if use_dropout:
            hidden = dropout(hidden, cfg.dropout_rate, rng)
        raw = dense(hidden, p["tower.w2"], p["tower.b2"])  # (K, B, 1)
        return transpose(reshape(raw, (self.n_metrics, batch)), (1, 0))

    def _as_windows(self, windows) -> Tensor:
        """``windows`` as a (B, K, l) tensor in the model dtype."""
        windows = np.asarray(windows)
        if windows.ndim != 3 or windows.shape[1:] != (self.n_metrics, self.config.l):
            raise ValueError(
                f"windows must have shape (B, {self.n_metrics}, {self.config.l}), got {windows.shape}"
            )
        return Tensor(np.ascontiguousarray(windows, dtype=self.config.np_dtype))

    def _embed(self, win: Tensor) -> Tensor:
        """Embeddings (E, B, W) of windows (B, K, l), all experts at once."""
        batch, k, l = win.shape
        p = self.params
        if self.config.variant == "single_task":
            rows = transpose(win, (1, 0, 2))  # (K, B, l): expert k reads metric k's row
        else:
            rows = reshape(win, (batch * k, l))  # every expert reads every row
        if "expert.kernels" in p:
            rows = conv_rows(rows, p["expert.kernels"], relu=True)  # (E, B*K, N) or (K, B, N)
        flat = reshape(rows, (-1, batch, p["expert.ff1_w"].shape[1]))  # (E or 1, B, ff1 input)
        hidden = dense(flat, p["expert.ff1_w"], p["expert.ff1_b"], relu=True)
        return dense(hidden, p["expert.ff2_w"], p["expert.ff2_b"])

    def _gate_weights_batch(self, win: Tensor) -> Tensor:
        """Gate weights (B, K, M) of windows (B, K, l)."""
        cfg = self.config
        batch = win.shape[0]
        if cfg.variant == "no_selection":
            flat = reshape(win, (batch, 1, self.n_metrics * cfg.l))
            shared_in = flat  # (B, 1, K*l)
            pers_in = transpose(flat, (1, 0, 2))  # (1, B, K*l)
        else:
            shared_in = win  # (B, K, l): shared matrix applied to each metric's own window
            pers_in = transpose(win, (1, 0, 2))  # (K, B, l)

        shared, pers = self.params.get("gate.shared"), self.params.get("gate.personalized")
        if shared is not None:
            logits = matmul(shared_in, shared)  # (B, K|1, M)
        if pers is not None:
            pers_logits = transpose(matmul(pers_in, pers), (1, 0, 2))  # (B, K, M)
            if shared is None:  # no_sgate
                logits = pers_logits
            else:
                logits = logits * cfg.epsilon + pers_logits * (1.0 - cfg.epsilon)
        return softmax(logits, axis=-1)


def window_errors(model: CadModel, windows: np.ndarray, targets: np.ndarray, batch: int) -> np.ndarray:
    """Eval-mode mean squared prediction error of each window, float64 (S,);
    forwards ``batch`` windows at a time to bound memory."""
    errors = np.empty(len(windows), dtype=np.float64)
    for start in range(0, len(windows), batch):
        pred = model.forward_batch(windows[start : start + batch], mode="eval")
        err = pred.data - targets[start : start + batch].astype(model.config.np_dtype)
        errors[start : start + len(err)] = (err * err).mean(axis=1)
    return errors


# --- public eval-mode views -------------------------------------------------


def expert_embeddings(model: CadModel, windows: np.ndarray) -> np.ndarray:
    """Eval-mode embeddings, shape (n_windows, n_experts, embed_dim).

    For single_task models expert k embeds only metric k's row, matching
    the forward pass.
    """
    return model._embed(model._as_windows(windows)).data.transpose(1, 0, 2)


def gate_weights(model: CadModel, windows: np.ndarray) -> np.ndarray:
    """Eval-mode gate weights, shape (n_windows, n_metrics, n_experts): each
    metric's simplex over the experts, as the forward pass blends them.
    Gateless variants (no_gate, single_task) raise ValueError."""
    if model.config.variant in ("no_gate", "single_task"):
        raise ValueError(f"variant {model.config.variant!r} has no gate")
    return model._gate_weights_batch(model._as_windows(windows)).data


def parameter_layout(config: ModelConfig, n_metrics: int) -> dict[str, tuple[tuple[int, ...], int]]:
    """The parameter table: ``group.field`` -> (shape, fan-in) of every
    parameter a model wired per ``config.variant`` holds, in checkpoint
    record order. Expert tensors carry a leading expert axis; their fan-in is
    that of one expert."""
    config.validate()
    if n_metrics < 1:
        raise ConfigError(f"n_metrics must be >= 1, got {n_metrics}")
    k, l, m, n, w = n_metrics, config.l, config.experts, config.kernels, config.embed_dim

    conv = config.variant != "no_conv"
    count, rows = (k, 1) if config.variant == "single_task" else (m, k)
    flat_in = rows * (n if conv else l)
    layout = {"expert.kernels": ((count, n, l), l)} if conv else {}
    layout.update({
        "expert.ff1_w": ((count, flat_in, w), flat_in),
        "expert.ff1_b": ((count, 1, w), flat_in),
        "expert.ff2_w": ((count, w, w), w),
        "expert.ff2_b": ((count, 1, w), w),
    })
    if config.variant not in ("no_gate", "single_task"):
        gate_in = k * l if config.variant == "no_selection" else l
        if config.variant != "no_sgate":
            layout["gate.shared"] = ((gate_in, m), gate_in)
        if config.variant != "no_pgate":
            layout["gate.personalized"] = ((k, gate_in, m), gate_in)
    hidden = config.tower_hidden
    layout.update({
        "tower.w1": ((k, w, hidden), w),
        "tower.b1": ((k, 1, hidden), w),
        "tower.w2": ((k, hidden, 1), hidden),
        "tower.b2": ((k, 1, 1), hidden),
    })
    return layout


def build_model(config: ModelConfig, n_metrics: int, rng_seed: int = 0) -> CadModel:
    """Wire a model per ``config.variant``; every parameter is drawn from
    uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) in float64, then cast to the
    model dtype, in a fixed order from the seed."""
    layout = parameter_layout(config, n_metrics)
    rng = np.random.default_rng(rng_seed)
    params = {name: np.empty(shape, config.np_dtype) for name, (shape, _) in layout.items()}

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    experts = [name for name in layout if name.startswith("expert.")]
    # all of expert 0's tensors, then expert 1's, ...: the order of the
    # unstacked layout, so a seed keeps drawing the same parameter values
    for e in range(len(params["expert.ff1_w"])):
        for name in experts:
            shape, fan_in = layout[name]
            params[name][e] = draw(shape[1:], fan_in)
    for name, (shape, fan_in) in layout.items():
        if name not in experts:
            params[name][...] = draw(shape, fan_in)
    return CadModel(config, n_metrics, {name: Tensor(v, name=name) for name, v in params.items()}, rng_seed)
