"""The conflict-aware detector network.

M convolutional experts read the full K x l window; one gate per metric,
blending a shared matrix with a per-metric personalized matrix over the
metric's own local window, mixes the expert embeddings; a per-metric tower
condenses the mixed embedding into one predicted value.

Forward passes are vectorized over the batch. Experts are stored stacked
along an expert axis (the MMoE layout), towers and personalized gate
matrices along the metric axis, so every variant runs its experts, gates and
towers as a handful of batched matrix products. Each variant (an ablation,
``config.variant``) is a row of ``WIRING``, the one variant table; the
validator, the parameter table and the forward read the row's features,
never the name.

``parameter_layout`` is the one parameter table: the name, shape and fan-in
of every array a variant holds (``expert.*``, ``gate.shared``,
``gate.personalized``, ``tower.*``). A ``CadModel`` is its config plus a
dict of arrays keyed and ordered by that table; ``build_model`` draws them,
the checkpoint loader fills them from the stored records, and the forward
pass looks them up by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, get_args

import numpy as np

from .errors import ConfigError
from .numcore.tensor import add, dense, dropout, mul, recording, reshape, softmax, tmean, transpose


class Wiring(NamedTuple):
    """What a variant wires; a row holds what it drops from full."""

    conv: bool = True  # convolutional experts, else two dense layers on the flattened window
    isolated: bool = False  # one expert per metric, reading only its own row: no sharing
    shared_gate: bool = True  # one gate matrix for every metric
    personalized_gate: bool = True  # a gate matrix per metric; with a shared one, blended by epsilon
    whole_window: bool = False  # gates read the flattened whole window, else the metric's own


WIRING = {
    "full": Wiring(),
    "no_gate": Wiring(shared_gate=False, personalized_gate=False),
    "no_selection": Wiring(whole_window=True),
    "no_sgate": Wiring(shared_gate=False),
    "no_pgate": Wiring(personalized_gate=False),
    "no_conv": Wiring(conv=False),
    "single_task": Wiring(isolated=True, shared_gate=False, personalized_gate=False),
}
VARIANTS = tuple(WIRING)

EMBED_DIM = 128

# The most metrics an unrecorded forward's towers take at once: a constant,
# never derived from the host. Replaying smd-score's passes (38 metrics,
# 2-core Xeon) peaked at 49.0-49.4 MB with blocks of 4, 8 or 16 and at
# 54.0 MB with one block; 8 makes half the calls of 4.
TOWER_BLOCK = 8

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
        wiring = WIRING.get(self.variant)
        if wiring is None:
            bad.append(f"variant={self.variant!r} (known: {', '.join(VARIANTS)})")
        if self.l < 1:
            bad.append(f"l={self.l} (need >= 1)")
        if self.h < 1:
            bad.append(f"h={self.h} (need >= 1)")
        if self.experts < 1:
            bad.append(f"experts={self.experts} (need >= 1)")
        if self.kernels < 1:
            bad.append(f"kernels={self.kernels} (need >= 1)")
        if wiring is not None and wiring.shared_gate and wiring.personalized_gate and not 0.5 < self.epsilon <= 1.0:
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

    @property
    def wiring(self) -> Wiring:
        return WIRING[self.variant]


@dataclass
class CadModel:
    """A wired model: ``params`` maps every ``parameter_layout`` name to its
    array, in layout order (the checkpoint's value order). The arrays are
    C-contiguous, writable and in the model dtype; Adam updates them in place."""

    config: ModelConfig
    n_metrics: int
    params: dict[str, np.ndarray]
    seed: int = 0

    # --- forward --------------------------------------------------------

    def forward_batch(self, windows: np.ndarray, mode: str = "eval",
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Predictions, a (B, K) array, for a batch of windows (B, K, l).

        ``mode='train'`` enables tower dropout and requires ``rng``; eval
        mode is a pure function of (parameters, input).

        While a tape records (whatever the mode), the towers run over all
        metrics at once: in blocks, the embeddings' gradient would sum per
        block, then across blocks, and round otherwise. Unrecorded, they run
        over ``ceil(K / TOWER_BLOCK)`` blocks of metrics into one (B, K)
        array, so one block's (B, k, W) mix, and an isolated variant's
        experts of one block, are alive at a time. The blocks' sizes differ
        by at most one, so none holds a single metric when K > 1: numpy
        blends one metric by gemv, which rounds otherwise. Both ways give
        the same bits and the same dropout draws.
        """
        cfg = self.config
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        win = self._as_windows(windows)
        use_dropout = mode == "train" and cfg.dropout_rate > 0.0
        if use_dropout and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")
        rng = rng if use_dropout else None
        batch, k = win.shape[0], self.n_metrics

        # shared experts run once for all metrics; isolated ones with their metric's tower
        embeddings = None if cfg.wiring.isolated else self._embed(win)  # (E, B, W)
        gate = self._gate_weights_batch(win) if cfg.wiring.shared_gate or cfg.wiring.personalized_gate else None
        if recording():
            raw = self._towers(win, embeddings, gate, None, rng)  # (K, B, 1)
            return transpose(reshape(raw, (k, batch)), (1, 0))
        preds = np.empty((batch, k), dtype=cfg.np_dtype)
        blocks = -(-k // TOWER_BLOCK)
        bounds = [i * k // blocks for i in range(blocks + 1)]
        for start, stop in zip(bounds, bounds[1:]):
            raw = self._towers(win, embeddings, gate, slice(start, stop), rng)
            preds[:, start:stop] = raw.reshape(stop - start, batch).T
        return preds

    def _towers(self, win: np.ndarray, embeddings: np.ndarray | None, gate: np.ndarray | None,
                metrics: slice | None, rng) -> np.ndarray:
        """Tower outputs (k, B, 1) of ``metrics``, all when None: each
        metric's mix of the embeddings (E, B, W) by its gate (B, K, M), the
        experts' mean or its own expert run on ``win``, then tower 1,
        dropout if ``rng``, tower 2."""
        p = self.params
        if self.config.wiring.isolated:
            mixed = self._embed(win, metrics)  # expert k is metric k's own
        elif gate is None:
            mixed = tmean(embeddings, axis=0)  # (B, W), broadcast over the towers
        else:
            blended = dense(_take(gate, metrics, 1), transpose(embeddings, (1, 0, 2)))  # (B, k, W)
            mixed = transpose(blended, (1, 0, 2))  # (k, B, W)
        w1, b1, w2, b2 = (_take(p[f"tower.{name}"], metrics) for name in ("w1", "b1", "w2", "b2"))
        hidden = dense(mixed, w1, b1, relu=True)  # (k, B, hidden)
        if rng is not None:
            hidden = dropout(hidden, self.config.dropout_rate, rng)
        return dense(hidden, w2, b2)

    def _as_windows(self, windows) -> np.ndarray:
        """``windows`` as a C-contiguous (B, K, l) array in the model dtype."""
        windows = np.asarray(windows)
        if windows.ndim != 3 or windows.shape[1:] != (self.n_metrics, self.config.l):
            raise ValueError(
                f"windows must have shape (B, {self.n_metrics}, {self.config.l}), got {windows.shape}"
            )
        return np.ascontiguousarray(windows, dtype=self.config.np_dtype)

    def _embed(self, win: np.ndarray, metrics: slice | None = None) -> np.ndarray:
        """Embeddings (E, B, W) of windows (B, K, l), all experts at once;
        an isolated variant's experts only of ``metrics``, all when None."""
        batch, k, l = win.shape
        p = self.params
        if self.config.wiring.isolated:
            rows = transpose(_take(win, metrics, 1), (1, 0, 2))  # (k, B, l): expert k reads metric k's row
            p = {name: _take(p[name], metrics) for name in p if name.startswith("expert.")}
        else:
            rows = reshape(win, (batch * k, l))  # every expert reads every row
        if self.config.wiring.conv:
            # a kernel spans the whole window, so it meets a row at one
            # position: the convolution is one dot product per row and kernel
            rows = dense(rows, transpose(p["expert.kernels"], (0, 2, 1)), relu=True)  # (E, B*K, N) or (k, B, N)
        flat = reshape(rows, (-1, batch, p["expert.ff1_w"].shape[1]))  # (E or 1, B, ff1 input)
        hidden = dense(flat, p["expert.ff1_w"], p["expert.ff1_b"], relu=True)
        return dense(hidden, p["expert.ff2_w"], p["expert.ff2_b"])

    def _gate_weights_batch(self, win: np.ndarray) -> np.ndarray:
        """Gate weights (B, K, M) of windows (B, K, l)."""
        cfg, wiring = self.config, self.config.wiring
        # (B, K, l): each metric's own window, or (B, 1, K*l): the flattened whole window
        gate_in = reshape(win, (win.shape[0], 1, -1)) if wiring.whole_window else win
        pers_in = transpose(gate_in, (1, 0, 2))  # (K|1, B, in): one personalized matrix per metric
        if wiring.shared_gate:
            logits = dense(gate_in, self.params["gate.shared"])  # (B, K|1, M)
        if wiring.personalized_gate:
            pers = transpose(dense(pers_in, self.params["gate.personalized"]), (1, 0, 2))  # (B, K, M)
            logits = add(mul(logits, cfg.epsilon), mul(pers, 1.0 - cfg.epsilon)) if wiring.shared_gate else pers
        return softmax(logits, axis=-1)


def _take(t: np.ndarray, metrics: slice | None, axis: int = 0) -> np.ndarray:
    """``t``'s ``metrics`` along ``axis``, all when None. A slice is a new
    object, which no tape tracks, so None must return ``t`` itself."""
    return t if metrics is None else t[(slice(None),) * axis + (metrics,)]


def parameter_layout(config: ModelConfig, n_metrics: int) -> dict[str, tuple[tuple[int, ...], int]]:
    """The parameter table: ``group.field`` -> (shape, fan-in) of every
    parameter a model wired per ``config.variant`` holds, in checkpoint
    value order. Expert arrays carry a leading expert axis; their fan-in is
    that of one expert."""
    config.validate()
    if n_metrics < 1:
        raise ConfigError(f"n_metrics must be >= 1, got {n_metrics}")
    k, l, m, n, w = n_metrics, config.l, config.experts, config.kernels, config.embed_dim

    wiring = config.wiring
    count, rows = (k, 1) if wiring.isolated else (m, k)
    flat_in = rows * (n if wiring.conv else l)
    layout = {"expert.kernels": ((count, n, l), l)} if wiring.conv else {}
    layout.update({
        "expert.ff1_w": ((count, flat_in, w), flat_in),
        "expert.ff1_b": ((count, 1, w), flat_in),
        "expert.ff2_w": ((count, w, w), w),
        "expert.ff2_b": ((count, 1, w), w),
    })
    gate_in = k * l if wiring.whole_window else l
    if wiring.shared_gate:
        layout["gate.shared"] = ((gate_in, m), gate_in)
    if wiring.personalized_gate:
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
    model dtype, in a fixed order from the seed, into the arrays the model holds."""
    layout = parameter_layout(config, n_metrics)
    rng = np.random.default_rng(rng_seed)
    params = {name: np.empty(shape, config.np_dtype) for name, (shape, _) in layout.items()}

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    experts = [name for name in layout if name.startswith("expert.")]
    # all of expert 0's arrays, then expert 1's, ...: the order of the
    # unstacked layout, so a seed keeps drawing the same parameter values
    for e in range(len(params["expert.ff1_w"])):
        for name in experts:
            shape, fan_in = layout[name]
            params[name][e] = draw(shape[1:], fan_in)
    for name, (shape, fan_in) in layout.items():
        if name not in experts:
            params[name][...] = draw(shape, fan_in)
    return CadModel(config, n_metrics, params, rng_seed)
