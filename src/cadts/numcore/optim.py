"""Adam with bias correction and the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(state: AdamState, params: list[Tensor], grads, lr: float) -> None:
    """One Adam update, in place on the parameter tensors.

    ``grads`` mirrors ``params`` (Tensors or ndarrays). Non-finite
    gradients abort with the offending parameter named.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        gd = g.data if isinstance(g, Tensor) else np.asarray(g)
        if gd.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {gd.shape} != parameter shape {p.data.shape}"
                f" for {p.name or f'param[{i}]'}"
            )
        if not np.all(np.isfinite(gd)):
            raise NumericError(f"non-finite gradient for parameter {p.name or f'param[{i}]'}")
        m, v = state.m[i], state.v[i]
        m *= BETA1
        m += (1.0 - BETA1) * gd
        v *= BETA2
        v += (1.0 - BETA2) * (gd * gd)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


@dataclass(frozen=True)
class CosineSchedule:
    """lr(s) = lr_min + (lr0 - lr_min) * (1 + cos(pi * s / total)) / 2."""

    lr0: float
    lr_min: float = 0.0
    total_steps: int = field(default=1)

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")


def cosine_lr(step: int, sched: CosineSchedule) -> float:
    if not 0 <= step <= sched.total_steps:
        raise ValueError(f"step {step} outside [0, {sched.total_steps}]")
    frac = 0.5 * (1.0 + math.cos(math.pi * step / sched.total_steps))
    return sched.lr_min + (sched.lr0 - sched.lr_min) * frac
