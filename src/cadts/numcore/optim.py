"""Adam with bias correction and the cosine learning-rate schedule.

``adam_step`` updates parameters and moments in place, ``BLOCK`` elements at
a time through two block-sized scratch arrays, so it allocates no full-size
temporary. Per element it runs the textbook sequence in the parameter's
dtype, ``m = m*b1 + (1-b1)*g``, ``v = v*b2 + (1-b2)*(g*g)``,
``p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps)``, bitwise equal to the
whole-array expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# elements per block: 128 KB of float32, so a block and its two scratch
# arrays stay in a core's L2 cache
BLOCK = 32_768


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

    ``grads`` mirrors ``params`` (Tensors or ndarrays) in shape and dtype;
    parameters and moments are C-contiguous, as built and loaded, and ``lr``
    is taken as a Python float. A parameter's whole gradient is checked
    before it is touched: non-finite values abort with the offending
    parameter named, leaving it and its moments as they were.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    state.t += 1
    lr = float(lr)
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        name = p.name or f"param[{i}]"
        gd = g.data if isinstance(g, Tensor) else np.asarray(g)
        if gd.shape != p.data.shape:
            raise ValueError(f"gradient shape {gd.shape} != parameter shape {p.data.shape} for {name}")
        if gd.dtype != p.data.dtype:
            raise ValueError(f"gradient dtype {gd.dtype} != parameter dtype {p.data.dtype} for {name}")
        if not np.all(np.isfinite(gd)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        if not all(a.flags.c_contiguous for a in (p.data, state.m[i], state.v[i])):
            raise ValueError(f"parameter {name} and its moments must be C-contiguous")
        pf, mf, vf, gf = (a.reshape(-1) for a in (p.data, state.m[i], state.v[i], gd))
        scratch = np.empty((2, min(pf.size, BLOCK)), pf.dtype)
        for start in range(0, pf.size, BLOCK):
            blk = slice(start, start + BLOCK)
            pb, mb, vb, gb = pf[blk], mf[blk], vf[blk], gf[blk]
            s1, s2 = scratch[:, : len(pb)]
            np.multiply(mb, BETA1, out=mb)
            np.add(mb, np.multiply(gb, 1.0 - BETA1, out=s1), out=mb)
            np.multiply(vb, BETA2, out=vb)
            np.multiply(gb, gb, out=s1)
            np.add(vb, np.multiply(s1, 1.0 - BETA2, out=s1), out=vb)
            np.multiply(np.divide(mb, bc1, out=s1), lr, out=s1)
            np.add(np.sqrt(np.divide(vb, bc2, out=s2), out=s2), EPS, out=s2)
            np.subtract(pb, np.divide(s1, s2, out=s1), out=pb)


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
