"""Adam with bias correction and the cosine learning-rate schedule.

Parameters are a name -> array dict (``CadModel.params``). ``adam_step``
updates them and their moments in place, ``BLOCK`` elements at
a time through two block-sized scratch arrays, so it allocates no full-size
temporary. Per element it runs the textbook sequence in the parameter's
dtype, ``m = m*b1 + (1-b1)*g``, ``v = v*b2 + (1-b2)*(g*g)``,
``p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps)``, bitwise equal to the
whole-array expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# elements per block: 128 KB of float32, so a block and its two scratch
# arrays stay in a core's L2 cache
BLOCK = 32_768


@dataclass
class AdamState:
    """Per-parameter first/second moments, in parameter order, plus the
    shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params.values()],
            v=[np.zeros_like(p) for p in params.values()],
        )


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: list[np.ndarray], lr: float) -> None:
    """One Adam update, in place on the parameter arrays.

    ``grads`` mirrors ``params``' values as arrays of their shapes and dtypes;
    parameters and moments are C-contiguous, as built and loaded, and ``lr``
    is taken as a Python float. A parameter's whole gradient is checked
    before it is touched: non-finite values abort with the offending
    parameter named by its key, leaving it and its moments as they were.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    state.t += 1
    lr = float(lr)
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for i, ((name, p), g) in enumerate(zip(params.items(), grads)):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        if g.dtype != p.dtype:
            raise ValueError(f"gradient dtype {g.dtype} != parameter dtype {p.dtype} for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        if not all(a.flags.c_contiguous for a in (p, state.m[i], state.v[i])):
            raise ValueError(f"parameter {name} and its moments must be C-contiguous")
        pf, mf, vf, gf = (a.reshape(-1) for a in (p, state.m[i], state.v[i], g))
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


def cosine_lr(step: int, total_steps: int, lr0: float, lr_min: float) -> float:
    """lr(s) = lr_min + (lr0 - lr_min) * (1 + cos(pi * s / total)) / 2."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    frac = 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
    return lr_min + (lr0 - lr_min) * frac
