"""Central finite-difference oracle shared by the gradient tests.

Kept independent of the tape: it only perturbs raw parameter arrays and
re-runs a black-box loss callable, so it checks the reverse-mode engine
against plain arithmetic.
"""

from __future__ import annotations

import numpy as np

STEP = 1e-5
TOLERANCE = 1e-4


def central_diff(loss_fn, params, step: float = STEP) -> list[np.ndarray]:
    """d(loss)/d(param) by central differences, element by element.

    ``loss_fn`` takes no arguments and must read the param arrays, which
    are perturbed in place (float64 for the differences to be meaningful).
    """
    grads = []
    for p in params:
        assert p.dtype == np.float64, "finite differences need float64 builds"
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            gf[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric, floor: float = 1e-3) -> float:
    """Max elementwise |a - n| / max(|a|, |n|, floor) over all params.

    The floor keeps near-zero gradients from dividing by ~0; any real
    disagreement >= 1e-7 absolute still registers far above TOLERANCE.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
