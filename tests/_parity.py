"""Scores and validation losses of every variant, for bitwise parity checks.

``parity_values()`` trains a small model per (variant, dtype, scaled) for
two epochs and scores three test series with it, of 40, 256 and 257
windows. In 128-window ``SCORE_CHUNK``s these sit at the eval chunk edges:
fewer windows than one chunk, exactly two full chunks, and two chunks plus
a one-window last chunk. The 17 validation windows leave a one-window last
chunk of 8-window batches. The lengths are literals, not derived from
``SCORE_CHUNK``, because the fixture's keys name them.

The values' bits depend on the gemm kernels of numpy's OpenBLAS, so
``RECORDED`` names one fixture per kernel family (``blas_kernels``).
``tests/fixtures/chunked_scoring.npz`` holds the SkylakeX (AVX-512) values
as the build before per-chunk scaling computed them, in 256-window chunks;
``chunked_scoring_haswell.npz`` the Haswell (AVX2) values of the 128-window
chunks, which ``OPENBLAS_CORETYPE=Zen`` runs too. To record them again with
the cadts on the path, run ``python tests/_parity.py OUT.npz``, with
``OPENBLAS_CORETYPE`` set to the family.
"""

from __future__ import annotations

import ctypes
import sys
from pathlib import Path

import numpy as np

from cadts.data import SeriesMatrix, apply_minmax, fit_minmax, make_windows
from cadts.evaluate import score_series
from cadts.model import VARIANTS, build_model
from cadts.train import TrainConfig, train_model

from _synth import make_sines

SCORE_WINDOWS = (40, 256, 257)
FIXTURES = Path(__file__).parent / "fixtures"
RECORDED = {"SkylakeX": FIXTURES / "chunked_scoring.npz", "Haswell": FIXTURES / "chunked_scoring_haswell.npz"}


def blas_kernels() -> str | None:
    """The kernel family numpy's OpenBLAS runs (its ``OPENBLAS_CORETYPE``,
    else the CPU's), found as ``cadts.cores`` finds that BLAS; None for
    another BLAS."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    get = getattr(lib, "scipy_openblas_get_corename64_", None)
    if get is None:
        return None
    get.restype, get.argtypes = ctypes.c_char_p, []
    return get().decode()


def _config(variant: str, dtype: str) -> TrainConfig:
    return TrainConfig(
        l=4, h=2, experts=2, kernels=2, embed_dim=8, tower_hidden=4, variant=variant,
        dtype=dtype, batch=8, max_epochs=2, early_stop_patience=None, seed=3,
    )


def _series(t: int, seed: int) -> SeriesMatrix:
    """Sines off the unit range, so that the scaler changes every value."""
    return SeriesMatrix(values=5.0 + 20.0 * make_sines(t, 3, seed).values)


def parity_values() -> dict[str, np.ndarray]:
    out = {}
    for variant in VARIANTS:
        for dtype in ("float32", "float64"):
            cfg = _config(variant, dtype)
            span = cfg.l + cfg.h - 1
            train = _series(170 + span, seed=1)  # 153 training and 17 validation windows
            for scaled in (False, True):
                key = f"{variant}-{dtype}-{'scaled' if scaled else 'raw'}"
                scaler = fit_minmax(train) if scaled else None
                rows = apply_minmax(scaler, train) if scaled else train
                model = build_model(cfg.model_config(), n_metrics=3, rng_seed=cfg.seed)
                model, history = train_model(model, make_windows(rows, cfg.l, cfg.h), cfg)
                out[f"{key}-val_loss"] = np.array([e.val_loss for e in history.epochs])
                for count in SCORE_WINDOWS:
                    test = _series(count + span, seed=2)
                    out[f"{key}-scores{count}"] = score_series(model, test, scaler).scores
    return out


if __name__ == "__main__":
    np.savez_compressed(sys.argv[1], **parity_values())
