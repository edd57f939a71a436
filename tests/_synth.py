"""Synthetic series for training and ablation tests."""

from __future__ import annotations

import numpy as np

from cadts.data import SeriesMatrix


def make_sines(t: int, n_metrics: int, seed: int = 0) -> SeriesMatrix:
    """Noiseless coupled sinusoids: deterministic and easily learnable."""
    rng = np.random.default_rng(seed)
    tt = np.arange(t)
    columns = []
    for _ in range(n_metrics):
        period = rng.uniform(40.0, 160.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        columns.append(0.5 + 0.4 * np.sin(2.0 * np.pi * tt / period + phase))
    return SeriesMatrix(values=np.column_stack(columns))


# the test half's anomaly segments, one per equal slot; a slot holds a
# 30-row lead, a segment of up to 25 rows and at least 5 rows more
CONFLICT_SEGMENTS = 6
MIN_CONFLICT_TEST = CONFLICT_SEGMENTS * (30 + 25 + 5 + 1)


def make_conflict_dataset(
    t_train: int = 2000,
    t_test: int = 2000,
    n_metrics: int = 8,
    seed: int = 0,
) -> tuple[SeriesMatrix, SeriesMatrix]:
    """Stable correlated metrics plus one unlabeled baseline-drift metric.

    The drift metric re-draws its baseline level every hundred-odd steps
    (normal behavior, labels stay 0), pulling shared parameters toward
    drift-tolerance while the clean stable metrics demand precise
    regression. Labeled anomalies are injected only into the test half,
    as moderate simultaneous level shifts on two stable metrics, sized so
    that detectability hinges on how well the stable metrics are modeled.
    Needs ``t_test >= MIN_CONFLICT_TEST`` and ``n_metrics >= 3`` (ValueError).
    """
    if t_test < MIN_CONFLICT_TEST or n_metrics < 3:
        raise ValueError(f"make_conflict_dataset needs t_test >= {MIN_CONFLICT_TEST} and n_metrics >= 3"
                         f" (two stable metrics per anomaly, plus the drift metric), got {t_test} and {n_metrics}")
    rng = np.random.default_rng(seed)
    total = t_train + t_test
    tt = np.arange(total)

    # two shared latent factors induce inter-metric dependency
    factor_a = np.sin(2.0 * np.pi * tt / 97.0)
    factor_b = np.sin(2.0 * np.pi * tt / 223.0 + 1.3)
    columns = []
    for _ in range(n_metrics - 1):
        wa, wb = rng.uniform(0.3, 1.0, size=2)
        mix = (wa * factor_a + wb * factor_b) / (wa + wb)
        columns.append(0.5 + 0.3 * mix + rng.normal(scale=0.005, size=total))

    # drift baseline: frequent jumps during training keep the conflict
    # pressure high; sparser jumps in the test half limit the unavoidable
    # boundary spikes every forecaster pays for
    drift = np.empty(total)
    pos = 0
    while pos < total:
        lo, hi = (80, 150) if pos < t_train else (250, 400)
        span = int(rng.integers(lo, hi))
        drift[pos : pos + span] = rng.uniform(0.0, 1.0)
        pos += span
    drift += rng.normal(scale=0.02, size=total)
    columns.append(drift)

    values = np.column_stack(columns)
    labels = np.zeros(total, dtype=np.int64)

    # anomaly segments, one per equal slot of the test half
    slot = t_test // CONFLICT_SEGMENTS
    for i in range(CONFLICT_SEGMENTS):
        length = int(rng.integers(10, 26))
        start = t_train + i * slot + int(rng.integers(30, slot - length - 5))
        hit = rng.choice(n_metrics - 1, size=2, replace=False)
        shift = rng.uniform(0.25, 0.4) * rng.choice([-1.0, 1.0])
        values[start : start + length, hit] += shift
        labels[start : start + length] = 1

    train = SeriesMatrix(values=values[:t_train].copy())
    test = SeriesMatrix(values=values[t_train:].copy(), labels=labels[t_train:].copy())
    return train, test

