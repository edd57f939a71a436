"""Benchmark inputs, generated from the seed and written as files.

The recipes are those of ``tests/_synth.py`` (``make_sines`` and
``make_conflict_dataset``), kept here as plain-array copies so that the
inputs depend only on the benchmark's own files: comparing two commits
of the program then feeds both byte-identical CSVs, whatever either
commit does to its test helpers.

Run as a script it writes one workload's inputs into a directory, in a
child process, so that the generator's memory never counts towards the
benchmark process's peak RSS:

    python3 perfbench/synth.py WORKLOAD SEED SIZE OUT_DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np


def make_sines(t: int, n_metrics: int, seed: int) -> np.ndarray:
    """Noiseless coupled sinusoids (``tests/_synth.make_sines``)."""
    rng = np.random.default_rng(seed)
    tt = np.arange(t)
    columns = []
    for _ in range(n_metrics):
        period = rng.uniform(40.0, 160.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        columns.append(0.5 + 0.4 * np.sin(2.0 * np.pi * tt / period + phase))
    return np.column_stack(columns)


def make_conflict(t_train: int, t_test: int, n_metrics: int, seed: int):
    """(train, test, test_labels) from ``tests/_synth.make_conflict_dataset``:
    stable correlated metrics, one unlabeled baseline-drift metric, and six
    labeled two-metric level shifts in the test half."""
    rng = np.random.default_rng(seed)
    total = t_train + t_test
    tt = np.arange(total)
    factor_a = np.sin(2.0 * np.pi * tt / 97.0)
    factor_b = np.sin(2.0 * np.pi * tt / 223.0 + 1.3)
    columns = []
    for _ in range(n_metrics - 1):
        wa, wb = rng.uniform(0.3, 1.0, size=2)
        mix = (wa * factor_a + wb * factor_b) / (wa + wb)
        columns.append(0.5 + 0.3 * mix + rng.normal(scale=0.005, size=total))

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
    n_segments = 6
    slot = t_test // n_segments
    for i in range(n_segments):
        length = int(rng.integers(10, 26))
        start = t_train + i * slot + int(rng.integers(30, slot - length - 5))
        hit = rng.choice(n_metrics - 1, size=2, replace=False)
        shift = rng.uniform(0.25, 0.4) * rng.choice([-1.0, 1.0])
        values[start : start + length, hit] += shift
        labels[start : start + length] = 1
    return values[:t_train], values[t_train:], labels[t_train:]


def segment_labels(t: int, n_segments: int, seed: int):
    """(labels, [(start, end), ...]): ``n_segments`` disjoint anomaly
    segments of 10-60 steps, one per equal slot of the series."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(t, dtype=np.int64)
    slot = t // n_segments
    segments = []
    for i in range(n_segments):
        length = int(rng.integers(10, min(61, slot // 2)))
        start = i * slot + int(rng.integers(0, slot - length))
        labels[start : start + length] = 1
        segments.append((start, start + length))
    return labels, segments


def _write_csv(path: Path, values: np.ndarray) -> None:
    np.savetxt(path, values, delimiter=",")  # numpy's default %.18e cells


def _write_labels(path: Path, labels: np.ndarray) -> None:
    path.write_text("".join(f"{v}\n" for v in labels.tolist()))


def write_inputs(workload: str, seed: int, size: dict, out: Path) -> None:
    """Write the named workload's input files under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "smd-train":
        _write_csv(out / "train.csv", make_sines(size["smd_rows"], size["smd_metrics"], seed))
    elif workload == "smd-score":
        from cadts.model import build_model
        from cadts.train import TrainConfig, save_checkpoint
        from cadts.data import Scaler

        rows, k = size["smd_rows"], size["smd_metrics"]
        train = make_sines(rows, k, seed)
        test = make_sines(rows, k, seed + 1)
        labels, segments = segment_labels(rows, size["smd_segments"], seed + 2)
        # the anomalies to find: level shifts on two metrics per segment
        rng = np.random.default_rng(seed + 3)
        for start, end in segments:
            hit = rng.choice(k, size=min(2, k), replace=False)
            test[start:end, hit] += rng.uniform(0.25, 0.4) * rng.choice([-1.0, 1.0])
        _write_csv(out / "test.csv", test)
        _write_labels(out / "test_label.csv", labels)
        cfg = TrainConfig(seed=seed, **size["config"])
        model = build_model(cfg.model_config(), n_metrics=k, rng_seed=cfg.seed)
        scaler = Scaler(mins=train.min(axis=0), maxs=train.max(axis=0), clip=cfg.clip)
        save_checkpoint(model, scaler, out / "checkpoint.cadckpt", cfg)
    elif workload == "fleet-cli":
        for i, t in enumerate(size["fleet_train_rows"]):
            train, test, labels = make_conflict(
                t, size["fleet_test_rows"], size["fleet_metrics"], seed * 100 + i
            )
            entity = out / "data" / f"entity-{i}"
            entity.mkdir(parents=True, exist_ok=True)
            _write_csv(entity / "train.csv", train)
            _write_csv(entity / "test.csv", test)
            _write_labels(entity / "test_label.csv", labels)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    workload, seed, size_json, out_dir = sys.argv[1:5]
    write_inputs(workload, int(seed), json.loads(size_json), Path(out_dir))
