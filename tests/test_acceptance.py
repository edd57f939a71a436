"""Acceptance suite: one test per release criterion, printing a PASS line.

Criterion 5 needs the real SMD dataset (not redistributable with the repo);
point CADTS_SMD_ROOT at a directory of <entity>/{train,test,test_label}.csv
to enable it. Everything else is self-contained.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from cadts.cli import main
from cadts.data import SeriesMatrix, apply_minmax, fit_minmax, load_series, make_windows
from cadts.errors import DataError
from cadts.evaluate import (
    aggregate_entities,
    best_f1,
    kth_point_adjust,
    point_adjust,
    prf,
    score_series,
)
from cadts.model import ModelConfig, build_model
from cadts.numcore.tensor import Tape
from cadts.train import TrainConfig, load_checkpoint, mse_loss, save_checkpoint, train_model

from _gradcheck import central_diff, max_rel_err
from _oracles import naive_best_f1
from _synth import make_conflict_dataset, make_sines


def test_criterion_1_gradient_correctness():
    """Analytic gradients of the training loss match central differences
    (64-bit, step 1e-5) for every parameter group, rel err < 1e-4, < 1 min."""
    started = time.perf_counter()
    config = ModelConfig(
        l=8, h=1, experts=2, kernels=3, epsilon=0.7, variant="full", dtype="float64"
    )
    model = build_model(config, n_metrics=4, rng_seed=17)
    rng = np.random.default_rng(17)
    window = rng.normal(size=(1, 4, 8))
    target = rng.normal(size=(1, 4))
    names = list(model.params)
    params = list(model.params.values())
    groups = {name.split(".")[0] for name in names}
    assert groups == {"expert", "gate", "tower"}
    assert any("kernels" in n for n in names) and any("personalized" in n for n in names)

    def forward():
        return mse_loss(target, model.forward_batch(window))

    with Tape(params) as tape:
        loss = forward()
    analytic = tape.grad(loss)
    numeric = central_diff(lambda: forward().item(), params)
    worst = max(
        max_rel_err([a], [n]) for a, n in zip(analytic, numeric)
    )
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"max relative error {worst}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: gradients match finite differences "
          f"(max rel err {worst:.2e}, {len(params)} tensors, {elapsed:.1f}s)")


def _random_eval_case(rng):
    n = int(rng.integers(10, 501))
    labels = (rng.random(n) < 0.3).astype(int)
    if not labels.any():
        labels[int(rng.integers(n))] = 1
    if rng.random() < 0.6:
        pool = np.round(rng.normal(size=5), 2)
        scores = rng.choice(pool, size=n)
    else:
        scores = rng.normal(size=n)
    return scores, labels


def test_criterion_2_best_f1_matches_bruteforce():
    """Fast threshold sweep == naive per-threshold recount, bit-equal, on
    200 random instances (n <= 500) under raw, PA and kPA."""
    rng = np.random.default_rng(18)
    for trial in range(200):
        scores, labels = _random_eval_case(rng)
        k = int(rng.integers(0, 25))
        for mode in ("raw", "pa", "kpa"):
            got = best_f1(scores, labels, mode=mode, k=k)
            want = naive_best_f1(scores, labels, mode, k=k)
            assert got.f1 == want[3], (trial, mode)
            assert (got.threshold, got.precision, got.recall) == want[:3], (trial, mode)
    print("\nPASS criterion 2: best_f1 bit-equals brute force on 200 instances x 3 modes")


def test_criterion_3_point_adjustment_properties():
    """On 1000 random (labels, preds) pairs: PA never lowers F1, kPA F1 is
    non-decreasing in k, and kPA(n) == PA. Zero violations."""
    rng = np.random.default_rng(19)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(8, 101))
        labels = (rng.random(n) < rng.uniform(0.1, 0.5)).astype(int)
        if not labels.any():
            labels[int(rng.integers(n))] = 1
        preds = (rng.random(n) < rng.uniform(0.1, 0.6)).astype(int)

        f1_raw = prf(labels, preds)[2]
        f1_pa = prf(labels, point_adjust(labels, preds))[2]
        if f1_pa < f1_raw:
            violations += 1
        f1_by_k = [prf(labels, kth_point_adjust(labels, preds, k))[2] for k in range(n + 1)]
        if any(a > b for a, b in zip(f1_by_k, f1_by_k[1:])):
            violations += 1
        if f1_by_k[-1] != f1_pa:
            violations += 1
    assert violations == 0
    print("\nPASS criterion 3: PA dominance + kPA monotonicity on 1000 pairs, 0 violations")


def test_criterion_4_windowing_and_scaling_properties():
    """Sample count T-l-h+1 on 500 random triples; MinMax lands training
    data in [0,1]; constant columns map to 0. Zero violations."""
    rng = np.random.default_rng(20)
    for _ in range(500):
        l = int(rng.integers(1, 24))
        h = int(rng.integers(1, 12))
        t = int(l + h + rng.integers(0, 60))
        k = int(rng.integers(1, 5))
        series = SeriesMatrix(values=rng.normal(size=(t, k)))
        assert len(make_windows(series, l, h)) == t - l - h + 1

        train = SeriesMatrix(values=rng.normal(scale=rng.choice([0.1, 1, 50]), size=(t, k)))
        train.values[:, 0] = rng.normal()  # one constant column
        scaled = apply_minmax(fit_minmax(train), train, clip=False)
        assert scaled.values.min() >= 0.0 and scaled.values.max() <= 1.0 + 1e-12
        assert np.all(scaled.values[:, 0] == 0.0)
    print("\nPASS criterion 4: windowing/scaling properties on 500 random instances, 0 violations")


def _smd_root() -> Path | None:
    candidates = []
    env = os.environ.get("CADTS_SMD_ROOT")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "SMD")
    for root in candidates:
        if (root / "machine-1-1" / "train.csv").is_file():
            return root
    return None


def test_criterion_5_smd_machine_1_1_reproduction():
    """Reference-hyperparameter run on SMD machine-1-1: median best-F1
    under PA over 3 seeds >= 0.95 (the published desk-scale bar)."""
    root = _smd_root()
    if root is None:
        pytest.skip(
            "SMD dataset not present (set CADTS_SMD_ROOT to a directory of "
            "<entity>/{train,test,test_label}.csv; see README for conversion). "
            "This environment has no network access to fetch it."
        )
    entity = root / "machine-1-1"
    train_series = load_series(entity / "train.csv")
    test_series = load_series(entity / "test.csv", labels_path=entity / "test_label.csv")
    f1s = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(seed=seed, scale=False)  # SMD ships pre-scaled to [0,1]
        model = build_model(cfg.model_config(), n_metrics=train_series.shape[1], rng_seed=seed)
        model, _ = train_model(model, make_windows(train_series, cfg.l, cfg.h), cfg)
        scores = score_series(model, test_series)
        f1s.append(best_f1(scores, test_series.labels, mode="pa").f1)
    median = float(np.median(f1s))
    assert median >= 0.95, f"median best-F1 {median:.4f} (seeds: {f1s})"
    print(f"\nPASS criterion 5: machine-1-1 median best-F1 {median:.4f} over 3 seeds")


def test_criterion_6_conflict_ablation_direction():
    """On the synthetic conflict dataset (one unlabeled drift metric,
    injected anomalies), full gating beats shared-bottom: median best-F1
    over 5 seeds, full >= no_gate."""
    train, test = make_conflict_dataset(t_train=2000, t_test=2000, n_metrics=8, seed=0)
    medians = {}
    for variant in ("full", "no_gate"):
        f1s = []
        for seed in range(5):
            cfg = TrainConfig(variant=variant, seed=seed)
            model = build_model(cfg.model_config(), n_metrics=8, rng_seed=seed)
            model, _ = train_model(model, make_windows(train, cfg.l, cfg.h), cfg)
            scores = score_series(model, test)
            f1s.append(best_f1(scores, test.labels, mode="pa").f1)
        medians[variant] = float(np.median(f1s))
    assert medians["full"] >= medians["no_gate"], medians
    print(f"\nPASS criterion 6: conflict ablation direction holds "
          f"(full {medians['full']:.4f} >= no_gate {medians['no_gate']:.4f})")


def test_criterion_7_f1_star_identity():
    """Entity-averaged precision/recall reproduce the published F1* row
    (P=0.9624, R=0.9914 -> 0.9767) to 4 decimals."""
    _, p_bar, r_bar, f1_star = aggregate_entities([(0.9624, 0.9914, 0.0)])
    assert (p_bar, r_bar) == (0.9624, 0.9914)
    assert round(f1_star, 4) == 0.9767
    print(f"\nPASS criterion 7: F1* identity reproduces 0.9767 (got {f1_star:.6f})")


def test_criterion_8_checkpoint_persistence(tmp_path):
    """Save/load roundtrip yields a bitwise-identical ScoreSeries; corrupted
    magic bytes are rejected."""
    series = make_sines(t=400, n_metrics=3, seed=21)
    cfg = TrainConfig(l=8, h=1, experts=2, kernels=4, batch=32, max_epochs=2,
                      embed_dim=16, tower_hidden=8, seed=21)
    model = build_model(cfg.model_config(), n_metrics=3, rng_seed=21)
    model, _ = train_model(model, make_windows(series, cfg.l, cfg.h), cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, None, path, cfg)
    loaded, _ = load_checkpoint(path)
    fixed = SeriesMatrix(values=np.random.default_rng(21).random((60, 3)))
    original = score_series(model, fixed)
    restored = score_series(loaded, fixed)
    assert np.array_equal(original.scores, restored.scores)

    corrupted = tmp_path / "bad.ckpt"
    blob = bytearray(path.read_bytes())
    blob[:8] = b"XXXXXXXX"
    corrupted.write_bytes(blob)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(corrupted)
    print("\nPASS criterion 8: checkpoint roundtrip bitwise-identical; bad magic rejected")


def test_criterion_9_training_determinism(tmp_path):
    """Two same-seed CLI train runs produce byte-identical history files
    and checkpoints."""
    data = tmp_path / "data"
    entity = data / "e1"
    entity.mkdir(parents=True)
    np.savetxt(entity / "train.csv", make_sines(300, 3, seed=22).values, fmt="%.17g", delimiter=",")
    flags = ["--set", "l=8", "--set", "h=1", "--set", "experts=2", "--set", "kernels=4",
             "--set", "max_epochs=2", "--set", "embed_dim=16", "--set", "tower_hidden=8",
             "--set", "batch=32", "--set", "seed=5"]
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--data-root", str(data), "--out", str(out)] + flags) == 0
        blobs.append((
            (out / "e1" / "checkpoint.cadckpt").read_bytes(),
            (out / "e1" / "history.tsv").read_bytes(),
        ))
    assert blobs[0] == blobs[1]
    print("\nPASS criterion 9: same-seed runs byte-identical (checkpoint + history)")
