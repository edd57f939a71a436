"""Scoring and the point-adjustment evaluation protocol."""

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cadts.data import SeriesMatrix, fit_minmax
from cadts.errors import DataError
from cadts.evaluate import (
    MODES,
    SCORE_CHUNK,
    SCORES_TEXT_BLOCK,
    EvalRow,
    aggregate_entities,
    best_f1,
    kth_point_adjust,
    point_adjust,
    prf,
    read_metrics,
    read_scores,
    score_series,
    window_errors,
    write_metrics,
    write_scores,
)
from cadts.model import VARIANTS, ModelConfig, build_model

from _oracles import naive_best_f1, naive_kth_point_adjust, naive_point_adjust, naive_prf_at
from _parity import RECORDED, SCORE_WINDOWS, blas_kernels, parity_values
from _synth import make_sines


def random_case(rng, n_max=120):
    """Labels with a few segments; scores with deliberate ties."""
    n = int(rng.integers(8, n_max))
    labels = (rng.random(n) < 0.3).astype(int)
    if not labels.any():
        labels[int(rng.integers(n))] = 1
    if rng.random() < 0.5:
        scores = rng.choice(np.round(rng.normal(size=5), 2), size=n)
    else:
        scores = rng.normal(size=n)
    return scores, labels


# --- point adjustment ---------------------------------------------------------


def test_point_adjust_floods_hit_segment():
    got = point_adjust([0, 1, 1, 1, 0], [0, 0, 1, 0, 0])
    assert got.tolist() == [0, 1, 1, 1, 0]


def test_point_adjust_no_labels_no_change():
    got = point_adjust([0, 0, 0, 0], [0, 1, 0, 1])
    assert got.tolist() == [0, 1, 0, 1]


def test_point_adjust_miss_leaves_false_positive():
    got = point_adjust([1, 1, 0, 1], [0, 0, 1, 0])
    assert got.tolist() == [0, 0, 1, 0]


def test_point_adjust_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        point_adjust([0, 1], [1])


def test_kth_adjust_within_budget():
    got = kth_point_adjust([1, 1, 1, 1], [0, 0, 1, 0], k=2)
    assert got.tolist() == [1, 1, 1, 1]


def test_kth_adjust_late_detection_clears_segment():
    got = kth_point_adjust([1, 1, 1, 1], [0, 0, 0, 1], k=2)
    assert got.tolist() == [0, 0, 0, 0]


def test_kth_with_full_budget_equals_pa():
    rng = np.random.default_rng(40)
    for _ in range(500):
        scores, labels = random_case(rng)
        preds = (scores > 0).astype(int)
        got = kth_point_adjust(labels, preds, k=len(labels))
        want = point_adjust(labels, preds)
        np.testing.assert_array_equal(got, want)


def test_adjusters_match_naive_oracles():
    rng = np.random.default_rng(41)
    for _ in range(200):
        scores, labels = random_case(rng)
        preds = (scores > rng.normal()).astype(int)
        np.testing.assert_array_equal(
            point_adjust(labels, preds), naive_point_adjust(labels, preds)
        )
        k = int(rng.integers(0, 12))
        np.testing.assert_array_equal(
            kth_point_adjust(labels, preds, k), naive_kth_point_adjust(labels, preds, k)
        )


def test_adjusters_idempotent():
    rng = np.random.default_rng(42)
    for _ in range(100):
        scores, labels = random_case(rng)
        preds = (scores > 0).astype(int)
        once = point_adjust(labels, preds)
        np.testing.assert_array_equal(point_adjust(labels, once), once)
        k = int(rng.integers(0, 8))
        konce = kth_point_adjust(labels, preds, k)
        np.testing.assert_array_equal(kth_point_adjust(labels, konce, k), konce)


def test_point_adjust_never_hurts_f1():
    rng = np.random.default_rng(43)
    for _ in range(300):
        scores, labels = random_case(rng)
        preds = (scores > rng.normal()).astype(int)
        before = prf(labels, preds)
        after = prf(labels, point_adjust(labels, preds))
        assert all(a >= b for a, b in zip(after, before))


def test_kth_f1_non_decreasing_in_k():
    rng = np.random.default_rng(44)
    for _ in range(100):
        scores, labels = random_case(rng, n_max=60)
        preds = (scores > 0).astype(int)
        f1s = [prf(labels, kth_point_adjust(labels, preds, k))[2] for k in range(len(labels) + 1)]
        assert all(a <= b for a, b in zip(f1s, f1s[1:]))
        assert f1s[-1] == prf(labels, point_adjust(labels, preds))[2]


# --- prf ------------------------------------------------------------------------


def test_prf_basic_counts():
    labels = [1, 1, 0, 1, 0, 0]
    preds = [1, 1, 1, 0, 0, 0]
    p, r, f1 = prf(labels, preds)
    assert (p, r, f1) == (2 / 3, 2 / 3, 2 / 3)


def test_prf_perfect():
    assert prf([0, 1, 1], [0, 1, 1]) == (1.0, 1.0, 1.0)


def test_prf_all_negative_convention():
    assert prf([0, 1, 0], [0, 0, 0]) == (0.0, 0.0, 0.0)


def test_prf_rejects_non_binary():
    with pytest.raises(ValueError, match="binary"):
        prf([0, 2], [0, 1])


# --- best_f1 ---------------------------------------------------------------------


def test_best_f1_separable_point():
    got = best_f1([0.1, 0.9, 0.2], [0, 1, 0], mode="raw")
    assert got.threshold == 0.9
    assert got.f1 == 1.0


def test_best_f1_matches_bruteforce_all_modes():
    rng = np.random.default_rng(45)
    for trial in range(60):
        scores, labels = random_case(rng)
        k = int(rng.integers(0, 10))
        for mode in ("raw", "pa", "kpa"):
            got = best_f1(scores, labels, mode=mode, k=k)
            want = naive_best_f1(scores, labels, mode, k=k)
            assert got.f1 == want[3], (trial, mode)
            assert got.threshold == want[0], (trial, mode)
            assert (got.precision, got.recall) == (want[1], want[2]), (trial, mode)


@st.composite
def scored_labels(draw, max_n=60):
    """(scores, labels): at least one positive; scores drawn from a few
    levels, so ties are common."""
    n = draw(st.integers(1, max_n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[draw(st.integers(0, n - 1))] = 1
    levels = draw(st.lists(st.floats(-10, 10), min_size=1, max_size=n))
    scores = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    return np.array(scores), np.array(labels)


@settings(max_examples=200)
@given(scored_labels(), st.integers(0, 60) | st.sampled_from([2**63 - 2, 2**63, 10**30]), st.data())
def test_best_f1_equals_brute_force_property(case, k, data):
    scores, labels = case
    # a fixed threshold: a score, +-inf or a value between two levels; it
    # also counts labels with no positive point
    levels = np.unique(scores)
    between = ((levels[1:] + levels[:-1]) / 2).tolist()
    theta = data.draw(st.sampled_from([*scores.tolist(), -np.inf, np.inf, *between]))
    fixed_labels = np.zeros_like(labels) if data.draw(st.booleans()) else labels
    for mode in MODES:
        got = best_f1(scores, labels, mode=mode, k=k)
        assert tuple(got) == naive_best_f1(scores, labels, mode, k=k)
        fixed = best_f1(scores, fixed_labels, mode=mode, k=k, threshold=theta)
        assert tuple(fixed) == naive_prf_at(scores, fixed_labels, mode, k, theta)
        assert all(type(v) is float for v in (*got, *fixed))


@settings(max_examples=100)
@given(scored_labels())
def test_best_kpa_f1_non_decreasing_in_k_up_to_pa(case):
    scores, labels = case
    pa = best_f1(scores, labels, mode="pa").f1
    f1s = [best_f1(scores, labels, mode="kpa", k=k).f1 for k in range(len(labels) + 1)]
    assert all(a <= b for a, b in zip(f1s, f1s[1:]))
    assert f1s[-1] == pa  # a budget as long as the series never clears a segment


def test_best_f1_shift_invariance():
    rng = np.random.default_rng(46)
    for _ in range(30):
        scores, labels = random_case(rng)
        shift = float(rng.uniform(-5, 5))
        base = best_f1(scores, labels, mode="pa")
        moved = best_f1(scores + shift, labels, mode="pa")
        assert moved.f1 == base.f1
        if np.isfinite(base.threshold):
            assert moved.threshold == pytest.approx(base.threshold + shift, abs=1e-9)


def test_best_f1_requires_positives():
    with pytest.raises(ValueError, match="positive"):
        best_f1([0.1, 0.2], [0, 0], mode="pa")


def test_best_f1_rejects_a_nan_threshold():
    for labels in ([0, 1], [0, 0]):
        with pytest.raises(ValueError, match="nan"):
            best_f1([0.1, 0.2], labels, mode="pa", threshold=float("nan"))


def test_best_f1_rejects_bad_mode_or_k():
    with pytest.raises(ValueError, match="mode"):
        best_f1([0.1], [1], mode="adjusted")
    with pytest.raises(ValueError, match="k"):
        best_f1([0.1], [1], mode="kpa")


# --- aggregation ------------------------------------------------------------------


def test_aggregate_two_entities():
    f1_mean, p_bar, r_bar, f1_star = aggregate_entities([(1.0, 0.5, 2 / 3), (0.5, 1.0, 2 / 3)])
    assert p_bar == 0.75 and r_bar == 0.75
    assert f1_star == 0.75
    assert f1_mean == pytest.approx(2 / 3)


def test_aggregate_single_entity_identity():
    p, r = 0.8, 0.4
    f1 = 2 * p * r / (p + r)
    f1_mean, p_bar, r_bar, f1_star = aggregate_entities([(p, r, f1)])
    assert f1_mean == f1
    assert f1_star == pytest.approx(f1)


def test_aggregate_reproduces_reported_f1_star():
    # published multi-entity row: P=0.9624, R=0.9914 give F1*=0.9767
    _, p_bar, r_bar, f1_star = aggregate_entities([(0.9624, 0.9914, 0.0)])
    assert round(f1_star, 4) == 0.9767


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        aggregate_entities([])


# --- score_series -----------------------------------------------------------------


def constant_predictor(n_metrics, level, l=2, h=1):
    """Model whose output is exactly `level` per metric (all weights zeroed)."""
    model = build_model(
        ModelConfig(l=l, h=h, experts=1, kernels=1, epsilon=0.7, dtype="float64"),
        n_metrics=n_metrics,
    )
    for p in model.params.values():
        p[:] = 0.0
    model.params["tower.b2"][:, 0, 0] = level
    return model


def test_exact_predictor_scores_zero():
    model = constant_predictor(3, level=0.25)
    series = SeriesMatrix(values=np.full((12, 3), 0.25))
    out = score_series(model, series)
    assert np.all(out.scores == 0.0)


def test_score_series_length_and_padding():
    model = constant_predictor(2, level=0.0, l=3, h=2)
    rng = np.random.default_rng(47)
    series = SeriesMatrix(values=rng.random((20, 2)))
    out = score_series(model, series)
    assert len(out) == 20
    assert out.valid_from == 4
    assert np.all(out.scores[:4] == out.scores[4])


def test_score_series_matches_hand_rolled_forward():
    cfg = ModelConfig(l=2, h=1, experts=1, kernels=1, epsilon=0.7, dtype="float64")
    model = build_model(cfg, n_metrics=1, rng_seed=48)
    rng = np.random.default_rng(48)
    series = SeriesMatrix(values=rng.random((8, 1)))
    out = score_series(model, series)

    p = model.params
    for t in range(2, 8):
        window = series.values[t - 2 : t]  # rows t-2, t-1; target row t (h=1)
        conv = np.maximum(window.T @ p["expert.kernels"][0].T, 0.0).reshape(-1)
        hid = np.maximum(conv @ p["expert.ff1_w"][0] + p["expert.ff1_b"][0, 0], 0.0)
        embed = hid @ p["expert.ff2_w"][0] + p["expert.ff2_b"][0, 0]
        hid2 = np.maximum(embed @ p["tower.w1"][0] + p["tower.b1"][0, 0], 0.0)
        pred = hid2 @ p["tower.w2"][0, :, 0] + p["tower.b2"][0, 0, 0]
        want = (pred - series.values[t, 0]) ** 2
        assert out.scores[t] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_score_series_chunks_match_one_window_at_a_time(variant):
    """Around the score chunk boundaries: 1 window, ``SCORE_CHUNK`` - 1,
    ``SCORE_CHUNK`` and ``SCORE_CHUNK`` + 1 windows, then 256 and 257 (two
    full chunks, and two plus a one-window chunk) and 1,500."""
    cfg = ModelConfig(l=3, h=2, experts=2, kernels=2, embed_dim=8, tower_hidden=4, variant=variant)
    model = build_model(cfg, n_metrics=3, rng_seed=50)
    rng = np.random.default_rng(50)
    for n_windows in (1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 256, 257, 1500):
        series = SeriesMatrix(values=rng.random((n_windows + cfg.l + cfg.h - 1, 3)))
        out = score_series(model, series)
        want = window_errors(model, series.values, None, batch=1, threads=1)
        assert len(out) == len(series.values)
        assert out.valid_from == cfg.l + cfg.h - 1
        np.testing.assert_allclose(out.scores[out.valid_from :], want, rtol=1e-6)
        assert np.all(out.scores[: out.valid_from] == out.scores[out.valid_from])


def test_score_series_metric_mismatch():
    model = constant_predictor(3, level=0.0)
    with pytest.raises(DataError, match="metrics"):
        score_series(model, SeriesMatrix(values=np.zeros((10, 2))))


# relative drift allowed from the SkylakeX values on kernels with no fixture:
# about 20 times what Haswell and Sandybridge kernels give (5.3e-7, 5.0e-16)
KERNEL_DRIFT = {"float32": 1e-5, "float64": 1e-14}


def test_scores_and_val_losses_are_bitwise_the_recorded_ones():
    """Every variant in both dtypes, with and without a scaler, at series
    lengths short of one score chunk, of exactly two, and of two chunks and
    one window; validation ends in a one-window chunk (``_parity``). Bitwise
    on a kernel family with a fixture; elsewhere within ``KERNEL_DRIFT`` of
    the SkylakeX one, since each family's gemm kernels round otherwise."""
    got = parity_values()
    kernels = blas_kernels()
    with np.load(RECORDED.get(kernels, RECORDED["SkylakeX"])) as recorded:
        assert sorted(recorded.files) == sorted(got)
        if kernels in RECORDED:
            differ = [key for key in recorded.files if recorded[key].tobytes() != got[key].tobytes()]
        else:
            differ = [key for key in recorded.files if not np.allclose(
                got[key], recorded[key], rtol=KERNEL_DRIFT[key.split("-")[1]], atol=0)]
    assert differ == []
    assert {len(got[f"full-float32-raw-scores{n}"]) - n for n in SCORE_WINDOWS} == {5}


def test_score_series_too_short_message():
    model = constant_predictor(2, level=0.0, l=3, h=2)
    with pytest.raises(DataError) as err:
        score_series(model, SeriesMatrix(values=np.zeros((4, 2))))
    assert str(err.value) == "series of length 4 too short for window 3 + horizon 2; need at least 5 rows"


def test_score_series_memory_grows_by_the_scores_alone():
    """Doubling a 38-metric series adds its scores and errors (16 B a
    timestamp) to the traced peak, not a scaled copy (38 x 12 B)."""
    model = build_model(ModelConfig(experts=2, kernels=2, embed_dim=8, tower_hidden=4), n_metrics=38, rng_seed=1)

    def traced_peak(t):
        series = make_sines(t, 38, seed=4)
        scaler = fit_minmax(series)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            score_series(model, series, scaler)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    # one chunk at a time, so that the peak does not hang on thread timing
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        traced_peak(4000)  # first-call allocations
        growth = traced_peak(8000) - traced_peak(4000)
    assert growth <= 4000 * 16 + (16 << 10)
    assert growth < 4000 * 38 * 12 / 8


def test_score_series_peak_is_one_chunk_at_the_default_shape():
    """A default-shape model (38 metrics, float32) scoring on one core peaks
    at about 2.5 MiB above the parsed series in 128-window chunks (3.8 MiB
    with every metric's tower mix at once, 7.9 in 256-window chunks): the
    chunk's arrays dominate, so the peak follows ``SCORE_CHUNK``."""
    model = build_model(ModelConfig(), n_metrics=38, rng_seed=1)
    series = make_sines(1000, 38, seed=4)  # about eight chunks
    scaler = fit_minmax(series)
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        score_series(model, series, scaler)  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            score_series(model, series, scaler)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak < 5 << 20


# --- plain-text files --------------------------------------------------------------


def test_scores_file_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(49)
    scores = rng.normal(size=64)
    path = tmp_path / "scores.txt"
    write_scores(path, scores)
    back = read_scores(path)
    np.testing.assert_array_equal(back, scores)


@pytest.mark.parametrize("length", [0, 1, SCORES_TEXT_BLOCK - 1, SCORES_TEXT_BLOCK, SCORES_TEXT_BLOCK + 1,
                                    2 * SCORES_TEXT_BLOCK, 2 * SCORES_TEXT_BLOCK + 1])
def test_scores_file_written_in_blocks_is_the_one_text(tmp_path, length):
    scores = np.random.default_rng(length).normal(size=length)
    path = tmp_path / "scores.txt"
    write_scores(path, scores)
    assert path.read_bytes() == "".join(f"{v!r}\n" for v in scores.tolist()).encode()


def test_write_scores_peak_is_one_block_of_text(tmp_path):
    """100k scores are written a block of text at a time: the traced peak
    stays under 1 MB, where the whole text as one string took 10.8 MB."""
    scores = np.random.default_rng(50).random(100_000)
    write_scores(tmp_path / "warm.txt", scores[:10])  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_scores(tmp_path / "scores.txt", scores)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# a row eval can write: printable entity text without tab, CR or LF; raw or
# pa with no k, or kpa with a k >= 0; any real threshold; P, R, F1 in [0, 1]
_unit = st.floats(0.0, 1.0)
_metric_rows = st.builds(
    lambda entity, mode_k, *numbers: EvalRow(entity, *mode_k, *numbers),
    st.text(st.characters(exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"),
                          include_characters=" ")),
    st.tuples(st.sampled_from(("raw", "pa")), st.none()) | st.tuples(st.just("kpa"), st.integers(min_value=0)),
    st.floats(allow_nan=False), _unit, _unit, _unit,
)


@given(rows=st.lists(_metric_rows, min_size=1, max_size=5))
@example(rows=[EvalRow("m1", "raw", None, 0.5, 1.0, 0.5, 2 / 3), EvalRow("m1", "kpa", 10, 0.25, 0.75, 1.0, 6 / 7)])
@settings(max_examples=200, deadline=None)
def test_metrics_file_roundtrip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("metrics") / "metrics.tsv"
    write_metrics(path, rows)
    assert read_metrics(path) == rows


def test_read_scores_rejects_garbage(tmp_path):
    p = tmp_path / "scores.txt"
    p.write_text("0.5\nhello\n")
    with pytest.raises(DataError, match=r"scores\.txt: value 'hello' at line 2, column 1"):
        read_scores(p)
