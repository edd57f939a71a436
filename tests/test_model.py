"""Network composition: experts, dual gate, towers, ablation variants."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cadts.errors import ConfigError
from cadts.model import (
    EMBED_DIM,
    TOWER_BLOCK,
    VARIANTS,
    CadModel,
    ModelConfig,
    build_model,
)
from cadts.numcore.tensor import Tape, mul, square, sub, tmean, tsum

from _gradcheck import TOLERANCE, central_diff, max_rel_err


def tiny_config(**kw):
    base = dict(l=6, h=1, experts=3, kernels=4, epsilon=0.7, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


def embeddings(model: CadModel, windows: np.ndarray) -> np.ndarray:
    """The forward's own eval-mode embeddings, (n_windows, n_experts,
    embed_dim): an isolated variant's expert k reads metric k's row."""
    return model._embed(model._as_windows(windows)).transpose(1, 0, 2)


def gate_weights(model: CadModel, windows: np.ndarray) -> np.ndarray:
    """The forward's own eval-mode gate weights, (n_windows, n_metrics,
    n_experts): each metric's simplex over the experts."""
    return model._gate_weights_batch(model._as_windows(windows))


def naive_forward(model: CadModel, window: np.ndarray) -> np.ndarray:
    """Plain-numpy re-composition, expert embeddings recomputed per metric,
    one expert at a time."""
    cfg = model.config
    p = model.params
    shared, personalized = p.get("gate.shared"), p.get("gate.personalized")

    def embed(e, rows):
        if "expert.kernels" not in p:
            flat = rows.reshape(-1)
        else:
            flat = np.maximum(rows @ p["expert.kernels"][e].T, 0.0).reshape(-1)
        hid = np.maximum(flat @ p["expert.ff1_w"][e] + p["expert.ff1_b"][e, 0], 0.0)
        return hid @ p["expert.ff2_w"][e] + p["expert.ff2_b"][e, 0]

    preds = []
    for k in range(model.n_metrics):
        if cfg.variant == "single_task":
            mixed = embed(k, window[k : k + 1])  # metric k's own expert, own row
        elif cfg.variant == "no_gate":
            mixed = np.mean([embed(e, window) for e in range(cfg.experts)], axis=0)
        else:
            embeds = [embed(e, window) for e in range(cfg.experts)]  # recomputed per metric
            gate_in = window.reshape(-1) if cfg.variant == "no_selection" else window[k]
            logits = np.zeros(cfg.experts)
            if shared is not None and personalized is not None:
                logits = cfg.epsilon * (gate_in @ shared) + (
                    1.0 - cfg.epsilon
                ) * (gate_in @ personalized[k])
            elif shared is not None:
                logits = gate_in @ shared
            else:
                logits = gate_in @ personalized[k]
            e = np.exp(logits - logits.max())
            weights = e / e.sum()
            mixed = sum(weights[m] * embeds[m] for m in range(cfg.experts))
        hid = np.maximum(mixed @ p["tower.w1"][k] + p["tower.b1"][k, 0], 0.0)
        preds.append(float(hid @ p["tower.w2"][k, :, 0] + p["tower.b2"][k, 0, 0]))
    return np.array(preds)


# --- experts ------------------------------------------------------------------


def test_expert_embedding_has_width_128():
    model = build_model(ModelConfig(l=16, dtype="float64"), n_metrics=7, rng_seed=0)
    window = np.random.default_rng(0).normal(size=(7, 16))
    assert embeddings(model, window[None])[0, 0].shape == (128,)


def test_expert_forward_deterministic_in_eval():
    model = build_model(tiny_config(), n_metrics=4, rng_seed=1)
    window = np.random.default_rng(1).normal(size=(4, 6))
    first = embeddings(model, window[None])[0, 1]
    second = embeddings(model, window[None])[0, 1]
    assert np.array_equal(first, second)


def test_expert_gradient_wrt_kernels():
    model = build_model(tiny_config(embed_dim=16), n_metrics=3, rng_seed=2)
    window = np.random.default_rng(2).normal(size=(3, 6))
    readout = np.random.default_rng(3).normal(size=(3, 1, 16))
    params = [model.params[f"expert.{f}"] for f in ("kernels", "ff1_w", "ff1_b", "ff2_w", "ff2_b")]

    def forward():
        return tsum(mul(model._embed(window[None]), readout))

    with Tape(params) as tape:
        loss = forward()
    analytic = tape.grad(loss)
    numeric = central_diff(lambda: forward().item(), params)
    assert max_rel_err(analytic, numeric) < TOLERANCE


def test_expert_embeddings_batch_matches_single_windows():
    model = build_model(tiny_config(embed_dim=16), n_metrics=3, rng_seed=18)
    windows = np.random.default_rng(18).normal(size=(7, 3, 6))
    stacked = embeddings(model, windows)
    assert stacked.shape == (7, 3, 16)
    for i in (0, 3, 6):
        for m in range(3):
            np.testing.assert_allclose(
                stacked[i, m], embeddings(model, windows[i : i + 1])[0, m], atol=1e-12
            )


def test_expert_rejects_wrong_window_shape():
    model = build_model(tiny_config(), n_metrics=4, rng_seed=0)
    with pytest.raises(ValueError, match="shape"):
        embeddings(model, np.zeros((1, 4, 5)))


# --- gates --------------------------------------------------------------------


def test_gate_weights_on_simplex():
    model = build_model(tiny_config(), n_metrics=5, rng_seed=3)
    gates = gate_weights(model, np.random.default_rng(4).normal(scale=10.0, size=(10, 5, 6)))
    for k in range(5):
        for w in gates[:, k]:
            assert w.shape == (3,)
            assert np.all(w > 0)
            assert abs(w.sum() - 1.0) < 1e-9


def test_gate_epsilon_one_uses_shared_only():
    model = build_model(tiny_config(epsilon=1.0), n_metrics=4, rng_seed=5)
    rng = np.random.default_rng(5)
    windows = rng.normal(size=(1, 4, 6))
    got = gate_weights(model, windows)[0, 2]
    logits = (windows[0] @ model.params["gate.shared"])[2]
    e = np.exp(logits - logits.max())
    assert np.array_equal(got, e / e.sum())


def test_gate_identical_matrices_collapse_to_shared():
    model = build_model(tiny_config(epsilon=0.8), n_metrics=4, rng_seed=6)
    shared = model.params["gate.shared"]
    model.params["gate.personalized"][:] = shared[None]
    windows = np.random.default_rng(6).normal(size=(3, 4, 6))
    gates = gate_weights(model, windows)
    for k in range(4):
        got = gates[:, k]
        logits = windows[:, k] @ shared
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(got, e / e.sum(axis=-1, keepdims=True), rtol=1e-12)


def test_gate_weights_reject_bad_shapes():
    model = build_model(tiny_config(), n_metrics=4, rng_seed=0)
    for shape in [(4, 6), (1, 4, 5), (1, 3, 6), (1, 1, 4, 6)]:
        with pytest.raises(ValueError, match="shape"):
            gate_weights(model, np.zeros(shape))


@pytest.mark.parametrize("variant", ["full", "no_selection", "no_sgate", "no_pgate"])
def test_gate_weights_blend_the_forward_pass(variant):
    """Towers on gate_weights @ the embeddings reproduce the forward."""
    model = build_model(tiny_config(variant=variant), n_metrics=4, rng_seed=20)
    windows = np.random.default_rng(20).normal(size=(5, 4, 6))
    mixed = gate_weights(model, windows) @ embeddings(model, windows)  # (B, K, W)
    p = model.params
    hid = np.maximum(np.einsum("bkw,kwh->bkh", mixed, p["tower.w1"]) + p["tower.b1"][:, 0], 0.0)
    want = np.einsum("bkh,kh->bk", hid, p["tower.w2"][:, :, 0]) + p["tower.b2"][:, 0, 0]
    np.testing.assert_allclose(model.forward_batch(windows), want, atol=1e-12)


# --- model forward ------------------------------------------------------------


def test_model_forward_output_length_k():
    for k in (1, 3, 9):
        model = build_model(tiny_config(), n_metrics=k, rng_seed=7)
        window = np.random.default_rng(7).normal(size=(k, 6))
        assert model.forward_batch(window[None]).shape == (1, k)


def test_single_expert_forces_unit_gate():
    model = build_model(tiny_config(experts=1), n_metrics=3, rng_seed=8)
    window = np.random.default_rng(8).normal(size=(3, 6))
    assert np.array_equal(gate_weights(model, window[None])[0, 0], [1.0])
    # prediction reduces to Tower_k(f_1(w)) directly
    embed = embeddings(model, window[None])[0, 0]
    p = model.params
    for k in range(3):
        hid = np.maximum(embed @ p["tower.w1"][k] + p["tower.b1"][k, 0], 0.0)
        want = hid @ p["tower.w2"][k, :, 0] + p["tower.b2"][k, 0, 0]
        got = model.forward_batch(window[None])[0, k]
        assert got == pytest.approx(want, rel=1e-12)


def test_gate_gradients_match_finite_differences():
    model = build_model(
        ModelConfig(l=4, h=1, experts=2, kernels=3, epsilon=0.7, dtype="float64"),
        n_metrics=3,
        rng_seed=9,
    )
    rng = np.random.default_rng(9)
    window = rng.normal(size=(3, 4))
    target = rng.normal(size=(3,))
    params = [model.params["gate.shared"], model.params["gate.personalized"]]

    def forward():
        pred = model.forward_batch(window[None])
        return tmean(square(sub(pred, target)))

    with Tape(params) as tape:
        loss = forward()
    analytic = tape.grad(loss)
    numeric = central_diff(lambda: forward().item(), params)
    assert max_rel_err(analytic, numeric) < TOLERANCE


RECORDED_FORWARD = Path(__file__).parent / "fixtures" / "forward_outputs.npz"


@pytest.mark.parametrize("variant", VARIANTS)
def test_seeded_build_reproduces_the_recorded_forward(variant):
    """forward_outputs.npz holds ``windows``
    (``default_rng(2026).normal(size=(5, 3, 4))``) and, per variant, the
    eval-mode ``forward_batch`` output of ``build_model(ModelConfig(l=4, h=1,
    experts=2, kernels=3, embed_dim=8, tower_hidden=4, variant=variant),
    n_metrics=3, rng_seed=7)`` as the one-record-per-expert model of commit
    713db7b computed it: the same seed still draws the same parameters, and
    the stacked bank still computes the same outputs."""
    cfg = ModelConfig(l=4, h=1, experts=2, kernels=3, embed_dim=8, tower_hidden=4, variant=variant)
    with np.load(RECORDED_FORWARD) as recorded:
        windows, want = recorded["windows"], recorded[variant]
    got = build_model(cfg, n_metrics=3, rng_seed=7).forward_batch(windows)
    # single_task's conv is now one batched product instead of per-window
    # vector products, so its float32 outputs may differ by a rounding step
    np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.finfo(np.float32).eps)


def test_forward_rejects_bad_shapes():
    model = build_model(tiny_config(), n_metrics=4, rng_seed=0)
    with pytest.raises(ValueError, match="shape"):
        model.forward_batch(np.zeros((4, 7))[None])
    with pytest.raises(ValueError, match="shape"):
        model.forward_batch(np.zeros((2, 3, 6)))
    with pytest.raises(ValueError, match="mode"):
        model.forward_batch(np.zeros((2, 4, 6)), mode="predict")
    with pytest.raises(ValueError, match="rng"):
        model.forward_batch(np.zeros((2, 4, 6)), mode="train")


# --- build_model / variants ---------------------------------------------------


def test_parameter_census_full_variant():
    k, l, m, n, w, hid = 38, 16, 5, 16, 128, 32
    model = build_model(
        ModelConfig(l=l, h=3, experts=m, kernels=n, epsilon=0.7), n_metrics=k
    )
    expert = n * l + (k * n * w + w) + (w * w + w)
    gates = l * m + k * l * m
    towers = k * (w * hid + hid + hid * 1 + 1)
    assert sum(t.size for t in model.params.values()) == m * expert + gates + towers == 634838


def test_parameter_census_other_variants():
    k, l, m, n, w, hid = 5, 6, 3, 4, 16, 8
    cfg = dict(l=l, h=1, experts=m, kernels=n, epsilon=0.7, embed_dim=w, tower_hidden=hid)
    towers = k * (w * hid + hid + hid + 1)
    conv_expert = n * l + (k * n * w + w) + (w * w + w)
    counts = {
        "no_gate": m * conv_expert + towers,
        "no_sgate": m * conv_expert + k * l * m + towers,
        "no_pgate": m * conv_expert + l * m + towers,
        "no_selection": m * conv_expert + (k * l * m + k * k * l * m) + towers,
        "no_conv": m * ((k * l * w + w) + (w * w + w)) + (l * m + k * l * m) + towers,
        "single_task": k * (n * l + (n * w + w) + (w * w + w)) + towers,
    }
    for variant, want in counts.items():
        model = build_model(ModelConfig(variant=variant, **cfg), n_metrics=k)
        assert sum(t.size for t in model.params.values()) == want, variant


def test_invalid_config_lists_offending_fields():
    with pytest.raises(ConfigError, match="epsilon"):
        build_model(ModelConfig(epsilon=0.3), n_metrics=2)
    with pytest.raises(ConfigError) as err:
        build_model(ModelConfig(l=0, experts=0), n_metrics=2)
    assert "l=0" in str(err.value) and "experts=0" in str(err.value)
    with pytest.raises(ConfigError, match="variant"):
        build_model(ModelConfig(variant="mystery"), n_metrics=2)


def test_pgate_and_sgate_agree_when_matrices_equal():
    cfg_s = tiny_config(variant="no_sgate")
    cfg_p = tiny_config(variant="no_pgate")
    a = build_model(cfg_s, n_metrics=4, rng_seed=10)
    b = build_model(cfg_p, n_metrics=4, rng_seed=10)
    # align everything: same experts/towers, personalized rows := shared matrix
    for pa, pb in zip(a.params.values(), b.params.values()):
        if pa.shape == pb.shape:
            pa[:] = pb
    a.params["gate.personalized"][:] = b.params["gate.shared"][None]
    windows = np.random.default_rng(10).normal(size=(5, 4, 6))
    np.testing.assert_allclose(
        a.forward_batch(windows), b.forward_batch(windows), atol=1e-12
    )


def test_single_task_isolates_metrics():
    model = build_model(tiny_config(variant="single_task"), n_metrics=4, rng_seed=11)
    rng = np.random.default_rng(11)
    window = rng.normal(size=(4, 6))
    base = model.forward_batch(window[None])[0]
    perturbed = window.copy()
    perturbed[1] += rng.normal(scale=5.0, size=6)
    after = model.forward_batch(perturbed[None])[0]
    assert np.array_equal(base[[0, 2, 3]], after[[0, 2, 3]])
    assert base[1] != after[1]


def test_full_variant_has_inter_metric_dependency():
    model = build_model(tiny_config(), n_metrics=4, rng_seed=12)
    rng = np.random.default_rng(12)
    window = rng.normal(size=(4, 6))
    base = model.forward_batch(window[None])[0]
    perturbed = window.copy()
    perturbed[1] += rng.normal(scale=5.0, size=6)
    after = model.forward_batch(perturbed[None])[0]
    assert np.all(base[[0, 2, 3]] != after[[0, 2, 3]])


def test_eval_forward_is_pure():
    for variant in VARIANTS:
        model = build_model(tiny_config(variant=variant), n_metrics=3, rng_seed=13)
        windows = np.random.default_rng(13).normal(size=(4, 3, 6))
        assert np.array_equal(
            model.forward_batch(windows), model.forward_batch(windows)
        ), variant


def test_train_mode_dropout_changes_outputs_eval_does_not():
    model = build_model(tiny_config(), n_metrics=3, rng_seed=14)
    windows = np.random.default_rng(14).normal(size=(4, 3, 6))
    train_a = model.forward_batch(windows, mode="train", rng=np.random.default_rng(1))
    train_b = model.forward_batch(windows, mode="train", rng=np.random.default_rng(2))
    assert not np.array_equal(train_a, train_b)
    eval_out = model.forward_batch(windows)
    assert np.array_equal(eval_out, model.forward_batch(windows))


@pytest.mark.parametrize("variant", VARIANTS)
def test_vectorized_forward_matches_per_metric_recompute(variant):
    """Sharing expert outputs across metrics == recomputing them per metric."""
    model = build_model(tiny_config(variant=variant), n_metrics=5, rng_seed=15)
    rng = np.random.default_rng(15)
    windows = rng.normal(size=(3, 5, 6))
    got = model.forward_batch(windows)
    want = np.stack([naive_forward(model, w) for w in windows])
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_unrecorded_forward_equals_the_recorded_one_bitwise(variant, dtype):
    """An unrecorded forward runs the towers over near-equal blocks of at
    most TOWER_BLOCK metrics, a forward under a tape over all of them at
    once; both give the same bits, in eval mode and in train mode from one
    rng seed (the blocks draw their dropout masks in the metric axis'
    order). K spans one block, a full one, and 9 and 17, where blocks of
    exactly TOWER_BLOCK would leave a one-metric block, which numpy blends
    by gemv and which rounds otherwise."""
    assert TOWER_BLOCK == 8
    for k in (1, 2, 7, 8, 9, 16, 17, 38):
        model = build_model(ModelConfig(variant=variant, dtype=dtype), n_metrics=k, rng_seed=k)
        windows = np.random.default_rng(k).normal(size=(128, k, 16))
        for mode, seed in (("eval", None), ("train", 3)):

            def forward():
                rng = None if seed is None else np.random.default_rng(seed)
                return model.forward_batch(windows, mode=mode, rng=rng)

            unrecorded = forward()
            with Tape([]):
                recorded = forward()
            assert unrecorded.dtype == recorded.dtype == np.dtype(dtype), (k, mode)
            assert np.array_equal(unrecorded, recorded), (k, mode)


def test_unrecorded_forward_holds_no_mix_of_all_metrics():
    """A 128-window forward at 38 metrics in float32 mixes one block of
    metrics at a time, and single_task runs one block's own experts at a
    time, so every variant's traced peak stays below the bytes of one
    (B, K, W) mix of all metrics (2.49 MB). Measured: 2.25 MB for the gated
    variants and no_gate, 1.14 MB for no_conv, 1.17 MB for single_task; the
    whole mix peaked at 3.58 MB, and single_task's experts of all metrics
    at 5.33 MB."""
    windows = np.random.default_rng(0).normal(size=(128, 38, 16)).astype(np.float32)
    for variant in VARIANTS:
        model = build_model(ModelConfig(variant=variant), n_metrics=38, rng_seed=0)
        model.forward_batch(windows)  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model.forward_batch(windows)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 128 * 38 * EMBED_DIM * 4, variant


@pytest.mark.parametrize("variant", ["full", "no_selection", "no_sgate", "no_pgate"])
def test_gate_outputs_on_simplex_for_all_gated_variants(variant):
    model = build_model(tiny_config(variant=variant), n_metrics=4, rng_seed=17)
    rng = np.random.default_rng(17)
    windows = rng.normal(scale=5.0, size=(6, 4, 6))
    gate = gate_weights(model, windows)
    assert gate.shape[-1] == model.config.experts
    assert np.all(gate > 0)
    np.testing.assert_allclose(gate.sum(axis=-1), 1.0, atol=1e-9)


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_stays_finite_on_extreme_inputs(variant):
    model = build_model(tiny_config(variant=variant), n_metrics=3, rng_seed=19)
    rng = np.random.default_rng(19)
    windows = rng.normal(scale=1e3, size=(4, 3, 6))
    out = model.forward_batch(windows)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_dead_wiring(variant):
    """Every parameter picks up a nonzero gradient on some random batch."""
    model = build_model(tiny_config(variant=variant), n_metrics=5, rng_seed=16)
    rng = np.random.default_rng(16)
    windows = rng.normal(size=(8, 5, 6))
    target = rng.normal(size=(8, 5))
    names = list(model.params)
    with Tape(model.params.values()) as tape:
        pred = model.forward_batch(windows, mode="train", rng=rng)
        loss = tmean(square(sub(pred, target)))
    grads = tape.grad(loss)
    for name, grad in zip(names, grads):
        assert np.any(grad != 0.0), f"{variant}: no gradient reaches {name}"
