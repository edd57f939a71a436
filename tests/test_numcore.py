"""Engine tests: tape gradients vs finite differences, Adam, cosine LR."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cadts.errors import NumericError
from cadts.model import VARIANTS, ModelConfig, build_model
from cadts.numcore.optim import BLOCK, AdamState, adam_step, cosine_lr
from cadts.numcore.tensor import (
    Tape,
    _op,
    add,
    dense,
    dropout,
    mul,
    reshape,
    softmax,
    square,
    sub,
    tmean,
    transpose,
    tsum,
)
from cadts.train import load_checkpoint, mse_loss, save_checkpoint

from _gradcheck import TOLERANCE, central_diff, max_rel_err
from _oracles import reference_adam_step, reference_softmax, reference_softmax_backward


def test_grad_of_square():
    x = np.array([[3.0]])
    with Tape([x]) as tape:
        loss = tsum(mul(x, x))
    (g,) = tape.grad(loss)
    assert g == pytest.approx(6.0)


def test_grad_of_constant_function_is_zero():
    x = np.ones((2, 3))
    c = np.full((1, 1), 5.0)
    with Tape([x]) as tape:
        loss = tsum(square(c))
    (g,) = tape.grad(loss)
    assert g.shape == (2, 3)
    assert np.all(g == 0.0)


def test_grad_rejects_non_scalar_loss():
    x = np.ones((2, 2))
    with Tape([x]) as tape:
        out = mul(x, x)
    with pytest.raises(ValueError, match="scalar"):
        tape.grad(out)


def test_grad_returns_arrays_in_param_order_with_zeros_for_an_unreached_param():
    """One array per tape parameter, in order: exact gradients for those the
    loss reaches (a 0-d one summed from two uses too), zeros of the shape and
    dtype of one it does not."""
    x = np.array([1.5, -2.0])
    unused = np.ones((3, 2), np.float32)
    s = np.array(3.0)
    with Tape([x, unused, s]) as tape:
        loss = add(tsum(mul(x, x)), mul(s, s))
    gx, gu, gs = tape.grad(loss)
    assert all(type(g) is np.ndarray for g in (gx, gu, gs))
    assert gx.dtype == np.float64 and gx.tobytes() == np.array([3.0, -4.0]).tobytes()
    assert gu.shape == (3, 2) and gu.dtype == np.float32 and not gu.any()
    assert gs.shape == () and gs == 6.0


def test_tape_is_single_use():
    x = np.ones((1, 1))
    with Tape([x]) as tape:
        loss = tsum(mul(x, x))
    tape.grad(loss)
    with pytest.raises(RuntimeError, match="consumed"):
        tape.grad(loss)


def test_backward_that_raises_leaves_the_tape_consumed():
    x = np.ones((2, 2))

    def failing(g):
        raise ZeroDivisionError("backward failed")

    with Tape([x]) as tape:
        loss = tsum(_op(x * 2.0, (mul(x, x), failing)))
    with pytest.raises(ZeroDivisionError, match="backward failed"):
        tape.grad(loss)
    with pytest.raises(RuntimeError, match="consumed"):
        tape.grad(loss)


def test_backward_frees_each_record_before_the_earlier_ones_run():
    """A chain of ``dense`` ops: the late activations are freed by the time
    the first record's backward runs, and the gradients still match finite
    differences."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5, 4))
    ws = [rng.normal(size=shape) for shape in [(4, 6), (6, 6), (6, 3)]]
    freed = {}

    def forward(watch_late=False):
        h = x
        for i, w in enumerate(ws):
            h = dense(h, w, relu=i < len(ws) - 1)
            if watch_late and i > 0:
                freed[i] = False
                weakref.finalize(h, freed.__setitem__, i, True)
        return tmean(square(h))

    with Tape(ws) as tape:
        loss = forward(watch_late=True)
    out, parents, bwd = tape._records[0]
    seen = []

    def first_backward(g):
        seen.append(dict(freed))
        return bwd(g)

    tape._records[0] = (out, parents, first_backward)
    del out, parents
    analytic = tape.grad(loss)
    assert seen == [{1: True, 2: True}]
    numeric = central_diff(lambda: forward().item(), ws)
    assert max_rel_err(analytic, numeric) < TOLERANCE


def test_nested_tapes_rejected():
    with Tape([]):
        with pytest.raises(RuntimeError, match="already active"):
            with Tape([]):
                pass


def test_independent_tapes_on_separate_threads():
    import threading

    results = {}

    def worker(name, value):
        x = np.array([[value]])
        with Tape([x]) as tape:
            loss = tsum(mul(x, x))
        results[name] = tape.grad(loss)[0].item()

    threads = [threading.Thread(target=worker, args=(f"t{i}", float(i + 2))) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {"t0": 4.0, "t1": 6.0, "t2": 8.0, "t3": 10.0}


def test_three_layer_composite_matches_finite_differences():
    """affine -> relu -> softmax -> MSE, gradients vs central differences."""
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=(5,))
    x = rng.normal(size=(3, 4))
    target = rng.random(size=(3, 5))

    def forward():
        h = dense(x, w, b, relu=True)
        y = softmax(h, axis=-1)
        return tmean(square(sub(y, target)))

    with Tape([w, b]) as tape:
        loss = forward()
    analytic = tape.grad(loss)
    numeric = central_diff(lambda: forward().item(), [w, b])
    assert max_rel_err(analytic, numeric) < TOLERANCE


def _primitive_cases():
    """One scalar loss per differentiable primitive, params kept off kinks."""

    def away_from_zero(rng, shape):
        x = rng.normal(size=shape)
        return np.where(np.abs(x) < 1e-2, x + np.sign(x + 1e-12) * 0.1, x)

    def case_add(rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        r = rng.normal(size=(3, 4))
        return [a, b], lambda: tsum(mul(add(a, b), r))

    def case_sub(rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        r = rng.normal(size=(2, 3))
        return [a, b], lambda: tsum(mul(sub(a, b), r))

    def case_mul(rng):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(1, 2))
        r = rng.normal(size=(3, 2))
        return [a, b], lambda: tsum(mul(mul(a, b), r))

    def case_matmul(rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        r = rng.normal(size=(3, 2))
        return [a, b], lambda: tsum(mul(dense(a, b), r))

    def case_matmul_broadcast(rng):
        a = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=(4, 2))
        r = rng.normal(size=(5, 3, 2))
        return [a, b], lambda: tsum(mul(dense(a, b), r))

    def case_matmul_unit_inner(rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 1))
        r = rng.normal(size=(3, 4, 1))
        return [a, b], lambda: tsum(mul(dense(a, b), r))

    def dense_case(x_shape, w_shape, b_shape, relu):
        def case(rng):
            x = rng.normal(size=x_shape)
            w = rng.normal(size=w_shape)
            b = rng.normal(size=b_shape) if b_shape else None
            r = rng.normal(size=dense(x, w, b).shape)
            params = [x, w] + ([b] if b is not None else [])
            return params, lambda: tsum(mul(dense(x, w, b, relu=relu), r))

        case.__name__ = "case_dense" + ("_bias" if b_shape else "") + ("_relu" if relu else "")
        return case

    def case_dense_conv(rng):
        # 2-D rows against a stacked (experts, width, count) weight, as the conv
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(2, 6, 3))
        r = rng.normal(size=(2, 4, 3))
        return [x, w], lambda: tsum(mul(dense(x, w, relu=True), r))

    def case_dense_unit_output(rng):
        x = rng.normal(size=(3, 4, 5))
        w = rng.normal(size=(3, 5, 1))
        b = rng.normal(size=(3, 1, 1))
        r = rng.normal(size=(3, 4, 1))
        return [x, w, b], lambda: tsum(mul(dense(x, w, b), r))

    def case_square(rng):
        a = rng.normal(size=(3, 3))
        r = rng.normal(size=(3, 3))
        return [a], lambda: tsum(mul(square(a), r))

    def case_softmax(rng):
        a = rng.normal(size=(3, 5))
        r = rng.normal(size=(3, 5))
        return [a], lambda: tsum(mul(softmax(a, axis=-1), r))

    def case_softmax_middle_axis(rng):
        a = rng.normal(size=(3, 4, 2))
        r = rng.normal(size=(3, 4, 2))
        return [a], lambda: tsum(mul(softmax(a, axis=1), r))

    def case_softmax_wide(rng):
        a = rng.normal(size=(2, 10))
        r = rng.normal(size=(2, 10))
        return [a], lambda: tsum(mul(softmax(a, axis=-1), r))

    def case_reshape_transpose(rng):
        a = rng.normal(size=(2, 6))
        r = rng.normal(size=(3, 4))
        return [a], lambda: tsum(mul(transpose(reshape(a, (4, 3)), (1, 0)), r))

    def case_sum_axis(rng):
        a = rng.normal(size=(3, 4))
        r = rng.normal(size=(4,))
        return [a], lambda: tsum(mul(tsum(a, axis=0), r))

    def case_mean(rng):
        a = rng.normal(size=(4, 2))
        r = rng.normal(size=(2,))
        return [a], lambda: tsum(mul(tmean(a, axis=0), r))

    def case_conv_rows(rng):
        w = rng.normal(size=(4, 6))
        k = rng.normal(size=(1, 3, 6))
        r = rng.normal(size=(1, 4, 3))
        return [w, k], lambda: tsum(mul(dense(w, transpose(k, (0, 2, 1))), r))

    def case_conv_rows_experts(rng):
        w = rng.normal(size=(4, 6))
        k = rng.normal(size=(2, 3, 6))
        r = rng.normal(size=(2, 4, 3))
        return [w, k], lambda: tsum(mul(dense(w, transpose(k, (0, 2, 1))), r))

    return [
        case_add,
        case_sub,
        case_mul,
        case_matmul,
        case_matmul_broadcast,
        case_matmul_unit_inner,
        *(dense_case((3, 4), (4, 5), b_shape, relu) for b_shape in (None, (5,)) for relu in (False, True)),
        case_dense_conv,
        case_dense_unit_output,
        case_square,
        case_softmax,
        case_softmax_middle_axis,
        case_softmax_wide,
        case_reshape_transpose,
        case_sum_axis,
        case_mean,
        case_conv_rows,
        case_conv_rows_experts,
    ]


@pytest.mark.parametrize("builder", _primitive_cases(), ids=lambda f: f.__name__)
def test_primitive_gradients_match_finite_differences(builder):
    """>= 100 random instances total across the primitive sweep."""
    for seed in range(8):
        rng = np.random.default_rng(1000 + seed)
        params, forward = builder(rng)
        with Tape(params) as tape:
            loss = forward()
        analytic = tape.grad(loss)
        numeric = central_diff(lambda: forward().item(), params)
        assert max_rel_err(analytic, numeric) < TOLERANCE


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((6, 5), (5, 1)), ((3, 6, 5), (3, 5, 1)), ((3, 6, 5), (5, 1))],
    ids=["2d", "batched", "b-broadcast"],
)
def test_matmul_unit_output_grad_is_bitwise_the_matrix_product(dtype, a_shape, b_shape):
    """With one output column the input gradient is g * bᵀ, bitwise g @ bᵀ."""
    rng = np.random.default_rng(17)
    a = rng.normal(size=a_shape).astype(dtype)
    b = rng.normal(size=b_shape).astype(dtype)
    r = rng.normal(size=a_shape[:-1] + (1,)).astype(dtype)
    with Tape([a]) as tape:
        loss = tsum(mul(dense(a, b), r))
    (grad,) = tape.grad(loss)
    expected = r @ b.swapaxes(-1, -2)
    assert grad.dtype == expected.dtype and grad.shape == expected.shape
    assert np.array_equal(grad, expected)


def _relu_op(a):
    """relu as a tape op of its own: the last op of the three-op layer
    ``relu(add(dense(x, w), b))`` that ``dense`` fuses."""
    y = np.maximum(a, 0)
    return _op(y, (a, lambda g: g * (y > 0)))


@pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "x_shape, w_shape, b_shape",
    [((6, 5), (5, 4), (4,)), ((3, 6, 5), (3, 5, 4), (3, 1, 4)),
     ((6, 5), (3, 5, 4), (3, 1, 4)), ((3, 6, 5), (3, 5, 1), (3, 1, 1))],
    ids=["2d", "stacked", "x-broadcast", "unit-output"],
)
def test_dense_is_bitwise_the_three_op_form(x_shape, w_shape, b_shape, dtype, relu):
    rng = np.random.default_rng(29)
    x, w, b = (rng.normal(size=s).astype(dtype) for s in (x_shape, w_shape, b_shape))
    adjoint = rng.normal(size=(x @ w).shape).astype(dtype)

    def three_op():
        y = add(dense(x, w), b)
        return _relu_op(y) if relu else y

    results = []
    for forward in (lambda: dense(x, w, b, relu=relu), three_op):
        with Tape([x, w, b]) as tape:
            y = forward()
            loss = tsum(mul(y, adjoint))
        results.append([y] + tape.grad(loss))
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# --- the recording contract: every primitive records through _op ----------------


def _contract_cases():
    """(op, lhs, rhs): each operand is one of the tape's parameters
    ("watched"), an array off the tape ("const"), a value-equal copy of a
    parameter the op is not given ("copy") or a Python scalar (elementwise
    ops only)."""
    cases = []
    for name, op in (("add", add), ("sub", sub), ("mul", mul), ("matmul", dense)):
        kinds = [("watched", "const"), ("const", "watched"), ("watched", "watched"), ("const", "const"),
                 ("copy", "const"), ("watched", "copy")]
        if op is not dense:
            kinds += [("watched", "scalar"), ("scalar", "watched"), ("const", "scalar")]
        cases += [pytest.param(op, lhs, rhs, id=f"{name}-{lhs}-{rhs}") for lhs, rhs in kinds]
    return cases


@pytest.mark.parametrize("op, lhs, rhs", _contract_cases())
def test_op_records_exactly_the_tracked_operands(op, lhs, rhs):
    rng = np.random.default_rng(23)
    shapes = ((2, 3), (3, 4)) if op is dense else ((2, 3), (1, 3))

    copied = []  # the parameters a "copy" operand equals

    def operand(kind, shape):
        if kind == "scalar":
            return 1.5
        value = rng.normal(size=shape)
        if kind == "copy":
            copied.append(value)
            return value.copy()
        return value

    a, b = operand(lhs, shapes[0]), operand(rhs, shapes[1])
    tracked = [t for t, kind in ((a, lhs), (b, rhs)) if kind == "watched"]
    with Tape(tracked + copied) as tape:
        out = op(a, b)
        records = list(tape._records)
        loss = tsum(out)
    # the tape tracks objects, not values: an equal copy records nothing,
    # and the parameter it equals gets zeros
    assert all(not g.any() for g in tape.grad(loss)[len(tracked):])
    if not tracked:
        assert records == []
        return
    (record,) = records
    rec_out, parents, bwd = record
    assert rec_out is out
    assert [id(p) for p in parents] == [id(t) for t in tracked]
    grads = bwd(np.ones_like(out))
    assert len(grads) == len(parents)
    assert [g.shape for g in grads] == [p.shape for p in parents]


def test_op_backward_calls_only_the_tracked_grad_fns():
    x, c = np.ones(3), np.ones(3)
    calls = []

    def grad_fn(name):
        return lambda g: calls.append(name) or g

    with Tape([x]) as tape:
        out = _op(x + c, (c, grad_fn("c")), (x, grad_fn("x")), (2.0, grad_fn("scalar")))
    _, parents, bwd = tape._records[-1]
    assert len(parents) == 1 and parents[0] is x
    bwd(np.ones_like(out))
    assert calls == ["x"]


# records of one train step (forward in train mode plus the loss) per variant
# at 38 metrics and the default config; the count does not depend on batch size
TAPE_RECORDS_PER_STEP = {
    "full": 24, "no_gate": 16, "no_selection": 24, "no_sgate": 20,
    "no_pgate": 19, "no_conv": 21, "single_task": 14,
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_tape_records_per_train_step(variant):
    cfg = ModelConfig(variant=variant)
    model = build_model(cfg, 38, rng_seed=0)
    x = np.random.default_rng(0).random((4, 38, cfg.l)).astype(cfg.np_dtype)
    y = np.zeros((4, 38), cfg.np_dtype)
    with Tape(model.params.values()) as tape:
        mse_loss(y, model.forward_batch(x, mode="train", rng=np.random.default_rng(1)))
    assert len(tape._records) == TAPE_RECORDS_PER_STEP[variant]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tape_values_are_plain_arrays_in_the_operand_dtype(tmp_path, dtype):
    """Every primitive, on and off a tape, the forward in each mode and
    ``Tape.grad`` give exactly ``np.ndarray`` in the operand dtype, a full
    reduction a 0-d one. Parameters, built or loaded, are C-contiguous,
    writable native arrays, as ``adam_step`` updates them in place."""
    rng = np.random.default_rng(31)
    a, b = (rng.normal(size=(2, 3)).astype(dtype) for _ in range(2))
    w = rng.normal(size=(3, 4)).astype(dtype)

    def plain(x, shape=None):
        return type(x) is np.ndarray and x.dtype == np.dtype(dtype) and (shape is None or x.shape == shape)

    def primitives():
        return {
            "add": add(a, b), "sub": sub(a, b), "mul": mul(a, 2.0), "dense": dense(a, w, w[0], relu=True),
            "square": square(a), "softmax": softmax(a), "reshape": reshape(a, (3, 2)),
            "transpose": transpose(a, (1, 0)), "tsum": tsum(a, axis=0), "tmean": tmean(a, axis=1),
            "dropout": dropout(a, 0.5, rng), "full tsum": tsum(a), "full tmean": tmean(a),
        }

    with Tape([a, w]) as tape:
        recorded = primitives()
    for outs in (primitives(), recorded):
        assert [name for name, x in outs.items() if not plain(x)] == []
        assert outs["full tsum"].shape == outs["full tmean"].shape == ()
    assert all(plain(g) for g in tape.grad(recorded["full tmean"]))

    cfg = ModelConfig(l=6, h=1, experts=2, kernels=3, embed_dim=8, tower_hidden=4, dtype=dtype)
    model = build_model(cfg, n_metrics=3, rng_seed=31)
    windows = rng.normal(size=(5, 3, 6))  # float64, cast to the model dtype
    assert plain(model.forward_batch(windows), (5, 3))
    assert plain(model.forward_batch(windows, mode="train", rng=rng), (5, 3))
    with Tape(model.params.values()) as tape:
        pred = model.forward_batch(windows, mode="train", rng=rng)
        loss = mse_loss(np.zeros((5, 3), dtype), pred)
    assert plain(pred, (5, 3)) and plain(loss, ())
    assert all(plain(g, p.shape) for g, p in zip(tape.grad(loss), model.params.values()))

    save_checkpoint(model, None, tmp_path / "model.ckpt")
    for params in (model.params, load_checkpoint(tmp_path / "model.ckpt")[0].params):
        for name, p in params.items():
            assert plain(p) and p.dtype.isnative and p.flags.c_contiguous and p.flags.writeable, name


def test_dropout_gradient_with_frozen_mask():
    a = np.random.default_rng(3).normal(size=(6, 5))
    r = np.random.default_rng(4).normal(size=(6, 5))

    def forward():
        # reseeding per call freezes the mask, so differences are valid
        return tsum(mul(dropout(a, 0.4, np.random.default_rng(99)), r))

    with Tape([a]) as tape:
        loss = forward()
    analytic = tape.grad(loss)
    numeric = central_diff(lambda: forward().item(), [a])
    assert max_rel_err(analytic, numeric) < TOLERANCE


def test_dropout_scales_kept_units():
    a = np.ones((1000,))
    out = dropout(a, 0.25, np.random.default_rng(0))
    kept = out[out != 0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert 0.6 < kept.size / 1000 < 0.9


def test_dropout_rate_zero_is_identity():
    a = np.ones((4,))
    assert dropout(a, 0.0, np.random.default_rng(0)) is a


# --- softmax contract -------------------------------------------------------


def test_softmax_symmetric_pair():
    assert softmax(np.array([0.0, 0.0])) == pytest.approx([0.5, 0.5])


def test_softmax_exact_exponentials():
    v = np.array([math.log(1.0), math.log(3.0)])
    assert softmax(v) == pytest.approx([0.25, 0.75])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=8)
        c = rng.normal() * 50
        base = softmax(v)
        shifted = softmax(v + c)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_outputs_on_simplex():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 12)) * rng.choice([1.0, 10.0, 100.0])
        y = softmax(v)
        assert np.all(y > 0)
        assert abs(y.sum() - 1.0) < 1e-9


@st.composite
def softmax_inputs(draw):
    """(logits, output adjoint, axis): up to 4-D, the softmax axis 1 to 12
    wide at any position, float32 or float64, logits within +-30."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    shape[axis] = draw(st.integers(1, 12))
    width = 32 if dtype is np.float32 else 64
    logits = draw(arrays(dtype, shape, elements=st.floats(-30, 30, width=width)))
    adjoint = draw(arrays(dtype, shape, elements=st.floats(-1, 1, width=width)))
    return logits, adjoint, axis


@settings(max_examples=300)
@given(softmax_inputs())
def test_softmax_is_bitwise_the_reference_formula(case):
    logits, adjoint, axis = case
    with Tape([logits]) as tape:
        y = softmax(logits, axis=axis)
        loss = tsum(mul(y, adjoint))  # d(loss)/dy is exactly the adjoint
    (grad,) = tape.grad(loss)
    want = reference_softmax(logits, axis)
    assert y.dtype == grad.dtype == logits.dtype
    np.testing.assert_array_equal(y, want)
    np.testing.assert_array_equal(grad, reference_softmax_backward(want, adjoint, axis))


def test_softmax_empty_vector_rejected():
    with pytest.raises(ValueError, match="empty"):
        softmax(np.empty(0))


# --- the expert convolution: dense on the transposed kernel bank -----------


def conv_bank(window, kernels):
    """A full-width kernel bank (experts, count, width) over the rows of
    ``window``, as the model runs it: ``window @ kernelsᵀ`` per expert."""
    return dense(np.asarray(window), transpose(np.asarray(kernels), (0, 2, 1)))


def test_conv_rows_dot_products():
    out = conv_bank([[1.0, 2.0], [3.0, 4.0]], [[[1.0, 1.0]]])
    assert out.tolist() == [[[3.0], [7.0]]]


def test_conv_rows_selector_kernel():
    out = conv_bank([[1.0, 2.0], [3.0, 4.0]], [[[1.0, 0.0]]])
    assert out.tolist() == [[[1.0], [3.0]]]


def _naive_sliding_convolution(window, kernels):
    """Valid 1-D convolution of each row with each kernel; width == length
    leaves exactly one output position per (row, kernel) pair."""
    rows, length = window.shape
    count, width = kernels.shape
    positions = length - width + 1
    out = np.zeros((rows, count, positions))
    for r in range(rows):
        for n in range(count):
            for s in range(positions):
                acc = 0.0
                for i in range(width):
                    acc += window[r, s + i] * kernels[n, i]
                out[r, n, s] = acc
    return out


def test_conv_rows_matches_naive_convolution_oracle():
    rng = np.random.default_rng(5)
    window = rng.normal(size=(5, 16))
    kernels = rng.normal(size=(16, 16))
    got = conv_bank(window, kernels[None])[0]
    want = _naive_sliding_convolution(window, kernels)[:, :, 0]
    assert got.shape == (5, 16)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_conv_rows_equals_matrix_product_exactly():
    rng = np.random.default_rng(6)
    window = rng.normal(size=(7, 9))
    kernels = rng.normal(size=(4, 9))
    got = conv_bank(window, kernels[None])[0]
    assert np.array_equal(got, window @ kernels.T)


def test_conv_rows_expert_axis_matches_each_expert():
    rng = np.random.default_rng(7)
    window = rng.normal(size=(7, 9))
    kernels = rng.normal(size=(3, 4, 9))
    got = conv_bank(window, kernels)
    assert got.shape == (3, 7, 4)
    for e in range(3):
        np.testing.assert_allclose(got[e], window @ kernels[e].T, rtol=1e-12)


def test_conv_rows_width_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        conv_bank(np.ones((2, 4)), np.ones((1, 3, 5)))


# --- Adam -------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    rng = np.random.default_rng(21)
    params = {"p0": rng.normal(size=(3, 2)), "p1": rng.normal(size=(4,))}
    before = [p.copy() for p in params.values()]
    state = AdamState.for_params(params)
    for _ in range(5):
        adam_step(state, params, [np.zeros_like(p) for p in params.values()], 0.01)
    for p, b in zip(params.values(), before):
        assert np.array_equal(p, b)
    assert all(np.all(m == 0) for m in state.m)
    assert all(np.all(v == 0) for v in state.v)
    assert state.t == 5


def test_adam_first_step_closed_form():
    p = np.array(0.5)
    state = AdamState.for_params({"p": p})
    adam_step(state, {"p": p}, [np.array(1.0)], 0.001)
    # bias-corrected m_hat = v_hat = 1 on the first unit-gradient step
    assert p == pytest.approx(0.5 - 0.001 / (1.0 + 1e-8), abs=1e-15)
    assert state.t == 1


def test_adam_updates_params_independently():
    rng = np.random.default_rng(22)
    a0, b0 = rng.normal(size=(3,)), rng.normal(size=(2, 2))
    ga = [rng.normal(size=(3,)) for _ in range(4)]
    gb = [rng.normal(size=(2, 2)) for _ in range(4)]

    joint = {"a": a0.copy(), "b": b0.copy()}
    state = AdamState.for_params(joint)
    for sa, sb in zip(ga, gb):
        adam_step(state, joint, [sa, sb], 0.01)

    # per-parameter oracle: run each parameter alone
    for init, seq, got in ((a0, ga, joint["a"]), (b0, gb, joint["b"])):
        alone = {"alone": init.copy()}
        solo = AdamState.for_params(alone)
        for s in seq:
            adam_step(solo, alone, [s], 0.01)
        np.testing.assert_array_equal(alone["alone"], got)


def test_adam_rejects_shape_mismatch():
    params = {"w": np.zeros((2, 2))}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match="shape .* for w"):
        adam_step(state, params, [np.zeros(3)], 0.01)


def test_adam_rejects_non_finite_gradient():
    params = {"tower_w1": np.zeros((2,))}
    state = AdamState.for_params(params)
    with pytest.raises(NumericError, match="tower_w1"):
        adam_step(state, params, [np.array([1.0, np.nan])], 0.01)


def test_adam_rejects_dtype_mismatch():
    p = np.zeros(3, np.float32)
    state = AdamState.for_params({"gate.shared": p})
    with pytest.raises(ValueError, match="dtype float64 != parameter dtype float32 for gate.shared"):
        adam_step(state, {"gate.shared": p}, [np.ones(3, np.float64)], 0.01)
    assert not p.any() and not state.m[0].any() and not state.v[0].any()


def test_adam_non_finite_in_a_later_block_leaves_the_parameter_untouched():
    rng = np.random.default_rng(24)
    p = rng.normal(size=(5, BLOCK // 2))  # 2.5 blocks
    params = {"expert.ff1_w": p}
    state = AdamState.for_params(params)
    adam_step(state, params, [rng.normal(size=p.shape)], 0.01)
    before = [a.copy() for a in (p, state.m[0], state.v[0])]
    grad = rng.normal(size=p.shape)
    grad.reshape(-1)[2 * BLOCK + 7] = np.nan
    with pytest.raises(NumericError, match="expert.ff1_w"):
        adam_step(state, params, [grad], 0.01)
    for got, want in zip((p, state.m[0], state.v[0]), before):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(), (1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (5, BLOCK // 2)]),
    dtype=st.sampled_from([np.float32, np.float64]),
    lrs=st.lists(st.floats(1e-5, 0.5), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_is_bitwise_the_textbook_update(shape, dtype, lrs, seed):
    """Sizes around the block boundary, 0-d to 2.5 blocks, 1-5 steps."""
    rng = np.random.default_rng(seed)
    p = np.asarray(rng.normal(size=shape), dtype=dtype)
    state = AdamState.for_params({"p": p})
    want = (p.copy(), np.zeros_like(p), np.zeros_like(p))
    for t, lr in enumerate(lrs, start=1):
        grad = np.asarray(rng.normal(size=shape), dtype=dtype)
        adam_step(state, {"p": p}, [grad], lr)
        want = reference_adam_step(*want, grad, t, lr)
    for got, expected in zip((p, state.m[0], state.v[0]), want):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# --- cosine schedule --------------------------------------------------------


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.001, 0.0001) == pytest.approx(0.001)
    assert cosine_lr(100, 100, 0.001, 0.0001) == pytest.approx(0.0001)
    assert cosine_lr(50, 100, 0.001, 0.0001) == pytest.approx((0.001 + 0.0001) / 2)


def test_cosine_monotone_non_increasing():
    values = [cosine_lr(s, 333, 0.01, 0.0) for s in range(334)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_step_out_of_range():
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 0.01, 0.0)
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 0.01, 0.0)
    with pytest.raises(ValueError, match="total_steps"):
        cosine_lr(0, 0, 0.01, 0.0)
