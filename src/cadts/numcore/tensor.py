"""Reverse-mode autodiff over plain numpy arrays with a dynamic tape.

Every primitive takes and returns ``np.ndarray`` (float32/float64; a full
reduction gives a 0-d array) and is a forward expression plus one gradient
function per operand. It records through ``_op``: while a ``Tape`` is
active on the current thread, ``_op`` records the operands the tape tracks
(its parameters and every array an op derived from one, by object
identity) with their gradient functions. ``Tape.grad`` replays those
records in reverse to accumulate adjoints, popping each record as it runs
that record's backward, so a record's output, its gradient functions and
the activations they hold are freed once no earlier record needs them. The tape is rebuilt on every forward pass and consumed
by a single ``grad`` call, even one that raises.

Only first-order derivatives are supported. Backward computes gradients
only for tracked operands, so constants (data windows, targets, dropout
masks, Python scalars) cost nothing on the backward pass.

Dense layers are one primitive, ``dense(x, w, b=None, relu=False)``: the
product, the bias add and the relu share one output buffer and one record,
with values and gradients bitwise those of the three taken apart; a plain
matrix product is ``dense`` alone. Each op has one name; numpy's own
operators on a tracked array give an array the tape does not see.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

_TLS = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_TLS, "tape", None)


def recording() -> bool:
    """Whether a tape is active on this thread, so that ops record."""
    return _active_tape() is not None


class Tape:
    """Ordered record of primitive ops on ``params``, consumed by one ``grad``.

    ``params`` are arrays; the tape tracks them, and each op's output that
    derives from one, by ``id`` and holds every array it tracks, so no id
    is reused while it lives.

    Records follow execution order, a topological order of the graph. A tape
    is single-threaded; independent tapes may run concurrently on different
    threads (the active tape is thread-local).
    """

    def __init__(self, params: Iterable[np.ndarray]):
        self._params = list(params)
        self._records: list[tuple[np.ndarray, tuple[np.ndarray, ...], Callable]] = []
        self._tracked = {id(p) for p in self._params}
        self._consumed = False

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _TLS.tape = None
        return False

    def _record(self, out: np.ndarray, parents: tuple[np.ndarray, ...], bwd: Callable) -> None:
        if self._consumed:
            raise RuntimeError("tape already consumed by grad(); build a new tape")
        self._records.append((out, parents, bwd))
        self._tracked.add(id(out))

    def grad(self, loss: np.ndarray) -> list[np.ndarray]:
        """d(loss)/d(param) for the tape's params, in order, as arrays of their
        shapes; zeros for a param the loss does not reach. The loss must be
        scalar. Each record is dropped as its backward runs; the tape is
        consumed from the first one on and cannot be reused, even after an error.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by grad(); build a new tape")
        if loss.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")

        # before the first record goes: a backward that raises leaves a
        # partial record list that no second call may replay
        self._consumed = True
        self._tracked.clear()
        adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss)}
        while self._records:
            out, parents, bwd = self._records.pop()
            g = adjoints.pop(id(out), None)
            del out
            if g is None:
                continue
            for parent, pg in zip(parents, bwd(g)):
                if pg is None:
                    continue
                pid = id(parent)
                prev = adjoints.get(pid)
                # never accumulate in place: pg may be a view of g
                adjoints[pid] = pg if prev is None else prev + pg

        # zeros only where the loss did not reach; asarray, as a sum of 0-d arrays is a numpy scalar
        return [np.asarray(adjoints[id(p)]) if id(p) in adjoints else np.zeros_like(p) for p in self._params]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _op(value, *pairs: tuple[object, Callable], adjoint: Callable | None = None) -> np.ndarray:
    """``value`` as an array and, while a tape is active, a record of the
    ``(operand, grad_fn)`` pairs whose operand the tape tracks. Tracking is
    by identity: an operand counts only if it is the very object the tape
    holds (a parameter or an op's output), never an equal copy or a slice
    of one, and a Python scalar never does. Backward calls only those
    ``grad_fn(g)``, so scalars and untracked arrays (data, masks, targets)
    never get a gradient computed. ``adjoint``, if given, maps the output's
    adjoint once before every ``grad_fn`` sees it (a fused relu mask)."""
    out = np.asarray(value)
    tape = _active_tape()
    if tape is not None:
        live = [(t, fn) for t, fn in pairs if id(t) in tape._tracked]
        if live:
            parents, fns = zip(*live)

            def bwd(g):
                g = g if adjoint is None else adjoint(g)
                return [fn(g) for fn in fns]

            tape._record(out, parents, bwd)
    return out


def add(a, b) -> np.ndarray:
    return _op(
        a + b,
        (a, lambda g: _unbroadcast(g, np.shape(a))),
        (b, lambda g: _unbroadcast(g, np.shape(b))),
    )


def sub(a, b) -> np.ndarray:
    return _op(
        a - b,
        (a, lambda g: _unbroadcast(g, np.shape(a))),
        (b, lambda g: _unbroadcast(-g, np.shape(b))),
    )


def mul(a, b) -> np.ndarray:
    return _op(
        a * b,
        (a, lambda g: _unbroadcast(g * b, np.shape(a))),
        (b, lambda g: _unbroadcast(g * a, np.shape(b))),
    )


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None, relu: bool = False) -> np.ndarray:
    """``x @ w`` (leading axes broadcast as numpy's), then ``+ b`` and
    ``max(., 0)`` if asked, in place on the product's buffer: one output
    array and one record for three ops. Values and gradients are bitwise
    those of the three apart; backward masks the adjoint once, by ``y > 0``
    in its dtype, for all three operands. ``b`` must broadcast to the product."""
    if x.ndim < 2 or w.ndim < 2:
        raise ValueError("dense operands must have ndim >= 2")
    y = x @ w
    if b is not None:
        y += b
    if relu:
        np.maximum(y, 0, out=y)

    def grad_x(g):
        wt = w.swapaxes(-1, -2)
        # With one output column, g @ wᵀ has a unit inner dimension: each
        # element is one product and no sum, so the broadcast multiply is
        # bitwise equal and skips a degenerate gemm (a tower's last layer).
        return _unbroadcast(g * wt if w.shape[-1] == 1 else g @ wt, x.shape)

    def relu_mask(g):
        mask = (y > 0).astype(g.dtype)
        return np.multiply(g, mask, out=mask)

    pairs = [(x, grad_x), (w, lambda g: _unbroadcast(x.swapaxes(-1, -2) @ g, w.shape))]
    if b is not None:
        pairs.append((b, lambda g: _unbroadcast(g, b.shape)))
    return _op(y, *pairs, adjoint=relu_mask if relu else None)


def square(a: np.ndarray) -> np.ndarray:
    return _op(a * a, (a, lambda g: 2.0 * a * g))


# Below this width numpy's pairwise sum is a plain left-to-right loop, so
# adding one slice at a time does the same arithmetic.
_SLICED_REDUCE_WIDTH = 8


def _reduce(ufunc, x: np.ndarray, axis: int) -> np.ndarray:
    """``ufunc.reduce(x, axis, keepdims=True)``, bitwise equal. A short axis
    is reduced one slice at a time: numpy's reduce pays per output element,
    which dominates when the axis holds only a few values (a gate's experts)."""
    if x.shape[axis] >= _SLICED_REDUCE_WIDTH:
        return ufunc.reduce(x, axis=axis, keepdims=True)
    slices = np.moveaxis(x, axis, 0)
    out = slices[:1].copy()
    for i in range(1, len(slices)):
        ufunc(out, slices[i : i + 1], out=out)
    return np.moveaxis(out, 0, axis)


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Probability simplex along ``axis``; max-subtracted for stability."""
    if a.size == 0:
        raise ValueError("softmax of an empty array is undefined")
    shifted = a - _reduce(np.maximum, a, axis)
    e = np.exp(shifted)
    y = e / _reduce(np.add, e, axis)
    # d/dx softmax: y * (g - sum(g*y))
    return _op(y, (a, lambda g: y * (g - _reduce(np.add, g * y, axis))))


def reshape(a: np.ndarray, shape) -> np.ndarray:
    orig = a.shape
    return _op(a.reshape(shape), (a, lambda g: g.reshape(orig)))


def transpose(a: np.ndarray, axes) -> np.ndarray:
    axes = tuple(axes)
    return _op(a.transpose(axes), (a, lambda g: g.transpose(tuple(np.argsort(axes)))))


def tsum(a: np.ndarray, axis=None) -> np.ndarray:
    shape = a.shape
    return _op(
        a.sum(axis=axis),
        (a, lambda g: np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)),
    )


def tmean(a: np.ndarray, axis=None) -> np.ndarray:
    n = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis), 1.0 / n)


def dropout(a: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout: keep with prob 1-rate, scale kept units by 1/(1-rate).

    Train-time only; eval-mode forwards simply skip this op.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate).astype(a.dtype)
    keep /= np.asarray(1.0 - rate, dtype=a.dtype)
    return mul(a, keep)

