"""Dense tensors over numpy with a dynamic reverse-mode tape.

A ``Tensor`` is a thin wrapper around a float32/float64 ndarray. Every
primitive is a forward expression plus one gradient function per operand,
and records through ``_op``: while a ``Tape`` is active on the current
thread, ``_op`` records the operands the tape tracks (watched tensors and
anything derived from one) with their gradient functions. ``Tape.grad``
replays those records in reverse to accumulate adjoints. The tape is
rebuilt on every forward pass and consumed by a single ``grad`` call.

Only first-order derivatives are supported. Backward computes gradients
only for tracked operands, so constants (data windows, targets, dropout
masks, Python scalars) cost nothing on the backward pass.

Dense layers are one primitive, ``dense(x, w, b=None, relu=False)``: the
product, the bias add and the relu share one output buffer and one record,
with values and gradients bitwise those of ``relu(matmul(x, w) + b)``;
``matmul`` is ``dense`` without bias or relu.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_TLS = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_TLS, "tape", None)


class Tensor:
    """Shape + flat row-major values; all graph state lives on the tape."""

    __slots__ = ("data", "name")

    def __init__(self, data, dtype=None, name: str | None = None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{label})"

    # operator sugar; scalars stay Python floats so numpy's weak promotion
    # keeps float32 graphs in float32
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)


class Tape:
    """Ordered record of primitive ops, consumed by one ``grad`` call.

    Records are appended in execution order, which is already a topological
    order of the graph. A tape is single-threaded; independent tapes may run
    concurrently on different threads (the active tape is thread-local).
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._tracked: set[int] = set()
        self._watched: dict[int, Tensor] = {}
        self._consumed = False

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _TLS.tape = None
        return False

    def watch(self, *tensors: Tensor) -> None:
        """Register parameters. Must happen before they are used in ops."""
        for t in tensors:
            self._watched[id(t)] = t
            self._tracked.add(id(t))

    def tracks(self, t) -> bool:
        return isinstance(t, Tensor) and id(t) in self._tracked

    def _record(self, out: Tensor, parents: tuple[Tensor, ...], bwd: Callable) -> None:
        if self._consumed:
            raise RuntimeError("tape already consumed by grad(); build a new tape")
        self._records.append((out, parents, bwd))
        self._tracked.add(id(out))

    def grad(self, loss: Tensor, params: Sequence[Tensor]) -> list[Tensor]:
        """d(loss)/d(param) for every param, shapes mirroring the params.

        The loss must be scalar and every param must have been watched.
        Watched params the loss does not depend on get zero gradients.
        The tape is cleared afterward and cannot be reused.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by grad(); build a new tape")
        if loss.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        for p in params:
            if id(p) not in self._watched:
                raise ValueError(
                    f"parameter {p.name or '<unnamed>'} was not watched on this tape"
                )

        adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, parents, bwd in reversed(self._records):
            g = adjoints.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in zip(parents, bwd(g)):
                if pg is None:
                    continue
                pid = id(parent)
                prev = adjoints.get(pid)
                # never accumulate in place: pg may be a view of g
                adjoints[pid] = pg if prev is None else prev + pg

        grads = []
        for p in params:
            pg = adjoints.get(id(p))
            grads.append(Tensor(pg if pg is not None else np.zeros_like(p.data)))
        self._records.clear()
        self._tracked.clear()
        self._consumed = True
        return grads


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


def _data(x):
    return x.data if isinstance(x, Tensor) else x


def _op(value, *pairs: tuple[object, Callable], adjoint: Callable | None = None) -> Tensor:
    """Wrap ``value`` in a Tensor and, while a tape is active, record the
    ``(operand, grad_fn)`` pairs whose operand the tape tracks. Backward calls
    only those ``grad_fn(g)``, so scalars and untracked tensors (data, masks,
    targets) never get a gradient computed. ``adjoint``, if given, maps the
    output's adjoint once before every ``grad_fn`` sees it (a fused relu
    mask)."""
    out = Tensor(value)
    tape = _active_tape()
    if tape is not None:
        live = [(t, fn) for t, fn in pairs if tape.tracks(t)]
        if live:
            parents, fns = zip(*live)

            def bwd(g):
                g = g if adjoint is None else adjoint(g)
                return [fn(g) for fn in fns]

            tape._record(out, parents, bwd)
    return out


def add(a, b) -> Tensor:
    av, bv = _data(a), _data(b)
    return _op(
        av + bv,
        (a, lambda g: _unbroadcast(g, np.shape(av))),
        (b, lambda g: _unbroadcast(g, np.shape(bv))),
    )


def sub(a, b) -> Tensor:
    av, bv = _data(a), _data(b)
    return _op(
        av - bv,
        (a, lambda g: _unbroadcast(g, np.shape(av))),
        (b, lambda g: _unbroadcast(-g, np.shape(bv))),
    )


def mul(a, b) -> Tensor:
    av, bv = _data(a), _data(b)
    return _op(
        av * bv,
        (a, lambda g: _unbroadcast(g * bv, np.shape(av))),
        (b, lambda g: _unbroadcast(g * av, np.shape(bv))),
    )


def neg(a: Tensor) -> Tensor:
    return _op(-a.data, (a, lambda g: -g))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes."""
    return dense(a, b)


def dense(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """``x @ w``, then ``+ b`` and ``max(., 0)`` if asked, in place on the
    product's buffer: one output array and one record where
    ``relu(matmul(x, w) + b)`` holds three. Values and gradients are bitwise
    those of that form; backward masks the adjoint once, by ``y > 0`` in its
    dtype, for all three operands. ``b`` must broadcast to the product."""
    if x.ndim < 2 or w.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    xd, wd = x.data, w.data
    y = xd @ wd
    if b is not None:
        y += b.data
    if relu:
        np.maximum(y, 0, out=y)

    def grad_x(g):
        wt = wd.swapaxes(-1, -2)
        # With one output column, g @ wᵀ has a unit inner dimension: each
        # element is one product and no sum, so the broadcast multiply is
        # bitwise equal and skips a degenerate gemm (a tower's last layer).
        return _unbroadcast(g * wt if wd.shape[-1] == 1 else g @ wt, xd.shape)

    def relu_mask(g):
        mask = (y > 0).astype(g.dtype)
        return np.multiply(g, mask, out=mask)

    pairs = [(x, grad_x), (w, lambda g: _unbroadcast(xd.swapaxes(-1, -2) @ g, wd.shape))]
    if b is not None:
        pairs.append((b, lambda g: _unbroadcast(g, b.shape)))
    return _op(y, *pairs, adjoint=relu_mask if relu else None)


def square(a: Tensor) -> Tensor:
    ad = a.data
    return _op(ad * ad, (a, lambda g: 2.0 * ad * g))


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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Probability simplex along ``axis``; max-subtracted for stability."""
    if a.size == 0:
        raise ValueError("softmax of an empty tensor is undefined")
    shifted = a.data - _reduce(np.maximum, a.data, axis)
    e = np.exp(shifted)
    y = e / _reduce(np.add, e, axis)
    # d/dx softmax: y * (g - sum(g*y))
    return _op(y, (a, lambda g: y * (g - _reduce(np.add, g * y, axis))))


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    return _op(a.data.reshape(shape), (a, lambda g: g.reshape(orig)))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    return _op(a.data.transpose(axes), (a, lambda g: g.transpose(tuple(np.argsort(axes)))))


def tsum(a: Tensor, axis=None) -> Tensor:
    shape = a.data.shape
    return _op(
        a.data.sum(axis=axis),
        (a, lambda g: np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)),
    )


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis), 1.0 / n)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: keep with prob 1-rate, scale kept units by 1/(1-rate).

    Train-time only; eval-mode forwards simply skip this op.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype)
    keep /= np.asarray(1.0 - rate, dtype=a.data.dtype)
    return mul(a, Tensor(keep))


def conv_rows(window, kernels, relu: bool = False) -> Tensor:
    """Row-wise full-width convolution: out[k, n] = dot(window[k], kernels[n]),
    followed by ``max(., 0)`` if ``relu`` (one fused ``dense`` op).

    Kernel width must equal the window length, so each (metric, kernel)
    pair collapses to a single dot product and the whole layer is
    ``window @ kernels.T``. Leading axes broadcast as in ``matmul``: a batch
    axis on ``window``, an expert axis on ``kernels`` (experts, count, width).
    """
    window = window if isinstance(window, Tensor) else Tensor(window)
    kernels = kernels if isinstance(kernels, Tensor) else Tensor(kernels)
    if kernels.ndim not in (2, 3):
        raise ValueError(
            f"kernels must be (count, width) or (experts, count, width), got shape {kernels.shape}"
        )
    if window.ndim < 2:
        raise ValueError(f"window must be at least 2-D, got shape {window.shape}")
    if window.shape[-1] != kernels.shape[-1]:
        raise ValueError(
            f"kernel width {kernels.shape[-1]} != window length {window.shape[-1]}"
        )
    return dense(window, transpose(kernels, (1, 0) if kernels.ndim == 2 else (0, 2, 1)), relu=relu)
