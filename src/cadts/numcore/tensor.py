"""Dense tensors over numpy with a dynamic reverse-mode tape.

A ``Tensor`` is a thin wrapper around a float32/float64 ndarray. While a
``Tape`` is active on the current thread, every primitive applied to a
watched tensor (or anything derived from one) records a backward closure;
``Tape.grad`` replays those records in reverse to accumulate adjoints.
The tape is rebuilt on every forward pass and consumed by a single
``grad`` call.

Only first-order derivatives are supported and gradients flow exclusively
to watched leaves, so constants (data windows, targets) cost nothing on
the backward pass.
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


def _binary(a, b, fwd, make_bwd):
    """Shared wiring for elementwise binary ops with scalar fast paths."""
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    av = a.data if a_t else a
    bv = b.data if b_t else b
    out = Tensor(fwd(av, bv))
    tape = _active_tape()
    if tape is not None:
        na = a_t and tape.tracks(a)
        nb = b_t and tape.tracks(b)
        if na or nb:
            parents = tuple(t for t, n in ((a, na), (b, nb)) if n)
            tape._record(out, parents, make_bwd(av, bv, na, nb))
    return out


def add(a, b) -> Tensor:
    def make_bwd(av, bv, na, nb):
        def bwd(g):
            gs = []
            if na:
                gs.append(_unbroadcast(g, av.shape))
            if nb:
                gs.append(_unbroadcast(g, bv.shape))
            return gs

        return bwd

    return _binary(a, b, lambda x, y: x + y, make_bwd)


def sub(a, b) -> Tensor:
    def make_bwd(av, bv, na, nb):
        def bwd(g):
            gs = []
            if na:
                gs.append(_unbroadcast(g, av.shape))
            if nb:
                gs.append(_unbroadcast(-g, bv.shape))
            return gs

        return bwd

    return _binary(a, b, lambda x, y: x - y, make_bwd)


def mul(a, b) -> Tensor:
    def make_bwd(av, bv, na, nb):
        def bwd(g):
            gs = []
            if na:
                gs.append(_unbroadcast(g * bv, np.shape(av)))
            if nb:
                gs.append(_unbroadcast(g * av, np.shape(bv)))
            return gs

        return bwd

    return _binary(a, b, lambda x, y: x * y, make_bwd)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    tape = _active_tape()
    if tape is not None and tape.tracks(a):
        tape._record(out, (a,), lambda g: (-g,))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = Tensor(a.data @ b.data)
    tape = _active_tape()
    if tape is not None:
        na, nb = tape.tracks(a), tape.tracks(b)
        if na or nb:
            ad, bd = a.data, b.data
            parents = tuple(t for t, n in ((a, na), (b, nb)) if n)

            def bwd(g):
                gs = []
                if na:
                    bt = bd.swapaxes(-1, -2)
                    # With one output column, g @ bᵀ has a unit inner dimension:
                    # each element is one product and no sum, so the broadcast
                    # multiply is bitwise equal and skips a degenerate gemm (a
                    # tower's last layer).
                    gs.append(_unbroadcast(g * bt if bd.shape[-1] == 1 else g @ bt, ad.shape))
                if nb:
                    gs.append(_unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape))
                return gs

            tape._record(out, parents, bwd)
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    tape = _active_tape()
    if tape is not None and tape.tracks(a):
        mask = out.data > 0
        tape._record(out, (a,), lambda g: (g * mask,))
    return out


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)
    tape = _active_tape()
    if tape is not None and tape.tracks(a):
        ad = a.data
        tape._record(out, (a,), lambda g: (2.0 * ad * g,))
    return out


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
    out = Tensor(y)
    tape = _active_tape()
    if tape is not None and tape.tracks(a):
        # d/dx softmax: y * (g - sum(g*y))
        def bwd(g):
            inner = _reduce(np.add, g * y, axis)
            return (y * (g - inner),)

        tape._record(out, (a,), bwd)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    tape = _active_tape()
    if tape is not None and tape.tracks(a):
        orig = a.data.shape
        tape._record(out, (a,), lambda g: (g.reshape(orig),))
    return out


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))
    tape = _active_tape()
    if tape is not None and tape.tracks(a):
        inv = tuple(np.argsort(axes))
        tape._record(out, (a,), lambda g: (g.transpose(inv),))
    return out


def tsum(a: Tensor, axis=None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))
    tape = _active_tape()
    if tape is not None and tape.tracks(a):
        shape = a.data.shape

        def bwd(g):
            if axis is None:
                return (np.broadcast_to(g, shape),)
            gx = np.expand_dims(g, axis)
            return (np.broadcast_to(gx, shape),)

        tape._record(out, (a,), bwd)
    return out


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


def conv_rows(window, kernels) -> Tensor:
    """Row-wise full-width convolution: out[k, n] = dot(window[k], kernels[n]).

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
    return matmul(window, transpose(kernels, (1, 0) if kernels.ndim == 2 else (0, 2, 1)))
