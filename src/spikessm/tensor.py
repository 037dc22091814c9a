"""Dense tensors and a tape-based reverse-mode gradient engine.

The op vocabulary is fixed to what the runs of this package record:
matmul, elementwise arithmetic, the five activations, log-softmax, RMS
norm, causal depthwise conv, embedding gather, reductions,
slicing/concat, and the quantizing neuron op registered from
:mod:`spikessm.neurons`. There is no graph compiler; gradients
are accumulated by walking the tape once in reverse creation order,
which makes every run bit-reproducible, and the walk frees what each op
saved as it goes (:meth:`Graph.backward`). A ``narrow`` hands the engine its
slice and gradient (:class:`SliceGrad`), which it adds into one buffer
per input instead of a zero-filled full-size array per slice. The
forwards of the activations, log-softmax, RMS norm and the conv are
also exposed on plain arrays (``activation_forward``,
``log_softmax_forward``, ``rmsnorm_forward``, ``causal_conv1d_forward``)
for off-tape callers and fused ops; the tape ops run those same
functions. ``softmax_forward`` has no tape op: the fused alignment loss
is its caller.

The hot forwards are lean for the no-tape passes of evaluation and
inference: the sigmoid selects its half by multiplying with the sign
mask (``pos*m + neg*~m``) instead of a data-dependent ``np.where``,
log-softmax leaves the exp only its backward needs to the backward, and
the conv broadcasts contiguous tap rows of ``kernel.T`` into one product
buffer. Each does the floating-point operations of the direct form in
the same order, so results are bit-identical to it at float32 and
float64 (the direct forms are the oracles in ``tests/test_tensor.py``).

Importing this module sets glibc's allocator policy for the process
(:func:`keep_freed_pages_mapped`; a no-op elsewhere): the pages of the
arrays one pass frees stay mapped for the next, instead of being handed
back to the kernel and faulted in again. Freed memory stays in the
process up to a 64 MiB trim threshold; peak RSS moves by -0.6% to
+2.8% (at most 2.1 MB) on the benchmark's workloads, and no result
changes.

Tape construction and backward are single-threaded per model instance.
The stack of open tapes is per thread: a :class:`Graph` records only the
ops of the thread that opened it, and a forward with no tape open in its
thread records nothing. Tensors are treated as immutable once created
(the optimizer swaps the buffer of leaf parameters between steps), so
forward-only inference over independent sequences may run in parallel
threads, also while another thread records a tape. The default
precision, which ``dtype_scope`` switches, stays process-wide: a
``dtype_scope`` in one thread changes the precision of every thread.
"""

from __future__ import annotations

import ctypes
import threading
import warnings
from contextlib import contextmanager
from typing import Callable, NamedTuple, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ContractError(ValueError):
    """An operation precondition was violated."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the contract forbids it."""


# ---------------------------------------------------------------------------
# allocator policy: freed arrays stay mapped for the next pass

# glibc <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# 32 MiB is the ceiling glibc's own dynamic mmap threshold grows to on
# 64-bit; some glibc versions refuse a larger one
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def keep_freed_pages_mapped(libc=None) -> bool:
    """Make glibc's malloc serve arrays up to :data:`MMAP_THRESHOLD` from
    the heap and keep up to :data:`TRIM_THRESHOLD` of freed memory at its
    top; return whether both settings took. ``libc`` defaults to the
    process's C library; without a glibc ``mallopt`` (musl's refuses
    every setting, macOS has none) nothing is changed.

    This is a process-wide setting, made once at import. It is here
    because the engine's traffic is many short-lived arrays of 0.1-1 MB
    per pass: under glibc's defaults a no-tape ``eval_ppl`` pass of the
    toy student faults about 1,600 pages (6 MB) back in, with it none.
    """
    if libc is None:
        try:
            libc = ctypes.CDLL(None)
        except (OSError, TypeError):  # TypeError: no dlopen(NULL), as on Windows
            return False
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold is set only once the mmap one took
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 0 and
            mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 0)


keep_freed_pages_mapped()


# ---------------------------------------------------------------------------
# precision control: float32 for training runs, float64 for gradient checks

_DTYPES = {"float32": np.float32, "float64": np.float64}
_default_dtype = np.float32


def default_dtype() -> np.dtype:
    return np.dtype(_default_dtype)


@contextmanager
def dtype_scope(name: str):
    """Temporarily switch the default precision (used by gradient-check mode)."""
    if name not in _DTYPES:
        raise ContractError(f"unknown dtype {name!r}; expected float32 or float64")
    global _default_dtype
    prev, _default_dtype = _default_dtype, _DTYPES[name]
    try:
        yield
    finally:
        _default_dtype = prev


# ---------------------------------------------------------------------------
# tape

class _GraphStack(threading.local):
    """The open tapes of the calling thread, innermost last."""

    def __init__(self) -> None:
        self.graphs: list["Graph"] = []


_GRAPH_STACK = _GraphStack()


def active_graph() -> "Graph | None":
    graphs = _GRAPH_STACK.graphs
    return graphs[-1] if graphs else None


class Graph:
    """Reverse-mode tape.

    Nodes are appended in creation order; ``backward`` walks them once,
    in reverse creation order, single-threaded, so gradient accumulation
    order is deterministic run to run.
    """

    def __init__(self) -> None:
        self.nodes: list[Tensor] = []
        self.walked = False

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.graphs.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _GRAPH_STACK.graphs.pop()

    def backward(self, loss: "Tensor", wrt: Sequence["Tensor"]) -> dict[int, np.ndarray]:
        """Gradients of a scalar loss for every tensor in ``wrt``.

        Returns a dict keyed by ``id(tensor)``; tensors that do not
        influence the loss get an explicit zero gradient. Only trainable
        leaves and recorded op outputs carry gradient: every other tensor
        is a constant, and ops may skip its gradient.

        A :class:`SliceGrad` contribution is added into one gradient
        buffer per input that the engine allocated itself; an array a
        ``grad_fn`` returned may alias another gradient, so it is copied
        before any slice is added to it.

        The walk consumes the tape. Each node is popped and gives up its
        ``grad_fn`` and inputs before the closure runs, so the arrays a
        closure saved are freed as the walk goes on, ``nodes`` is empty
        when it ends, and the recorded outputs a caller still holds keep
        their data but no longer the tape behind them. A second
        ``backward`` on the same graph is refused.
        """
        if self.walked:
            raise ContractError("backward already walked this tape; record a new Graph")
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        self.walked = True
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        owned: set[int] = set()  # inputs whose gradient buffer the engine allocated
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            grad_fn, inputs = node._grad_fn, node._inputs
            node._grad_fn, node._inputs = None, ()
            g_out = grads.pop(id(node), None)
            if g_out is None or grad_fn is None:
                continue
            for inp, g_in in zip(inputs, grad_fn(g_out)):
                if g_in is None:
                    continue
                key = id(inp)
                prior = grads.get(key)
                if type(g_in) is SliceGrad:
                    if prior is None:
                        prior = np.zeros_like(inp.data)
                        prior[g_in.index] = g_in.g
                    else:
                        if key not in owned:
                            prior = prior.copy()
                        prior[g_in.index] += g_in.g
                    grads[key] = prior
                    owned.add(key)
                elif prior is None:
                    grads[key] = g_in
                else:
                    grads[key] = prior + g_in
                    owned.add(key)
        return {id(p): grads[id(p)] if id(p) in grads else np.zeros_like(p.data)
                for p in wrt}


class SliceGrad(NamedTuple):
    """A gradient equal to ``g`` on ``index`` of its input and zero elsewhere."""

    index: tuple
    g: np.ndarray


# ---------------------------------------------------------------------------
# tensor

class Tensor:
    """Immutable dense array node. ``data`` is a numpy array in the
    run precision; op results carry the closure needed for backward."""

    __slots__ = ("data", "trainable", "_inputs", "_grad_fn", "_op")
    # numpy defers to the reflected operators, so an array on the left of
    # ``-``, ``+`` or ``*`` records the op rather than mapping it per element
    __array_ufunc__ = None

    def __init__(self, data, trainable: bool = False):
        self.data = np.asarray(data, dtype=default_dtype())
        self.trainable = trainable
        self._inputs: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None
        self._op: str = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    # a - b is a + (-b) bit for bit: negation is exact
    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(other, -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


def parameter(data) -> Tensor:
    return Tensor(data, trainable=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def needs_grad(x: Tensor) -> bool:
    """False for a constant: a leaf that is not trainable, or an op output
    recorded on no tape. Ops return no gradient for constants."""
    return x.trainable or x._grad_fn is not None


def custom_op(data: np.ndarray, inputs: Sequence[Tensor], grad_fn, op: str) -> Tensor:
    """Output ``data`` of op ``op`` on ``inputs``, recorded on this thread's
    open tape if there is one: every op is made here (the engine's, the
    fused losses, the state scan and the neurons). ``grad_fn(g_out)``
    returns one gradient per input, in order (``None`` for a constant)."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.trainable = False
    out._op = op
    g = active_graph()
    if g is not None:
        out._inputs = tuple(inputs)
        out._grad_fn = grad_fn
        g.nodes.append(out)
    else:
        out._inputs = ()
        out._grad_fn = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return custom_op(data, (a, b), grad_fn, "add")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.shape) if needs_grad(a) else None,
                _unbroadcast(g * a.data, b.shape) if needs_grad(b) else None)

    return custom_op(data, (a, b), grad_fn, "mul")


def matmul(a, b) -> Tensor:
    """``a @ b`` where ``a`` is (..., k) or (m, k) and ``b`` is a 2-D (k, n) matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    if b.ndim != 2:
        raise DimensionError(f"matmul right operand must be 2-D, got {b.shape}")
    if a.ndim == 0 or a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def grad_fn(g):
        da = g @ b.data.T
        a2 = a.data.reshape(-1, a.shape[-1])
        g2 = g.reshape(-1, b.shape[1])
        db = a2.T @ g2
        return da, db

    return custom_op(data, (a, b), grad_fn, "matmul")


def transpose2d(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise DimensionError(f"transpose2d expects a matrix, got {x.shape}")
    data = np.ascontiguousarray(x.data.T)

    def grad_fn(g):
        return (g.T,)

    return custom_op(data, (x,), grad_fn, "transpose")


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)
    orig = x.shape

    def grad_fn(g):
        return (g.reshape(orig),)

    return custom_op(data, (x,), grad_fn, "reshape")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice ``[start, start+length)`` along one axis."""
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = x.data[idx]

    def grad_fn(g):
        return (SliceGrad(idx, g),)

    return custom_op(data, (x,), grad_fn, "narrow")


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = tuple(_as_tensor(p) for p in parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def grad_fn(g):
        outs = []
        off = 0
        for n in sizes:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(off, off + n)
            outs.append(g[tuple(idx)])
            off += n
        return tuple(outs)

    return custom_op(data, parts, grad_fn, "concat")


def sum_(x: Tensor, axis=None) -> Tensor:
    data = x.data.sum(axis=axis)

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return custom_op(data, (x,), grad_fn, "sum")


# ---------------------------------------------------------------------------
# activations

def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # pos = 1 / (1 + exp(-|x|)) is sigmoid(|x|); sigmoid(x) is pos where
    # x >= 0 and 1 - pos elsewhere. The select is pos*m + neg*~m rather
    # than np.where, whose data-dependent branch is slow on mixed signs:
    # both products are exact, one of them is +0 and the other the chosen
    # value, so the sum rounds nothing. ``out=`` keeps 0-d inputs arrays.
    m = x >= 0
    pos = np.abs(x, out=np.empty_like(x))
    np.negative(pos, out=pos)
    np.exp(pos, out=pos)
    pos += 1.0
    np.divide(1.0, pos, out=pos)
    neg = 1.0 - pos
    pos *= m
    neg *= ~m
    pos += neg
    return pos


def _stable_softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _exp_saturating(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        y = np.exp(x)
    if np.isinf(y).any():
        warnings.warn("exp overflow clamped to max finite value", RuntimeWarning)
        y = np.nan_to_num(y, posinf=np.finfo(y.dtype).max)
    return y


def _tanh(x: np.ndarray):
    y = np.tanh(x)
    return y, lambda: 1.0 - y * y


def _sigmoid(x: np.ndarray):
    y = _stable_sigmoid(x)
    return y, lambda: y * (1.0 - y)


def _silu(x: np.ndarray):
    s = _stable_sigmoid(x)
    return x * s, lambda: s * (1.0 + x * (1.0 - s))


def _softplus(x: np.ndarray):
    return _stable_softplus(x), lambda: _stable_sigmoid(x)


def _exp(x: np.ndarray):
    y = _exp_saturating(x)
    return y, lambda: y


# name -> forward returning (value, local derivative thunk); the thunk
# closes over what the forward computed, so backward repeats none of it
_ACTIVATIONS: dict[str, Callable] = {
    "tanh": _tanh,
    "sigmoid": _sigmoid,
    "silu": _silu,
    "softplus": _softplus,
    "exp": _exp,
}


def _activation_fn(kind: str) -> Callable:
    if kind not in _ACTIVATIONS:
        raise ContractError(f"unknown activation {kind!r}")
    return _ACTIVATIONS[kind]


def activation_forward(kind: str, x: np.ndarray) -> np.ndarray:
    """The tape op's forward of activation ``kind`` on a plain array, off the tape."""
    return _activation_fn(kind)(x)[0]


def activation(kind: str, x) -> Tensor:
    x = _as_tensor(x)
    data, deriv = _activation_fn(kind)(x.data)

    def grad_fn(g):
        return (g * deriv(),)

    return custom_op(data, (x,), grad_fn, kind)


def tanh(x) -> Tensor:
    return activation("tanh", x)


def sigmoid(x) -> Tensor:
    return activation("sigmoid", x)


def silu(x) -> Tensor:
    return activation("silu", x)


def softplus(x) -> Tensor:
    return activation("softplus", x)


def exp(x) -> Tensor:
    return activation("exp", x)


# ---------------------------------------------------------------------------
# softmax family, over the last axis

def softmax_forward(x: np.ndarray) -> np.ndarray:
    """``exp(x - max) / sum`` on a plain array; no tape op records it."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax_forward(x: np.ndarray) -> np.ndarray:
    """The tape op's forward on a plain array: ``(x - m) - lse`` over the
    last axis, with ``m`` its max and ``lse`` the log-sum-exp of ``x - m``."""
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def log_softmax(x) -> Tensor:
    x = _as_tensor(x)
    data = log_softmax_forward(x.data)

    def grad_fn(g):
        return (g - np.exp(data) * g.sum(axis=-1, keepdims=True),)

    return custom_op(data, (x,), grad_fn, "log_softmax")


# ---------------------------------------------------------------------------
# normalization

RMS_EPS = 1e-6


def rmsnorm_forward(x: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tape op's forward on plain arrays: ``(y, inv)`` with
    ``inv = 1 / sqrt(mean(x^2, last) + RMS_EPS)`` and ``y = x * inv * weight``."""
    d = x.shape[-1]
    if weight.shape != (d,):
        raise DimensionError(f"rmsnorm weight shape {weight.shape} != ({d},)")
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + RMS_EPS)
    return x * inv * weight, inv


def rmsnorm(x, weight) -> Tensor:
    """``x / sqrt(mean(x^2, last) + RMS_EPS) * weight`` over the last axis."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    d = x.shape[-1]
    data, inv = rmsnorm_forward(x.data, weight.data)

    def grad_fn(g):
        gw = g * weight.data
        s = (gw * x.data).sum(axis=-1, keepdims=True)
        dx = gw * inv - x.data * (inv ** 3) * (s / d)
        dw = (g * x.data * inv).reshape(-1, d).sum(axis=0)
        return dx, dw

    return custom_op(data, (x, weight), grad_fn, "rmsnorm")


# ---------------------------------------------------------------------------
# causal depthwise convolution (width fixed at 4)

CONV_WIDTH = 4


def causal_conv1d_forward(x: np.ndarray, kernel: np.ndarray,
                          state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tape op's forward on plain arrays; returns ``(y, state')``.

    ``x`` is (..., T, c); ``kernel`` is (c, w) with w == 4; ``state`` holds
    the previous w-1 inputs per channel, (..., w-1, c). ``state'`` lets a
    caller resume, one step or many at a time, with identical results.
    """
    c, w = kernel.shape
    if w != CONV_WIDTH:
        raise DimensionError(f"conv kernel width must be {CONV_WIDTH}, got {w}")
    if x.shape[-1] != c:
        raise DimensionError(f"conv channel mismatch: x has {x.shape[-1]}, kernel {c}")
    T = x.shape[-2]
    lead = x.shape[:-2]
    if state.shape != lead + (w - 1, c):
        raise DimensionError(f"conv state shape {state.shape} != {lead + (w - 1, c)}")

    xp = np.concatenate([state, x], axis=-2)
    taps = np.ascontiguousarray(kernel.T)  # (w, c): each tap a contiguous row
    # y starts at +0, so a -0 first product sums to +0 as 0 + (-0) does
    y = np.zeros(x.shape, np.result_type(taps, xp))
    buf = np.empty_like(y)
    for j, tap in enumerate(taps):  # ascending taps, so any split of T sums identically
        y += np.multiply(tap, xp[..., j:j + T, :], out=buf)
    return y, xp[..., T:, :].copy()


def causal_conv1d(x, kernel, state: np.ndarray | None = None):
    """Depthwise causal convolution along the time axis on the tape.

    Shapes and the returned ``(y, state')`` (``state'`` a plain array) are
    those of :func:`causal_conv1d_forward`; ``state`` defaults to zeros,
    the start of a sequence.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if state is None:
        state = np.zeros(x.shape[:-2] + (CONV_WIDTH - 1, x.shape[-1]), dtype=x.data.dtype)
    data, new_state = causal_conv1d_forward(x.data, kernel.data, state)
    c, w = kernel.shape
    T = x.shape[-2]

    def grad_fn(g):
        xp = np.concatenate([state, x.data], axis=-2)
        taps = np.ascontiguousarray(kernel.data.T)
        dxp = np.zeros_like(xp)
        dtaps = np.empty_like(taps)
        buf = np.empty(g.shape, np.result_type(g, xp, taps))
        for j, tap in enumerate(taps):
            np.multiply(g, xp[..., j:j + T, :], out=buf)
            dtaps[j] = buf.reshape(-1, c).sum(axis=0)
            dxp[..., j:j + T, :] += np.multiply(g, tap, out=buf)
        return dxp[..., w - 1:, :], np.ascontiguousarray(dtaps.T)

    return custom_op(data, (x, kernel), grad_fn, "conv1d"), new_state


# ---------------------------------------------------------------------------
# embedding gather

def embedding_forward(weight: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows of ``weight`` at ``ids``; an id outside [0, rows) is refused."""
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ContractError(f"token id out of range [0, {weight.shape[0]})")
    return weight[ids]


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    data = embedding_forward(weight.data, ids)

    def grad_fn(g):
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids.reshape(-1), g.reshape(-1, weight.shape[1]))
        return (dw,)

    return custom_op(data, (weight,), grad_fn, "embedding")
