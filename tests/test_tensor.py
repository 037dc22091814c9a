import math
import os
import platform
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spikessm import tensor
from spikessm.gradcheck import REL_TOL, check_gradients
from spikessm.mamba2 import DENSE, SPIKING, LanguageModel, Mamba2Config
from spikessm.neurons import TILIF, NeuronConfig
from spikessm.optim import AdamW
from spikessm.tensor import (
    MMAP_THRESHOLD,
    TRIM_THRESHOLD,
    ContractError,
    DimensionError,
    Graph,
    SliceGrad,
    Tensor,
    activation,
    activation_forward,
    causal_conv1d,
    causal_conv1d_forward,
    concat,
    custom_op,
    dtype_scope,
    embedding,
    keep_freed_pages_mapped,
    log_softmax,
    matmul,
    narrow,
    parameter,
    reshape,
    rmsnorm,
    softmax_forward,
    sum_,
    tanh,
    transpose2d,
)
from spikessm.training import (
    distill_run,
    parse_preference_line,
    rl_run,
    synth_preference_lines,
    synthetic_corpus,
    train_teacher,
)


def test_matmul_identity_bit_exact():
    a = Tensor([[5.0, 6.0], [7.0, 8.0]])
    eye = Tensor(np.eye(2))
    out = matmul(eye, a)
    assert np.array_equal(out.data, a.data)
    # associativity with identity, bit-exact
    b = Tensor([[1.5, -2.0], [0.25, 3.0]])
    assert np.array_equal(matmul(matmul(a, Tensor(np.eye(2))), b).data, matmul(a, b).data)


def test_matmul_direct_and_zero():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]
    z = matmul(Tensor(np.zeros((3, 2))), Tensor(np.ones((2, 4))))
    assert not z.data.any()


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_activation_values():
    assert tanh(Tensor([0.0])).data[0] == 0.0
    assert activation("silu", Tensor([0.0])).data[0] == 0.0
    got = activation("softplus", Tensor([0.0])).item()
    assert got == pytest.approx(math.log(2.0), abs=1e-6)
    with pytest.raises(ContractError):
        activation("relu", Tensor([1.0]))


def test_exp_saturates_with_warning(f64):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = activation("exp", Tensor([1e4]))
    assert np.isfinite(out.data).all()
    assert any("exp overflow" in str(w.message) for w in rec)


def test_softmax_cases():
    assert softmax_forward(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]
    got = softmax_forward(np.array([math.log(1.0), math.log(3.0)]))
    np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-6)
    big = softmax_forward(np.array([1000.0, 1000.0]))
    assert np.isfinite(big).all()
    np.testing.assert_allclose(big, [0.5, 0.5])


def test_softmax_shift_invariance_and_normalization(rng, f64):
    x = rng.normal(size=(8, 5))
    p = softmax_forward(x)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
    shifted = softmax_forward(x + 7.3)
    np.testing.assert_allclose(p, shifted, atol=1e-12)


def test_rmsnorm_values(f64, monkeypatch):
    monkeypatch.setattr(tensor, "RMS_EPS", 0.0)
    out = rmsnorm(Tensor([1.0, 1.0]), Tensor([1.0, 1.0]))
    np.testing.assert_allclose(out.data, [1.0, 1.0])
    out = rmsnorm(Tensor([3.0, 4.0]), Tensor([1.0, 1.0]))
    rms = math.sqrt(12.5)
    np.testing.assert_allclose(out.data, [3.0 / rms, 4.0 / rms], atol=1e-9)
    np.testing.assert_allclose(out.data, [0.84853, 1.13137], atol=1e-5)
    out = rmsnorm(Tensor([3.0, 4.0]), Tensor([0.0, 0.0]))
    assert not out.data.any()


def test_conv_identity_and_zero_taps(rng):
    c, T = 3, 6
    x = Tensor(rng.normal(size=(T, c)))
    ident = np.zeros((c, 4))
    ident[:, -1] = 1.0  # newest tap only
    y, _ = causal_conv1d(x, Tensor(ident))
    np.testing.assert_allclose(y.data, x.data, atol=1e-7)
    y0, _ = causal_conv1d(x, Tensor(np.zeros((c, 4))))
    assert not y0.data.any()


def test_conv_batched_equals_stepwise_exact(rng, f64):
    c, T = 4, 8
    x = rng.normal(size=(T, c))
    k = Tensor(rng.normal(size=(c, 4)))
    batched, final_state = causal_conv1d(Tensor(x), k)
    state = np.zeros((3, c))
    outs = []
    for t in range(T):  # one token at a time, carrying the state
        y_t, state = causal_conv1d(Tensor(x[t:t + 1]), k, state)
        outs.append(y_t.data[0])
    assert np.array_equal(batched.data, np.stack(outs))  # exact at 64-bit
    assert np.array_equal(final_state, x[T - 3:])
    assert np.array_equal(state, final_state)


def test_conv_channel_mismatch():
    with pytest.raises(DimensionError):
        causal_conv1d(Tensor(np.ones((5, 3))), Tensor(np.ones((2, 4))))
    with pytest.raises(DimensionError):
        causal_conv1d(Tensor(np.ones((5, 3))), Tensor(np.ones((3, 5))))


def test_backward_tanh_sum_is_ones(f64):
    x = parameter(np.zeros(4))
    with Graph() as g:
        loss = sum_(tanh(x))
    grads = g.backward(loss, wrt=[x])
    np.testing.assert_allclose(grads[id(x)], np.ones(4))


def test_backward_softmax_cross_entropy(f64, rng):
    logits = parameter(rng.normal(size=(5,)))
    onehot = np.zeros(5)
    onehot[2] = 1.0
    with Graph() as g:
        loss = -sum_(log_softmax(logits) * Tensor(onehot))
    grads = g.backward(loss, wrt=[logits])
    expected = softmax_forward(logits.data) - onehot
    np.testing.assert_allclose(grads[id(logits)], expected, atol=1e-10)


def test_backward_unused_parameter_zero(f64):
    used = parameter([1.0, 2.0])
    unused = parameter([3.0])
    with Graph() as g:
        loss = sum_(used * used)
    grads = g.backward(loss, wrt=[used, unused])
    np.testing.assert_allclose(grads[id(unused)], [0.0])


def test_backward_rejects_nonscalar(f64):
    x = parameter([1.0, 2.0])
    with Graph() as g:
        y = x * 2.0
    with pytest.raises(ContractError):
        g.backward(y, wrt=[x])


@pytest.mark.parametrize(
    "name",
    ["tanh", "sigmoid", "silu", "softplus", "exp"],
)
def test_finite_difference_activations(name, rng, f64):
    x = parameter(rng.normal(size=(20,)) * 0.8)

    def loss_fn():
        return sum_(activation(name, x) * Tensor(rng_weights))

    rng_weights = rng.normal(size=(20,))
    assert check_gradients(loss_fn, [x], rng, probes=100) < REL_TOL


def test_finite_difference_core_ops(rng, f64):
    a = parameter(rng.normal(size=(3, 4)))
    w = parameter(rng.normal(size=(4, 5)))
    nw = parameter(rng.normal(size=(5,)) * 0.5 + 1.0)
    probe = Tensor(rng.normal(size=(3, 5)))

    def loss_fn():
        h = matmul(a, w)
        h = rmsnorm(h, nw)
        h = tanh(h) + log_softmax(h)
        return sum_(h * probe)

    assert check_gradients(loss_fn, [a, w, nw], rng, probes=100) < REL_TOL


def test_finite_difference_structural_ops(rng, f64):
    x = parameter(rng.normal(size=(4, 6)))
    k = parameter(rng.normal(size=(3, 4)))
    probe1 = Tensor(rng.normal(size=(4, 3)))
    probe2 = Tensor(rng.normal(size=(5, 3)))

    def loss_fn():
        left = narrow(x, 1, 0, 3)
        right = narrow(x, 1, 3, 3)
        stacked = concat([left * 2.0, right], axis=0)  # (8, 3)
        conv_in = reshape(stacked, (8, 3))
        y, _ = causal_conv1d(conv_in, transpose2d(reshape(k, (4, 3))))
        part = narrow(y, 0, 0, 4) * probe1
        rest = narrow(y, 0, 3, 5) * probe2
        return sum_(part) + sum_(sum_(rest, axis=0) * (1.0 / 5))

    assert check_gradients(loss_fn, [x, k], rng, probes=100) < REL_TOL


def test_slice_accumulation_leaves_aliased_gradient_unchanged():
    a, b = parameter(np.arange(4.0)), parameter(np.ones(4))
    probe = np.array([1.0, 2.0, 3.0, 4.0])
    with Graph() as g:
        part = sum_(narrow(a, 0, 1, 2) * Tensor([5.0, 7.0]))
        # created after the narrow, so its backward runs first; ``add``
        # hands a and b the same array as their first gradient
        both = sum_((a + b) * Tensor(probe))
        loss = part + both
    grads = g.backward(loss, wrt=[a, b])
    np.testing.assert_array_equal(grads[id(b)], probe)
    np.testing.assert_array_equal(grads[id(a)], probe + [0.0, 5.0, 7.0, 0.0])


def test_mul_returns_no_gradient_for_a_constant():
    x = parameter(np.ones(3))
    with Graph():
        by_float, by_leaf = x * 2.0, Tensor(np.ones(3)) * x
    assert by_float._grad_fn(np.ones(3))[1] is None
    assert by_leaf._grad_fn(np.ones(3))[0] is None
    assert by_leaf._grad_fn(np.ones(3))[1] is not None


def test_finite_difference_embedding(rng, f64):
    table = parameter(rng.normal(size=(7, 3)))
    ids = np.array([[0, 2, 2], [6, 1, 0]])
    probe = Tensor(rng.normal(size=(2, 3, 3)))

    def loss_fn():
        return sum_(embedding(table, ids) * probe)

    assert check_gradients(loss_fn, [table], rng, probes=100) < REL_TOL


def test_embedding_range_check():
    table = parameter(np.zeros((4, 2)))
    with pytest.raises(ContractError):
        embedding(table, np.array([4]))


def test_broadcast_backward(rng, f64):
    a = parameter(rng.normal(size=(2, 1, 3)))
    b = parameter(rng.normal(size=(4, 1)))
    probe = Tensor(rng.normal(size=(2, 4, 3)))

    def loss_fn():
        return sum_((a * b + a) * probe)

    assert check_gradients(loss_fn, [a, b], rng, probes=100) < REL_TOL


# ---------------------------------------------------------------------------
# A tape is walked once: backward frees what the closures saved as it goes

def _probe_op(x):
    """``x * [0, 1, 2]`` through a custom op whose closure alone holds the
    factor; returns the op's output and a weak reference to the factor."""
    factor = np.arange(3.0)
    out = custom_op(x.data * factor, (x,), lambda g: (g * factor,), "probe")
    return out, weakref.ref(factor)


def test_backward_consumes_the_tape():
    x = parameter(np.arange(3.0))
    with Graph() as g:
        y, factor = _probe_op(x)
        loss = sum_(tanh(y) + narrow(x, 0, 0, 3) * x)
    recorded = list(g.nodes)
    grads = g.backward(loss, wrt=[x])
    assert recorded and not g.nodes
    assert all(n._grad_fn is None and n._inputs == () for n in recorded)
    assert factor() is None  # y is alive, the array its closure saved is not
    np.testing.assert_allclose(
        grads[id(x)], (1 - np.tanh(x.data * [0, 1, 2]) ** 2) * [0, 1, 2] + 2 * x.data,
        rtol=1e-6)
    with pytest.raises(ContractError, match="already walked"):
        g.backward(loss, wrt=[x])


def test_refused_backward_leaves_the_tape():
    x = parameter(np.ones(2))
    with Graph() as g:
        y = x * 2.0
        loss = sum_(y)
    with pytest.raises(ContractError, match="scalar"):
        g.backward(y, wrt=[x])
    np.testing.assert_array_equal(g.backward(loss, wrt=[x])[id(x)], [2.0, 2.0])


def _run_in_thread(fn, *args):
    """``fn(*args)`` run in a second thread; its result, or its exception
    raised here."""
    box = {}

    def run():
        try:
            box["out"] = fn(*args)
        except BaseException as exc:  # re-raised in the calling thread
            box["err"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    if "err" in box:
        raise box["err"]
    return box["out"]


def test_a_tape_records_only_its_own_threads_ops():
    """A no-tape forward in a second thread, run while this thread holds an
    open tape, records nothing on it and returns constants."""
    model = _tiny_model()
    tokens = np.random.default_rng(3).integers(0, 259, size=(2, 9))
    x = parameter(np.ones(2))
    with Graph() as g:
        y = x * 2.0
        logits, _ = _run_in_thread(model.forward_batch, tokens)
        assert g.nodes == [y]
        loss = sum_(y)
    assert logits._grad_fn is None and logits._inputs == ()
    np.testing.assert_array_equal(logits.data, model.forward_batch(tokens)[0].data)
    np.testing.assert_array_equal(g.backward(loss, wrt=[x])[id(x)], [2.0, 2.0])


def backward_retaining(graph, loss, wrt):
    """``Graph.backward`` as it was before the walk consumed the tape: the
    oracle for the gradient arithmetic and its order."""
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()  # inputs whose gradient buffer the engine allocated
    for node in reversed(graph.nodes):
        g_out = grads.pop(id(node), None)
        if g_out is None or node._grad_fn is None:
            continue
        for inp, g_in in zip(node._inputs, node._grad_fn(g_out)):
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
    return {
        id(p): grads.get(id(p), np.zeros_like(p.data))
        for p in wrt
    }


def _tiny_model(mode=DENSE):
    neuron = NeuronConfig(kind=TILIF, d_max=4) if mode == SPIKING else None
    cfg = Mamba2Config(d_model=16, n_state=4, n_heads=2, d_head=16, n_layers=2,
                       vocab=259, mode=mode, neuron=neuron, sgc=mode == SPIKING)
    return LanguageModel(cfg, np.random.default_rng(11))


def _preferences(method):
    lines = synth_preference_lines(synthetic_corpus(30, seed=0), 6, 4, method)
    return [parse_preference_line(line, method) for line in lines]


# two steps of each training loop, on a fresh copy of a fixed model
TRAINING_STEPS = {
    "teacher": lambda: train_teacher(_tiny_model(), synthetic_corpus(30, seed=0),
                                     steps=2, batch=3, seq_len=12, seed=1),
    "distill-tilif-sgc": lambda: distill_run(
        _tiny_model(), _tiny_model(SPIKING), synthetic_corpus(30, seed=0),
        steps=2, batch=3, prompt_len=4, total_len=14, n_sequences=6, seed=2),
    "dpo": lambda: rl_run(_tiny_model(SPIKING), _preferences("dpo"), method="dpo",
                          steps=2, batch=3, lr=1e-3, seed=3),
    "kto": lambda: rl_run(_tiny_model(SPIKING), _preferences("kto"), method="kto",
                          steps=2, batch=3, lr=1e-3, seed=4),
}


def _handed_gradients(walk, run, monkeypatch):
    """The gradient bytes every ``AdamW.step`` of ``run()`` is handed, with
    ``walk`` as ``Graph.backward``."""
    handed, step = [], AdamW.step

    def recording_step(opt, grads, lr):
        handed.append([grads[id(p)].tobytes() for p in opt.params])
        step(opt, grads, lr)

    with monkeypatch.context() as m:
        m.setattr(Graph, "backward", walk)
        m.setattr(AdamW, "step", recording_step)
        run()
    return handed


@pytest.mark.parametrize("kind", list(TRAINING_STEPS))
def test_consuming_walk_bit_identical_to_retaining_oracle(kind, monkeypatch):
    """float32, where accumulation order shows: twin runs from the same
    inputs hand AdamW the same gradient bytes at every step."""
    run = TRAINING_STEPS[kind]
    want = _handed_gradients(backward_retaining, run, monkeypatch)
    got = _handed_gradients(Graph.backward, run, monkeypatch)
    assert len(got) == 2 and got == want


# ---------------------------------------------------------------------------
# Oracles: the forms these kernels had before their lean rewrites. The
# rewrites do the same floating-point operations in the same order, so
# they must reproduce the oracles bit for bit, NaN payloads included.

def sigmoid_where(x):
    with np.errstate(over="ignore"):
        ex_neg = np.exp(-np.abs(x))
    pos = 1.0 / (1.0 + ex_neg)
    return np.where(x >= 0, pos, 1.0 - pos)


ACTIVATION_ORACLES = {  # kind -> (value, local derivative), both from sigmoid_where
    "sigmoid": lambda x: (sigmoid_where(x),
                          sigmoid_where(x) * (1.0 - sigmoid_where(x))),
    "silu": lambda x: (x * sigmoid_where(x),
                       sigmoid_where(x) * (1.0 + x * (1.0 - sigmoid_where(x)))),
    "softplus": lambda x: (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))),
                           sigmoid_where(x)),
}


def log_softmax_eager(x):
    """Forward and backward over the last axis, with the backward's exp
    taken eagerly."""
    z = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    data = z - lse
    soft = np.exp(data)
    return data, lambda g: g - soft * g.sum(axis=-1, keepdims=True)


def conv_strided_taps(x, kernel, state, g):
    """Forward ``(y, state')`` and backward ``(dx, dkernel)`` broadcasting
    the strided kernel columns ``kernel[:, j]``."""
    c, w = kernel.shape
    T = x.shape[-2]
    xp = np.concatenate([state, x], axis=-2)
    y = np.zeros_like(x)
    for j in range(w):
        y = y + kernel[:, j] * xp[..., j:j + T, :]
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(kernel)
    for j in range(w):
        dk[:, j] = (g * xp[..., j:j + T, :]).reshape(-1, c).sum(axis=0)
        dxp[..., j:j + T, :] += g * kernel[:, j]
    return y, xp[..., T:, :].copy(), dxp[..., w - 1:, :], dk


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = {4: np.uint32, 8: np.uint64}[got.dtype.itemsize]
    assert np.array_equal(got.view(uint), want.view(uint))


SPECIALS = [0.0, -0.0, 0.5, -0.5, 1e-40, -1e-40, 17.0, -17.0, 88.5, -88.5,
            745.2, -745.2, 1e3, -1e3, 3e4, -3e4, np.inf, -np.inf, np.nan,
            -np.nan]


def elementwise_cases(dtype):
    rng = np.random.default_rng(7)
    cases = [np.array(v, dtype) for v in SPECIALS]  # 0-d
    cases.append(np.array([-2.5], dtype))
    cases.append(np.array(SPECIALS, dtype))
    cases.append((rng.normal(size=37) * 6).astype(dtype))  # odd size, mixed signs
    cases.append((rng.normal(size=(3, 1001)) * 40).astype(dtype))
    cases.append((rng.normal(size=(5, 8)) * 3).astype(dtype)[:, ::3])  # strided
    return cases


def _tape_grad(fn, x, g):
    """d(sum(fn(x) * g)) / dx through the tape."""
    p = parameter(x)
    with Graph() as tape:
        loss = sum_(fn(p) * Tensor(g))
    return tape.backward(loss, wrt=[p])[id(p)]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_sigmoid_family_bitwise_equals_where_oracle(dtype):
    rng = np.random.default_rng(3)
    with dtype_scope(dtype), np.errstate(all="ignore"):
        for x in elementwise_cases(np.dtype(dtype)):
            g = rng.normal(size=x.shape).astype(dtype)
            for kind, oracle in ACTIVATION_ORACLES.items():
                want, deriv = oracle(x)
                assert_bits_equal(activation_forward(kind, x), want)
                got = _tape_grad(lambda p: activation(kind, p), x, g)
                assert_bits_equal(got, g * deriv)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_log_softmax_bitwise_equals_eager_oracle(dtype):
    rng = np.random.default_rng(4)
    shapes_axes = [((1,), -1), ((7,), -1), ((3, 11), -1), ((3, 11), 0),
                   ((2, 5, 9), -1)]
    with dtype_scope(dtype), np.errstate(all="ignore"):
        for shape, axis in shapes_axes:
            for scale in (1.0, 1e3):
                # the op works over the last axis: move the case's axis there
                x = np.moveaxis((rng.normal(size=shape) * scale).astype(dtype), axis, -1)
                g = np.moveaxis(rng.normal(size=shape).astype(dtype), axis, -1)
                want, backward = log_softmax_eager(x)
                assert_bits_equal(log_softmax(Tensor(x)).data, want)
                got = _tape_grad(log_softmax, x, g)
                assert_bits_equal(got, backward(g))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_conv_bitwise_equals_strided_tap_oracle(dtype):
    rng = np.random.default_rng(5)
    shapes = [(1, 1), (1, 5), (6, 3), (2, 9, 7), (3, 2, 1, 4)]
    with dtype_scope(dtype), np.errstate(all="ignore"):
        for shape in shapes:
            x = rng.normal(size=shape).astype(dtype)
            state = rng.normal(size=shape[:-2] + (3, shape[-1])).astype(dtype)
            kernel = rng.normal(size=(shape[-1], 4)).astype(dtype)
            # channel 0: every product is -0, and the sum from +0 is +0
            kernel[0] = -0.0
            x[..., 0], state[..., 0] = np.abs(x[..., 0]), np.abs(state[..., 0])
            x.reshape(-1)[-3:] = [-0.0, np.inf, np.nan][-x.size:]
            g = rng.normal(size=shape).astype(dtype)
            y, new_state, dx, dk = conv_strided_taps(x, kernel, state, g)
            got_y, got_state = causal_conv1d_forward(x, kernel, state)
            assert_bits_equal(got_y, y)
            assert_bits_equal(got_state, new_state)
            xt, kt = parameter(x), parameter(kernel)
            with Graph() as tape:
                out, _ = causal_conv1d(xt, kt, state)
                loss = sum_(out * Tensor(g))
            grads = tape.backward(loss, wrt=[xt, kt])
            assert_bits_equal(out.data, y)
            assert_bits_equal(grads[id(xt)], dx)
            assert_bits_equal(grads[id(kt)], dk)


# ---------------------------------------------------------------------------
# allocator policy

FAULT_PROBE = """
import resource
import numpy as np
from spikessm import SPIKING, TILIF, LanguageModel, NeuronConfig, toy_config
from spikessm.tokenizer import tokenize
from spikessm.training import eval_ppl, synthetic_corpus

teacher = LanguageModel(toy_config(), np.random.default_rng(5))
student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4), sgc=True)
lines, size = [], 0
for line in synthetic_corpus(400, seed=5):  # the shortest prefix of 16 windows
    lines.append(line)
    size += tokenize(line).size
    if size // 49 == 16:
        break
for _ in range(3):
    eval_ppl(student, lines)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    eval_ppl(student, lines)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or
                    platform.libc_ver()[0] != "glibc", reason="glibc allocator policy")
def test_no_tape_forward_keeps_heap_pages_mapped():
    # under glibc's default thresholds every pass faults ~1,600 pages back in
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 64


class _FakeMallopt:
    def __init__(self, result):
        self.result, self.calls = result, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def test_allocator_policy_without_glibc_mallopt():
    assert keep_freed_pages_mapped(SimpleNamespace()) is False
    refusing = _FakeMallopt(0)  # musl's mallopt accepts nothing
    assert keep_freed_pages_mapped(SimpleNamespace(mallopt=refusing)) is False
    assert len(refusing.calls) == 1  # nothing further is tried
    taking = _FakeMallopt(1)
    assert keep_freed_pages_mapped(SimpleNamespace(mallopt=taking)) is True
    assert [v for _, v in taking.calls] == [MMAP_THRESHOLD, TRIM_THRESHOLD]
