import math
import warnings

import numpy as np
import pytest

from spikessm.gradcheck import REL_TOL, check_gradients
from spikessm.tensor import (
    ContractError,
    DimensionError,
    Graph,
    Tensor,
    activation,
    causal_conv1d,
    concat,
    embedding,
    log_softmax,
    matmul,
    mean_,
    narrow,
    parameter,
    reshape,
    rmsnorm,
    softmax,
    sum_,
    tanh,
    transpose2d,
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
    assert softmax(Tensor([0.0, 0.0])).data.tolist() == [0.5, 0.5]
    got = softmax(Tensor([math.log(1.0), math.log(3.0)])).data
    np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-6)
    big = softmax(Tensor([1000.0, 1000.0])).data
    assert np.isfinite(big).all()
    np.testing.assert_allclose(big, [0.5, 0.5])
    with pytest.raises(DimensionError):
        softmax(Tensor([1.0, 2.0]), axis=3)


def test_softmax_shift_invariance_and_normalization(rng, f64):
    x = rng.normal(size=(8, 5))
    p = softmax(Tensor(x), axis=-1).data
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
    shifted = softmax(Tensor(x + 7.3), axis=-1).data
    np.testing.assert_allclose(p, shifted, atol=1e-12)


def test_rmsnorm_values(f64):
    out = rmsnorm(Tensor([1.0, 1.0]), Tensor([1.0, 1.0]), eps=0.0)
    np.testing.assert_allclose(out.data, [1.0, 1.0])
    out = rmsnorm(Tensor([3.0, 4.0]), Tensor([1.0, 1.0]), eps=0.0)
    rms = math.sqrt(12.5)
    np.testing.assert_allclose(out.data, [3.0 / rms, 4.0 / rms], atol=1e-9)
    np.testing.assert_allclose(out.data, [0.84853, 1.13137], atol=1e-5)
    out = rmsnorm(Tensor([3.0, 4.0]), Tensor([0.0, 0.0]), eps=0.0)
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
    expected = softmax(Tensor(logits.data)).data - onehot
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
        h = rmsnorm(h, nw, eps=1e-6)
        h = softmax(h, axis=-1) + log_softmax(h, axis=-1)
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
        return sum_(part) + sum_(mean_(rest, axis=0))

    assert check_gradients(loss_fn, [x, k], rng, probes=100) < REL_TOL


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
