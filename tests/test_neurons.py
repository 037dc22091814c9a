import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikessm.neurons import (
    ILIF,
    LIF,
    TILIF,
    NeuronConfig,
    collapse_spike_train,
    expand_spike_train,
    neuron_forward,
    quantize,
    surrogate_window,
)
from spikessm.tensor import ContractError, Graph, Tensor, parameter, sum_


def ti(d_max=4, alpha=1.0):
    return NeuronConfig(kind=TILIF, d_max=d_max, alpha=alpha)


def test_config_invariants():
    with pytest.raises(ContractError):
        NeuronConfig(kind=LIF, d_max=2)
    with pytest.raises(ContractError):
        NeuronConfig(kind=TILIF, d_max=0)
    with pytest.raises(ContractError):
        NeuronConfig(kind="alif")


def test_tilif_forward_values():
    cfg = ti(4)
    x = np.array([2.3, -5.7, 0.0])
    np.testing.assert_array_equal(quantize(cfg, x), [2.0, -4.0, 0.0])


def test_ilif_forward_values():
    cfg = NeuronConfig(kind=ILIF, d_max=4)
    np.testing.assert_array_equal(quantize(cfg, np.array([-1.2, 9.0])), [0.0, 4.0])


def test_lif_forward_values():
    cfg = NeuronConfig(kind=LIF, d_max=1)
    np.testing.assert_array_equal(quantize(cfg, np.array([1.2, 0.9, 1.0])), [1.0, 0.0, 1.0])


def test_round_ties_to_even():
    cfg = ti(4)
    np.testing.assert_array_equal(
        quantize(cfg, np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])),
        [0.0, 2.0, 2.0, 0.0, -2.0, -2.0],
    )


@given(st.floats(-20, 20))
def test_tilif_is_odd(x):
    cfg = ti(4)
    a = quantize(cfg, np.array([x]))
    b = quantize(cfg, np.array([-x]))
    assert a[0] == -b[0]


@given(
    st.sampled_from([LIF, ILIF, TILIF]),
    st.floats(-10, 10),
    st.floats(-10, 10),
)
def test_monotone(kind, x1, x2):
    d = 1 if kind == LIF else 4
    cfg = NeuronConfig(kind=kind, d_max=d)
    lo, hi = sorted([x1, x2])
    a = quantize(cfg, np.array([lo]))
    b = quantize(cfg, np.array([hi]))
    assert a[0] <= b[0]


def lif_expansion_oracle(d_max, s):
    """The leaky integrate-and-fire recurrence with decay 1 and threshold 1,
    fed |s| once at the first micro-step, run one micro-step at a time."""
    mag = np.abs(s)
    spikes = np.zeros((d_max, s.size), dtype=np.uint8)
    v = np.zeros_like(mag)
    prev = np.zeros_like(mag)
    for i in range(d_max):
        inject = mag if i == 0 else 0.0
        v = 1.0 * (v - 1.0 * prev) + inject
        fired = v - 1.0 >= 0.0
        spikes[i] = fired
        prev = fired.astype(mag.dtype)
    return spikes


@pytest.mark.parametrize("d_max", range(1, 9))
def test_round_trip_exhaustive(d_max):
    cfg = ti(d_max)
    s = np.arange(-d_max, d_max + 1, dtype=np.float64)
    train = expand_spike_train(cfg, s)
    np.testing.assert_array_equal(train.spikes, lif_expansion_oracle(d_max, s))
    assert train.spikes.dtype == np.uint8
    np.testing.assert_array_equal(collapse_spike_train(train), s)
    # per-channel spike counts equal the magnitudes exactly
    np.testing.assert_array_equal(train.spikes.sum(axis=0), np.abs(s))


def test_expand_examples():
    cfg = ti(4)
    train = expand_spike_train(cfg, np.array([3.0]))
    np.testing.assert_array_equal(train.spikes[:, 0], [1, 1, 1, 0])
    assert train.sign[0] == 1.0

    train = expand_spike_train(cfg, np.array([-2.0]))
    np.testing.assert_array_equal(train.spikes[:, 0], [1, 1, 0, 0])
    assert train.sign[0] == -1.0

    train = expand_spike_train(cfg, np.array([0.0]))
    assert not train.spikes.any()
    assert train.sign[0] == 1.0  # sign of zero is +1


def test_expand_closed_form(rng):
    # independent oracle: spike i fires iff |s| >= i+1
    cfg = ti(6)
    s = rng.integers(-6, 7, size=64).astype(np.float64)
    train = expand_spike_train(cfg, s)
    expected = (np.abs(s)[None, :] >= np.arange(1, 7)[:, None]).astype(np.uint8)
    np.testing.assert_array_equal(train.spikes, expected)


@pytest.mark.parametrize("shape", [(7, 5), (7, 3, 4)])
def test_expand_keeps_the_activation_shape(shape, rng):
    cfg = ti(4)
    s = rng.integers(-4, 5, size=shape).astype(np.float64)
    train = expand_spike_train(cfg, s)
    assert train.spikes.shape == (4,) + shape and train.sign.shape == shape
    assert train.channels == shape[0]
    np.testing.assert_array_equal(collapse_spike_train(train), s)
    # the closed form, column by column
    for j in range(shape[1]):
        np.testing.assert_array_equal(train.spikes[:, :, j],
                                      expand_spike_train(cfg, s[:, j]).spikes)


def test_expand_rejects_out_of_range():
    with pytest.raises(ContractError):
        expand_spike_train(ti(4), np.array([5.0]))
    with pytest.raises(ContractError):
        expand_spike_train(ti(4), np.array([1.5]))


@pytest.mark.parametrize(
    "kind,d_max,lo",
    [(TILIF, 4, -4.0), (ILIF, 4, 0.0), (LIF, 1, -1.0)],
)
def test_surrogate_window_boundaries(kind, d_max, lo, f64):
    alpha = 0.7
    cfg = NeuronConfig(kind=kind, d_max=d_max, alpha=alpha)
    hi = float(d_max)
    ulp_hi = np.nextafter(hi, np.inf)
    ulp_lo = np.nextafter(lo, -np.inf)
    x = np.array([lo, hi, ulp_lo, ulp_hi, 0.0])
    w = surrogate_window(cfg, x)
    np.testing.assert_array_equal(w, [alpha, alpha, 0.0, 0.0, alpha])


def test_neuron_backward_uses_surrogate(f64):
    cfg = ti(4, alpha=0.5)
    x = parameter(np.array([-4.0, -3.9, 0.3, 4.0, 4.5, -6.0]))
    with Graph() as g:
        loss = sum_(neuron_forward(cfg, x))
    grad = g.backward(loss, wrt=[x])[id(x)]
    np.testing.assert_array_equal(grad, [0.5, 0.5, 0.5, 0.5, 0.0, 0.0])

