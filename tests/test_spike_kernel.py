import numpy as np
import pytest

from spikessm.neurons import (
    ILIF,
    LIF,
    TILIF,
    NeuronConfig,
    expand_spike_train,
    quantize,
)
from spikessm.spike_kernel import (
    FireStats,
    OpCounter,
    fire_stats_from_ints,
    spike_linear_event,
    spike_linear_int,
)
from spikessm.tensor import ContractError, DimensionError


W22 = np.array([[1.0, 2.0], [3.0, 4.0]])


def test_int_kernel_examples():
    np.testing.assert_array_equal(spike_linear_int(W22, np.array([1.0, 0.0])), [1.0, 3.0])
    np.testing.assert_array_equal(spike_linear_int(W22, np.array([-2.0, 1.0])), [0.0, -2.0])
    np.testing.assert_array_equal(spike_linear_int(W22, np.zeros(2)), [0.0, 0.0])


def test_event_kernel_examples():
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    t = expand_spike_train(cfg, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(spike_linear_event(W22, t), [1.0, 3.0])
    t = expand_spike_train(cfg, np.array([-2.0, 1.0]))
    np.testing.assert_array_equal(spike_linear_event(W22, t), [0.0, -2.0])
    t = expand_spike_train(cfg, np.zeros(2))
    np.testing.assert_array_equal(spike_linear_event(W22, t), [0.0, 0.0])


def test_dimension_errors():
    cfg = NeuronConfig(kind=TILIF, d_max=2)
    with pytest.raises(DimensionError):
        spike_linear_int(W22, np.ones(3))
    with pytest.raises(DimensionError):
        spike_linear_event(W22, expand_spike_train(cfg, np.ones(3)))
    with pytest.raises(DimensionError):  # a batch of columns is 2-D at most
        spike_linear_int(W22, np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        spike_linear_int(W22, np.ones((3, 4)))
    with pytest.raises(DimensionError):
        spike_linear_event(W22, expand_spike_train(cfg, np.ones((2, 3, 4))))


def test_kernels_take_a_batch_of_columns():
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    s = np.array([[1.0, -2.0, 0.0], [0.0, 1.0, 0.0]])  # column 2 fires nowhere
    for y in (spike_linear_int(W22, s), spike_linear_event(W22, expand_spike_train(cfg, s))):
        np.testing.assert_array_equal(y, [[1.0, 0.0, 0.0], [3.0, -2.0, 0.0]])
    zeros = np.zeros((2, 3))
    np.testing.assert_array_equal(spike_linear_int(W22, zeros), zeros)


def _neuron_cfg(kind):
    return NeuronConfig(kind=kind, d_max=1 if kind == LIF else 4)


@pytest.mark.parametrize("kind", [LIF, ILIF, TILIF])
def test_equivalence_triangle_integer_exact(kind, rng):
    cfg = _neuron_cfg(kind)
    for _ in range(200):
        d_in = int(rng.integers(1, 64))
        d_out = int(rng.integers(1, 64))
        W = rng.integers(-8, 9, size=(d_out, d_in)).astype(np.float64)
        x = rng.normal(scale=cfg.d_max, size=d_in)
        s = quantize(cfg, x)
        dense = W @ s
        assert np.array_equal(spike_linear_int(W, s), dense)
        assert np.array_equal(spike_linear_event(W, expand_spike_train(cfg, s)), dense)


def test_equivalence_float32_tolerance(rng):
    cfg = NeuronConfig(kind=TILIF, d_max=8)
    for _ in range(200):
        d_in = int(rng.integers(8, 256))
        d_out = int(rng.integers(8, 256))
        W = (rng.normal(size=(d_out, d_in)) / d_in).astype(np.float32)
        s = quantize(cfg, rng.normal(scale=4.0, size=d_in)).astype(np.float32)
        dense = W @ s
        assert np.max(np.abs(spike_linear_int(W, s) - dense)) <= 1e-5
        ev = spike_linear_event(W, expand_spike_train(cfg, s.astype(np.float64)))
        assert np.max(np.abs(ev - dense)) <= 1e-5


def test_accumulation_count(rng):
    cfg = NeuronConfig(kind=TILIF, d_max=5)
    s = quantize(cfg, rng.normal(scale=3.0, size=40))
    train = expand_spike_train(cfg, s)
    counter = OpCounter()
    spike_linear_event(np.ones((17, 40)), train, counter=counter)
    assert counter.accumulations == int(train.spikes.sum()) * 17
    assert int(train.spikes.sum()) == int(np.abs(s).sum())


@pytest.mark.parametrize("n", [1, 5, 32])
def test_batched_accumulation_count(n, rng):
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    s = quantize(cfg, rng.normal(scale=2.0, size=(40, n)))
    s[3] = 0.0  # a channel that fires in no column
    counter = OpCounter()
    spike_linear_event(np.ones((17, 40)), expand_spike_train(cfg, s), counter=counter)
    assert counter.accumulations == int(np.abs(s).sum()) * 17


def test_zero_input_touches_nothing():
    counter = OpCounter()
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    t = expand_spike_train(cfg, np.zeros(8))
    y = spike_linear_event(np.ones((3, 8)), t, counter=counter)
    assert counter.accumulations == 0
    assert not y.any()


def measure_fire_rate(trains):
    """Oracle of ``fire_stats_from_ints``: spikes counted from expanded
    trains, the micro-step count read from their shape."""
    k, channels = trains[0].spikes.shape
    assert all(t.spikes.shape == (k, channels) for t in trains)
    count = sum(int(t.spikes.sum()) for t in trains)
    return FireStats(spike_count=count, micro_steps=k, channels=channels,
                     tokens=len(trains))


def test_fire_rate_examples():
    stats = fire_stats_from_ints(np.array([3.0, -1.0]), k=4)
    assert stats.rate == pytest.approx(4 / (1 * 4 * 2))
    assert fire_stats_from_ints(np.zeros(2), k=4).rate == 0.0
    assert fire_stats_from_ints(np.array([4.0, -4.0]), k=4).rate == 1.0


def test_fire_rate_validation():
    with pytest.raises(ContractError):
        fire_stats_from_ints(np.zeros((0, 2)), k=4)
    tilif = fire_stats_from_ints(np.array([1.0]), k=4)
    assert tilif.micro_steps == 4  # k is d_max for TI-LIF
    lif = fire_stats_from_ints(np.array([1.0]), k=1)
    assert (lif.micro_steps, lif.rate) == (1, 1.0)
    with pytest.raises(ContractError, match="differently shaped"):
        tilif.merged(lif)  # stats of different neuron kinds at one site


def test_fire_rate_permutation_invariant(rng):
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    s = quantize(cfg, rng.normal(scale=2.0, size=32))
    perm = rng.permutation(32)
    assert fire_stats_from_ints(s, k=4).rate == fire_stats_from_ints(s[perm], k=4).rate


def test_fire_stats_from_ints_matches_trains(rng):
    for kind, d_max in [(TILIF, 4), (ILIF, 3), (LIF, 1)]:
        cfg = NeuronConfig(kind=kind, d_max=d_max)
        s = quantize(cfg, rng.normal(scale=2.0, size=(5, 16)))
        trains = [expand_spike_train(cfg, row) for row in s]
        assert fire_stats_from_ints(s, k=d_max) == measure_fire_rate(trains)
        assert fire_stats_from_ints(s[0], k=d_max) == measure_fire_rate(trains[:1])


def test_fire_stats_invariant():
    st = FireStats(spike_count=4, micro_steps=4, channels=2, tokens=1)
    assert st.rate == 4 / (1 * 4 * 2)
