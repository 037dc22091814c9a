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
    measure_fire_rate,
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
    assert counter.accumulations == train.spike_count * 17
    assert train.spike_count == int(np.abs(s).sum())


def test_zero_input_touches_nothing():
    counter = OpCounter()
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    t = expand_spike_train(cfg, np.zeros(8))
    y = spike_linear_event(np.ones((3, 8)), t, counter=counter)
    assert counter.accumulations == 0
    assert not y.any()


def test_fire_rate_examples():
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    train = expand_spike_train(cfg, np.array([3.0, -1.0]))
    stats = measure_fire_rate([train])
    assert stats.rate == pytest.approx(4 / (1 * 4 * 2))

    zero = measure_fire_rate([expand_spike_train(cfg, np.zeros(2))])
    assert zero.rate == 0.0

    sat = measure_fire_rate([expand_spike_train(cfg, np.array([4.0, -4.0]))])
    assert sat.rate == 1.0


def test_fire_rate_validation():
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    train = expand_spike_train(cfg, np.array([1.0]))
    with pytest.raises(ContractError):
        measure_fire_rate([])
    assert measure_fire_rate([train]).micro_steps == 4  # k is d_max for TI-LIF
    lif_train = expand_spike_train(NeuronConfig(kind=LIF, d_max=1), np.array([1.0]))
    lif = measure_fire_rate([lif_train])
    assert (lif.micro_steps, lif.rate) == (1, 1.0)
    with pytest.raises(DimensionError, match="share shape"):
        measure_fire_rate([train, lif_train])  # trains of different kinds at one site


def test_fire_rate_permutation_invariant(rng):
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    s = quantize(cfg, rng.normal(scale=2.0, size=32))
    perm = rng.permutation(32)
    a = measure_fire_rate([expand_spike_train(cfg, s)])
    b = measure_fire_rate([expand_spike_train(cfg, s[perm])])
    assert a.rate == b.rate


def test_fire_stats_from_ints_matches_trains(rng):
    cfg = NeuronConfig(kind=TILIF, d_max=4)
    s = quantize(cfg, rng.normal(scale=2.0, size=(5, 16)))
    trains = [expand_spike_train(cfg, row) for row in s]
    via_trains = measure_fire_rate(trains)
    direct = fire_stats_from_ints(s, k=4)
    assert direct == via_trains


def test_fire_stats_invariant():
    st = FireStats(spike_count=4, micro_steps=4, channels=2, tokens=1)
    assert st.rate == 4 / (1 * 4 * 2)
