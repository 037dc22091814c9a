import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spikessm import checkpoint, mamba2
from spikessm.gradcheck import REL_TOL, check_gradients
from spikessm.mamba2 import (
    DENSE,
    KERNELS,
    SCAN_CHUNK,
    SPIKING,
    LanguageModel,
    Mamba2Config,
    block_forward,
    block_step,
    clamp_channel_hook,
    make_clamp_hook,
    hidden_align_loss,
    init_block_params,
    init_block_state,
    param_shapes,
    sgc_forward,
    ssm_readout,
    ssm_scan,
    ssm_update,
    toy_config,
)
from spikessm.neurons import (
    LIF,
    NeuronConfig,
    TILIF,
    collapse_spike_train,
    expand_spike_train,
    quantize,
)
from spikessm.spike_kernel import OpCounter, spike_linear_event, spike_linear_int
from spikessm.tensor import (
    RMS_EPS,
    ContractError,
    Graph,
    Tensor,
    custom_op,
    dtype_scope,
    parameter,
    sum_,
)


def small_config(mode=DENSE, **kw):
    return Mamba2Config(
        d_model=8, n_state=4, n_heads=2, d_head=8, n_layers=2, vocab=11,
        mode=mode, **kw,
    )


def test_config_invariants():
    with pytest.raises(ContractError):
        Mamba2Config(d_model=8, n_state=4, n_heads=2, d_head=4, n_layers=1, vocab=5)
    assert small_config(neuron=NeuronConfig(kind=LIF, d_max=1)).micro_steps == 1
    assert small_config(neuron=NeuronConfig(kind=TILIF, d_max=4)).micro_steps == 4
    assert toy_config().n_heads * toy_config().d_head == 2 * toy_config().d_model


def test_ssm_update_unit_outer_product():
    H, N, P = 2, 3, 4
    h = np.zeros((H, N, P))
    b = np.zeros(N)
    b[0] = 1.0
    x = np.zeros((H, P))
    x[:, 0] = 1.0
    out = ssm_update(h, decay=np.ones(H), dt=np.ones(H), b=b, x=x)
    expect = np.zeros((H, N, P))
    expect[:, 0, 0] = 1.0
    np.testing.assert_array_equal(out, expect)


def test_ssm_state_contraction(rng):
    # zero input: ||h'|| <= ||h|| because the decay lies in (0, 1]
    H, N, P = 3, 5, 4
    h = rng.normal(size=(H, N, P))
    dt = np.log1p(np.exp(rng.normal(size=H)))  # softplus >= 0
    decay = np.exp(-dt * np.exp(rng.normal(size=H)))
    out = ssm_update(h, decay, dt=np.zeros(H), b=np.zeros(N), x=np.zeros((H, P)))
    assert np.linalg.norm(out) <= np.linalg.norm(h)


def ssm_update_broadcast(h, decay, dt, b, x):
    """Oracle for ssm_update: three broadcast products, three state-sized arrays."""
    dbx = dt[..., :, None, None] * b[..., None, :, None] * x[..., :, None, :]
    return decay[..., :, None, None] * h + dbx


def ssm_readout_broadcast(h, c):
    """Oracle for ssm_readout: a state-sized broadcast product, summed over n."""
    return (c[..., None, :, None] * h).sum(axis=-2)


def _signed_zeros_and_subnormals(rng, shape, dtype):
    """Normal values with about a tenth each of +0, -0 and +-subnormals."""
    a = rng.normal(size=shape).astype(dtype)
    pick = rng.integers(0, 10, size=shape)
    tiny = np.finfo(dtype).smallest_subnormal
    a[pick == 0] = 0.0
    a[pick == 1] = -0.0
    a[pick == 2] = tiny * rng.integers(-40, 40, size=int((pick == 2).sum()))
    return a


@pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
@pytest.mark.parametrize("lead", [(), (1,), (5,), (3, 4)])
@pytest.mark.parametrize("hnp", [(2, 16, 64), (3, 5, 2)])
def test_update_and_readout_match_broadcast_oracles(dtype, uint, lead, hnp, rng):
    H, N, P = hnp
    h, decay, dt, b, x, c = (
        _signed_zeros_and_subnormals(rng, lead + shape, dtype)
        for shape in ((H, N, P), (H,), (H,), (N,), (H, P), (N,)))
    decay = np.abs(decay)  # exp(-...) in the model: +0 or positive
    h[..., 0, :] = -0.0    # a whole row of -0 state, and of -0 products
    x[..., 0, :] = -0.0
    h_before = h.copy()
    out = ssm_update(h, decay, dt, b, x)
    assert not np.shares_memory(out, h)
    np.testing.assert_array_equal(h.view(uint), h_before.view(uint))
    expect = ssm_update_broadcast(h, decay, dt, b, x)
    assert out.dtype == dtype and out.shape == expect.shape
    np.testing.assert_array_equal(out.view(uint), expect.view(uint))
    assert (out.view(uint) == np.array(-0.0, dtype).view(uint)).any()  # -0 kept
    o = ssm_readout(out, c)
    o_expect = ssm_readout_broadcast(out, c)
    assert o.dtype == dtype and o.shape == o_expect.shape
    np.testing.assert_array_equal(o.view(uint), o_expect.view(uint))


def test_readout_at_d_head_one_agrees_to_rounding(rng):
    # numpy sums the contiguous n axis of the oracle's product pairwise
    # there; einsum adds in order of n
    h = rng.normal(size=(5, 2, 40, 1)).astype(np.float32)
    c = rng.normal(size=(5, 40)).astype(np.float32)
    np.testing.assert_allclose(ssm_readout(h, c), ssm_readout_broadcast(h, c),
                               rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("mode", [DENSE, SPIKING])
def test_step_bit_identical_to_broadcast_forms(mode, rng, monkeypatch):
    cfg = small_config(mode=mode, neuron=NeuronConfig(kind=TILIF, d_max=4))
    model = LanguageModel(cfg, rng)
    tokens = rng.integers(0, cfg.vocab, size=(3, 6))

    def run():
        state, outs = model.init_state((3,)), []
        for kernel in KERNELS:
            for t in range(tokens.shape[1]):
                logits, state = model.step(tokens[:, t], state, kernel=kernel)
                outs.append(logits)
            outs += [bst.h for bst in state]
        return outs

    lean = run()
    monkeypatch.setattr(mamba2, "ssm_update", ssm_update_broadcast)
    monkeypatch.setattr(mamba2, "ssm_readout", ssm_readout_broadcast)
    for a, b in zip(lean, run(), strict=True):
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


@pytest.mark.parametrize("kernel", KERNELS)
def test_batched_step_matches_row_by_row(kernel, rng):
    # a tolerance, not equality: BLAS may sum a one-row product in
    # another order than a many-row one
    cfg = small_config(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
    model = LanguageModel(cfg, rng)
    tokens = rng.integers(0, cfg.vocab, size=(4, 7))
    batch = model.init_state((4,))
    rows = [model.init_state((1,)) for _ in range(4)]
    for t in range(tokens.shape[1]):
        logits, batch = model.step(tokens[:, t], batch, kernel=kernel)
        for i in range(4):
            row_logits, rows[i] = model.step(tokens[i:i + 1, t], rows[i], kernel=kernel)
            np.testing.assert_allclose(row_logits[0], logits[i], rtol=0, atol=1e-5)
    for i, row in enumerate(rows):
        for bst, row_bst in zip(batch, row, strict=True):
            np.testing.assert_allclose(row_bst.h[0], bst.h[i], rtol=0, atol=1e-5)
            np.testing.assert_allclose(row_bst.conv_state[0], bst.conv_state[i],
                                       rtol=0, atol=1e-5)


def test_unknown_kernel_refused_in_both_modes(rng):
    for mode in (DENSE, SPIKING):
        cfg = small_config(mode=mode)
        params = init_block_params(cfg, rng)
        with pytest.raises(ContractError, match="unknown kernel 'bogus'"):
            block_step(params, init_block_state(cfg), np.zeros(cfg.d_model), cfg,
                       layer_idx=0, kernel="bogus")
        model = LanguageModel(cfg, rng)
        with pytest.raises(ContractError, match="unknown kernel 'bogus'"):
            model.generate_greedy(np.array([[1, 2]]), 3, kernel="bogus")


def test_generate_greedy_refuses_bad_lengths(rng):
    model = LanguageModel(small_config(), rng)
    with pytest.raises(ContractError, match="at least one token"):
        model.generate_greedy(np.zeros((2, 0), dtype=np.int64), 4)
    with pytest.raises(ContractError, match="max_new must be >= 0"):
        model.generate_greedy(np.array([[1, 2]]), -1)
    assert model.generate_greedy(np.array([[1, 2]]), 0).tolist() == [[1, 2]]


@pytest.mark.parametrize("bad", [-1, 11])  # small_config has 11 token ids
def test_step_refuses_token_ids_outside_the_vocabulary(rng, bad):
    model = LanguageModel(small_config(), rng)
    out_of_range = r"token id out of range \[0, 11\)"
    with pytest.raises(ContractError, match=out_of_range):
        model.step(np.array([bad]), model.init_state((1,)))
    with pytest.raises(ContractError, match=out_of_range):
        model.generate_greedy(np.array([[1, 2, bad]]), 3)
    with pytest.raises(ContractError, match=out_of_range):
        model.forward_batch(np.array([[1, 2, bad]]))


def _greedy_stepping_after_every_token(model, prompts, max_new, kernel):
    """The greedy loop that also stepped the last new token."""
    state = model.init_state((prompts.shape[0],))
    for t in range(prompts.shape[1]):
        logits, state = model.step(prompts[:, t], state, kernel=kernel)
    out = [prompts]
    for _ in range(max_new):
        cur = logits.argmax(axis=-1)
        out.append(cur[:, None])
        logits, state = model.step(cur, state, kernel=kernel)
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("mode", [DENSE, SPIKING])
def test_generate_greedy_steps_only_before_a_read(rng, monkeypatch, mode):
    """T0 + max_new - 1 steps for max_new >= 1 (T0 for 0), and the ids of
    the loop that stepped after the last token too."""
    model = LanguageModel(small_config(mode=mode, neuron=SPIKE4), rng)
    prompts = rng.integers(0, 11, size=(3, 4))
    want = {n: _greedy_stepping_after_every_token(model, prompts, n, "int")
            for n in (0, 1, 5)}
    calls = []
    step = LanguageModel.step
    monkeypatch.setattr(LanguageModel, "step",
                        lambda self, *a, **kw: calls.append(1) or step(self, *a, **kw))
    for max_new in (0, 1, 5):
        calls.clear()
        got = model.generate_greedy(prompts, max_new, kernel="int")
        assert len(calls) == 4 + max(max_new - 1, 0)
        assert got.tolist() == want[max_new].tolist()


def test_step_with_tiny_dt_keeps_state(rng, f64):
    cfg = small_config()
    params = init_block_params(cfg, rng)
    params.dt_bias.data = np.full(cfg.n_heads, -40.0)
    state = init_block_state(cfg)
    state.h = rng.normal(size=state.h.shape)
    _, new_state, _ = block_step(params, state, np.zeros(cfg.d_model), cfg)
    np.testing.assert_allclose(new_state.h, state.h, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode", [DENSE, SPIKING])
def test_recurrent_equivalence_float32(mode, rng):
    cfg = small_config(mode=mode, neuron=NeuronConfig(kind=TILIF, d_max=4))
    params = init_block_params(cfg, rng)
    u = rng.normal(size=(1, 8, cfg.d_model)).astype(np.float32)
    batched, _ = block_forward(params, Tensor(u), cfg)
    state = init_block_state(cfg)
    outs = []
    for t in range(8):
        y, state, _ = block_step(params, state, u[0, t], cfg)
        outs.append(y)
    np.testing.assert_allclose(batched.data[0], np.stack(outs), atol=1e-5)


def test_recurrent_equivalence_float64(rng, f64):
    cfg = small_config()
    params = init_block_params(cfg, rng)
    u = rng.normal(size=(2, 8, cfg.d_model))
    batched, _ = block_forward(params, Tensor(u), cfg)
    state = init_block_state(cfg, (2,))
    outs = []
    for t in range(8):
        y, state, _ = block_step(params, state, u[:, t], cfg)
        outs.append(y)
    np.testing.assert_allclose(batched.data, np.stack(outs, axis=1), atol=1e-10)


def test_recurrent_equivalence_across_chunks(rng):
    cfg = small_config()
    params = init_block_params(cfg, rng)
    T = 2 * SCAN_CHUNK + 5
    u = rng.normal(size=(2, T, cfg.d_model)).astype(np.float32)
    batched, _ = block_forward(params, Tensor(u), cfg)
    state = init_block_state(cfg, (2,))
    outs = []
    for t in range(T):
        y, state, _ = block_step(params, state, u[:, t], cfg)
        outs.append(y)
    np.testing.assert_allclose(batched.data, np.stack(outs, axis=1), atol=1e-5)


def test_step_kernels_agree(rng, f64):
    cfg = small_config(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
    params = init_block_params(cfg, rng)
    u = rng.normal(scale=2.0, size=cfg.d_model)
    outs = {}
    for kernel in ("matmul", "int", "event"):
        y, _, _ = block_step(params, init_block_state(cfg), u, cfg, kernel=kernel)
        outs[kernel] = y
    np.testing.assert_array_equal(outs["matmul"], outs["int"])
    np.testing.assert_allclose(outs["event"], outs["int"], atol=1e-12)


def project_row_by_row(s_int, w, kernel, neuron):
    """Oracle of ``mamba2._project``: one sparse-kernel call per batch row."""
    flat = s_int.reshape(-1, s_int.shape[-1])
    rows = []
    for row in flat:
        if kernel == "int":
            rows.append(spike_linear_int(w.T, row))
        else:
            train = expand_spike_train(neuron, row)
            rows.append(spike_linear_event(w.T, train))
    return np.stack(rows).reshape(s_int.shape[:-1] + (w.shape[1],))


def _lead(shape, B):
    return {"()": (), "(B,)": (B,), "(B, T)": (B, 3)}[shape]


@pytest.mark.parametrize("kernel", ["int", "event"])
@pytest.mark.parametrize("B", [1, 5, 32])
@pytest.mark.parametrize("shape", ["()", "(B,)", "(B, T)"])
def test_project_matches_row_by_row_and_dense(kernel, B, shape, rng):
    neuron = NeuronConfig(kind=TILIF, d_max=4)
    w = (rng.normal(size=(24, 40)) / 24).astype(np.float32)
    s = quantize(neuron, rng.normal(scale=1.5, size=_lead(shape, B) + (24,))).astype(np.float32)
    s[..., 5] = 0.0  # a channel that fires in no row
    got = mamba2._project(s, w, kernel, neuron)
    assert got.shape == s.shape[:-1] + (40,) and got.dtype == np.float32
    np.testing.assert_allclose(got, project_row_by_row(s, w, kernel, neuron),
                               rtol=0, atol=1e-5)
    np.testing.assert_allclose(got, s @ w, rtol=0, atol=1e-5)


@pytest.mark.parametrize("kernel", ["int", "event"])
@pytest.mark.parametrize("B", [1, 5, 32])
@pytest.mark.parametrize("shape", ["()", "(B,)", "(B, T)"])
def test_project_integer_weights_bit_equal_dense(kernel, B, shape, rng, f64, monkeypatch):
    """Sparse projections equal the dense product in integer arithmetic,
    and the event route performs one accumulation per (spike, output
    row): counted, as the benchmark's event audit counts them, through a
    counter wrapped around the module's ``spike_linear_event``."""
    neuron = NeuronConfig(kind=TILIF, d_max=4)
    w = rng.integers(-8, 9, size=(24, 40)).astype(np.float64)
    s = quantize(neuron, rng.normal(scale=2.0, size=_lead(shape, B) + (24,)))
    real, calls = mamba2.spike_linear_event, []

    def counted(W, train):
        counter = OpCounter()
        y = real(W, train, counter=counter)
        spikes = int(np.abs(collapse_spike_train(train)).sum())
        calls.append((counter.accumulations, spikes * W.shape[0]))
        return y

    monkeypatch.setattr(mamba2, "spike_linear_event", counted)
    got = mamba2._project(s, w, kernel, neuron)
    np.testing.assert_array_equal(got, s @ w)
    if kernel == "event":  # one call over every row
        assert calls == [(int(np.abs(s).sum()) * 40,) * 2]
    else:
        assert calls == []


@pytest.mark.parametrize("kernel", ["int", "event"])
def test_batched_step_calls_each_kernel_once_per_projection(kernel, rng, monkeypatch):
    cfg = small_config(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
    model = LanguageModel(cfg, rng)
    name = {"int": "spike_linear_int", "event": "spike_linear_event"}[kernel]
    calls = []
    real = getattr(mamba2, name)

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(mamba2, name, counted)
    model.step(rng.integers(0, cfg.vocab, size=32), model.init_state((32,)), kernel=kernel)
    assert len(calls) == 2 * cfg.n_layers  # the in and out projection of each layer
    for arg in calls:
        s = arg if kernel == "int" else arg.sign
        assert s.shape[-1] == 32


def test_sgc_forward_values(f64):
    w = Tensor(np.eye(1))
    assert sgc_forward(Tensor([[0.0]]), w, 4).data[0, 0] == 0.0
    got = sgc_forward(Tensor([[1.0]]), w, 4).item()
    assert got == pytest.approx(4.0 * math.tanh(1.0), abs=1e-12)
    x = np.linspace(-50, 50, 101)[:, None]
    out = sgc_forward(Tensor(x), w, 4).data
    assert np.all(np.abs(out) < 4.0 + 1e-12)


def test_hidden_align_values(f64):
    y = Tensor([[0.0, 0.0]])
    assert hidden_align_loss(y, Tensor([[0.0, 0.0]])).item() == 0.0
    got = hidden_align_loss(y, Tensor([[math.log(1.0), math.log(3.0)]])).item()
    assert got == pytest.approx(0.0625, abs=1e-12)
    # invariant to shifting all channels of one argument
    a = Tensor([[0.3, -1.2, 0.7]])
    b = Tensor([[1.0, 2.0, 3.0]])
    l1 = hidden_align_loss(a, b).item()
    l2 = hidden_align_loss(Tensor(a.data + 5.0), b).item()
    assert l1 == pytest.approx(l2, abs=1e-12)


def test_hidden_align_grad(rng, f64):
    x = parameter(rng.normal(size=(3, 5)))
    target = Tensor(rng.normal(size=(3, 5)))

    def loss_fn():
        return hidden_align_loss(x, target)

    assert check_gradients(loss_fn, [x], rng, probes=100) < REL_TOL


def test_sgc_path_grad(rng, f64):
    x = parameter(rng.normal(size=(4, 6)))
    w = parameter(rng.normal(size=(6, 3)))
    spk = Tensor(rng.normal(size=(4, 3)))

    def loss_fn():
        return hidden_align_loss(spk, sgc_forward(x, w, 4))

    assert check_gradients(loss_fn, [x, w], rng, probes=100) < REL_TOL


def ssm_scan_loop(decay, dt, b, x, c):
    """Test oracle: the scan as a per-timestep loop, every state kept for backward."""
    a_, dt_, b_, x_, c_ = decay.data, dt.data, b.data, x.data, c.data
    B, T, H = dt_.shape
    N = b_.shape[-1]
    P = x_.shape[-1]
    hs = np.empty((B, T, H, N, P), dtype=dt_.dtype)
    o = np.empty((B, T, H, P), dtype=dt_.dtype)
    h = np.zeros((B, H, N, P), dtype=dt_.dtype)
    for t in range(T):
        h = ssm_update(h, a_[:, t], dt_[:, t], b_[:, t], x_[:, t])
        hs[:, t] = h
        o[:, t] = np.einsum("bn,bhnp->bhp", c_[:, t], h)

    def grad_fn(g):
        da = np.zeros((B, T, H), dtype=g.dtype)
        ddt = np.empty((B, T, H), dtype=g.dtype)
        db = np.empty((B, T, N), dtype=g.dtype)
        dx = np.empty((B, T, H, P), dtype=g.dtype)
        dc = np.empty((B, T, N), dtype=g.dtype)
        dh = np.zeros((B, H, N, P), dtype=g.dtype)
        for t in reversed(range(T)):
            dh += c_[:, t, None, :, None] * g[:, t, :, None, :]
            if t > 0:
                da[:, t] = np.einsum("bhnp,bhnp->bh", dh, hs[:, t - 1])
            bx = b_[:, t, None, :, None] * x_[:, t, :, None, :]
            ddt[:, t] = np.einsum("bhnp,bhnp->bh", dh, bx)
            dtx = dt_[:, t, :, None] * x_[:, t]
            db[:, t] = np.einsum("bhnp,bhp->bn", dh, dtx)
            dtb = dt_[:, t, :, None] * b_[:, t, None, :]  # (B,H,N)
            dx[:, t] = np.einsum("bhnp,bhn->bhp", dh, dtb)
            dc[:, t] = np.einsum("bhp,bhnp->bn", g[:, t], hs[:, t])
            dh *= a_[:, t, :, None, None]
        return da, ddt, db, dx, dc

    return custom_op(o, (decay, dt, b, x, c), grad_fn, "ssm_scan_loop")


def _scan_inputs(rng, B, T, H=2, N=5, P=4):
    return (rng.uniform(0.3, 0.99, (B, T, H)), rng.uniform(0.01, 0.5, (B, T, H)),
            rng.normal(size=(B, T, N)), rng.normal(size=(B, T, H, P)),
            rng.normal(size=(B, T, N)))


def _scan_and_grads(scan, arrays, probe):
    leaves = [parameter(a) for a in arrays]
    with Graph() as g:
        out = scan(*leaves)
        loss = sum_(out * Tensor(probe))
    grads = g.backward(loss, leaves)
    return [out.data] + [grads[id(t)] for t in leaves]


@pytest.mark.parametrize("precision,rtol", [("float64", 1e-12), ("float32", 1e-5)])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("T", [1, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 37, 64])
def test_ssm_scan_matches_loop(precision, rtol, B, T, rng):
    with dtype_scope(precision):
        arrays = _scan_inputs(rng, B, T)
        probe = rng.normal(size=arrays[3].shape)
        got = _scan_and_grads(ssm_scan, arrays, probe)
        want = _scan_and_grads(ssm_scan_loop, arrays, probe)
    names = ("out", "d_decay", "d_dt", "d_b", "d_x", "d_c")
    for name, g, w in zip(names, got, want):
        assert g.shape == w.shape and g.dtype == w.dtype, name
        np.testing.assert_allclose(g, w, rtol=0, atol=rtol * np.abs(w).max(),
                                   err_msg=name)


def test_ssm_scan_grad(rng, f64):
    B, T, H, N, P = 2, 5, 2, 3, 4
    decay = parameter(rng.uniform(0.3, 0.95, (B, T, H)))
    dt = parameter(rng.uniform(0.05, 0.5, (B, T, H)))
    b = parameter(rng.normal(size=(B, T, N)))
    x = parameter(rng.normal(size=(B, T, H, P)))
    c = parameter(rng.normal(size=(B, T, N)))
    probe = Tensor(rng.normal(size=(B, T, H, P)))

    def loss_fn():
        return sum_(ssm_scan(decay, dt, b, x, c) * probe)

    assert check_gradients(loss_fn, [decay, dt, b, x, c], rng, probes=100) < REL_TOL


def test_ssm_scan_grad_across_chunks(rng, f64):
    # ragged: two full chunks and a padded third
    arrays = _scan_inputs(rng, 2, 2 * SCAN_CHUNK + 3, N=3)
    leaves = [parameter(a) for a in arrays]
    probe = Tensor(rng.normal(size=arrays[3].shape))

    def loss_fn():
        return sum_(ssm_scan(*leaves) * probe)

    assert check_gradients(loss_fn, leaves, rng, probes=150) < REL_TOL


def chunks_np_pad(arr, n_chunks, fill):
    """The scan's chunking as first written, through ``np.pad``: the
    oracle for :func:`mamba2._chunks`."""
    pad = n_chunks * SCAN_CHUNK - arr.shape[1]
    if pad:
        widths = [(0, 0), (0, pad)] + [(0, 0)] * (arr.ndim - 2)
        arr = np.pad(arr, widths, constant_values=fill)
    return arr.reshape((arr.shape[0], n_chunks, SCAN_CHUNK) + arr.shape[2:])


@pytest.mark.parametrize("dtype, uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
@pytest.mark.parametrize("T", [1, 15, 16, 17, 41, 64])
@pytest.mark.parametrize("fill", [1.0, 0.0])
def test_chunks_bit_equal_to_np_pad(dtype, uint, T, fill, rng):
    nC = -(-T // SCAN_CHUNK)
    for shape in [(2, T), (2, T, 3), (2, T, 2, 4)]:
        arr = rng.normal(size=shape).astype(dtype)
        arr.reshape(-1)[::3] = -0.0
        for a in (arr, np.swapaxes(np.swapaxes(arr, 0, 1).copy(), 0, 1)):  # and a strided view
            got, want = mamba2._chunks(a, nC, fill), chunks_np_pad(a, nC, fill)
            assert got.shape == want.shape and got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got.view(uint), want.view(uint))


def test_ssm_scan_zero_decay_finite(rng):
    # float32 exp(-dt*A) underflows to exactly 0 for a large step
    arrays = [a.astype(np.float32) for a in _scan_inputs(rng, 2, 2 * SCAN_CHUNK + 3)]
    arrays[0][:, ::7] = 0.0
    probe = rng.normal(size=arrays[3].shape)
    got = _scan_and_grads(ssm_scan, arrays, probe)
    want = _scan_and_grads(ssm_scan_loop, arrays, probe)
    for g, w in zip(got, want):
        assert np.isfinite(g).all()
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-5 * np.abs(w).max())


def test_dense_block_grad(rng, f64):
    cfg = small_config()
    params = init_block_params(cfg, rng)
    u = parameter(rng.normal(size=(1, 4, cfg.d_model)))
    probe = Tensor(rng.normal(size=(1, 4, cfg.d_model)))
    wrt = [u] + [t for _, t in params.named()]

    def loss_fn():
        y, _ = block_forward(params, u, cfg)
        return sum_(y * probe)

    assert check_gradients(loss_fn, wrt, rng, probes=120) < REL_TOL


def test_clamp_hook_examples():
    y = np.array([[1.0, 2.0], [5.0, 3.0]])  # channels hold [1,5] and [2,3]
    out = clamp_channel_hook(y, "max_to_zero")
    np.testing.assert_array_equal(out, [[1.0, 2.0], [0.0, 0.0]])
    out = clamp_channel_hook(y, "max_to_one")
    np.testing.assert_array_equal(out, [[1.0, 2.0], [1.0, 1.0]])
    with pytest.raises(ContractError):
        clamp_channel_hook(y, "max_to_two")
    # constant channel: only the first occurrence is replaced
    const = np.full((3, 1), 2.0)
    out = clamp_channel_hook(const, "max_to_one")
    np.testing.assert_array_equal(out, [[1.0], [2.0], [2.0]])


def test_make_clamp_hook_checks_mode_and_site_when_built():
    y = np.array([[1.0, 2.0], [5.0, 3.0]])
    hook = make_clamp_hook("max_to_zero", "u_t")
    np.testing.assert_array_equal(hook(0, "u_t", y), [[1.0, 2.0], [0.0, 0.0]])
    assert hook(0, "y_t", y) is y
    for mode, site in [("max_to_two", "u_t"), ("max_to_zero", "z_t")]:
        with pytest.raises(ContractError, match="unknown"):
            make_clamp_hook(mode, site)


def test_zero_weight_model_uniform(rng):
    cfg = small_config()
    model = LanguageModel(cfg, rng)
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    logits, _ = model.forward_batch(np.array([[1, 2, 3]]))
    p = np.exp(logits.data - logits.data.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(p, 1.0 / cfg.vocab, atol=1e-7)


def _np_silu(x):
    return x / (1.0 + np.exp(-x))


def test_single_block_oracle(rng, f64):
    """Straight-line single-token reimplementation of the dense block math."""
    cfg = Mamba2Config(d_model=8, n_state=4, n_heads=2, d_head=8,
                       n_layers=1, vocab=11)
    model = LanguageModel(cfg, rng)
    logits, _ = model.forward_batch(np.array([[3]]))

    # oracle: everything unrolled by hand for one token, zero state
    p = model.layers[0]
    emb = model.embedding.data[3]
    u = emb / np.sqrt((emb ** 2).mean() + RMS_EPS) * model.pre_norms[0].data
    u2 = u @ p.w_in.data
    di, N, H, P = cfg.d_inner, cfg.n_state, cfg.n_heads, cfg.d_head
    z, xr, br, cr, dtr = np.split(u2, [di, 2 * di, 2 * di + N, 2 * di + 2 * N])
    # causal conv with zero history reduces to the newest tap
    x = _np_silu(p.conv_x.data[:, -1] * xr).reshape(H, P)
    b = _np_silu(p.conv_b.data[:, -1] * br)
    c = _np_silu(p.conv_c.data[:, -1] * cr)
    dt = np.log1p(np.exp(dtr + p.dt_bias.data))
    h = (dt[:, None] * b)[:, :, None] * x[:, None, :]      # (H,N,P); zero state
    o = np.einsum("n,hnp->hp", c, h) + p.d_skip.data * x
    gated = o.reshape(di) * _np_silu(z)
    y = gated / np.sqrt((gated ** 2).mean() + RMS_EPS) * p.norm_w.data
    res = emb + y @ p.w_out.data
    final = res / np.sqrt((res ** 2).mean() + RMS_EPS) * model.norm_f.data
    expect = final @ model.embedding.data.T
    np.testing.assert_allclose(logits.data[0, 0], expect, atol=1e-12)


def test_dense_matches_spiking_passthrough(rng, f64, identity_neuron):
    cfg = small_config()
    dense = LanguageModel(cfg, rng)
    spik = dense.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
    toks = np.array([[1, 4, 2, 9, 0]])
    a, _ = dense.forward_batch(toks)
    b, _ = spik.forward_batch(toks)
    np.testing.assert_allclose(a.data, b.data, atol=1e-4)


def _clone_oracle(model, mode=None, neuron=None, sgc=None):
    """The field-by-field clone ``from_tensors`` replaced: a random
    initialisation of the new config with every value then overwritten.
    The compensation flag changes only the config."""
    cfg = model.cfg
    new_cfg = replace(
        cfg,
        mode=mode if mode is not None else cfg.mode,
        neuron=neuron if neuron is not None else cfg.neuron,
        sgc=sgc if sgc is not None else cfg.sgc,
    )
    other = LanguageModel(new_cfg, np.random.default_rng(0))
    other.embedding.data = model.embedding.data.copy()
    other.norm_f.data = model.norm_f.data.copy()
    for dst_n, src_n in zip(other.pre_norms, model.pre_norms):
        dst_n.data = src_n.data.copy()
    for src, dst in zip(model.layers, other.layers):
        for (_, a), (_, b) in zip(src.named(), dst.named(), strict=True):
            b.data = a.data.copy()
    return other


SPIKE4 = NeuronConfig(kind=TILIF, d_max=4)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("source, switch", [
    (dict(sgc=True), dict(sgc=True)),     # on -> on
    (dict(), dict(sgc=True)),             # off -> on
    (dict(sgc=True), dict(sgc=False)),    # on -> off
    (dict(sgc=True), dict()),             # unchanged
    (dict(), dict(mode=SPIKING, neuron=SPIKE4)),
    (dict(mode=SPIKING, neuron=SPIKE4, sgc=True),
     dict(mode=DENSE, neuron=NeuronConfig(kind=LIF, d_max=1))),
])
def test_clone_matches_field_by_field_oracle(precision, source, switch):
    with dtype_scope(precision):
        cfg = replace(small_config(), n_layers=3, **source)
        model = LanguageModel(cfg, np.random.default_rng(4))
        got, want = model.clone(**switch), _clone_oracle(model, **switch)
    assert got.cfg == want.cfg
    # with compensation or without, the table of every config
    assert [n for n, _ in got.named_parameters()] == list(param_shapes(cfg)) \
        == list(param_shapes(got.cfg)) == [n for n, _ in want.named_parameters()]
    sources = [t.data for t in model.parameters()]
    for (name, a), (_, b) in zip(got.named_parameters(), want.named_parameters()):
        assert a.data.dtype == b.data.dtype == np.dtype(precision), name
        assert a.data.tobytes() == b.data.tobytes(), name
        assert a.trainable, name
        assert not any(np.shares_memory(a.data, s) for s in sources), name


def test_clone_refuses_a_change_the_parameters_cannot_serve(rng):
    model = LanguageModel(small_config(), rng)
    for change in (dict(n_layers=3), dict(vocab=12)):
        with pytest.raises(ContractError):
            model.clone(**change)
    same = model.clone()
    assert same.cfg == model.cfg
    for (name, a), (_, b) in zip(model.named_parameters(), same.named_parameters(),
                                 strict=True):
        assert a.data.tobytes() == b.data.tobytes(), name
        assert a.data is not b.data, name


def test_clone_and_load_draw_no_initialisation(tmp_path, rng, monkeypatch):
    model = LanguageModel(small_config(sgc=True), rng)
    path = tmp_path / "model.spkm"
    checkpoint.save(path, model)

    def no_init(*args, **kwargs):
        raise AssertionError("a random initialisation was drawn")

    monkeypatch.setattr(mamba2, "init_block_params", no_init)
    loaded = checkpoint.load(path)
    for sgc in (True, False):
        student = loaded.clone(mode=SPIKING, neuron=SPIKE4, sgc=sgc)
        assert [n for n, _ in student.named_parameters()] == list(param_shapes(model.cfg))
        for (_, a), (_, b), (_, c) in zip(model.named_parameters(), loaded.named_parameters(),
                                          student.named_parameters(), strict=True):
            assert np.array_equal(a.data, b.data) and np.array_equal(a.data, c.data)


def test_spiking_logits_invariant_within_rounding_cell(rng):
    cfg = small_config(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
    model = LanguageModel(cfg, rng)
    toks = np.array([[1, 4, 2, 9, 0]])
    base, _ = model.forward_batch(toks)

    def nudge(layer, site, data):
        # move halfway toward the quantized value: stays inside the cell
        q = quantize(cfg.neuron, data)
        return data + 0.5 * (q - data)

    nudged, _ = model.forward_batch(toks, hook=nudge)
    np.testing.assert_array_equal(base.data, nudged.data)


def test_hooks_are_eval_only(rng):
    cfg = small_config()
    model = LanguageModel(cfg, rng)
    with Graph():
        with pytest.raises(ContractError):
            model.forward_batch(np.array([[1, 2]]), hook=lambda l, s, d: d)


def test_site_stats_aggregation(rng):
    cfg = small_config(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
    model = LanguageModel(cfg, rng)
    toks = rng.integers(0, cfg.vocab, size=(2, 6))
    _, auxes = model.forward_batch(toks)
    fr_in, fr_out = model.site_stats(auxes)
    assert fr_in.tokens == 2 * 6 * cfg.n_layers
    assert fr_in.channels == cfg.d_model
    assert fr_out.channels == cfg.d_inner
    assert 0.0 <= fr_in.rate <= 1.0
    manual = sum(int(np.abs(a.s_in).sum()) for a in auxes)
    assert fr_in.spike_count == manual


@pytest.mark.parametrize("mode", [DENSE, SPIKING])
def test_projection_pairs_recorded_under_a_tape(mode, rng, monkeypatch):
    """Under a tape a block records its two projections as the (input,
    output) tensors it computed: ``(u, u2)`` and ``(y, y_out)``, the
    spiking inputs taken before the neuron. Off the tape the field is
    None, and recording changes no output."""
    cfg = small_config(mode=mode, neuron=NeuronConfig(kind=TILIF, d_max=4))
    params = init_block_params(cfg, rng)
    u = Tensor(rng.normal(size=(2, 5, cfg.d_model)))
    neuron_inputs, products = [], {}
    real_neuron, real_matmul = mamba2.neuron_forward, mamba2.matmul

    def neuron(ncfg, x):
        neuron_inputs.append(x)
        return real_neuron(ncfg, x)

    def product(a, b):
        products[id(b)] = (a, real_matmul(a, b))
        return products[id(b)][1]

    monkeypatch.setattr(mamba2, "neuron_forward", neuron)
    monkeypatch.setattr(mamba2, "matmul", product)
    with Graph():
        y_out, aux = block_forward(params, u, cfg)
    (u_in, u2), (y, y_proj) = aux.projections
    assert u_in is u and y_proj is y_out
    assert u2 is products[id(params.w_in)][1] and y_out is products[id(params.w_out)][1]
    if mode == SPIKING:
        assert len(neuron_inputs) == 2 and neuron_inputs[0] is u and neuron_inputs[1] is y
    else:
        assert products[id(params.w_in)][0] is u and products[id(params.w_out)][0] is y
    assert u2.shape == (2, 5, cfg.d_proj) and y.shape == (2, 5, cfg.d_inner)
    assert y_out.shape == u.shape

    free_out, free_aux = block_forward(params, u, cfg)
    assert free_aux.projections is None
    assert free_out.data.tobytes() == y_out.data.tobytes()
    model = LanguageModel(cfg, rng)
    toks = rng.integers(0, cfg.vocab, size=(1, 5))
    with Graph():
        logits, auxes = model.forward_batch(toks)
    assert all(len(a.projections) == 2 for a in auxes)
    base, plain = model.forward_batch(toks)
    assert all(a.projections is None for a in plain)
    assert logits.data.tobytes() == base.data.tobytes()


def _traced_peak(fn):
    """(result, peak traced bytes above those live when ``fn`` starts)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", [DENSE, SPIKING])
def test_no_tape_forward_holds_no_layer_but_its_activations(mode, rng):
    """A no-tape ``forward_batch`` (16x48 tokens) keeps nothing of a
    finished layer but its integer activations: a dense toy model peaks
    at the same bytes at 2, 4 and 8 layers, and a spiking one grows per
    layer by exactly that layer's ``s_in`` + ``s_out``, within 64 KiB."""
    neuron = NeuronConfig(kind=TILIF, d_max=4)
    toks = rng.integers(0, 259, size=(16, 48))
    peaks, kept = {}, {}
    for n_layers in (2, 4, 8):
        model = LanguageModel(replace(toy_config(mode, neuron), n_layers=n_layers), rng)
        (_, auxes), peaks[n_layers] = _traced_peak(lambda: model.forward_batch(toks))
        kept[n_layers] = sum(a.s_in.nbytes + a.s_out.nbytes for a in auxes
                             if mode == SPIKING)
        del auxes
    for n_layers in (4, 8):
        grown = peaks[n_layers] - peaks[2]
        assert abs(grown - (kept[n_layers] - kept[2])) <= 64 << 10, (n_layers, grown)

