import math

import numpy as np
import pytest

from spikessm.gradcheck import REL_TOL, check_gradients
from spikessm.losses import (
    cross_entropy_loss,
    dpo_loss,
    kl_distill_loss,
    kto_loss,
    sequence_logprob,
    total_distill_loss,
)
from spikessm import training
from spikessm.mamba2 import SPIKING, LanguageModel, hidden_align_loss, toy_config
from spikessm.neurons import NeuronConfig, TILIF
from spikessm.optim import AdamW, lr_schedule
from spikessm.tensor import (
    ContractError,
    DimensionError,
    Graph,
    Tensor,
    custom_op,
    default_dtype,
    dtype_scope,
    log_softmax,
    log_softmax_forward,
    narrow,
    parameter,
    reshape,
    sum_,
)


# ---------------------------------------------------------------------------
# the fused distillation losses against their composite forms

def kl_distill_composite(teacher_logits, student_logits):
    """Oracle: the KL as generic tape ops, the teacher normalised per call."""
    rows = int(np.prod(teacher_logits.shape[:-1]))
    z = teacher_logits - teacher_logits.max(axis=-1, keepdims=True)
    t_logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    t_p = np.exp(t_logp)
    const = float((t_p * t_logp).sum()) / rows
    cross = sum_(Tensor(t_p) * log_softmax(student_logits)) * (1.0 / rows)
    return const - cross


def kl_distill_cached_norm(teacher_logits, idx, student_logits):
    """Oracle: the KL of the rows ``idx`` of ``teacher_logits`` from a
    cache of every row's max and log-normaliser, computed once over all
    rows, EVAL_BATCH rows at a time, and read back at the gathered rows."""
    maxes, lses = [], []
    for i in range(0, teacher_logits.shape[0], training.EVAL_BATCH):
        chunk = teacher_logits[i:i + training.EVAL_BATCH]
        m = chunk.max(axis=-1, keepdims=True)
        maxes.append(m)
        lses.append(np.log(np.exp(chunk - m).sum(axis=-1, keepdims=True)))
    t = teacher_logits[idx]
    rows = int(np.prod(t.shape[:-1]))
    t_logp = (t - np.concatenate(maxes)[idx]) - np.concatenate(lses)[idx]
    t_p = np.exp(t_logp)
    const = float(np.multiply(t_p, t_logp, out=t_logp).sum()) / rows
    t_p = t_p.astype(default_dtype(), copy=False)
    s_logp = log_softmax_forward(student_logits.data)
    scale = np.asarray(1.0 / rows, dtype=default_dtype())
    cross = (t_p * s_logp).sum() * scale
    data = np.asarray(const, dtype=default_dtype()) - cross

    def grad_fn(g):
        dx = np.multiply(t_p, (-g) * scale)
        e = np.exp(s_logp)
        e *= dx.sum(axis=-1, keepdims=True)
        dx -= e
        return (dx,)

    return custom_op(data, (student_logits,), grad_fn, "kl_distill")


def softmax(x):
    """Oracle: the tape softmax the fused alignment loss replaced, forward
    and backward as the op had them."""
    data = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - inner),)

    return custom_op(data, (x,), grad_fn, "softmax")


def hidden_align_composite(y_spiking, y_sgc):
    """Oracle: the alignment loss as generic tape ops."""
    rows = int(np.prod(y_spiking.shape[:-1]))
    diff = softmax(y_spiking) - softmax(y_sgc)
    return sum_(diff * diff) * (0.5 / rows)


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = {4: np.uint32, 8: np.uint64}[got.dtype.itemsize]
    assert np.array_equal(got.view(uint), want.view(uint))


def value_and_grads(loss_fn, inputs, trainable):
    """Loss value and the gradients of the trainable inputs under a
    non-unit upstream gradient, as the distillation total applies."""
    ts = [parameter(x) if tr else Tensor(x) for x, tr in zip(inputs, trainable)]
    with Graph() as g:
        loss = loss_fn(*ts)
        scaled = loss * 0.37
    grads = g.backward(scaled, wrt=[t for t in ts if t.trainable])
    return [loss.data] + [grads[id(t)] for t in ts if t.trainable], loss


FUSED_SHAPES = [(8, 64, 290), (8, 64, 64), (8, 56, 259), (6, 11)]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", FUSED_SHAPES)
def test_fused_losses_bitwise_equal_composites(dtype, shape):
    rng = np.random.default_rng(11)
    with dtype_scope(dtype):
        # scale 300: most softmax entries underflow to 0 in either precision
        for scale in (1.0, 300.0):
            a, b, t = ((rng.normal(size=shape) * scale).astype(dtype) for _ in range(3))
            for trainable in ((True, True), (False, True)):  # False: frozen spiking side
                fused, _ = value_and_grads(hidden_align_loss, (a, b), trainable)
                want, _ = value_and_grads(hidden_align_composite, (a, b), trainable)
                for x, y in zip(fused, want):
                    assert_bits_equal(x, y)
            fused, _ = value_and_grads(
                lambda s: training.kl_distill_loss(t, s), (a,), (True,))
            want, _ = value_and_grads(
                lambda s: kl_distill_composite(t, s), (a,), (True,))
            for x, y in zip(fused, want):
                assert_bits_equal(x, y)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_kl_of_gathered_rows_equals_cached_normaliser_oracle(dtype):
    """Normalising the gathered teacher rows in the loss gives the bits a
    per-row cache of (max, log-normaliser) gave, value and gradient."""
    rng = np.random.default_rng(23)
    idx = np.array([3, 3, 0, 36, 17, 3, 36, 20])  # repeats, across EVAL_BATCH chunks
    with dtype_scope(dtype):
        for scale in (1.0, 300.0):
            t = (rng.normal(size=(37, 56, 259)) * scale).astype(dtype)
            a = (rng.normal(size=(idx.size, 56, 259)) * scale).astype(dtype)
            got, _ = value_and_grads(
                lambda s: training.kl_distill_loss(t[idx], s), (a,), (True,))
            want, _ = value_and_grads(
                lambda s: kl_distill_cached_norm(t, idx, s), (a,), (True,))
            for x, y in zip(got, want):
                assert_bits_equal(x, y)


def test_distill_run_equals_run_on_composite_losses(monkeypatch):
    lines = training.synthetic_corpus(60, seed=2)
    teacher = LanguageModel(toy_config(), np.random.default_rng(4))

    def run():
        student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                                sgc=True)
        res = training.distill_run(teacher, student, lines, steps=10, batch=8,
                                   n_sequences=16, seed=5)
        return res.metrics, [t.data.tobytes() for t in student.parameters()]

    fused = run()
    monkeypatch.setattr(training, "kl_distill_loss", kl_distill_composite)
    monkeypatch.setattr(training, "hidden_align_loss", hidden_align_composite)
    assert run() == fused


def test_kl_zero_when_equal(rng, f64):
    logits = rng.normal(size=(4, 7))
    loss = kl_distill_loss(logits, Tensor(logits))
    assert abs(loss.item()) < 1e-12


def test_kl_onehot_vs_uniform(f64):
    teacher = np.array([[40.0, -40.0]])
    student = np.array([[0.0, 0.0]])
    loss = kl_distill_loss(teacher, Tensor(student))
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-6)


def test_kl_student_shift_invariance(rng, f64):
    t = rng.normal(size=(3, 9))
    s = rng.normal(size=(3, 9))
    a = kl_distill_loss(t, Tensor(s)).item()
    b = kl_distill_loss(t, Tensor(s + 11.0)).item()
    assert a == pytest.approx(b, abs=1e-10)


def test_kl_nonnegative_random_pairs(rng, f64):
    for _ in range(50):
        t = rng.normal(size=(2, 6)) * 3
        s = rng.normal(size=(2, 6)) * 3
        assert kl_distill_loss(t, Tensor(s)).item() >= -1e-12


def test_kl_grad(rng, f64):
    t = rng.normal(size=(4, 6))
    s = parameter(rng.normal(size=(4, 6)))

    def loss_fn():
        return kl_distill_loss(t, s)

    assert check_gradients(loss_fn, [s], rng, probes=100) < REL_TOL


def test_total_distill_loss(f64):
    kl = Tensor(1.0)
    assert total_distill_loss(kl, []).item() == 1.0
    zeros = [Tensor(0.0), Tensor(0.0)]
    assert total_distill_loss(kl, zeros).item() == 1.0
    hidden = [Tensor(0.2), Tensor(0.4), Tensor(0.6)]
    assert total_distill_loss(kl, hidden).item() == pytest.approx(1.4, abs=1e-12)


def test_dpo_values(f64):
    ln2 = math.log(2.0)
    loss = dpo_loss((Tensor(-5.0), Tensor(-7.0)), (-5.0, -7.0), beta_pref=1.0)
    assert loss.item() == pytest.approx(ln2, abs=1e-9)
    loss = dpo_loss((Tensor(math.log(3.0)), Tensor(0.0)), (0.0, 0.0), beta_pref=1.0)
    assert loss.item() == pytest.approx(-math.log(0.75), abs=1e-9)


def test_dpo_monotone_in_margin(f64):
    prev = None
    for margin in np.linspace(-3, 3, 13):
        loss = dpo_loss((Tensor(margin), Tensor(0.0)), (0.0, 0.0), 1.0).item()
        if prev is not None:
            assert loss < prev
        prev = loss


def test_dpo_gradient_signs(rng, f64):
    for _ in range(20):
        w = parameter(rng.normal())
        l = parameter(rng.normal())
        with Graph() as g:
            loss = dpo_loss((w, l), (0.0, 0.0), beta_pref=0.7)
        grads = g.backward(loss, wrt=[w, l])
        assert grads[id(w)] < 0
        assert grads[id(l)] > 0


def test_dpo_grad_fd(rng, f64):
    w = parameter(0.3)
    l = parameter(-0.4)

    def loss_fn():
        return dpo_loss((w, l), (0.1, -0.2), beta_pref=0.7)

    assert check_gradients(loss_fn, [w, l], rng, probes=20) < REL_TOL


def test_dpo_batch_equals_chained_rows(rng):
    """The (B,) form is bit for bit the chained mean of per-row calls, in
    value and gradient, at float32 where summation order shows."""
    for b in range(1, 17):
        lw, ll = parameter(rng.normal(size=b) * 5), parameter(rng.normal(size=b) * 5)
        ref_w, ref_l = (rng.normal(size=b).astype(np.float32) * 5 for _ in range(2))
        with Graph() as g:
            got = dpo_loss((lw, ll), (ref_w, ref_l), 0.1)
        g_got = g.backward(got, wrt=[lw, ll])
        with Graph() as g:
            rows = [dpo_loss((lw_r, ll_r), (float(ref_w[r]), float(ref_l[r])), 0.1)
                    for r, (lw_r, ll_r) in enumerate(zip(
                        (reshape(narrow(lw, 0, r, 1), ()) for r in range(b)),
                        (reshape(narrow(ll, 0, r, 1), ()) for r in range(b))))]
            want = rows[0]
            for extra in rows[1:]:
                want = want + extra
            want = want * (1.0 / b)
        g_want = g.backward(want, wrt=[lw, ll])
        assert got.data.tobytes() == want.data.tobytes()
        for p in (lw, ll):
            assert g_got[id(p)].tobytes() == g_want[id(p)].tobytes()


def test_dpo_operands_share_one_shape():
    with pytest.raises(DimensionError):
        dpo_loss((Tensor([0.0, 1.0]), Tensor([0.0, 1.0])), (0.0, 0.0), 0.1)
    with pytest.raises(DimensionError):
        dpo_loss((Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2)))),
                 (np.zeros((2, 2)), np.zeros((2, 2))), 0.1)


def test_kto_vector_equals_scalar_list(rng, f64):
    """One (B,) tensor and a list of B scalars are the same examples."""
    lps = parameter(rng.normal(size=5))
    refs, labels = rng.normal(size=5), [1, -1, -1, 1, 1]
    with Graph() as g:
        vec = kto_loss(lps, refs, labels, 0.3, z_ref=0.1)
    g_vec = g.backward(vec, wrt=[lps])[id(lps)]
    with Graph() as g:
        scalars = [reshape(narrow(lps, 0, r, 1), ()) for r in range(5)]
        lst = kto_loss(scalars, list(refs), labels, 0.3, z_ref=0.1)
    g_lst = g.backward(lst, wrt=[lps])[id(lps)]
    want = np.mean([1 - 1 / (1 + np.exp(-s * (0.3 * (lp - rf) - 0.1)))
                    for lp, rf, s in zip(lps.data, refs, labels)])
    assert vec.item() == lst.item() == pytest.approx(want, abs=1e-12)
    np.testing.assert_array_equal(g_vec, g_lst)


def test_kto_hand_case(f64):
    ln3 = math.log(3.0)
    loss = kto_loss(
        [Tensor(ln3), Tensor(ln3)], [0.0, 0.0], labels=[1, -1],
        beta_pref=1.0, z_ref=0.0,
    )
    assert loss.item() == pytest.approx(0.5, abs=1e-9)


def test_kto_baseline_case(f64):
    # r == z_ref: each contribution is 0.5, whatever the label
    loss = kto_loss(Tensor([2.0, 2.0]), [0.0, 0.0], labels=[1, -1], beta_pref=1.0,
                    z_ref=2.0)
    assert loss.item() == pytest.approx(0.5, abs=1e-12)


def test_kto_saturation(f64):
    loss = kto_loss([Tensor(60.0)], [0.0], labels=[1], beta_pref=1.0, z_ref=0.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_kto_policy_equals_reference_constant(f64):
    # policy == reference: r == 0 == z_ref, as on rl_run's first step
    lps = [Tensor(-3.0), Tensor(-3.0), Tensor(-3.0)]
    refs = [-3.0, -3.0, -3.0]
    loss = kto_loss(lps, refs, labels=[1, -1, 1], beta_pref=0.1, z_ref=0.0)
    assert loss.item() == pytest.approx(0.5, abs=1e-12)


def test_kto_validation(f64):
    with pytest.raises(ContractError):
        kto_loss([], [], [], beta_pref=0.1, z_ref=0.0)
    with pytest.raises(ContractError):
        kto_loss([Tensor(0.0)], [0.0], [2], beta_pref=0.1, z_ref=0.0)
    with pytest.raises(ContractError, match="align"):
        kto_loss(Tensor([0.0, 1.0]), [0.0], [1], beta_pref=0.1, z_ref=0.0)
    with pytest.raises(TypeError):
        kto_loss([Tensor(0.0)], [0.0], [1], beta_pref=0.1)  # z_ref is required


def test_kto_grad_fd(rng, f64):
    lps = [parameter(0.2), parameter(-0.5), parameter(0.9)]

    def loss_fn():
        return kto_loss(lps, [0.0, 0.1, -0.2], labels=[1, -1, 1],
                        beta_pref=0.5, z_ref=0.05)

    assert check_gradients(loss_fn, lps, rng, probes=30) < REL_TOL


def test_cross_entropy_matches_manual(rng, f64):
    logits = rng.normal(size=(2, 5, 7))
    targets = rng.integers(0, 7, size=(2, 5))
    got = cross_entropy_loss(Tensor(logits), targets).item()
    z = logits - logits.max(-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
    manual = -np.take_along_axis(logp, targets[..., None], axis=-1).mean()
    assert got == pytest.approx(float(manual), abs=1e-12)


def _manual_logprob(logits, toks, start, length):
    """sum over start <= t < length of log_softmax(logits)[t - 1, toks[t]], one row"""
    z = logits - logits.max(-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
    return sum(logp[t - 1, toks[t]] for t in range(start, length))


def test_sequence_logprob(rng, f64):
    logits = rng.normal(size=(2, 5, 6))
    toks = np.array([[1, 4, 2, 0, 3], [5, 0, 0, 1, 2]])
    got = sequence_logprob(Tensor(logits), toks, [2, 1], [5, 4])
    assert got.shape == (2,)
    z = logits[0] - logits[0].max(-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
    manual = logp[1, toks[0, 2]] + logp[2, toks[0, 3]] + logp[3, toks[0, 4]]
    assert got.data[0] == pytest.approx(float(manual), abs=1e-12)
    assert got.data[1] == pytest.approx(float(_manual_logprob(logits[1], toks[1], 1, 4)),
                                        abs=1e-12)


def test_sequence_logprob_padded_rows_equal_single_rows(rng, f64):
    logits = rng.normal(size=(3, 7, 6))
    toks = rng.integers(0, 6, size=(3, 7))
    start, length = np.array([1, 3, 2]), np.array([7, 5, 2])
    got = sequence_logprob(Tensor(logits), toks, start, length)
    assert got.shape == (3,)
    for r in range(3):
        n = length[r]
        one = sequence_logprob(Tensor(logits[r:r + 1, :n]), toks[r:r + 1, :n], start[r], n)
        assert one.shape == (1,)
        manual = _manual_logprob(logits[r], toks[r], start[r], n)
        assert got.data[r] == pytest.approx(one.item(), abs=1e-12)
        assert got.data[r] == pytest.approx(float(manual), abs=1e-12)
    # an int start and length cover every row in full
    full = sequence_logprob(Tensor(logits), toks, 1, 7)
    for r in range(3):
        assert full.data[r] == pytest.approx(
            sequence_logprob(Tensor(logits[r:r + 1]), toks[r:r + 1], 1, 7).item(), abs=1e-12)


def test_sequence_logprob_rejects_bad_rows(rng):
    logits = Tensor(rng.normal(size=(2, 5, 4)))
    toks = np.zeros((2, 5), dtype=np.int64)
    with pytest.raises(ContractError):
        sequence_logprob(logits, toks, [1, 4], [5, 3])  # start past length
    with pytest.raises(ContractError):
        sequence_logprob(logits, toks, 1, [5, 6])       # length past T
    with pytest.raises(ContractError):
        sequence_logprob(logits, toks, 0, 5)
    with pytest.raises(DimensionError):
        sequence_logprob(logits, toks[:, :4], 1, 4)


def test_sequence_logprob_refuses_a_token_row(rng):
    """One (T,) row of tokens is not a batch, with (T, V) logits or (1, T, V)."""
    logits = rng.normal(size=(5, 4))
    toks = np.zeros(5, dtype=np.int64)
    with pytest.raises(DimensionError):
        sequence_logprob(Tensor(logits), toks, 1, 5)
    with pytest.raises(DimensionError):
        sequence_logprob(Tensor(logits[None]), toks, 1, 5)


def test_adam_zero_grad_fixed_point(f64):
    p = parameter(np.array([1.0, -2.0]))
    before = p.data.copy()
    opt = AdamW([p])
    opt.step({id(p): np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_sign(f64):
    p = parameter(np.array([0.0, 0.0]))
    opt = AdamW([p])
    g = np.array([3.0, -0.01])
    opt.step({id(p): g}, lr=0.1)
    np.testing.assert_allclose(p.data, -0.1 * np.sign(g), rtol=1e-5)


def test_adam_two_steps_monotone(f64):
    p = parameter(np.array([0.5]))
    opt = AdamW([p])
    g = np.array([1.0])
    x0 = p.data.copy()
    opt.step({id(p): g}, lr=0.05)
    x1 = p.data.copy()
    opt.step({id(p): g}, lr=0.05)
    x2 = p.data.copy()
    assert x1 < x0 and x2 < x1  # moves against a constant positive gradient


def test_lr_schedule_shape():
    total, peak = 1000, 1e-3
    lrs = [lr_schedule(s, total, peak) for s in range(total)]
    warmup = 10  # 1% of steps
    assert lrs[0] == pytest.approx(peak / warmup)
    assert max(lrs) == pytest.approx(peak)
    assert lrs[warmup - 1] == pytest.approx(peak)
    assert lrs[-1] == pytest.approx(0.1 * peak, rel=1e-2)
    assert all(b <= a + 1e-12 for a, b in zip(lrs[warmup:], lrs[warmup + 1:]))
