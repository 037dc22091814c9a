import numpy as np
import pytest

from spikessm.mamba2 import (
    SPIKING,
    LanguageModel,
    Mamba2Config,
    make_clamp_hook,
    toy_config,
)
from spikessm.neurons import NeuronConfig, TILIF
from spikessm.tensor import ContractError
from spikessm.training import (
    DistillResult,
    PreferenceExample,
    distill_run,
    eval_ppl,
    generate_pseudo_labels,
    load_preference_file,
    parse_preference_line,
    rl_run,
    sample_windows,
    synth_preference_lines,
    synthetic_corpus,
    token_stream,
    train_teacher,
    write_metrics_csv,
)
from spikessm.tokenizer import BOS, EOS


def tiny_cfg(mode="dense", **kw):
    return Mamba2Config(d_model=16, n_state=4, n_heads=2, d_head=16,
                        n_layers=2, vocab=259, mode=mode, **kw)


def test_corpus_deterministic():
    a = synthetic_corpus(50, seed=3)
    b = synthetic_corpus(50, seed=3)
    assert a == b
    assert a != synthetic_corpus(50, seed=4)
    assert all(line.endswith(".") for line in a)


def test_token_stream_framing():
    stream = token_stream(["ab"])
    np.testing.assert_array_equal(stream, [BOS, 97, 98, EOS])
    with pytest.raises(ContractError):
        token_stream([])


def test_sample_windows_shape(rng):
    stream = token_stream(synthetic_corpus(20, seed=0))
    win = sample_windows(stream, batch=5, width=9, rng=rng)
    assert win.shape == (5, 9)
    with pytest.raises(ContractError):
        sample_windows(np.arange(4), batch=1, width=9, rng=rng)


def test_teacher_training_reduces_loss(rng):
    model = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(60, seed=0)
    rows = train_teacher(model, lines, steps=250, batch=8, seq_len=24,
                         lr=3e-3, seed=1)
    assert rows[-1]["loss"] < 0.5 * rows[0]["loss"]
    assert eval_ppl(model, lines, seq_len=24) < np.exp(rows[0]["loss"])


def test_training_deterministic(tmp_path):
    lines = synthetic_corpus(40, seed=0)

    def run():
        model = LanguageModel(tiny_cfg(), np.random.default_rng(11))
        return train_teacher(model, lines, steps=15, batch=4, seq_len=16,
                             lr=1e-3, seed=2)

    a, b = run(), run()
    assert a == b
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(pa, a, ["step", "loss", "lr"])
    write_metrics_csv(pb, b, ["step", "loss", "lr"])
    assert pa.read_bytes() == pb.read_bytes()


def test_pseudo_labels_deterministic_shape(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)
    seqs = generate_pseudo_labels(teacher, lines, n_sequences=6, prompt_len=4,
                                  total_len=12, seed=5)
    assert seqs.shape == (6, 12)
    again = generate_pseudo_labels(teacher, lines, n_sequences=6, prompt_len=4,
                                   total_len=12, seed=5)
    np.testing.assert_array_equal(seqs, again)


def test_distill_requires_spiking_student(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    with pytest.raises(ContractError):
        distill_run(teacher, teacher.clone(), synthetic_corpus(20), steps=1)


def test_distill_config_shape_mismatch(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    other = LanguageModel(
        Mamba2Config(d_model=8, n_state=4, n_heads=2, d_head=8, n_layers=2,
                     vocab=259, mode=SPIKING), rng)
    with pytest.raises(ContractError):
        distill_run(teacher, other, synthetic_corpus(20), steps=1)


def test_self_distillation_identity_with_passthrough(rng):
    # spiking student with the identity neuron hook == the teacher, so the
    # starting KL is essentially zero
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(40, seed=0)
    train_teacher(teacher, lines, steps=30, batch=8, seq_len=16, lr=2e-3, seed=1)
    student = teacher.clone(
        mode=SPIKING,
        neuron=NeuronConfig(kind=TILIF, d_max=4, passthrough=True))
    res = distill_run(teacher, student, lines, steps=2, batch=4,
                      total_len=16, n_sequences=8, seed=3)
    assert res.initial_kl < 1e-3


def test_distill_metrics_fields(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)
    student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                            sgc=True)
    res = distill_run(teacher, student, lines, steps=3, batch=4,
                      total_len=16, n_sequences=8, seed=3)
    row = res.metrics[0]
    assert set(row) == {"step", "loss_total", "loss_kl", "loss_hidden",
                        "fr_in", "fr_out", "lr"}
    assert row["loss_total"] == pytest.approx(
        row["loss_kl"] + row["loss_hidden"], abs=1e-5)
    assert 0.0 <= row["fr_in"] <= 1.0


def test_preference_parsing():
    ex = parse_preference_line("p\tgood\tbad", "dpo")
    assert ex.paired and ex.response_w == "good"
    ex = parse_preference_line("p\tresp\t-1", "kto")
    assert not ex.paired and ex.label == -1
    with pytest.raises(ContractError):
        parse_preference_line("only\ttwo", "dpo")
    with pytest.raises(ContractError):
        parse_preference_line("p\tr\tmaybe", "kto")
    with pytest.raises(ContractError):
        PreferenceExample(prompt="p", response_w="w")  # missing pair half
    with pytest.raises(ContractError):
        PreferenceExample(prompt="p", response="r", weight=0.0)


def test_preference_file_round_trip(tmp_path):
    lines = synth_preference_lines(synthetic_corpus(20, seed=0), 10, 0, "dpo")
    path = tmp_path / "prefs.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    examples = load_preference_file(path, "dpo")
    assert len(examples) == 10
    assert all(e.paired for e in examples)


def test_rl_smoke_dpo_loss_decreases(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)
    train_teacher(teacher, lines, steps=30, batch=8, seq_len=16, lr=2e-3, seed=1)
    prefs = [parse_preference_line(l, "dpo")
             for l in synth_preference_lines(lines, 12, 1, "dpo")]
    rows = rl_run(teacher, prefs, method="dpo", steps=12, batch=2,
                  lr=5e-4, seed=2)
    assert rows[0]["loss"] == pytest.approx(np.log(2.0), abs=1e-5)
    assert rows[-1]["loss"] < rows[0]["loss"]


def test_single_character_corpus_ppl_approaches_one(rng):
    lines = ["a" * 40] * 30
    model = LanguageModel(tiny_cfg(), rng)
    train_teacher(model, lines, steps=450, batch=8, seq_len=16, lr=3e-3, seed=1)
    ppl = eval_ppl(model, lines, seq_len=16)
    assert 1.0 < ppl < 1.3


def test_eval_ppl_matches_straight_line_oracle(rng):
    """Independent recomputation of exp(mean next-token cross entropy)."""
    model = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(25, seed=0)
    got = eval_ppl(model, lines, seq_len=16, batch=4)

    stream = token_stream(lines)
    n = stream.size // 17
    windows = stream[: n * 17].reshape(n, 17)
    total, count = 0.0, 0
    for w in windows:
        logits, _ = model.forward_batch(w[None, :-1])
        z = logits.data[0].astype(np.float64)
        z = z - z.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        total += -logp[np.arange(16), w[1:]].sum()
        count += 16
    assert got == pytest.approx(float(np.exp(total / count)), rel=1e-5)


def test_eval_ppl_identity_hook_changes_nothing(rng):
    model = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(25, seed=0)
    assert eval_ppl(model, lines, seq_len=16, hook=lambda li, at, d: d) == \
        eval_ppl(model, lines, seq_len=16)


def test_eval_ppl_clamp_hook_matches_inline_loop(rng, f64):
    """The clamp hook through eval_ppl against a window-by-window loop."""
    model = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(25, seed=0)
    hook = make_clamp_hook("max_to_zero", "y_t")
    got = eval_ppl(model, lines, seq_len=16, batch=4, hook=hook)
    assert got != eval_ppl(model, lines, seq_len=16, batch=4)

    stream = token_stream(lines)
    n = stream.size // 17
    windows = stream[: n * 17].reshape(n, 17)
    total = 0.0
    for w in windows:
        logits, _ = model.forward_batch(w[None, :-1], hook=hook)
        z = logits.data[0] - logits.data[0].max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        total += -logp[np.arange(16), w[1:]].sum()
    assert got == pytest.approx(float(np.exp(total / (16 * n))), rel=1e-12, abs=0)


def test_hidden_freeze_flag_changes_gradients(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)

    def run(freeze):
        student = teacher.clone(
            mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4), sgc=True)
        res = distill_run(teacher, student, lines, steps=3, batch=4,
                          total_len=16, n_sequences=8, seed=3,
                          freeze_spiking_in_hidden=freeze)
        return res.metrics[-1]["loss_total"]

    # both modes run; detaching the spiking branch changes the trajectory
    assert run(False) != run(True)


def test_rl_validates_method(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    with pytest.raises(ContractError):
        rl_run(teacher, [PreferenceExample(prompt="p", response="r")],
               method="ppo", steps=1)
    with pytest.raises(ContractError):
        rl_run(teacher, [PreferenceExample(prompt="p", response="r")],
               method="dpo", steps=1)
