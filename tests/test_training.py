import functools
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spikessm import tensor as tn
from spikessm.mamba2 import (
    SPIKING,
    LanguageModel,
    Mamba2Config,
    hidden_align_loss,
    make_clamp_hook,
    param_shapes,
    sgc_forward,
    ssm_scan,
    toy_config,
)
from spikessm.losses import (
    cross_entropy_loss,
    dpo_loss,
    kl_distill_loss,
    kto_loss,
    sequence_logprob,
    total_distill_loss,
)
from spikessm.gradcheck import gradcheck_targets
from spikessm.neurons import ILIF, KINDS, LIF, NeuronConfig, TILIF, neuron_forward
from spikessm.optim import AdamW, lr_schedule
from spikessm import procs, training
from spikessm.cli import _write_metrics, main, preference_records, read_lines
from spikessm.tensor import (
    ContractError,
    Graph,
    NumericError,
    Tensor,
    dtype_scope,
    narrow,
    parameter,
    reshape,
    softplus,
)
from spikessm.training import (
    EVAL_BATCH,
    METHODS,
    SEQ_LEN,
    DistillResult,
    PreferenceExample,
    _example_tokens,
    _padded,
    _response_logprobs,
    compensated_layers,
    distill_run,
    eval_ppl,
    generate_pseudo_labels,
    parse_preference_line,
    require_window,
    rl_run,
    sample_windows,
    synth_preference_lines,
    synthetic_corpus,
    teacher_pass,
    teacher_targets,
    token_stream,
    train_teacher,
)
from spikessm.tokenizer import BOS, EOS, tokenize


def tiny_cfg(mode="dense", **kw):
    return Mamba2Config(d_model=16, n_state=4, n_heads=2, d_head=16,
                        n_layers=2, vocab=259, mode=mode, **kw)


def test_corpus_deterministic():
    a = synthetic_corpus(50, seed=3)
    b = synthetic_corpus(50, seed=3)
    assert a == b
    assert a != synthetic_corpus(50, seed=4)
    assert all(line.endswith(".") for line in a)


# The generators as first written, one ``rng.integers`` call per field
# and per noise character: the oracles for the bulk draws in src.

def synthetic_corpus_per_draw(n_lines, seed):
    rng = np.random.default_rng(seed)
    subjects, verbs, objects = training._SUBJECTS, training._VERBS, training._OBJECTS
    lines = []
    for _ in range(n_lines):
        s = subjects[rng.integers(len(subjects))]
        v = verbs[rng.integers(len(verbs))]
        o = objects[rng.integers(len(objects))]
        lines.append(f"{s} {v} {o}.")
    return lines


def synth_preference_lines_per_draw(lines, n, seed, method):
    rng = np.random.default_rng(seed)
    printable = [chr(c) for c in range(33, 127)]
    out = []
    for _ in range(n):
        line = lines[rng.integers(len(lines))]
        cut = max(3, len(line) // 3)
        prompt, good = line[:cut], line[cut:]
        noise = "".join(printable[rng.integers(len(printable))]
                        for _ in range(len(good)))
        if method == "dpo":
            out.append(f"{prompt}\t{good}\t{noise}")
        else:
            label = "+1" if rng.integers(2) else "-1"
            out.append(f"{prompt}\t{good if label == '+1' else noise}\t{label}")
    return out


ORACLE_SEEDS = list(range(50)) + [2**31, 12345678901]
ORACLE_SIZES = [0, 1, 7, 400, 1000]


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_corpus_equals_per_draw_oracle(n):
    for seed in ORACLE_SEEDS:
        assert synthetic_corpus(n, seed) == synthetic_corpus_per_draw(n, seed), seed


@pytest.mark.parametrize("method", ["dpo", "kto"])
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_preferences_equal_per_draw_oracle(n, method):
    for seed in ORACLE_SEEDS:
        lines = synthetic_corpus_per_draw(200, seed)
        assert (synth_preference_lines(lines, n, seed, method)
                == synth_preference_lines_per_draw(lines, n, seed, method)), seed


@pytest.mark.parametrize("method", ["dpo", "kto"])
def test_preferences_from_short_lines_draw_no_noise(method):
    """A line of 3 characters or fewer is all prompt: no noise is drawn,
    and the next line's draws must not shift."""
    lines = ["a", "bc", "def", "ghij", "the spike rides a quiet pulse."]
    for seed in range(20):
        got = synth_preference_lines(lines, 50, seed, method)
        assert got == synth_preference_lines_per_draw(lines, 50, seed, method)
    short = synth_preference_lines(["xyz"], 3, 0, "dpo")
    assert short == ["xyz\t\t"] * 3


def test_corpus_refuses_negative_count():
    assert synthetic_corpus(0, seed=0) == []
    with pytest.raises(ContractError, match="line count"):
        synthetic_corpus(-1, seed=0)


def test_preferences_refuse_negative_count():
    lines = synthetic_corpus(5, seed=0)
    assert synth_preference_lines(lines, 0, 0, "dpo") == []
    with pytest.raises(ContractError, match="preference count"):
        synth_preference_lines(lines, -1, 0, "kto")


def test_preferences_refuse_unknown_method():
    with pytest.raises(ContractError, match="unknown preference method"):
        synth_preference_lines(synthetic_corpus(5, seed=0), 3, 0, "ipo")


def test_preferences_refuse_empty_corpus():
    with pytest.raises(ContractError, match="no corpus lines"):
        synth_preference_lines([], 3, 0, "dpo")


@pytest.mark.parametrize("method", ["dpo", "kto"])
def test_cli_corpus_and_preferences_equal_oracle_text(method, tmp_path):
    """``train-teacher``'s corpus.txt and ``rl``'s synthesised
    preferences.tsv, byte for byte the per-draw oracles' text."""
    teacher = tmp_path / "teacher"
    assert main(["train-teacher", "--steps", "1", "--batch", "2", "--seq-len", "8",
                 "--corpus-lines", "60", "--seed", "3", "--out", str(teacher)]) == 0
    want = "\n".join(synthetic_corpus_per_draw(60, 3)) + "\n"
    assert (teacher / "corpus.txt").read_bytes() == want.encode("utf-8")

    out = tmp_path / "rl"
    assert main(["rl", "--method", method, "--ckpt", str(teacher / "teacher.spkm"),
                 "--steps", "1", "--batch", "2", "--corpus-lines", "150",
                 "--seed", "5", "--out", str(out)]) == 0
    prefs = synth_preference_lines_per_draw(synthetic_corpus_per_draw(200, 5), 150, 5, method)
    assert (out / "preferences.tsv").read_bytes() == ("\n".join(prefs) + "\n").encode("utf-8")


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


def test_window_rule_at_its_edges(rng):
    """A consecutive window of width w needs w tokens; a sampled one draws
    its start from [0, size - w), so it needs w + 1."""
    require_window(np.arange(9), 9)
    with pytest.raises(ContractError, match="evaluation window: 8 tokens, 9 needed"):
        require_window(np.arange(8), 9)
    require_window(np.arange(10), 9, sampled=True)
    with pytest.raises(ContractError, match="training window: 9 tokens, 10 needed"):
        require_window(np.arange(9), 9, sampled=True)
    np.testing.assert_array_equal(sample_windows(np.arange(10), 2, 9, rng),
                                  [np.arange(9)] * 2)
    assert eval_ppl(LanguageModel(tiny_cfg(), rng), ["a" * 7], seq_len=8) > 1.0  # 9 tokens


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
    _write_metrics(tmp_path / "a", a)
    _write_metrics(tmp_path / "b", b)
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()


def test_pseudo_labels_deterministic_shape(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)
    seqs, rows, targets = generate_pseudo_labels(teacher, lines, n_sequences=6,
                                                 prompt_len=4, total_len=12, seed=5)
    assert rows.shape == (6,) and seqs.shape == (rows.max() + 1, 12)
    assert seqs[rows].shape == (6, 12)
    assert targets.shape == (seqs.shape[0], 12, teacher.cfg.d_model)
    again = generate_pseudo_labels(teacher, lines, n_sequences=6, prompt_len=4,
                                   total_len=12, seed=5)
    np.testing.assert_array_equal(seqs, again[0])
    np.testing.assert_array_equal(rows, again[1])
    assert targets.tobytes() == again[2].tobytes() == teacher_targets(teacher, seqs).tobytes()


def pseudo_labels_every_row(teacher, lines, *, n_sequences, prompt_len,
                            total_len, seed):
    """``generate_pseudo_labels`` before it decoded distinct prompts once:
    every sampled row is decoded, in sampled order."""
    stream = token_stream(lines)
    rng = np.random.default_rng(seed)
    prompts = sample_windows(stream, n_sequences, prompt_len, rng)
    return teacher.generate_greedy(prompts, max_new=total_len - prompt_len,
                                   kernel="matmul")


def teacher_logits_every_row(teacher, seqs, prompt_len):
    """The teacher scoring before it scored distinct sequences once: every
    row of an (n, T) batch is run forward, EVAL_BATCH rows at a time."""
    n, T = seqs.shape
    out = np.empty((n, T - prompt_len, teacher.cfg.vocab), teacher.embedding.data.dtype)
    for i in range(0, n, EVAL_BATCH):
        logits = teacher.forward_batch(seqs[i:i + EVAL_BATCH])[0].data
        out[i:i + EVAL_BATCH] = logits[:, prompt_len - 1:-1, :]
        del logits
    return out


@pytest.mark.parametrize("seed", [20301, 20302, 20303, 20304, 20305])
def test_pseudo_labels_equal_every_row_oracle(seed):
    """The toy teacher's pseudo-labels of the distillation set-up (192
    prompts, a third of them repeats on the templated corpus), gathered
    through the row map, are the bytes of decoding every row, though the
    decode runs only the distinct prompts."""
    lines = synthetic_corpus(400, seed)
    teacher = LanguageModel(toy_config(), np.random.default_rng(seed))
    kw = dict(n_sequences=192, prompt_len=8, total_len=64, seed=seed)
    seqs, rows, _ = generate_pseudo_labels(teacher, lines, **kw)
    want = pseudo_labels_every_row(teacher, lines, **kw)
    assert seqs.shape[0] == np.unique(want[:, :8], axis=0).shape[0] < 192
    got = seqs[rows]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [6, 8])
def test_small_pseudo_labels_equal_every_row_oracle(rng, n):
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)
    kw = dict(n_sequences=n, prompt_len=4, total_len=16, seed=3)
    seqs, rows, _ = generate_pseudo_labels(teacher, lines, **kw)
    assert rows.shape == (n,)
    assert seqs[rows].tobytes() == pseudo_labels_every_row(teacher, lines, **kw).tobytes()


def _with_repeats(rng, n_distinct, copies, width):
    """``n_distinct`` random sequences, each ``copies`` times, shuffled."""
    base = rng.integers(0, 259, size=(n_distinct, width))
    return base[rng.permutation(np.repeat(np.arange(n_distinct), copies))]


def continuation_logits(teacher, targets, prompt_len):
    """The teacher logits a distillation step derives from gathered
    targets: the head over the full rows, then the continuation."""
    return teacher.head(targets).data[:, prompt_len - 1:-1]


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_teacher_logits_with_repeats_equal_every_row_oracle(precision, rng):
    """The targets of the distinct sequences, gathered through the row map
    and put through the teacher head, are the bytes of scoring every row
    of a batch with repeats."""
    with dtype_scope(precision):
        teacher = LanguageModel(tiny_cfg(), rng)
        seqs = np.concatenate([_with_repeats(rng, 13, 3, 20), rng.integers(0, 259, (4, 20))])
        distinct, rows = np.unique(seqs, axis=0, return_inverse=True)
        targets = teacher_targets(teacher, distinct)
        got = continuation_logits(teacher, targets[rows], 6)
        want = teacher_logits_every_row(teacher, seqs, 6)
    assert targets.shape == (17, 20, 16) and want.shape == (43, 14, 259)
    assert got.dtype == want.dtype == np.dtype(precision)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("count", [1, 4, 8])
def test_gathered_targets_equal_every_row_oracle(precision, count, rng):
    """Any gather of full target rows, repeats included, gives the oracle's
    logits for those rows: the head's bytes do not depend on how many
    rows it runs on."""
    with dtype_scope(precision):
        teacher = LanguageModel(tiny_cfg(), rng)
        seqs = rng.integers(0, 259, size=(2 * EVAL_BATCH + 3, 20))
        targets = teacher_targets(teacher, seqs)
        want = teacher_logits_every_row(teacher, seqs, 6)
        for _ in range(3):
            pick = rng.integers(0, seqs.shape[0], size=count)
            got = continuation_logits(teacher, targets[pick], 6)
            assert got.dtype == want.dtype == np.dtype(precision)
            assert got.tobytes() == want[pick].tobytes()


def test_targets_are_held_at_model_width(rng):
    """The set-up holds d_model floats a position of each distinct
    sequence, all T positions, not vocab floats a continuation position:
    on the tiny config 16, not 259."""
    teacher = LanguageModel(tiny_cfg(), rng)
    seqs = rng.integers(0, 259, size=(9, 20))
    targets = teacher_targets(teacher, seqs)
    cfg = teacher.cfg
    assert cfg.vocab > 10 * cfg.d_model
    assert targets.shape == (9, 20, cfg.d_model)
    assert targets.nbytes == 9 * 20 * cfg.d_model * targets.itemsize


def test_teacher_work_runs_once_per_distinct_row(rng, monkeypatch):
    """The decode's recurrent steps and the scoring trunk passes see each
    distinct prompt or sequence once: total_len - 1 steps a row."""
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)
    seen = {"decode": 0, "score": 0}
    decode, score = LanguageModel.step, LanguageModel.trunk

    def counted_decode(self, token, *args, **kwargs):
        seen["decode"] += len(token)
        return decode(self, token, *args, **kwargs)

    def counted_score(self, tokens, *args, **kwargs):
        seen["score"] += len(tokens)
        return score(self, tokens, *args, **kwargs)

    monkeypatch.setattr(LanguageModel, "step", counted_decode)
    monkeypatch.setattr(LanguageModel, "trunk", counted_score)
    seqs, rows, _ = generate_pseudo_labels(teacher, lines, n_sequences=40, prompt_len=4,
                                           total_len=12, seed=5)
    distinct = np.unique(seqs[rows][:, :4], axis=0).shape[0]
    assert distinct < 40 and seqs.shape[0] == distinct
    assert seen["decode"] == distinct * (12 - 1)
    assert seen["score"] == np.unique(seqs[rows], axis=0).shape[0] == distinct


def teacher_logits_concatenated(teacher, seqs, prompt_len, batch=32):
    """The teacher scoring as first written: per-batch slices, then one
    concatenate."""
    outs = []
    for i in range(0, seqs.shape[0], batch):
        logits, _ = teacher.forward_batch(seqs[i:i + batch])
        outs.append(logits.data[:, prompt_len - 1:-1, :])
    return np.concatenate(outs, axis=0)


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_teacher_logits_bit_equal_to_concatenate(precision, rng, monkeypatch):
    monkeypatch.setattr(training, "EVAL_BATCH", 4)
    with dtype_scope(precision):
        teacher = LanguageModel(tiny_cfg(), rng)
        seqs = rng.integers(0, 259, size=(11, 20))  # a ragged last batch of 3
        targets = teacher_targets(teacher, seqs)
        got = continuation_logits(teacher, targets, 6)
        want = teacher_logits_concatenated(teacher, seqs, 6, batch=4)
    assert got.shape == want.shape == (11, 14, 259)
    assert got.dtype == want.dtype == np.dtype(precision)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_teacher_logits_do_not_depend_on_the_row_batch(precision, rng, monkeypatch):
    """Every row's teacher logits are the same bytes at any row batch:
    the set-up's batch size moves no output. So are the spiking
    student's ``forward_batch`` logits over a batch of ``eval_ppl``
    windows, taken 1, 7, 8, 15 or 16 rows at a time: the row helper's
    half of a batch gives the bytes of the whole batch's forward."""
    with dtype_scope(precision):
        teacher = LanguageModel(tiny_cfg(), rng)
        seqs = rng.integers(0, 259, size=(37, 20))
        got = {}
        for rows in (1, 5, EVAL_BATCH, seqs.shape[0]):
            monkeypatch.setattr(training, "EVAL_BATCH", rows)
            logits = teacher_targets(teacher, seqs)
            got[rows] = logits.tobytes()
        student = _toy_student().clone()
        windows = rng.integers(0, 259, size=(EVAL_BATCH, SEQ_LEN))
        scored = {}
        for rows in (1, 7, 8, 15, 16):
            scored[rows] = np.concatenate([student.forward_batch(windows[i:i + rows])[0].data
                                           for i in range(0, EVAL_BATCH, rows)])
    assert logits.dtype == scored[1].dtype == np.dtype(precision)
    assert len(set(got.values())) == 1
    assert len({a.tobytes() for a in scored.values()}) == 1


def _traced_peak(fn):
    """(result, peak traced bytes above those live when ``fn`` starts)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_teacher_scoring_holds_one_eval_batch_forward(rng):
    """Scoring the teacher peaks at its output plus one EVAL_BATCH-row
    forward, however many sequences it scores: the excess over the
    output is the same for one batch as for four."""
    teacher = LanguageModel(toy_config(), rng)
    seqs = rng.integers(0, 259, size=(4 * EVAL_BATCH, 64))
    _, forward = _traced_peak(lambda: teacher.forward_batch(seqs[:EVAL_BATCH]))
    excess = {}
    for n in (EVAL_BATCH, 4 * EVAL_BATCH):
        out, peak = _traced_peak(lambda: teacher_targets(teacher, seqs[:n]))
        excess[n] = peak - out.nbytes
        del out
    slack = 16 << 10  # small Python objects; one batch's logits is over 1 MB
    assert excess[4 * EVAL_BATCH] <= forward + slack
    assert abs(excess[4 * EVAL_BATCH] - excess[EVAL_BATCH]) <= slack


def test_teacher_scoring_with_repeats_holds_one_eval_batch_forward(rng):
    """Six copies of each of two batches' sequences make the 192 rows of
    the distillation set-up. Scoring them holds the logits of the 32
    distinct sequences, not of the 192 rows, and still peaks at that
    output plus one EVAL_BATCH-row forward."""
    teacher = LanguageModel(toy_config(), rng)
    seqs = _with_repeats(rng, 2 * EVAL_BATCH, 6, 64)
    distinct = np.unique(seqs, axis=0)
    _, forward = _traced_peak(lambda: teacher.forward_batch(seqs[:EVAL_BATCH]))
    out, peak = _traced_peak(lambda: teacher_targets(teacher, distinct))
    assert out.shape[0] == 2 * EVAL_BATCH
    assert peak - out.nbytes <= forward + (16 << 10)


def test_eval_ppl_holds_one_eval_batch_forward(rng):
    """eval_ppl drops each batch's logits before the next forward: its
    peak above the token stream is the same for one batch of windows as
    for four, within 16 KiB, and the result is the straight loop's.
    Where a row helper forks, it does at the model's second batch, so
    one batch runs first: both measured calls then take one path."""
    _assert_eval_ppl_holds_one_batch(LanguageModel(toy_config(), rng))


def _assert_eval_ppl_holds_one_batch(model):
    eval_ppl(model, synthetic_corpus(40, seed=1))
    width = SEQ_LEN + 1
    lines = synthetic_corpus(400, seed=0)
    stream = token_stream(lines)
    excess = {}
    for n_win in (EVAL_BATCH, 4 * EVAL_BATCH):
        # the fewest lines whose stream makes exactly n_win windows
        ends = np.cumsum([tokenize(line).size for line in lines])
        k = int(np.searchsorted(ends, n_win * width)) + 1
        assert token_stream(lines[:k]).size // width == n_win
        ppl, peak = _traced_peak(lambda: eval_ppl(model, lines[:k]))
        excess[n_win] = peak - token_stream(lines[:k]).nbytes
        total = 0.0
        windows = stream[:n_win * width].reshape(n_win, width)
        for i in range(0, n_win, EVAL_BATCH):
            chunk = windows[i:i + EVAL_BATCH]
            logits, _ = model.forward_batch(chunk[:, :-1])
            total += cross_entropy_loss(logits, chunk[:, 1:]).item() * chunk[:, 1:].size
        assert ppl == float(np.exp(total / (n_win * SEQ_LEN)))
    assert abs(excess[4 * EVAL_BATCH] - excess[EVAL_BATCH]) <= 16 << 10


def test_distill_step_equals_every_row_targets(rng, monkeypatch):
    """Gathering the distinct rows' targets through the row map feeds each
    step the bytes that every-row targets would: the same metrics and the
    same trained student, while the run holds fewer rows of logits."""
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)
    held = []
    score = training._teacher_logits

    def scored(*args):
        out = score(*args)
        held.append(out.shape[0])
        return out

    def run():
        student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                                sgc=True)
        res = distill_run(teacher, student, lines, steps=6, batch=8, prompt_len=4,
                          total_len=12, n_sequences=40, seed=5)
        return res.metrics, [t.data.tobytes() for t in student.parameters()]

    monkeypatch.setattr(training, "_teacher_logits", scored)
    distinct = run()
    generate = training.generate_pseudo_labels

    def every_row(*args, **kwargs):
        seqs, rows, _ = generate(*args, **kwargs)
        return seqs[rows], np.arange(rows.size), teacher_targets(teacher, seqs[rows])

    monkeypatch.setattr(training, "generate_pseudo_labels", every_row)
    assert run() == distinct
    assert held[0] < held[1] == 40


@pytest.mark.parametrize("kw, value", [
    (dict(n_sequences=0), "n_sequences must be >= 1, got 0"),
    (dict(prompt_len=0), "prompt_len must be >= 1, got 0"),
    (dict(total_len=4), "total_len must exceed prompt_len 4, got 4"),
    (dict(total_len=3), "total_len must exceed prompt_len 4, got 3"),
])
def test_pseudo_labels_refuse_impossible_sizes(rng, monkeypatch, kw, value):
    """Each impossible size is refused by name before the teacher decodes
    or scores."""
    teacher = LanguageModel(tiny_cfg(), rng)
    for name in ("step", "trunk"):
        monkeypatch.setattr(LanguageModel, name,
                            lambda *a, **k: pytest.fail("the teacher ran"))
    sizes = dict(n_sequences=6, prompt_len=4, total_len=12) | kw
    with pytest.raises(ContractError, match=value):
        generate_pseudo_labels(teacher, synthetic_corpus(30, seed=0), seed=5, **sizes)


@pytest.mark.parametrize("kw, value", [
    (dict(steps=0), "steps must be >= 1, got 0"),
    (dict(batch=0), "batch must be >= 1, got 0"),
    (dict(total_len=8), "total_len must exceed prompt_len 8, got 8"),
])
def test_distill_refuses_impossible_sizes(rng, monkeypatch, kw, value):
    """Each impossible size is refused by name before any teacher work."""
    teacher = LanguageModel(tiny_cfg(), rng)
    student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
    for name in ("step", "trunk"):
        monkeypatch.setattr(LanguageModel, name,
                            lambda *a, **k: pytest.fail("the teacher ran"))
    sizes = dict(steps=2, batch=4, total_len=16, n_sequences=8) | kw
    with pytest.raises(ContractError, match=value):
        distill_run(teacher, student, synthetic_corpus(30, seed=0), seed=3, **sizes)


def _refusal_case(fn, **sizes):
    def call(model):
        if fn is rl_run:
            return rl_run(model, _preference_examples("dpo"), method="dpo", **sizes)
        return fn(model, synthetic_corpus(30, seed=0), **sizes)
    return call


@pytest.mark.parametrize("call, value", [
    (_refusal_case(train_teacher, steps=0), "steps must be >= 1, got 0"),
    (_refusal_case(train_teacher, batch=0), "batch must be >= 1, got 0"),
    (_refusal_case(train_teacher, seq_len=0), "seq_len must be >= 1, got 0"),
    (_refusal_case(train_teacher, steps=-2, batch=0), "steps must be >= 1, got -2"),
    (_refusal_case(eval_ppl, seq_len=0), "seq_len must be >= 1, got 0"),
    (_refusal_case(rl_run, steps=0), "steps must be >= 1, got 0"),
], ids=["teacher-steps", "teacher-batch", "teacher-seq_len", "teacher-first",
        "eval_ppl-seq_len", "rl-steps"])
def test_loops_refuse_sizes_below_one(rng, monkeypatch, call, value):
    """Each size below 1 is refused by name before any forward runs."""
    model = LanguageModel(tiny_cfg(), rng)
    monkeypatch.setattr(LanguageModel, "forward_batch",
                        lambda *a, **k: pytest.fail("a forward ran"))
    with pytest.raises(ContractError, match=value):
        call(model)


def test_optimise_walks_each_recorded_step_once(monkeypatch):
    """The shared loop on the quadratic sum(p*p): one AdamW, built before
    step 0, and each update handed the step's gradient 2p at
    ``lr_schedule(step, steps, lr)``; ``record_step`` called with 0..n-1
    in order; each row keyed ``step``, the step's own keys, then ``lr``;
    each tape walked exactly once."""
    p = parameter(np.array([3.0, -2.0]))
    built, rates, calls, tapes = [], [], [], []

    class RecordingAdamW(AdamW):
        def __init__(self, params):
            built.append((list(params), len(calls)))
            super().__init__(params)

        def step(self, grads, lr):
            assert np.array_equal(grads[id(p)], 2 * p.data)
            rates.append(lr)
            super().step(grads, lr)

    def record_step(step):
        calls.append(step)
        with Graph() as g:
            loss = tn.sum_(tn.mul(p, p))
        tapes.append((g, loss))
        return g, loss, {"loss": loss.item(), "norm": float(np.abs(p.data).sum())}

    monkeypatch.setattr(training, "AdamW", RecordingAdamW)
    steps, lr = 7, 0.1
    rows = training.optimise([p], steps, lr, record_step)
    assert len(built) == 1 and built[0][0] == [p] and built[0][1] == 0
    assert calls == list(range(steps))
    assert rates == [lr_schedule(step, steps, lr) for step in range(steps)]
    assert [list(row) for row in rows] == [["step", "loss", "norm", "lr"]] * steps
    assert [(row["step"], row["lr"]) for row in rows] == list(zip(calls, rates))
    assert rows[-1]["loss"] < rows[0]["loss"]
    for g, loss in tapes:
        assert g.nodes == []
        with pytest.raises(ContractError, match="already walked"):
            g.backward(loss, wrt=[p])


def test_gradcheck_records_the_op_kinds_runs_record(rng, monkeypatch, forks):
    """The targets of ``spikessm gradcheck`` record the op kinds that one
    step of each training loop records, and no others, but the neurons:
    their backward is a rectangular surrogate, not the quantizer's
    derivative, so no finite difference audits it. The compensated
    student distils with the alignment child, whose step records each
    term as one op (``sgc_term``), and in one process, whose step records
    the terms' own ops."""
    kinds = set()
    backward = Graph.backward

    def recorded_backward(self, loss, wrt):
        kinds.update(node._op for node in self.nodes)
        return backward(self, loss, wrt)

    monkeypatch.setattr(Graph, "backward", recorded_backward)
    lines = synthetic_corpus(30, seed=0)
    teacher = LanguageModel(tiny_cfg(), rng)
    train_teacher(teacher, lines, steps=1, batch=2, seq_len=16, seed=1)
    for neuron, d_max, sgc in ((TILIF, 4, True), (ILIF, 4, False), (LIF, 1, False)):
        student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=neuron, d_max=d_max),
                                sgc=sgc)
        distill_run(teacher, student, lines, steps=1, batch=2, total_len=16,
                    n_sequences=4, seed=3)
    with monkeypatch.context() as m:
        _one_cpu(m)
        compensated = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                                    sgc=True)
        distill_run(teacher, compensated, lines, steps=1, batch=2, total_len=16,
                    n_sequences=4, seed=3)
    for method in METHODS:
        examples = [parse_preference_line(line, method)
                    for line in synth_preference_lines(lines, 4, 1, method)]
        rl_run(student, examples, method=method, steps=1, batch=2, seed=2)
    run_kinds = kinds - {f"neuron_{kind}" for kind in KINDS}
    assert len(kinds - run_kinds) == 3

    audited = set()
    with dtype_scope("float64"):
        for _, loss_fn, _ in gradcheck_targets(np.random.default_rng(0)):
            with Graph() as g:
                loss_fn()
            audited.update(node._op for node in g.nodes)
    assert audited == run_kinds


def test_distill_step_kl_sees_forward_batch_logits(rng, monkeypatch):
    """Each step's KL gets, as its teacher side, the bytes of scoring the
    step's own token rows with ``forward_batch``. The rows are 64 tokens
    long, as in the distillation workload, where a head run on the
    continuation alone gives other bits (OpenBLAS, float32)."""
    teacher = LanguageModel(toy_config(), rng)
    student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
    seen, kl = [], training.kl_distill_loss
    forward = LanguageModel.forward_batch

    def recorded_forward(self, tokens, **kwargs):
        if self is student:
            seen.append([tokens.copy()])
        return forward(self, tokens, **kwargs)

    def recorded_kl(t_logits, s_logits):
        seen[-1].append(np.array(t_logits))
        return kl(t_logits, s_logits)

    monkeypatch.setattr(LanguageModel, "forward_batch", recorded_forward)
    monkeypatch.setattr(training, "kl_distill_loss", recorded_kl)
    distill_run(teacher, student, synthetic_corpus(40, seed=0), steps=3, batch=8,
                prompt_len=8, total_len=64, n_sequences=24, seed=3)
    monkeypatch.setattr(LanguageModel, "forward_batch", forward)
    assert len(seen) == 3
    for tokens, t_logits in seen:
        want = teacher_logits_every_row(teacher, tokens, 8)
        assert t_logits.dtype == want.dtype and t_logits.tobytes() == want.tobytes()


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


def test_self_distillation_identity_with_passthrough(rng, identity_neuron):
    # spiking student with the identity neuron == the teacher, so the
    # starting KL is essentially zero
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(40, seed=0)
    train_teacher(teacher, lines, steps=30, batch=8, seq_len=16, lr=2e-3, seed=1)
    student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4))
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
    assert list(row) == ["step", "loss_total", "loss_kl", "loss_hidden",
                         "fr_in", "fr_out", "lr"]
    assert row["loss_total"] == pytest.approx(
        row["loss_kl"] + row["loss_hidden"], abs=1e-5)
    assert 0.0 <= row["fr_in"] <= 1.0


def test_preference_parsing():
    ex = parse_preference_line("p\tgood\tbad", "dpo")
    assert ex.paired and ex.responses == ("good", "bad")
    ex = parse_preference_line("p\tresp\t-1", "kto")
    assert not ex.paired and ex.responses == ("resp",) and ex.label == -1
    with pytest.raises(ContractError):
        parse_preference_line("only\ttwo", "dpo")
    with pytest.raises(ContractError):
        parse_preference_line("p\tr\tmaybe", "kto")
    with pytest.raises(ContractError):
        PreferenceExample(prompt="p", responses=())
    with pytest.raises(ContractError):
        PreferenceExample(prompt="p", responses=("a", "b", "c"))
    with pytest.raises(ContractError):
        PreferenceExample(prompt="p", responses=("r",), label=0)


def test_preference_file_round_trip(tmp_path):
    lines = synth_preference_lines(synthetic_corpus(20, seed=0), 10, 0, "dpo")
    path = tmp_path / "prefs.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    examples = preference_records(read_lines("preference file", str(path)), "dpo", str(path))
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


def test_eval_ppl_matches_straight_line_oracle(rng, monkeypatch):
    """Independent recomputation of exp(mean next-token cross entropy)."""
    monkeypatch.setattr(training, "EVAL_BATCH", 4)
    model = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(25, seed=0)
    got = eval_ppl(model, lines, seq_len=16)

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


def test_eval_ppl_clamp_hook_matches_inline_loop(rng, f64, monkeypatch):
    """The clamp hook through eval_ppl against a window-by-window loop."""
    monkeypatch.setattr(training, "EVAL_BATCH", 4)
    model = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(25, seed=0)
    hook = make_clamp_hook("max_to_zero", "y_t")
    got = eval_ppl(model, lines, seq_len=16, hook=hook)
    assert got != eval_ppl(model, lines, seq_len=16)

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


def test_distill_mirrors_are_run_state(rng, monkeypatch):
    """Compensation changes the run, not the student: AdamW gets the
    student's parameters, then a copy of both projections of each
    compensation layer, and the student ends with exactly its config's
    table."""
    teacher = LanguageModel(tiny_cfg(), rng)
    lines = synthetic_corpus(30, seed=0)
    handed = []

    def adamw(params):
        handed.append([p.data.copy() for p in params])
        return AdamW(params)

    monkeypatch.setattr(training, "AdamW", adamw)

    def run(sgc):
        student = teacher.clone(
            mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4), sgc=sgc)
        start = {n: t.data.copy() for n, t in student.named_parameters()}
        res = distill_run(teacher, student, lines, steps=3, batch=4,
                          total_len=16, n_sequences=8, seed=3)
        assert [(n, t.shape) for n, t in student.named_parameters()] == \
            list(param_shapes(student.cfg).items())
        want = list(start.values()) + [start[f"layers.{i}.{w}"]
                                       for i in (0, 1) if sgc
                                       for w in ("w_in", "w_out")]
        assert [a.tobytes() for a in handed[-1]] == [a.tobytes() for a in want]
        return [r["loss_total"] for r in res.metrics]

    on, off = run(True), run(False)
    assert len(handed[0]) == len(handed[1]) + 4  # both layers mirrored
    assert on != off
    assert compensated_layers(2) == {0, 1} and compensated_layers(6) == {0, 3, 5}


# ---------------------------------------------------------------------------
# distillation: the compensation branch built inside the block as the oracle

def block_forward_compensated(params, u, cfg, mirrors):
    """The spiking block with the compensation branch inside it: each
    mirror runs on the projection's input right after the projection.
    Returns the block output and the (spiking output, compensation
    output) pair of each projection of a block given mirrors."""
    B, T, _ = u.shape
    H, P, N, d_inner = cfg.n_heads, cfg.d_head, cfg.n_state, cfg.d_inner
    pairs = []
    u2 = tn.matmul(neuron_forward(cfg.neuron, u), params.w_in)
    if mirrors is not None:
        pairs.append((u2, sgc_forward(u, mirrors[0], cfg.neuron.d_max)))
    z = narrow(u2, -1, 0, d_inner)
    xbc_raw = narrow(u2, -1, d_inner, d_inner + 2 * N)
    dt_raw = narrow(u2, -1, 2 * d_inner + 2 * N, H)
    kern = tn.concat([params.conv_x, params.conv_b, params.conv_c], axis=0)
    xbc = tn.silu(tn.causal_conv1d(xbc_raw, kern)[0])
    x = reshape(narrow(xbc, -1, 0, d_inner), (B, T, H, P))
    b = narrow(xbc, -1, d_inner, N)
    c = narrow(xbc, -1, d_inner + N, N)
    dt = tn.softplus(dt_raw + params.dt_bias)
    decay = tn.exp(-(dt * tn.exp(params.a_log)))
    o = ssm_scan(decay, dt, b, x, c) + params.d_skip * x
    y = tn.rmsnorm(reshape(o, (B, T, d_inner)) * tn.silu(z), params.norm_w)
    y_out = tn.matmul(neuron_forward(cfg.neuron, y), params.w_out)
    if mirrors is not None:
        pairs.append((y_out, sgc_forward(y, mirrors[1], cfg.neuron.d_max)))
    return y_out, pairs


def distill_step_compensated(student, mirrors, tokens, t_cont, prompt_len):
    """One distillation step's loss terms (KL against the teacher's
    continuation logits ``t_cont``, each alignment term, total) and the
    gradients of the student's parameters then the mirrors', with the
    model's trunk and head run around :func:`block_forward_compensated`."""
    params = student.parameters() + [w for pair in mirrors.values() for w in pair]
    with Graph() as g:
        x = tn.embedding(student.embedding, tokens)
        pairs = []
        for i, layer in enumerate(student.layers):
            y, found = block_forward_compensated(
                layer, tn.rmsnorm(x, student.pre_norms[i]), student.cfg, mirrors.get(i))
            pairs += found
            x = x + y
        logits = student.head(tn.rmsnorm(x, student.norm_f))
        s_cont = narrow(logits, 1, prompt_len - 1, tokens.shape[1] - prompt_len)
        l_kl = kl_distill_loss(t_cont, s_cont)
        hidden = [hidden_align_loss(spk, sgc) for spk, sgc in pairs]
        loss = total_distill_loss(l_kl, hidden)
    grads = g.backward(loss, wrt=params)
    return [t.data.tobytes() for t in (l_kl, *hidden, loss)], \
        [grads[id(p)].tobytes() for p in params]


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("n_layers", [2, 3])
def test_distill_step_equals_in_block_compensation(precision, n_layers, rng, monkeypatch):
    """``distill_run`` builds the compensation branch from the projections
    the taped forward records. Each step's KL, alignment terms (in layer
    order, input projection first), total loss and every gradient of the
    student and of the mirrors are the bytes of the branch built inside
    the block: on the toy student, and at 3 layers, where all three are
    compensated. The run takes one CPU, so the terms run in this process."""
    prompt_len, seen = 4, []
    with dtype_scope(precision):
        teacher = LanguageModel(replace(toy_config(), n_layers=n_layers), rng)
        student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                                sgc=True)
        forward, kl, align, total = (LanguageModel.forward_batch, training.kl_distill_loss,
                                     training.hidden_align_loss, training.total_distill_loss)
        backward = Graph.backward

        def recorded(fn, kind):
            def run(*args):
                out = fn(*args)
                seen[-1][kind].append(out.data.tobytes())
                return out
            return run

        def recorded_forward(self, tokens, **kwargs):
            seen.append({"tokens": tokens.copy(), "kl": [], "align": [], "total": []})
            return forward(self, tokens, **kwargs)

        def recorded_kl(t_cont, s_cont):
            seen[-1]["t_cont"] = np.array(t_cont)
            return recorded(kl, "kl")(t_cont, s_cont)

        def recorded_backward(g, loss, wrt):
            seen[-1]["params"] = [p.data.copy() for p in wrt]
            grads = backward(g, loss, wrt)
            seen[-1]["grads"] = [grads[id(p)].tobytes() for p in wrt]
            return grads

        with monkeypatch.context() as m:
            _one_cpu(m)
            m.setattr(LanguageModel, "forward_batch", recorded_forward)
            m.setattr(training, "kl_distill_loss", recorded_kl)
            m.setattr(training, "hidden_align_loss", recorded(align, "align"))
            m.setattr(training, "total_distill_loss", recorded(total, "total"))
            m.setattr(Graph, "backward", recorded_backward)
            distill_run(teacher, student, synthetic_corpus(30, seed=0), steps=3, batch=4,
                        prompt_len=prompt_len, total_len=16, n_sequences=8, seed=3)

        layers = sorted(compensated_layers(n_layers))
        assert len(layers) == n_layers and len(seen) == 3
        names = list(param_shapes(student.cfg))
        for step in seen:
            assert len(step["align"]) == 2 * n_layers
            arrays = step["params"]
            model = LanguageModel.from_tensors(student.cfg, dict(zip(names, arrays)))
            rest = [parameter(a) for a in arrays[len(names):]]
            mirrors = {i: (rest[2 * k], rest[2 * k + 1]) for k, i in enumerate(layers)}
            losses, grads = distill_step_compensated(
                model, mirrors, step["tokens"], step["t_cont"], prompt_len)
            assert losses == step["kl"] + step["align"] + step["total"]
            assert grads == step["grads"]


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_alignment_stand_in_walks_the_term_from_its_upstream_gradient(precision, rng):
    """``alignment_term``, the one ``sgc_term`` op a step records for an
    alignment term, has the value and, from any upstream gradient, the
    gradient bytes of the term's own ops on one tape."""
    with dtype_scope(precision):
        inp, out, w = (parameter(rng.normal(size=shape))
                       for shape in ((2, 3, 4), (2, 3, 5), (4, 5)))
        for scale in (1.0, 0.25, 0.3):
            with Graph() as g:
                direct = hidden_align_loss(out, sgc_forward(inp, w, 4)) * scale
            want = g.backward(direct, wrt=[inp, out, w])
            with Graph() as g:
                stand_in = training.alignment_term(inp, out, w, 4)
                loss = stand_in * scale
            assert [node._op for node in g.nodes] == ["sgc_term", "mul"]
            got = g.backward(loss, wrt=[inp, out, w])
            assert loss.data.tobytes() == direct.data.tobytes()
            assert all(got[id(t)].tobytes() == want[id(t)].tobytes() for t in (inp, out, w))


def _closure_arrays(obj, found, seen):
    """Append to ``found`` every array ``obj`` holds through closure cells,
    nested functions and containers, but not through tensors."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        found.append(obj)
    elif isinstance(obj, types.FunctionType):
        for cell in obj.__closure__ or ():
            _closure_arrays(cell.cell_contents, found, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _closure_arrays(item, found, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _closure_arrays(item, found, seen)


def test_distill_step_frees_its_tape_before_the_update(rng, monkeypatch):
    """Over a compensated distill run, every array a step's closures saved
    is dead when that step's AdamW.step runs, but those the loop itself
    still names (the token window): loss, logits and auxes no longer hold
    the tape, so the next forward is not built next to it."""
    teacher = LanguageModel(tiny_cfg(), rng)
    student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                            sgc=True)
    saved, seen_at_update = [], []
    backward, step = Graph.backward, AdamW.step

    def recording_backward(g, loss, wrt):
        found, visited = [], set()
        for node in g.nodes:
            _closure_arrays(node._grad_fn, found, visited)
        saved[:] = [weakref.ref(a) for a in found]
        del found
        return backward(g, loss, wrt)

    def checking_step(opt, grads, lr):
        named = [v for v in sys._getframe(1).f_locals.values() if isinstance(v, np.ndarray)]
        live = [a for a in (r() for r in saved) if a is not None]
        seen_at_update.append((len(saved), sum(all(a is not v for v in named) for a in live)))
        del live
        step(opt, grads, lr)

    monkeypatch.setattr(Graph, "backward", recording_backward)
    monkeypatch.setattr(AdamW, "step", checking_step)
    distill_run(teacher, student, synthetic_corpus(30, seed=0), steps=2, batch=3,
                prompt_len=4, total_len=14, n_sequences=6, seed=3)
    assert len(seen_at_update) == 2
    assert all(n_saved > 0 and n_live == 0 for n_saved, n_live in seen_at_update)


def test_rl_validates_method(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    with pytest.raises(ContractError):
        rl_run(teacher, [PreferenceExample(prompt="p", responses=("r",))],
               method="ppo", steps=1)
    with pytest.raises(ContractError):
        rl_run(teacher, [PreferenceExample(prompt="p", responses=("r",))],
               method="dpo", steps=1)


def test_rl_kto_refuses_paired_examples(rng):
    model = LanguageModel(tiny_cfg(), rng)
    paired = [parse_preference_line(line, "dpo")
              for line in synth_preference_lines(synthetic_corpus(10, seed=0), 4, 0, "dpo")]
    with pytest.raises(ContractError, match="KTO requires unpaired examples"):
        rl_run(model, paired, method="kto", steps=1)


def test_rl_rejects_empty_examples(rng):
    teacher = LanguageModel(tiny_cfg(), rng)
    with pytest.raises(ContractError, match="no preference examples"):
        rl_run(teacher, [], method="dpo", steps=1)


# ---------------------------------------------------------------------------
# preference optimization: the per-example loop as the oracle of rl_run

def rl_run_loop(policy, examples, *, method, steps=120, batch=4, lr=5e-6,
                beta_pref=0.1, seed=0):
    """``rl_run`` as it was before batching: every sequence its own B=1
    forward, and the reference log-probs recomputed on every step. KTO's
    ``z_ref`` (kept in each row) scores prompt j with response j+1 (mod B)
    the same way, over the pairs of two different examples (0.0 if none);
    each step makes one ``kto_loss`` call on B scalars."""
    def response_logprob(model, tokens, start):
        logits, _ = model.forward_batch(tokens[None, :])
        return reshape(sequence_logprob(logits, tokens[None, :], start, tokens.size), ())

    reference = policy.clone()
    rng = np.random.default_rng(seed)
    params = policy.parameters()
    opt = AdamW(params)
    rows = []
    for step in range(steps):
        idx = rng.integers(0, len(examples), size=batch)
        cur_lr = lr_schedule(step, steps, lr)
        with Graph() as g:
            losses, lps, refs, labels = [], [], [], []
            for i in idx:
                ex = examples[i]
                if method == "dpo":
                    tw, sw = _example_tokens(ex.prompt, ex.responses[0])
                    tl, sl = _example_tokens(ex.prompt, ex.responses[1])
                    ref_w = response_logprob(reference, tw, sw).item()
                    ref_l = response_logprob(reference, tl, sl).item()
                    lp_w = response_logprob(policy, tw, sw)
                    lp_l = response_logprob(policy, tl, sl)
                    losses.append(dpo_loss((lp_w, lp_l), (ref_w, ref_l), beta_pref))
                else:
                    toks, start = _example_tokens(ex.prompt, ex.responses[0])
                    refs.append(response_logprob(reference, toks, start).item())
                    lps.append(response_logprob(policy, toks, start))
                    labels.append(ex.label)
            if method == "dpo":
                loss = losses[0]
                for extra in losses[1:]:
                    loss = loss + extra
                loss = loss * (1.0 / len(losses))
            else:
                ratios = []
                for j, i in enumerate(idx):
                    if idx[(j + 1) % batch] == i:
                        continue
                    nxt = examples[idx[(j + 1) % batch]]
                    toks, start = _example_tokens(examples[i].prompt, nxt.responses[0])
                    ratios.append(response_logprob(policy, toks, start).item()
                                  - response_logprob(reference, toks, start).item())
                z_ref = beta_pref * max(0.0, sum(ratios) / len(ratios)) if ratios else 0.0
                loss = kto_loss(lps, refs, labels, beta_pref, z_ref=z_ref)
        grads = g.backward(loss, wrt=params)
        opt.step(grads, cur_lr)
        rows.append({"step": step, "loss": loss.item(), "lr": cur_lr,
                     "z_ref": z_ref if method == "kto" else None})
    return rows


def _preference_examples(method):
    """Responses of different lengths, so every batch is padded; KTO mixes
    labels."""
    lines = synth_preference_lines(synthetic_corpus(30, seed=0), 6, 4, method)
    examples = [parse_preference_line(line, method) for line in lines]
    if method == "dpo":
        good, bad = examples[1].responses
        examples[1].responses = (good, bad + "tail")
    else:
        assert {e.label for e in examples} == {1, -1}
    return examples


@pytest.mark.parametrize("method", ["dpo", "kto"])
def test_rl_batched_equals_per_example_loop(rng, f64, method):
    model = LanguageModel(tiny_cfg(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4)),
                          rng)
    examples = _preference_examples(method)
    steps, batch, seed = 6, 3, 7
    draws = np.random.default_rng(seed)
    idx = [draws.integers(0, len(examples), size=batch) for _ in range(steps)]
    assert any(len(set(i.tolist())) < batch for i in idx)  # an index repeats
    lengths = {e.responses[-1] for e in examples}
    assert len({len(r) for r in lengths}) > 1

    a, b = model.clone(), model.clone()
    kw = dict(method=method, steps=steps, batch=batch, lr=1e-2, seed=seed)
    got = rl_run(a, examples, **kw)
    want = rl_run_loop(b, examples, **kw)
    for r_got, r_want in zip(got, want):
        assert r_got["loss"] == pytest.approx(r_want["loss"], abs=1e-9)
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_allclose(pa.data, pb.data, rtol=1e-9, atol=1e-12,
                                   err_msg=name)
    assert not np.array_equal(a.parameters()[0].data, model.parameters()[0].data)


def rl_run_row_views(policy, examples, *, steps, batch, lr=5e-6, beta_pref=0.1,
                     seed=0):
    """The DPO step before whole-batch vectors: one padded policy forward,
    then a narrow/reshape view, a loss and a chained sum term per row.
    Rows also carry the step's tape length."""
    reference = policy.clone()
    rng = np.random.default_rng(seed)
    params = policy.parameters()
    seqs, ref_lp = {}, {}
    opt = AdamW(params)
    rows = []
    for step in range(steps):
        idx = [int(i) for i in rng.integers(0, len(examples), size=batch)]
        cur_lr = lr_schedule(step, steps, lr)
        for i in idx:
            if i not in seqs:
                seqs[i] = tuple(_example_tokens(examples[i].prompt, r)
                                for r in examples[i].responses)
        order = [(i, k) for k in range(2) for i in idx]
        tokens, starts, lengths = _padded([seqs[i][k] for i, k in order])
        miss = [i for i in dict.fromkeys(idx) if i not in ref_lp]
        if miss:
            picks = [order.index((i, k)) for k in range(2) for i in miss]
            lp_ref = _response_logprobs(reference, tokens[picks], starts[picks],
                                        lengths[picks]).data
            for j, i in enumerate(miss):
                ref_lp[i] = (float(lp_ref[j]), float(lp_ref[len(miss) + j]))
        with Graph() as g:
            lp = _response_logprobs(policy, tokens, starts, lengths)
            views = [reshape(narrow(lp, 0, r, 1), ()) for r in range(2 * batch)]
            losses = []
            for j, i in enumerate(idx):
                f_w = views[j] - ref_lp[i][0]
                f_l = views[batch + j] - ref_lp[i][1]
                losses.append(softplus(-((f_w - f_l) * beta_pref)))
            loss = losses[0]
            for extra in losses[1:]:
                loss = loss + extra
            loss = loss * (1.0 / batch)
        nodes = len(g.nodes)  # backward consumes the tape
        grads = g.backward(loss, wrt=params)
        opt.step(grads, cur_lr)
        rows.append({"step": step, "loss": loss.item(), "lr": cur_lr, "nodes": nodes})
    return rows


@functools.cache
def _toy_student():
    return LanguageModel(toy_config(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4)),
                         np.random.default_rng(3))


@pytest.mark.parametrize("batch", [1, 4, 7])
def test_rl_dpo_bit_identical_to_row_views(monkeypatch, batch):
    """float32: the whole-batch DPO step gives the row-view step's loss rows
    and parameter bytes, from a shorter tape and one loss call per step."""
    examples = _preference_examples("dpo")
    toy_student = _toy_student()
    a, b = toy_student.clone(), toy_student.clone()
    calls, nodes = [], []
    monkeypatch.setattr(training, "dpo_loss",
                        lambda *args: calls.append(1) or dpo_loss(*args))
    backward = Graph.backward
    monkeypatch.setattr(Graph, "backward",
                        lambda g, *args, **kw: nodes.append(len(g.nodes))
                        or backward(g, *args, **kw))
    kw = dict(steps=3, batch=batch, lr=1e-3, seed=batch)
    got = rl_run(a, examples, method="dpo", **kw)
    monkeypatch.setattr(Graph, "backward", backward)
    want = rl_run_row_views(b, examples, **kw)
    assert [(r["step"], r["loss"], r["lr"]) for r in got] == \
        [(r["step"], r["loss"], r["lr"]) for r in want]
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert pa.data.tobytes() == pb.data.tobytes(), name
    assert not np.array_equal(a.parameters()[0].data, toy_student.parameters()[0].data)
    assert len(calls) == 3
    assert all(n < r["nodes"] for n, r in zip(nodes, want))


def test_rl_kto_loss_moves_and_z_ref_matches_loop(rng, f64, monkeypatch):
    """One kto_loss call per step; 0.5 while the policy is the reference,
    then not; its z_ref is the per-formula loop's."""
    model = LanguageModel(tiny_cfg(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4)),
                          rng)
    examples = _preference_examples("kto")
    z_refs = []
    monkeypatch.setattr(training, "kto_loss",
                        lambda *args: z_refs.append(args[4]) or kto_loss(*args))
    kw = dict(method="kto", steps=8, batch=3, lr=1e-3, seed=7)
    got = rl_run(model.clone(), examples, **kw)
    want = rl_run_loop(model.clone(), examples, **kw)
    assert len(z_refs) == 8
    assert got[0]["loss"] == pytest.approx(0.5, abs=1e-12)
    assert z_refs[0] == 0.0
    assert all(abs(r["loss"] - 0.5) > 1e-4 for r in got[1:])
    assert sum(z > 0 for z in z_refs) >= 3
    assert z_refs == pytest.approx([r["z_ref"] for r in want], rel=1e-9, abs=1e-12)


def test_kto_z_ref_skips_an_examples_own_pair(rng, f64, monkeypatch):
    """Rows 0 and 1 of ``idx`` are one example: their pair is that example's
    own reward, which the mean over mismatched pairs leaves out. With every
    row one example there is no pair: ``_kto_pairs`` gives None, for which
    ``rl_run`` takes z_ref 0.0, and no forward runs."""
    policy = LanguageModel(tiny_cfg(), rng)
    reference = policy.clone()
    for t in reference.parameters():
        t.data = t.data + rng.normal(0.0, 0.05, t.data.shape)
    examples = _preference_examples("kto")
    seqs = [[_example_tokens(e.prompt, e.responses[0])] for e in examples]

    def ratio(i, k):
        ids, start = _example_tokens(examples[i].prompt, examples[k].responses[0])
        tokens, starts, lengths = _padded([(ids, start)])
        return (_response_logprobs(policy, tokens, starts, lengths).item()
                - _response_logprobs(reference, tokens, starts, lengths).item())

    mismatched = [ratio(0, 1), ratio(1, 0)]
    with_self = [ratio(0, 0)] + mismatched  # the mean before the fix
    assert min(np.mean(mismatched), np.mean(with_self)) > 0  # no clipping at 0
    pairs = training._kto_pairs(seqs, np.array([0, 0, 1]))
    lp_ref = _response_logprobs(reference, *pairs).data
    got = training._kto_z_ref(policy, pairs, lp_ref, 0.1)
    assert got == pytest.approx(0.1 * np.mean(mismatched), rel=1e-12)
    assert got != pytest.approx(0.1 * np.mean(with_self), rel=1e-6)

    monkeypatch.setattr(LanguageModel, "forward_batch",
                        lambda *a, **kw: pytest.fail("a forward ran"))
    assert training._kto_pairs(seqs, np.array([2, 2, 2])) is None


def test_rl_kto_needs_two_rows(rng):
    model = LanguageModel(tiny_cfg(), rng)
    with pytest.raises(ContractError, match="batch >= 2"):
        rl_run(model, _preference_examples("kto"), method="kto", steps=1, batch=1)


@pytest.mark.parametrize("method", ["dpo", "kto"])
@pytest.mark.parametrize("batch", [0, -1])
def test_rl_refuses_a_batch_without_rows(rng, method, batch):
    model = LanguageModel(tiny_cfg(), rng)
    with pytest.raises(ContractError, match=f"batch must be >= 1, got {batch}"):
        rl_run(model, _preference_examples(method), method=method, steps=1, batch=batch)


def test_rl_first_dpo_loss_is_ln2(rng, f64):
    model = LanguageModel(tiny_cfg(), rng)
    rows = rl_run(model, _preference_examples("dpo"), method="dpo", steps=2,
                  batch=4, seed=1)
    assert rows[0]["loss"] == pytest.approx(np.log(2.0), abs=1e-9)


def test_padded_forward_logprobs_equal_single_rows(rng, f64):
    """Right padding with EOS is exact through the whole model."""
    model = LanguageModel(tiny_cfg(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4)),
                          rng)
    seqs = [_example_tokens("the spike ", "rides the slow river."),
            _example_tokens("a", "b"),
            _example_tokens("the gate opens ", "a quiet pulse and more.")]
    tokens, starts, lengths = _padded(seqs)
    assert len(set(lengths.tolist())) == 3 and tokens.shape[1] > 16
    got = _response_logprobs(model, tokens, starts, lengths).data
    for r, (ids, start) in enumerate(seqs):
        logits, _ = model.forward_batch(ids[None, :])
        one = sequence_logprob(logits, ids[None, :], start, ids.size)
        assert got[r] == pytest.approx(one.item(), abs=1e-12)


# ---------------------------------------------------------------------------
# the distillation set-up's teacher pass split across two processes

NEW = 16  # new tokens per decoded row
ENDS = {"exit 0": 0, "exit 3": 3, "sigkill": -signal.SIGKILL}  # and the exit code of each


def _end(how):
    """End this process as ``how`` says, one of :data:`ENDS`."""
    if how == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(ENDS[how])


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_cpu(mp):
    mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    mp.setattr(os, "cpu_count", lambda: 1)


def _toy_teacher_prompts(rows, seed=3, prompt_len=8):
    """The toy teacher and ``rows`` distinct corpus prompts."""
    teacher = LanguageModel(toy_config(), np.random.default_rng(seed))
    stream = token_stream(synthetic_corpus(200, seed))
    windows = sample_windows(stream, 4 * rows, prompt_len, np.random.default_rng(seed + 1))
    prompts = np.unique(windows, axis=0)[:rows]
    assert prompts.shape[0] == rows
    return teacher, prompts


def _one_process_pass(teacher, prompts):
    """The teacher pass in one process, as it ran before it split: the
    greedy loop of ``generate_greedy``, then the trunk over EVAL_BATCH
    rows at a time into one array."""
    state = teacher.init_state((prompts.shape[0],))
    for t in range(prompts.shape[1]):
        logits, state = teacher.step(prompts[:, t], state, kernel="matmul")
    out = [prompts]
    for i in range(NEW):
        if i:
            logits, state = teacher.step(cur, state, kernel="matmul")
        cur = logits.argmax(axis=-1)
        out.append(cur[:, None])
    seqs = np.concatenate(out, axis=1)
    m, T = seqs.shape
    targets = np.empty((m, T, teacher.cfg.d_model), teacher.embedding.data.dtype)
    for i in range(0, m, EVAL_BATCH):
        targets[i:i + EVAL_BATCH] = teacher.trunk(seqs[i:i + EVAL_BATCH])[0].data
    return seqs, targets


def _array_bytes(arrays):
    """Each array's shape, dtype and bytes, to compare."""
    return [(a.shape, a.dtype.str, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("rows", [2 * training.SPLIT_ROWS - 1, 2 * training.SPLIT_ROWS,
                                  121, 136, 192])
def test_split_decode_equals_one_process_bytes(rows, forks):
    teacher, prompts = _toy_teacher_prompts(rows)
    got = teacher_pass(teacher, prompts, NEW)
    assert len(forks) == (rows >= 2 * training.SPLIT_ROWS)
    assert _array_bytes(got) == _array_bytes(_one_process_pass(teacher, prompts))


@pytest.mark.parametrize("env, threads", [
    ({"OPENBLAS_NUM_THREADS": "3", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "5"}, 3),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "5"}, 2),
    ({"OMP_NUM_THREADS": "5"}, 5),
    ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "5"}, 5),
    ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "5"}, 5),
    ({"OPENBLAS_NUM_THREADS": "-1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2,1"}, 4),
    ({"OPENBLAS_NUM_THREADS": " 2 ", "OMP_NUM_THREADS": "5"}, 2),
    ({}, 4),
], ids=["openblas first", "goto before omp", "omp", "empty skipped", "zero skipped",
        "word skipped", "negative skipped", "list skipped", "spaces read", "unset"])
def test_blas_threads_is_the_first_positive_count_set(env, threads, monkeypatch):
    """The count the split rule reads: the first of OPENBLAS, GOTO and OMP
    holding a positive integer, else the usable CPUs (four here). ``2,1``,
    which OpenBLAS reads as 2, is skipped: the rule then takes BLAS to use
    every CPU, and the pass does not split."""
    for var in procs.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert procs._blas_threads() == threads


def test_float64_decode_takes_one_process(monkeypatch, forks):
    def fork():
        pytest.fail("the teacher pass forked")

    with dtype_scope("float64"):
        teacher, prompts = _toy_teacher_prompts(136)
        want = _one_process_pass(teacher, prompts)
        monkeypatch.setattr(os, "fork", fork)
        got = teacher_pass(teacher, prompts, NEW)
    assert got[1].dtype == np.float64 and _array_bytes(got) == _array_bytes(want)


@pytest.mark.parametrize("half", ["child", "parent", "both"])
def test_a_failing_half_raises_as_one_process_and_leaves_no_child(
        half, monkeypatch, tmp_path, forks):
    """The error of the pass in one process, from whichever half holds
    the failing row; the child is reaped, and text this process buffered
    for its stdout before the call is written once."""
    rows = 136
    teacher, prompts = _toy_teacher_prompts(rows)
    mark = min(set(range(teacher.cfg.vocab)) - set(_one_process_pass(teacher, prompts)[0].flat))
    marked = {"child": [rows - 1], "parent": [0], "both": [0, rows - 1]}[half]
    prompts[marked, 3] = mark
    step = LanguageModel.step

    def failing_step(self, token, state, **kw):
        if np.any(token == mark):
            raise NumericError(f"non-finite logits after token {mark}")
        return step(self, token, state, **kw)

    monkeypatch.setattr(LanguageModel, "step", failing_step)
    with pytest.raises(NumericError) as one_process:
        _one_process_pass(teacher, prompts)
    out = open(tmp_path / "stdout.txt", "w")
    monkeypatch.setattr(sys, "stdout", out)
    print("written before the pass")
    with pytest.raises(NumericError) as split:
        teacher_pass(teacher, prompts, NEW)
    out.close()
    assert len(forks) == 1
    assert str(split.value) == str(one_process.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (tmp_path / "stdout.txt").read_text() == "written before the pass\n"


@pytest.mark.parametrize("end", ENDS)
def test_a_child_that_does_not_finish_runs_its_half_again_here(end, monkeypatch, forks,
                                                               exit_codes):
    """The child ending at its first step, through ``os._exit(0)``,
    ``os._exit(3)`` or ``SIGKILL``, its rows still zeros: this process
    labels the child's half again, the pass gives the one-process bytes,
    and the child is reaped. Only the child's byte says it finished."""
    teacher, prompts, want = _matrix_teacher()
    step, parent = LanguageModel.step, os.getpid()

    def ending_step(self, token, state, **kw):
        if os.getpid() != parent:
            _end(end)
        return step(self, token, state, **kw)

    monkeypatch.setattr(LanguageModel, "step", ending_step)
    got = teacher_pass(teacher, prompts, NEW)
    assert len(forks) == 1 and _array_bytes(got) == _array_bytes(want)
    assert exit_codes == [ENDS[end]]
    _assert_no_child()


def test_child_error_of_another_type_keeps_its_type(forks):
    """An out-of-vocabulary id in the child's rows: the ContractError the
    step raises in one process."""
    teacher, prompts = _toy_teacher_prompts(136)
    prompts[-1, 2] = teacher.cfg.vocab
    with pytest.raises(ContractError) as one_process:
        _one_process_pass(teacher, prompts)
    with pytest.raises(ContractError) as split:
        teacher_pass(teacher, prompts, NEW)
    assert len(forks) == 1 and str(split.value) == str(one_process.value)


def test_distill_run_is_the_same_run_split_or_not(monkeypatch, forks):
    """``distill_run`` on a split host forks twice, the teacher pass's
    child and the alignment terms', and leaves no child; on a one-CPU
    host it forks nothing. Both give the same metrics rows and the same
    student parameter bytes."""
    lines = synthetic_corpus(200, 3)
    teacher = LanguageModel(toy_config(), np.random.default_rng(3))

    def run():
        student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                                sgc=True)
        res = distill_run(teacher, student, lines, steps=2, batch=4, prompt_len=8,
                          total_len=8 + NEW, n_sequences=192, seed=3)
        return res.metrics, [t.data.tobytes() for t in student.parameters()]

    split = run()
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run() == split
    assert len(forks) == 2


# ---------------------------------------------------------------------------
# distill_run's alignment terms in a child

def _distill_bytes(n_layers, lr=1e-3):
    """A 4-step compensated ``distill_run`` of a tiny ``n_layers`` student:
    its metrics rows, its parameter bytes, and the alignment terms this
    process computed."""
    teacher = LanguageModel(replace(tiny_cfg(), n_layers=n_layers), np.random.default_rng(5))
    student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4), sgc=True)
    parent, here = os.getpid(), []
    align = training.hidden_align_loss

    def counted(*args):
        if os.getpid() == parent:
            here.append(1)
        return align(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "hidden_align_loss", counted)
        res = distill_run(teacher, student, synthetic_corpus(30, seed=0), steps=4, batch=3,
                          prompt_len=4, total_len=14, n_sequences=6, lr=lr, seed=3)
    return res.metrics, [t.data.tobytes() for t in student.parameters()], len(here)


@pytest.mark.parametrize("n_layers, layers", [(1, {0}), (2, {0, 1}), (4, {0, 2, 3})])
def test_distill_terms_in_a_child_are_the_one_process_run(n_layers, layers, forks):
    """Where a second process fits, ``distill_run`` forks one child, which
    computes every alignment term: the metrics rows and parameter bytes
    of the run in one process, and no child left."""
    assert compensated_layers(n_layers) == layers
    rows, params, here = _distill_bytes(n_layers)
    assert len(forks) == 1 and here == 0
    _assert_no_child()
    with pytest.MonkeyPatch.context() as mp:
        _one_cpu(mp)
        assert _distill_bytes(n_layers) == (rows, params, 4 * 2 * len(layers))
    assert len(forks) == 1


def test_distill_terms_walk_from_the_gradient_the_total_gives_them(monkeypatch, forks):
    """A step total that scales the loss gives each alignment term another
    gradient than the ``hidden_term_weight`` seed the child walked from:
    each stand-in then walks its term here from the gradient it got, and
    the run is the one-process run."""
    total = training.total_distill_loss
    monkeypatch.setattr(training, "total_distill_loss",
                        lambda l_kl, hidden: total(l_kl, hidden) * 0.5)
    rows, params, here = _distill_bytes(2)
    assert len(forks) == 1 and here == 4 * 2 * 2
    _assert_no_child()
    with pytest.MonkeyPatch.context() as mp:
        _one_cpu(mp)
        assert _distill_bytes(2)[:2] == (rows, params)
    assert len(forks) == 1


def test_distill_without_compensation_forks_no_child(forks):
    teacher = LanguageModel(tiny_cfg(), np.random.default_rng(5))
    distill_run(teacher, teacher.clone(mode=SPIKING), synthetic_corpus(30, seed=0),
                steps=2, batch=3, prompt_len=4, total_len=14, n_sequences=6, seed=3)
    assert not forks


def _distill_tapes(monkeypatch):
    """The tapes this process walks in a :func:`_distill_bytes` run of a
    2-layer student, each as its ops and each node's inputs by the index
    of the node that made them (None for leaves), and the alignment
    terms it computed."""
    parent, tapes = os.getpid(), []
    backward = Graph.backward

    def recorded(g, loss, wrt):
        if os.getpid() == parent:
            at = {id(node): k for k, node in enumerate(g.nodes)}
            tapes.append(([node._op for node in g.nodes],
                          [[at.get(id(t)) for t in node._inputs] for node in g.nodes]))
        return backward(g, loss, wrt)

    monkeypatch.setattr(Graph, "backward", recorded)
    return tapes, _distill_bytes(2)[2]


def test_distill_tape_holds_no_alignment_op_when_the_child_runs(monkeypatch, forks):
    """With the child running, each step's tape in this process holds one
    ``sgc_term`` stand-in per alignment term and no ``hidden_align``
    node. Each stand-in comes right after its projection's ``matmul``,
    whose output it aligns, so the walk reaches it only after the
    backward of everything the forward computed from that output."""
    tapes, here = _distill_tapes(monkeypatch)
    assert len(forks) == 1 and here == 0 and len(tapes) == 4
    for ops, inputs in tapes:
        assert ops.count("sgc_term") == 4 and "hidden_align" not in ops
        for k, op in enumerate(ops):
            if op == "sgc_term":
                assert ops[k - 1] == "matmul" and inputs[k][1] == k - 1


def test_distill_whose_fork_fails_records_the_terms_ops(no_child, monkeypatch, forks):
    """Where no child forks, the fork rule not holding or the fork or its
    pipes failing, each step's tape holds the terms' own ops, no
    ``sgc_term``: each ``hidden_align`` right after its mirror's ``tanh``,
    ``mul`` and ``matmul``, which come right after the projection it
    aligns."""
    with no_child():
        tapes, here = _distill_tapes(monkeypatch)
    assert not forks and here == 4 * 2 * 2 and len(tapes) == 4
    for ops, inputs in tapes:
        assert ops.count("hidden_align") == 4 and "sgc_term" not in ops
        for k, op in enumerate(ops):
            if op == "hidden_align":
                assert ops[k - 4:k] == ["matmul", "tanh", "mul", "matmul"]
                assert inputs[k] == [k - 4, k - 1]


def test_distill_steps_after_the_child_stops_record_the_terms_ops(monkeypatch, forks):
    """The child ending at its third hand-off, amid the first step's
    values: that step's tape holds its four stand-ins, each term the
    child did not finish runs here, and every later step records the
    terms' own ops, as where no child forks."""
    with _hand_offs(3, lambda: os._exit(0)):
        tapes, here = _distill_tapes(monkeypatch)
    steps = [ops for ops, _ in tapes if "kl_distill" in ops]
    assert len(forks) == 1 and len(steps) == 4 and here == 4 * 2 * 2
    assert steps[0].count("sgc_term") == 4 and "hidden_align" not in steps[0]
    for ops in steps[1:]:
        assert ops.count("hidden_align") == 4 and "sgc_term" not in ops


# ---------------------------------------------------------------------------
# the fault matrix: each child of a training stage, stopped at its
# hand-offs or kept from forking, gives the run of one process. Each
# family of checks is one helper over the CHILDREN table; each child's
# test names its child and calls it.

@functools.cache
def _matrix_teacher():
    """The toy teacher, the fewest distinct prompts its pass splits, and
    the pass's hand-written one-process loop over them."""
    teacher, prompts = _toy_teacher_prompts(2 * training.SPLIT_ROWS)
    return teacher, prompts, _one_process_pass(teacher, prompts)


def _teacher_bytes():
    """The matrix's teacher pass: its sequence and target bytes, and the
    rows of the child's half this process labelled."""
    teacher, prompts, _ = _matrix_teacher()
    m, parent, rows = prompts.shape[0], os.getpid(), []
    greedy = LanguageModel.generate_greedy

    def counted(self, batch, *args, **kw):
        if os.getpid() == parent:
            rows.append(batch.shape[0])
        return greedy(self, batch, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LanguageModel, "generate_greedy", counted)
        got = teacher_pass(teacher, prompts, NEW)
    return *_array_bytes(got), sum(rows) - m // 2


def _rl_bytes(method, lr=1e-3):
    """A 12-step ``rl_run`` of a clone of the toy student: its metrics
    rows, its parameter bytes, and the reference forwards this process
    ran."""
    policy, parent, here = _toy_student().clone(), os.getpid(), []
    logprobs = training._response_logprobs

    def counted(model, *rows):
        if os.getpid() == parent and model is not policy:
            here.append(model)
        return logprobs(model, *rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_response_logprobs", counted)
        rows = rl_run(policy, _preference_examples(method), method=method, steps=12,
                      batch=3, lr=lr, seed=11)
    return rows, [t.data.tobytes() for t in policy.parameters()], len(here)


EVAL_ROWS = 15  # windows an eval_ppl batch holds in _eval_bytes, as an infer document
EVAL_BATCHES = 4


@functools.cache
def _eval_lines():
    """The fewest corpus lines that make ``EVAL_BATCHES`` batches of
    ``EVAL_ROWS`` windows."""
    lines = synthetic_corpus(400, seed=4)
    ends = np.cumsum([tokenize(line).size for line in lines])
    k = int(np.searchsorted(ends, EVAL_BATCHES * EVAL_ROWS * (SEQ_LEN + 1))) + 1
    assert token_stream(lines[:k]).size // (SEQ_LEN + 1) == EVAL_BATCHES * EVAL_ROWS
    return lines[:k]


def _eval_bytes():
    """``eval_ppl`` of a fresh toy student over ``EVAL_BATCHES`` batches of
    ``EVAL_ROWS`` windows: its perplexity's bytes, and the batches whose
    helper half (rows 7 on) this process scored, in a whole-batch forward
    or in one of those rows alone. Its row helper forks at the second
    batch, and the model goes when the call returns."""
    model, parent, here = _toy_student().clone(), os.getpid(), []
    forward = LanguageModel.forward_batch

    def counted(self, tokens, **kw):
        if os.getpid() == parent and tokens.shape[0] != EVAL_ROWS // 2:
            here.append(tokens.shape[0])
        return forward(self, tokens, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "EVAL_BATCH", EVAL_ROWS)
        mp.setattr(LanguageModel, "forward_batch", counted)
        ppl = eval_ppl(model, _eval_lines())
    return np.float64(ppl).tobytes(), len(here)


# Each child's run: its bytes, then the count of the child's kind of work
# this process did (rows of the child's half, reference forwards,
# alignment terms, batches' helper halves).
CHILDREN = {
    "teacher pass": _teacher_bytes,
    "rl dpo": functools.partial(_rl_bytes, "dpo"),
    "rl kto": functools.partial(_rl_bytes, "kto"),
    "distillation": functools.partial(_distill_bytes, 2),
    "eval helper": _eval_bytes,
}


@functools.cache
def _one_process(name):
    """The child's run where none forks (one CPU): its bytes, and all the
    work of the child's kind, done here. The teacher pass's bytes are
    its hand-written loop's."""
    with pytest.MonkeyPatch.context() as mp:
        _one_cpu(mp)
        *got, here = CHILDREN[name]()
    if name == "teacher pass":
        assert got == _array_bytes(_matrix_teacher()[2])
    return got, here


@contextmanager
def _hand_offs(k=None, then=None, waiting=lambda: None):
    """The hand-offs this process reads from each child it forks, counted.
    With ``k``, each child calls ``then()`` before the work of its k-th
    hand-off: at its start for the first, else once its (k-1)-th send is
    through. ``waiting()`` runs here before each read."""
    parent, received = os.getpid(), []
    receiver, sender = procs._receiver, procs._sender

    def counting(fd):
        receive = receiver(fd)

        def counted(n):
            if os.getpid() == parent:
                waiting()
            got = receive(n)
            if got is not None and os.getpid() == parent:
                received.append(got)
            return got

        return counted

    def stopping(fd):
        send, sent = sender(fd), []
        if k == 1 and os.getpid() != parent:
            then()

        def stopped(data):
            send(data)
            sent.append(data)
            if len(sent) == k - 1 and os.getpid() != parent:
                then()

        return stopped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(procs, "_receiver", counting)
        if k:
            mp.setattr(procs, "_sender", stopping)
        yield received


@functools.cache
def _answered(name):
    """The hand-offs the child of a whole run answers."""
    with _hand_offs() as received:
        CHILDREN[name]()
    return len(received)


@pytest.mark.parametrize("method", METHODS)
def test_rl_scores_the_reference_in_one_child(method, forks):
    """Where a second process fits, ``rl_run`` forks one child, which runs
    every reference forward: this process reads its every hand-off, runs
    none of them, gives the one-process bytes and leaves no child."""
    want, _ = _one_process(f"rl {method}")
    with _hand_offs() as received:
        *got, here = CHILDREN[f"rl {method}"]()
    assert len(forks) == 1 and got == want and here == 0 and received
    _assert_no_child()


def test_the_eval_helper_scores_half_of_each_later_batch(forks, exit_codes):
    """Where a second process fits, the model's row helper forks at its
    second batch and scores the helper half of it and of every later
    batch: this process reads each of those hand-offs, gives the
    one-process bytes, and the helper is closed when the model goes:
    it reads EOF or is killed, and it is reaped."""
    want, everything = _one_process("eval helper")
    assert everything == EVAL_BATCHES
    with _hand_offs() as received:
        *got, here = CHILDREN["eval helper"]()
    assert len(forks) == 1 and got == want and here == 1
    assert len(received) == EVAL_BATCHES - 1 and exit_codes in ([0], [-signal.SIGKILL])
    _assert_no_child()


def _assert_stopped_is_one_process(name, k, how, forks, exit_codes):
    """The child ended through ``how`` before the work of its k-th
    hand-off: this process read the k - 1 before it, did the rest of the
    child's work itself, and gave the one-process bytes; the child is
    reaped with the status it ended with. A reference forward or a row
    half is one hand-off; an alignment term is two (its value, then its
    gradients) and one unit of ``here`` either way."""
    want, everything = _one_process(name)
    n, e = len(forks), len(exit_codes)
    with _hand_offs(k, lambda: _end(how)) as received:
        *got, here = CHILDREN[name]()
    assert got == want and len(received) == k - 1, k
    if name == "distillation":
        assert 0 < here <= everything, k
    else:
        assert here == everything - (k - 1), k
    assert len(forks) == n + 1 and exit_codes[e:] == [ENDS[how]], k
    _assert_no_child()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("end", ENDS)
def test_rl_child_that_stops_mid_run_is_the_same_run(end, method, forks, exit_codes):
    """The child ending before its first, a middle and its last reference
    forward. (The teacher pass's child, which has one hand-off, stops in
    ``test_a_child_that_does_not_finish_runs_its_half_again_here``.)"""
    total = _answered(f"rl {method}")
    for k in (1, (total + 1) // 2, total):
        _assert_stopped_is_one_process(f"rl {method}", k, end, forks, exit_codes)


@pytest.mark.parametrize("k", [1, 2, EVAL_BATCHES - 1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("end", ENDS)
def test_an_eval_helper_that_stops_is_one_process(k, end, forks, exit_codes):
    """The row helper ending before its first, a middle or its last
    batch: this process scores that batch's helper half and every later
    batch itself, and the helper is reaped at once."""
    assert _answered("eval helper") == EVAL_BATCHES - 1
    _assert_stopped_is_one_process("eval helper", k, end, forks, exit_codes)


DISTILL_HAND_OFFS = 4 * 4 * 2  # _distill_bytes: steps x terms x (value, gradients)


@pytest.mark.parametrize("k", [1, 2, 3, 9, 5, 7, DISTILL_HAND_OFFS // 2, DISTILL_HAND_OFFS],
                         ids=["first layer", "between a layer's two projections",
                              "later layer", "later step", "values sent, no gradients",
                              "between two layers' gradients", "middle", "last"])
@pytest.mark.parametrize("end", ENDS)
def test_distill_child_that_stops_is_the_same_run(k, end, forks, exit_codes):
    """The child ending before its first hand-off (the first layer's input
    projection's term), its second (between that layer's two
    projections), its third and ninth (a later layer's and a later step's
    first term), its fifth (every value of a step sent, no gradients),
    its seventh (between two layers' gradients), a middle and its last."""
    assert _answered("distillation") == DISTILL_HAND_OFFS
    _assert_stopped_is_one_process("distillation", k, end, forks, exit_codes)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.integers(1, DISTILL_HAND_OFFS), how=st.sampled_from(list(ENDS)))
def test_a_distillation_child_stopped_anywhere_is_the_same_run(k, how, forks, exit_codes):
    _assert_stopped_is_one_process("distillation", k, how, forks, exit_codes)


def _assert_without_a_child(name, no_child, forks):
    """Where the fork rule does not hold, or the fork or its pipes fail,
    this process does all the child's work: the one-process bytes, and
    no fork."""
    want, everything = _one_process(name)
    with no_child():
        *got, here = CHILDREN[name]()
    assert not forks and got == want and here == everything


def test_decode_with_the_split_off_gives_the_same_bytes(no_child, forks):
    _assert_without_a_child("teacher pass", no_child, forks)


@pytest.mark.parametrize("method", METHODS)
def test_rl_without_a_child_is_the_same_run(no_child, method, forks):
    _assert_without_a_child(f"rl {method}", no_child, forks)


def test_distill_without_a_child_is_the_same_run(no_child, forks):
    _assert_without_a_child("distillation", no_child, forks)


def test_eval_ppl_without_a_helper_is_the_same_score(no_child, forks):
    _assert_without_a_child("eval helper", no_child, forks)


def _assert_error_here(run, forks):
    """A diverging learning rate ends the run in the ``NumericError`` of
    the one-process run, with no child left. (The teacher pass's errors
    are ``test_a_failing_half_raises_as_one_process_and_leaves_no_child``.)"""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.MonkeyPatch.context() as mp:
            _one_cpu(mp)
            with pytest.raises(NumericError) as one_process:
                run()
        with pytest.raises(NumericError) as with_a_child:
            run()
    assert len(forks) == 1 and str(with_a_child.value) == str(one_process.value)
    _assert_no_child()


def test_rl_error_here_kills_and_reaps_the_child(forks):
    _assert_error_here(lambda: _rl_bytes("kto", lr=1e4), forks)


@pytest.mark.filterwarnings("ignore:exp overflow")
def test_distill_error_here_kills_and_reaps_the_child(forks):
    _assert_error_here(lambda: _distill_bytes(2, lr=1e3), forks)


def _assert_interrupt_kills_and_reaps(name, forks, exit_codes):
    """The child sleeping before its first hand-off, and a signal handler
    raising 0.1 s into this process's wait for it: the error propagates
    from that wait (``procs``' ``receive``) at once, and the child is
    killed and reaped."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("no interval timer to raise in a signal handler")
    interrupted_in = []

    def interrupt(signum, frame):
        interrupted_in.append(frame.f_code.co_name)
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        with _hand_offs(1, lambda: time.sleep(20),
                        lambda: signal.setitimer(signal.ITIMER_REAL, 0.1)):
            with pytest.raises(KeyboardInterrupt):
                CHILDREN[name]()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 15 and len(forks) == 1
    assert interrupted_in == ["receive"] and exit_codes == [-signal.SIGKILL]
    _assert_no_child()


def test_an_interrupt_while_the_child_is_awaited_kills_and_reaps_it(forks, exit_codes):
    _assert_interrupt_kills_and_reaps("teacher pass", forks, exit_codes)


def test_rl_interrupt_while_the_child_is_awaited_kills_and_reaps_it(forks, exit_codes):
    _assert_interrupt_kills_and_reaps("rl dpo", forks, exit_codes)


def test_distill_interrupt_while_the_child_is_awaited_kills_and_reaps_it(forks, exit_codes):
    _assert_interrupt_kills_and_reaps("distillation", forks, exit_codes)


def test_eval_interrupt_while_the_helper_is_awaited_kills_and_reaps_it(forks, exit_codes):
    _assert_interrupt_kills_and_reaps("eval helper", forks, exit_codes)


# ---------------------------------------------------------------------------
# eval_ppl's row helper beyond the fault matrix

def test_an_error_here_retires_the_eval_helper(forks, exit_codes):
    """A ``NumericError`` in this process's half of the model's second
    batch, raised while the helper holds the other half: eval_ppl raises
    it, the helper is closed and reaped at once (it reads EOF or is
    killed), and the model scores in one process from then on, with the
    one-process bytes."""
    model, parent = _toy_student().clone(), os.getpid()
    forward, calls = LanguageModel.forward_batch, []

    def failing(self, tokens, **kw):
        if os.getpid() == parent:
            calls.append(tokens.shape[0])
            if len(calls) == 2:
                raise NumericError("non-finite block output at layer 0")
        return forward(self, tokens, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "EVAL_BATCH", EVAL_ROWS)
        mp.setattr(LanguageModel, "forward_batch", failing)
        with pytest.raises(NumericError, match="layer 0"):
            eval_ppl(model, _eval_lines())
    assert calls == [EVAL_ROWS, EVAL_ROWS // 2]
    assert len(forks) == 1 and exit_codes in ([0], [-signal.SIGKILL])
    _assert_no_child()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "EVAL_BATCH", EVAL_ROWS)
        got = np.float64(eval_ppl(model, _eval_lines())).tobytes()
    assert len(forks) == 1 and [got] == _one_process("eval helper")[0]


def test_the_eval_helper_scores_with_the_parameters_of_each_batch(forks):
    """After an AdamW step replaces every parameter array, the model's
    helper, forked before it, scores with the new parameters: the bytes
    of a one-process score of a copy of the stepped model."""
    model = _toy_student().clone()
    lines = _eval_lines()
    eval_ppl(model, lines)
    assert len(forks) == 1
    params = model.parameters()
    AdamW(params).step({id(p): np.full_like(p.data, 0.5) for p in params}, 1e-2)
    got = eval_ppl(model, lines)
    with pytest.MonkeyPatch.context() as mp:
        _one_cpu(mp)
        want = eval_ppl(model.clone(), lines)
    assert len(forks) == 1 and got == want
    assert want != eval_ppl(_toy_student().clone(), lines)


@pytest.mark.parametrize("case", ["float64", "hook", "one window a batch", "open tape"])
def test_eval_ppl_forks_no_helper_where_one_process_scores(case, forks, monkeypatch):
    """No row helper in float64, with a hook, for batches of one window
    or inside an open tape: every batch is one forward here."""
    hook = (lambda layer, at, data: data) if case == "hook" else None
    if case == "one window a batch":
        monkeypatch.setattr(training, "EVAL_BATCH", 1)
    with dtype_scope("float64" if case == "float64" else "float32"):
        model = _toy_student().clone()
        if case == "open tape":
            with Graph():
                eval_ppl(model, _eval_lines())
        else:
            eval_ppl(model, _eval_lines(), hook=hook)
    assert not forks


def test_an_eval_helper_that_does_not_fork_is_not_tried_again(no_child, request, forks):
    """Where no helper forks at the model's second batch, the model
    scores every later batch in one process: the helper's mappings are
    made once where the fork itself fails, never where the fork rule or
    the pipes fail, and the score is the one-process bytes."""
    made = []

    def counted(shape, dtype):
        made.append(shape)
        return procs.shared(shape, dtype)

    model = _toy_student().clone()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "EVAL_BATCH", EVAL_ROWS)
        mp.setattr(training, "shared", counted)
        with no_child():
            got = np.float64(eval_ppl(model, _eval_lines())).tobytes()
    fork_fails = request.node.callspec.params["no_child"] == "fork fails"
    assert len(made) == (len(model.parameters()) + 2) * fork_fails
    assert not forks and [got] == _one_process("eval helper")[0]


def test_the_eval_helper_forks_again_for_another_window_width(forks):
    """A model scored at ``seq_len`` 48, then 24, then 48: its row helper
    forks at the second batch and again at each change of window width,
    and each perplexity is the one-process bytes."""
    model, lines = _toy_student().clone(), _eval_lines()
    widths = [SEQ_LEN, SEQ_LEN // 2, SEQ_LEN]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "EVAL_BATCH", EVAL_ROWS)
        got = [np.float64(eval_ppl(model, lines, seq_len=n)).tobytes() for n in widths]
        assert len(forks) == 3
        _one_cpu(mp)
        want = [np.float64(eval_ppl(model.clone(), lines, seq_len=n)).tobytes()
                for n in widths]
    assert len(forks) == 3 and got == want


def test_threads_scoring_one_model_get_the_one_process_score(forks):
    """Once a model's row helper forked, threads that score the model at
    once score in one process each (the helper serves only the thread
    that made it, so they share no pipe and no mappings): every
    perplexity is the one-process bytes, and no thread forks."""
    model, other = _toy_student().clone(), synthetic_corpus(120, seed=9)
    eval_ppl(model, _eval_lines())
    assert len(forks) == 1
    with pytest.MonkeyPatch.context() as mp:
        _one_cpu(mp)
        want = np.float64(eval_ppl(model.clone(), other)).tobytes()
    got = []

    def score():
        for _ in range(10):
            got.append(np.float64(eval_ppl(model, other)).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=score) for _ in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [want] * 30 and len(forks) == 1


def test_eval_ppl_with_its_helper_holds_one_eval_batch_forward(forks):
    _assert_eval_ppl_holds_one_batch(LanguageModel(toy_config(), np.random.default_rng(0)))
    assert len(forks) == 1


EXITS = """
import os
import numpy as np
from spikessm import SPIKING, TILIF, LanguageModel, NeuronConfig, toy_config
from spikessm.training import eval_ppl, synthetic_corpus

os.sched_getaffinity = lambda pid: {0, 1}  # a host where a second process fits
fork, pids = os.fork, []

def counted():
    pid = fork()
    if pid:
        pids.append(pid)
    return pid

os.fork = counted
model = LanguageModel(toy_config(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4)),
                      np.random.default_rng(3))
eval_ppl(model, synthetic_corpus(40, seed=2))  # a batch of 16 windows, then one of 11
print(*pids)
"""


def test_no_helper_outlives_a_process_that_exits():
    """A script whose model's row helper forked, and which exits while
    it holds the model: once it exits, the helper is gone."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    for var in procs.BLAS_THREAD_VARS[1:]:
        env.pop(var, None)
    proc = subprocess.run([sys.executable, "-c", EXITS], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


def test_compensated_distill_maps_no_term_where_no_child_forks(forks):
    """Where no child forks, a one-step compensated ``distill_run`` makes
    no alignment term mapping, only the teacher pass's two outputs; the
    run is the same bytes as where the terms' child forks and maps them."""
    def run():
        made = []

        def counted(shape, dtype):
            made.append(shape)
            return procs.shared(shape, dtype)

        teacher = LanguageModel(tiny_cfg(), np.random.default_rng(5))
        student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                                sgc=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "shared", counted)
            res = distill_run(teacher, student, synthetic_corpus(30, seed=0), steps=1,
                              batch=3, prompt_len=4, total_len=14, n_sequences=6, seed=3)
        return (res.metrics, [t.data.tobytes() for t in student.parameters()]), len(made)

    with pytest.MonkeyPatch.context() as mp:
        _one_cpu(mp)
        alone, mapped_alone = run()
    assert not forks and mapped_alone == 2
    split, mapped = run()
    assert len(forks) == 1 and split == alone
    assert mapped == 2 + 4 * 6 + 1  # per term: three arrays and their gradients; the values
