"""The names and call shapes the benchmark in ``perfbench/`` relies on.

The benchmark patches library functions by name and reads keyword
arguments of ``block_step`` calls, so a refactor that renames or
re-signatures one of them breaks it. These tests run its tracer, its
event-kernel audit and the stand-ins it puts into ``training`` on a
small untrained model.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spikessm import SPIKING, TILIF, LanguageModel, NeuronConfig, mamba2, toy_config, training
from spikessm import tensor as tn
from spikessm.training import synthetic_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
        yield spans, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def _student():
    teacher = LanguageModel(toy_config(), np.random.default_rng(5))
    return teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4), sgc=True)


def test_tracer_installs_and_uninstalls(bench):
    spans, _ = bench
    originals = (mamba2.block_step, mamba2.ssm_scan, tn.Graph.backward)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mamba2.block_step is not originals[0]
        LanguageModel(toy_config(), np.random.default_rng(0)).generate_greedy(np.array([[1, 2, 3]]), 2)
    finally:
        tracer.uninstall()
    assert (mamba2.block_step, mamba2.ssm_scan, tn.Graph.backward) == originals
    assert {s[0] for s in tracer.spans} >= {"mamba2.generate_greedy",
                                            "mamba2.block_step.matmul"}


def test_event_audit_passes_on_untrained_student(bench):
    _, workloads = bench
    prompts = workloads.prompts_for(synthetic_corpus(40, seed=5), 1, seed=5)
    checks = workloads.Checks()
    audit = workloads.event_audit(_student(), prompts, checks)
    assert checks.attempted > 0 and checks.failed == 0, checks.notes
    assert audit["op_count_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_served_setup_stands_in_for_distill_set_up(bench):
    _, workloads = bench
    lines = synthetic_corpus(40, seed=5)
    teacher = LanguageModel(toy_config(), np.random.default_rng(5))
    seqs = training.generate_pseudo_labels(teacher, lines, n_sequences=8, prompt_len=8,
                                           total_len=16, seed=5)
    logits = training._teacher_logits(teacher, seqs, 8)
    originals = training.generate_pseudo_labels, training._teacher_logits
    with workloads.served_setup(seqs, logits):
        assert training.generate_pseudo_labels is not originals[0]
        training.distill_run(teacher, _student(), lines, steps=2, batch=4, prompt_len=8,
                             total_len=16, n_sequences=8, seed=5)
        # each stand-in puts the original back when it is called
        assert (training.generate_pseudo_labels, training._teacher_logits) == originals
    assert (training.generate_pseudo_labels, training._teacher_logits) == originals


def test_around_optimizer_times_every_rl_step(bench):
    _, workloads = bench
    p = workloads.Pass()
    serve = SimpleNamespace(run_until=lambda share: None)
    loop = workloads.MainLoop(2, "align", serve, p, set_unit=lambda unit: None)
    pref = training.synth_preference_lines(synthetic_corpus(40, seed=5), 8, 5, "dpo")
    examples = [training.parse_preference_line(line, "dpo") for line in pref]
    saved = training.AdamW
    with loop.around_optimizer():
        assert training.AdamW is not saved
        training.rl_run(_student(), examples, method="dpo", steps=2, batch=2, seed=5)
    assert training.AdamW is saved
    assert len(p.step) == 2 and loop.done == 2


def test_infer_and_align_set_ups_build_their_models(bench, tmp_path):
    _, workloads = bench
    infer = workloads.setup_infer(5, tmp_path)
    # the check main_infer makes: the round trip reproduces the saved student
    saved, loaded = infer["saved"].named_parameters(), infer["model"].named_parameters()
    assert [n for n, _ in saved] == [n for n, _ in loaded]
    assert all(np.array_equal(a.data, b.data) for (_, a), (_, b) in zip(saved, loaded))
    assert list(tmp_path.iterdir()) == []
    align = workloads.setup_align(5, tmp_path)
    assert align["model"].cfg == infer["model"].cfg and align["examples"]
