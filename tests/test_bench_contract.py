"""The names and call shapes the benchmark in ``perfbench/`` relies on.

The benchmark patches library functions by name and reads keyword
arguments of ``block_step`` calls, so a refactor that renames or
re-signatures one of them breaks it. These tests run its tracer and its
event-kernel audit on a small untrained model.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from spikessm import SPIKING, TILIF, LanguageModel, NeuronConfig, mamba2, toy_config
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
        LanguageModel(toy_config()).generate_greedy(np.array([[1, 2, 3]]), 2)
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
