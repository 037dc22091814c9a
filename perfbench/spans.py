"""Span tracing of spikessm from outside the package.

``Tracer.install`` replaces the public functions of each module with
wrappers that record one span per call: name, start, end, parent span
and the unit of work (setup rep, step, request) the benchmark is in.
Functions imported by name are patched in the namespace of the module
that calls them, methods on their classes. Spans stay in memory until
``write`` is called at exit.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from spikessm import checkpoint, energy, mamba2, training
from spikessm import tensor as tn
from spikessm.mamba2 import LanguageModel
from spikessm.optim import AdamW


def _fixed(name):
    return lambda args, kwargs: name


def _block_forward_label(args, kwargs):
    return f"mamba2.block_forward.L{kwargs.get('layer_idx', 0)}"


def _block_step_label(args, kwargs):
    return f"mamba2.block_step.{kwargs.get('kernel', 'int')}"


def _forward_batch_label(args, kwargs):
    # a forward with no tape open is a reference or evaluation forward
    if tn.active_graph() is None:
        return "mamba2.forward_batch.nograd"
    return "mamba2.forward_batch"


# (owner, attribute, span label); owners are the namespaces the calls resolve in
TARGETS = [
    (tn.Graph, "backward", _fixed("tensor.backward")),
    (LanguageModel, "forward_batch", _forward_batch_label),
    (LanguageModel, "generate_greedy", _fixed("mamba2.generate_greedy")),
    (mamba2, "block_forward", _block_forward_label),
    (mamba2, "block_step", _block_step_label),
    (mamba2, "ssm_scan", _fixed("mamba2.ssm_scan")),
    (mamba2, "neuron_forward", _fixed("neurons.neuron_forward")),
    (mamba2, "quantize", _fixed("neurons.quantize")),
    (mamba2, "expand_spike_train", _fixed("neurons.expand_spike_train")),
    (mamba2, "spike_linear_int", _fixed("spike_kernel.linear_int")),
    (mamba2, "spike_linear_event", _fixed("spike_kernel.linear_event")),
    (training, "kl_distill_loss", _fixed("losses.kl")),
    (training, "hidden_align_loss", _fixed("losses.hidden_align")),
    (training, "dpo_loss", _fixed("losses.dpo")),
    (training, "sequence_logprob", _fixed("losses.sequence_logprob")),
    (AdamW, "step", _fixed("optim.adamw_step")),
    (training, "distill_run", _fixed("training.distill_run")),
    (training, "rl_run", _fixed("training.rl_run")),
    (training, "eval_ppl", _fixed("training.eval_ppl")),
    (training, "generate_pseudo_labels", _fixed("training.pseudo_label")),
    (training, "_teacher_logits", _fixed("training.teacher_logits")),
    (checkpoint, "save", _fixed("checkpoint.save")),
    (checkpoint, "load", _fixed("checkpoint.load")),
    (energy, "count_ops", _fixed("energy.count_ops")),
]


# unit kinds of the timed main loops: training steps and scoring steps
MAIN_KINDS = ("step", "score")


class Tracer:
    """Records spans in memory; ``unit`` tags every span opened under it."""

    def __init__(self) -> None:
        # per span: [label, start, end, parent index, unit]
        self.spans: list[list] = []
        self.unit: tuple = ("none", 0)
        self.tape: tuple[int, int] | None = None  # (nodes, bytes) at the first backward
        self.scan_inputs: tuple | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label(args, kwargs), perf_counter(), None,
                          stack[-1] if stack else -1, self.unit])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def install(self) -> None:
        for owner, attr, label in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, label))
        # counts taken where the work happens: tape size before the first
        # backward, and the inputs of the latest scan for the replay probe
        traced_backward, traced_scan = tn.Graph.backward, mamba2.ssm_scan

        def backward(graph, loss, wrt):
            if self.tape is None:
                self.tape = (len(graph.nodes), sum(node.data.nbytes for node in graph.nodes))
            return traced_backward(graph, loss, wrt)

        def ssm_scan(*inputs):
            if self.unit[0] in MAIN_KINDS:
                self.scan_inputs = tuple(t.data for t in inputs)
            return traced_scan(*inputs)

        tn.Graph.backward = backward
        mamba2.ssm_scan = ssm_scan

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for label, t0, t1, parent, unit in self.spans:
                f.write(json.dumps([label, t0, t1, parent, list(unit)]) + "\n")


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    own = dur.copy()
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            own[s[3]] -= d
    return own


class SpanTable:
    """Self and inclusive seconds summed per (label, unit kind)."""

    def __init__(self, spans: list[list]) -> None:
        own = self_times(spans)
        self.self_s: dict[tuple, float] = defaultdict(float)
        self.incl_s: dict[tuple, float] = defaultdict(float)
        self.calls: dict[tuple, int] = defaultdict(int)
        self.units: dict[str, set] = defaultdict(set)
        self.per_unit_incl: dict[tuple, dict] = defaultdict(lambda: defaultdict(float))
        for s, o in zip(spans, own):
            label, t0, t1, _, unit = s
            key = (label, unit[0])
            self.self_s[key] += o
            self.incl_s[key] += t1 - t0
            self.calls[key] += 1
            self.units[unit[0]].add(unit)
            self.per_unit_incl[key][unit] += t1 - t0

    def n_units(self, kind: str) -> int:
        return len(self.units.get(kind, ()))


def replay_scan_backward(inputs: tuple, repeats: int = 5) -> float:
    """Seconds for one backward of ``ssm_scan`` on captured inputs (median)."""
    times = []
    g_out = None
    for _ in range(repeats):
        leaves = [tn.parameter(a) for a in inputs]
        with tn.Graph() as g:
            out = mamba2.ssm_scan(*leaves)
            if g_out is None:
                g_out = np.random.default_rng(0).standard_normal(out.shape)
            loss = tn.sum_(out * tn.Tensor(g_out))
        t0 = perf_counter()
        g.backward(loss, wrt=leaves)
        times.append(perf_counter() - t0)
    return float(np.median(times))


def layer_metrics(tracer: Tracer, audit: dict, n_layers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Times are self times unless named otherwise, per main-loop step
    (training or scoring step) or per token the model stepped through
    in the serve requests. A layer the workload never calls reads 0.
    """
    t = SpanTable(tracer.spans)
    main = "score" if t.n_units("score") else "step"
    n_main = max(1, t.n_units(main))
    tok = {k: t.calls[(f"mamba2.block_step.{k}", "request")] / n_layers
           for k in ("matmul", "int", "event")}
    all_tok = max(1.0, sum(tok.values()))

    def per_step(label):
        return 1e3 * t.self_s[(label, main)] / n_main

    def per_token(label, tokens):
        return 1e3 * t.self_s[(label, "request")] / max(1.0, tokens)

    def setup_median(label, scale):
        reps = t.per_unit_incl.get((label, "setup"))
        return scale * float(np.median(list(reps.values()))) if reps else 0.0

    fwd = ("mamba2.forward_batch", "mamba2.forward_batch.nograd")
    nodes, nbytes = tracer.tape or (0, 0)
    scan_bwd = replay_scan_backward(tracer.scan_inputs) if tracer.scan_inputs else 0.0
    m = {
        "tensor.backward_ms": (per_step("tensor.backward"), "ms"),
        "tensor.ssm_scan_bwd_ms": (1e3 * scan_bwd, "ms"),
        "tensor.tape_nodes": (nodes, "count"),
        "tensor.tape_mb": (nbytes / 1e6, "MB"),
        "mamba2.forward_batch_ms": (sum(per_step(f) for f in fwd), "ms"),
        "mamba2.ssm_scan_fwd_ms": (per_step("mamba2.ssm_scan"), "ms"),
        "mamba2.generate_greedy_self_ms": (per_token("mamba2.generate_greedy", all_tok), "ms"),
        "neurons.neuron_forward_ms": (per_step("neurons.neuron_forward"), "ms"),
        "neurons.quantize_ms": (per_token("neurons.quantize", all_tok), "ms"),
        "neurons.expand_spike_train_ms": (
            per_token("neurons.expand_spike_train", tok["event"]), "ms"),
        "spike_kernel.linear_int_ms": (per_token("spike_kernel.linear_int", tok["int"]), "ms"),
        "spike_kernel.linear_event_ms": (
            per_token("spike_kernel.linear_event", tok["event"]), "ms"),
        "spike_kernel.accumulations_per_tok": (audit["accumulations_per_tok"], "count"),
        "energy.op_count_ratio": (audit["op_count_ratio"], "ratio"),
        "losses.kl_ms": (per_step("losses.kl"), "ms"),
        "losses.hidden_align_ms": (per_step("losses.hidden_align"), "ms"),
        "losses.dpo_ms": (per_step("losses.dpo"), "ms"),
        "losses.sequence_logprob_ms": (per_step("losses.sequence_logprob"), "ms"),
        "optim.adamw_step_ms": (per_step("optim.adamw_step"), "ms"),
        "training.pseudo_label_s": (setup_median("training.pseudo_label", 1.0), "s"),
        "training.teacher_logits_s": (setup_median("training.teacher_logits", 1.0), "s"),
        # forwards with no tape inside a training step: the frozen reference
        "training.reference_fwd_ms": (
            1e3 * t.incl_s[("mamba2.forward_batch.nograd", "step")] / n_main, "ms"),
        "training.forwards_per_step": (
            sum(t.calls[(f, main)] for f in fwd) / n_main, "count"),
        "checkpoint.save_ms": (setup_median("checkpoint.save", 1e3), "ms"),
        "checkpoint.load_ms": (setup_median("checkpoint.load", 1e3), "ms"),
    }
    for i in range(n_layers):
        m[f"mamba2.block_forward_ms.L{i}"] = (per_step(f"mamba2.block_forward.L{i}"), "ms")
    for k, n in tok.items():
        m[f"mamba2.block_step_ms.{k}"] = (per_token(f"mamba2.block_step.{k}", n), "ms")
    for site in ("in", "out"):
        for i in range(n_layers):
            m[f"neurons.fr_{site}.L{i}"] = (audit[f"fr_{site}.L{i}"], "ratio")
    return m
