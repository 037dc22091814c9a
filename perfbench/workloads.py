"""The three benchmark workloads and the serving they share.

Each workload is one closed loop in one process: a single caller sends
the next call into the library only after the previous one returned.

* ``distill``: what ``spikessm distill`` runs. Set-up makes 192 teacher
  pseudo-labels of 64 tokens and the teacher logits; the main loop is
  ``distill_run`` steps at B8 T64 (spiking forward, compensation path,
  KL plus hidden alignment, backward, AdamW).
* ``align``: what ``spikessm rl --method dpo`` runs on the spiking
  student, batch 4 and lr 5e-6; every step is 16 B=1 forwards, half of
  them frozen-reference forwards with recording paused.
* ``infer``: set-up is a checkpoint round trip of the student; the main
  loop scores documents with ``eval_ppl`` (B<=16 T48, no tape).

Every workload also runs 128 ``eval_ppl`` passes over a prefix of the
seeded corpus (16 windows) on the model it is working on, and ``infer``
serves greedy requests at B=1 (16-token prompt, 48 new tokens) once per
projection kernel. This serving runs in 40 blocks between main-loop
steps, as a training loop's periodic evaluation would, so the samples
of every metric span the whole run and a stretch of machine noise
cannot cover all of them.
Step times exclude the blocks. Every timed sample (set-up, step, eval
pass) is followed by the reference work of ``ruler``, outside its time.
All inputs derive from the seed: the corpus, the untrained teacher's
weights and the prompts.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from spikessm import (
    SPIKING,
    TILIF,
    LanguageModel,
    NeuronConfig,
    checkpoint,
    energy,
    mamba2,
    toy_config,
    training,
)
from spikessm.energy import IN_PROJ, OUT_PROJ, Geometry
from spikessm.losses import np_log_softmax
from spikessm.neurons import collapse_spike_train
from spikessm.optim import AdamW
from spikessm.spike_kernel import OpCounter, fire_stats_from_ints
from spikessm.tokenizer import tokenize

from ruler import Series

KERNELS = ("matmul", "int", "event")
PROMPT_LEN = 16
MAX_NEW = 48
CORPUS_LINES = 400
# Many short eval passes rather than a few long ones: the reference
# time taken right after a pass stands for the machine's speed during a
# short pass better than during a long one. Every pass scores exactly
# one full batch of 16 windows, so its work does not depend on the seed.
EVAL_PASSES = 128
EVAL_WINDOWS = 16
AUDIT_PROMPTS = 4
SERVE_BLOCKS = 40
SCORE_TOKENS = 16 * 49  # one eval_ppl batch of 16 windows of 48+1 tokens
# The sparse kernels sum in another order than the dense product, so in
# float32 they agree to rounding, not bit for bit (the package's own
# equivalence check allows 1e-5). A quantizer input that rounding moves
# across a half-integer then changes one spike and can change a greedy
# token, so greedy ids are compared and counted, not required equal.
KERNEL_TOL = 1e-5

# Work per second of ``--seconds`` at the speed of a 2-core Xeon
# (Sapphire Rapids, KVM guest) with one BLAS thread. Counts, not clocks,
# bound each loop, so every run of a seed does the same work.
STEPS_PER_S = {"distill": 15.0, "align": 12.0, "infer": 50.0}
MAIN_SHARE = 0.8           # of --seconds; eval passes and requests get the rest
# one request = one prompt through every kernel; only ``infer`` serves them
REQUESTS_PER_S = {"distill": 0.0, "align": 0.0, "infer": 1.5}
SETUP_REPS = {"distill": 5, "align": 41, "infer": 41}


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class Pass:
    """Raw timings of one pass over a workload."""

    # a set-up takes up to a second, in as few as five reps a run
    setup: Series = field(default_factory=lambda: Series(ref_reps=5))
    step: Series = field(default_factory=Series)
    eval: Series = field(default_factory=Series)
    eval_tokens: int = 0
    prefill_ms: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in KERNELS})
    decode_ms: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in KERNELS})
    # requests whose greedy ids left the matmul kernel's; see KERNEL_TOL
    divergent: dict[str, int] = field(default_factory=lambda: {"int": 0, "event": 0})
    audit: dict = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)


def _models(seed: int) -> tuple[list[str], LanguageModel, LanguageModel]:
    lines = training.synthetic_corpus(CORPUS_LINES, seed)
    teacher = LanguageModel(toy_config(), np.random.default_rng(seed))
    student = teacher.clone(mode=SPIKING, neuron=NeuronConfig(kind=TILIF, d_max=4),
                            sgc=True)
    return lines, teacher, student


# ---------------------------------------------------------------------------
# serving

def prompts_for(lines: list[str], n: int, seed: int) -> np.ndarray:
    stream = training.token_stream(lines)
    rng = np.random.default_rng(seed + 2)
    return training.sample_windows(stream, n, PROMPT_LEN, rng)


def eval_lines(lines: list[str]) -> list[str]:
    """The shortest prefix of ``lines`` that ``eval_ppl`` cuts into
    ``EVAL_WINDOWS`` windows of 48+1 tokens (every line is shorter than
    a window, so the count passes through it)."""
    size = 0
    for n, line in enumerate(lines, 1):
        size += tokenize(line).size
        if size // 49 == EVAL_WINDOWS:
            return lines[:n]
    raise ValueError(f"corpus shorter than {EVAL_WINDOWS} eval windows")


def interleave(items: list, extra: list) -> None:
    """Insert ``extra`` into ``items`` at evenly spaced places, in order."""
    n = len(items)
    for k in reversed(range(len(extra))):
        items.insert(round(k * n / len(extra)), extra[k])


class Serve:
    """Eval passes and greedy requests, run a share at a time."""

    def __init__(self, model: LanguageModel, lines: list[str], n_requests: int,
                 seed: int, p: Pass, set_unit) -> None:
        self.model, self.lines, self.p, self.set_unit = model, lines, p, set_unit
        self.eval_lines = eval_lines(lines)
        p.eval_tokens = training.token_stream(self.eval_lines).size // 49 * 48
        self.items = []
        if n_requests:
            self.items = [(self.request, (j, prompt[None, :])) for j, prompt in
                          enumerate(prompts_for(lines, n_requests, seed))]
        interleave(self.items, [(self.eval_pass, i) for i in range(EVAL_PASSES)])
        self.done = 0

    def run_until(self, share: float) -> None:
        while self.done < round(share * len(self.items)):
            fn, arg = self.items[self.done]
            fn(arg)
            self.done += 1

    def eval_pass(self, i: int) -> None:
        self.set_unit(("eval", i))
        t0 = perf_counter()
        ppl = training.eval_ppl(self.model, self.eval_lines)
        self.p.eval.add(perf_counter() - t0)
        self.p.checks.expect(math.isfinite(ppl) and ppl >= 1.0, f"eval: perplexity {ppl!r}")

    def request(self, arg) -> None:
        j, prompt = arg
        p, outs = self.p, {}
        for kernel in KERNELS:
            self.set_unit(("request", kernel, j))
            t0 = perf_counter()
            self.model.generate_greedy(prompt, 0, kernel=kernel)
            t1 = perf_counter()
            outs[kernel] = self.model.generate_greedy(prompt, MAX_NEW, kernel=kernel)
            t2 = perf_counter()
            p.prefill_ms[kernel].append((t1 - t0) * 1e3)
            p.decode_ms[kernel].append(((t2 - t1) - (t1 - t0)) * 1e3 / MAX_NEW)
        for kernel in ("int", "event"):
            p.divergent[kernel] += not np.array_equal(outs[kernel], outs["matmul"])


class MainLoop:
    """Times main-loop steps and runs a serve block after every
    ``n_steps / SERVE_BLOCKS`` of them, outside the step times."""

    def __init__(self, n_steps: int, kind: str, serve: Serve, p: Pass, set_unit) -> None:
        self.n_steps, self.kind, self.serve, self.p = n_steps, kind, serve, p
        self.set_unit = set_unit
        self.every = max(1, n_steps // SERVE_BLOCKS)
        self.done = 0
        self.t0 = 0.0

    def start(self) -> None:
        self.set_unit((self.kind, self.done))
        self.t0 = perf_counter()

    def stop(self) -> None:
        self.p.step.add(perf_counter() - self.t0)
        self.done += 1
        if self.done % self.every == 0:
            self.serve.run_until(self.done / self.n_steps)

    @contextmanager
    def around_optimizer(self):
        """``distill_run`` and ``rl_run`` build their AdamW right before the
        step loop and step it last in every iteration, so its creation
        and its steps bound each training step."""
        loop = self

        class ClockedAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                loop.start()

            def step(self, *args, **kwargs):
                super().step(*args, **kwargs)
                loop.stop()
                loop.start()

        saved = training.AdamW
        training.AdamW = ClockedAdamW
        try:
            yield
        finally:
            training.AdamW = saved


@contextmanager
def served_setup(seqs: np.ndarray, logits: np.ndarray):
    """Hand ``distill_run`` the pseudo-labels the timed set-up already made,
    so its step loop is all the main loop holds. ``distill_run`` calls
    each function once, before its loop; each stand-in then puts the
    original back, so set-up reps during the loop run the real ones."""
    saved = training.generate_pseudo_labels, training._teacher_logits

    def labels(*args, **kwargs):
        training.generate_pseudo_labels = saved[0]
        return seqs

    def teacher_logits(*args, **kwargs):
        training._teacher_logits = saved[1]
        return logits

    training.generate_pseudo_labels, training._teacher_logits = labels, teacher_logits
    try:
        yield
    finally:
        training.generate_pseudo_labels, training._teacher_logits = saved


# ---------------------------------------------------------------------------
# set-up

def setup_distill(seed: int, out_dir) -> dict:
    lines, teacher, student = _models(seed)
    seqs = training.generate_pseudo_labels(teacher, lines, n_sequences=192,
                                           prompt_len=8, total_len=64, seed=seed)
    logits = training._teacher_logits(teacher, seqs, 8)
    return {"lines": lines, "model": student, "teacher": teacher,
            "seqs": seqs, "teacher_logits": logits}


def setup_align(seed: int, out_dir) -> dict:
    lines, _, student = _models(seed)
    pref = training.synth_preference_lines(training.synthetic_corpus(200, seed),
                                           200, seed, "dpo")
    examples = [training.parse_preference_line(p, "dpo") for p in pref]
    return {"lines": lines, "model": student, "examples": examples}


def setup_infer(seed: int, out_dir) -> dict:
    lines, _, student = _models(seed)
    path = os.path.join(out_dir, f"infer-{seed}-{os.getpid()}.spkm")
    try:
        checkpoint.save(path, student)
        loaded = checkpoint.load(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return {"lines": lines, "model": loaded, "saved": student}


SETUP = {"distill": setup_distill, "align": setup_align, "infer": setup_infer}


# ---------------------------------------------------------------------------
# main loops

def main_distill(state: dict, loop: MainLoop, seed: int, p: Pass) -> None:
    n = loop.n_steps
    with served_setup(state["seqs"], state["teacher_logits"]), loop.around_optimizer():
        result = training.distill_run(state["teacher"], state["model"], state["lines"],
                                      steps=n, batch=8, prompt_len=8,
                                      total_len=64, n_sequences=192, seed=seed)
    kl = np.array([r["loss_kl"] for r in result.metrics])
    total = np.array([r["loss_total"] for r in result.metrics])
    tenth = max(1, n // 10)
    p.checks.expect(bool(np.isfinite(total).all() and np.isfinite(kl).all()),
                    "distill: non-finite loss")
    p.checks.expect(bool((kl >= 0).all()), "distill: negative KL")
    p.checks.expect(kl[-tenth:].mean() < kl[:tenth].mean(),
                    "distill: KL did not fall from the first to the last tenth")


def main_align(state: dict, loop: MainLoop, seed: int, p: Pass) -> None:
    n = loop.n_steps
    with loop.around_optimizer():
        rows = training.rl_run(state["model"], state["examples"], method="dpo",
                               steps=n, batch=4, lr=5e-6, seed=seed)
    loss = np.array([r["loss"] for r in rows])
    p.checks.expect(bool(np.isfinite(loss).all()), "align: non-finite loss")
    p.checks.expect(abs(loss[0] - math.log(2.0)) <= 1e-6,
                    f"align: first DPO loss {loss[0]!r} is not ln 2")


def score_documents(lines: list[str]) -> list[list[str]]:
    """Consecutive line groups of at most one eval batch of tokens each."""
    docs, cur, size = [], [], 0
    for line in lines:
        toks = len(line.encode()) + 2
        if cur and size + toks > SCORE_TOKENS:
            docs.append(cur)
            cur, size = [], 0
        cur.append(line)
        size += toks
    return docs


def main_infer(state: dict, loop: MainLoop, seed: int, p: Pass) -> None:
    docs = score_documents(training.synthetic_corpus(40 * loop.n_steps, seed + 1))
    for doc in docs[:loop.n_steps]:
        loop.start()
        ppl = training.eval_ppl(state["model"], doc)
        loop.stop()
        p.checks.expect(math.isfinite(ppl) and ppl >= 1.0,
                        f"infer: document perplexity {ppl!r}")
    same = all(np.array_equal(a.data, b.data) for (_, a), (_, b) in
               zip(state["saved"].named_parameters(), state["model"].named_parameters()))
    p.checks.expect(same, "infer: checkpoint round trip changed parameters")


MAIN = {"distill": main_distill, "align": main_align, "infer": main_infer}


# ---------------------------------------------------------------------------
# untimed checks

def check_eval(model: LanguageModel, lines: list[str], checks: Checks) -> None:
    """``eval_ppl`` against a recomputation with another batching."""
    ppl = training.eval_ppl(model, lines)
    stream = training.token_stream(lines)
    n_win = stream.size // 49
    windows = stream[: n_win * 49].reshape(n_win, 49)
    nll = []
    for i in range(0, n_win, 32):  # eval_ppl batches by 16
        logits, _ = model.forward_batch(windows[i:i + 32, :-1])
        logp = np_log_softmax(logits.data.astype(np.float64))
        nll.append(-np.take_along_axis(logp, windows[i:i + 32, 1:, None], axis=-1))
    ref = math.exp(np.concatenate(nll).mean())
    checks.expect(abs(ppl - ref) <= 1e-4 * ref,
                  f"eval: eval_ppl {ppl!r} disagrees with a recomputation {ref!r}")


def event_audit(model: LanguageModel, prompts: np.ndarray, checks: Checks) -> dict:
    """Kernel agreement, fire rates and event-kernel accumulations on a
    fixed set of requests.

    Every sparse projection is compared with the dense product of the
    same weights and activations, to the float32 tolerance the package's
    own equivalence check uses. Accumulations are reconciled with the
    analytic operation counts at the measured rates.
    """
    cfg = model.cfg
    k = cfg.micro_steps
    ops = OpCounter()
    stats: dict[str, list] = {"in": [None] * cfg.n_layers, "out": [None] * cfg.n_layers}
    worst = {"int": 0.0, "event": 0.0}
    tokens = 0
    saved = mamba2.block_step, mamba2.spike_linear_int, mamba2.spike_linear_event

    def block_step(*args, **kwargs):
        nonlocal tokens
        y, st, aux = saved[0](*args, **kwargs)
        if kwargs["kernel"] == "event":
            layer = kwargs["layer_idx"]
            tokens += layer == 0
            for site, s in (("in", aux.s_in), ("out", aux.s_out)):
                fs = fire_stats_from_ints(s, k)
                prev = stats[site][layer]
                stats[site][layer] = fs if prev is None else prev.merged(fs)
        return y, st, aux

    def agree(kernel, y, W, s):
        err = float(np.max(np.abs(y - W @ s.astype(W.dtype)), initial=0.0))
        worst[kernel] = max(worst[kernel], err)
        return y

    def spike_linear_int(W, s):
        return agree("int", saved[1](W, s), W, s)

    def spike_linear_event(W, train, counter=None):
        return agree("event", saved[2](W, train, counter=ops), W,
                     collapse_spike_train(train))

    mamba2.block_step, mamba2.spike_linear_int, mamba2.spike_linear_event = (
        block_step, spike_linear_int, spike_linear_event)
    try:
        for prompt in prompts:
            for kernel in ("int", "event"):
                model.generate_greedy(prompt[None, :], MAX_NEW, kernel=kernel)
    finally:
        mamba2.block_step, mamba2.spike_linear_int, mamba2.spike_linear_event = saved

    for kernel, err in worst.items():
        checks.expect(err <= KERNEL_TOL,
                      f"kernels: {kernel} projection differs from dense by {err:.3g}")
    merged = {site: s[0] for site, s in stats.items()}
    for site, per_layer in stats.items():
        for fs in per_layer[1:]:
            merged[site] = merged[site].merged(fs)
    geom = Geometry(cfg.d_model, cfg.n_state, cfg.n_heads, cfg.d_head, cfg.n_layers)
    rows = energy.count_ops(geom, "tilif", merged["in"].rate, merged["out"].rate, k)
    predicted = tokens * sum(r.count for r in rows if r.name in (IN_PROJ, OUT_PROJ))
    ratio = ops.accumulations / predicted
    checks.expect(abs(ratio - 1.0) <= 1e-9,
                  f"energy: event accumulations / count_ops = {ratio!r}")
    out = {"accumulations_per_tok": ops.accumulations / tokens, "op_count_ratio": ratio}
    for site, per_layer in stats.items():
        for i, fs in enumerate(per_layer):
            out[f"fr_{site}.L{i}"] = fs.rate
    return out


def run_pass(workload: str, seed: int, seconds: float, out_dir, tracer=None) -> Pass:
    """Set up, then run the main loop with serving and the remaining
    ``SETUP_REPS`` set-ups between its steps, then the untimed checks."""
    p = Pass()

    def set_unit(unit):
        if tracer is not None:
            tracer.unit = unit

    def timed_setup(rep: int) -> dict:
        set_unit(("setup", rep))
        t0 = perf_counter()
        state = SETUP[workload](seed, out_dir)
        p.setup.add(perf_counter() - t0)
        return state

    state = timed_setup(0)
    n_requests = round(REQUESTS_PER_S[workload] * seconds)
    serve = Serve(state["model"], state["lines"], n_requests, seed, p, set_unit)
    interleave(serve.items, [(timed_setup, r) for r in range(1, SETUP_REPS[workload])])
    n_steps = max(10, round(STEPS_PER_S[workload] * seconds * MAIN_SHARE))
    kind = "score" if workload == "infer" else "step"
    MAIN[workload](state, MainLoop(n_steps, kind, serve, p, set_unit), seed, p)
    serve.run_until(1.0)

    set_unit(("check", 0))
    check_eval(state["model"], state["lines"], p.checks)
    p.audit = event_audit(state["model"], prompts_for(state["lines"], AUDIT_PROMPTS, seed),
                          p.checks)
    return p
