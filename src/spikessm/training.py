"""Toy-scale training: teacher pretraining, single-stage distillation
onto a spiking student, and preference optimization, each a set-up and
one step of the shared loop :func:`optimise`.

Everything is deterministic under a fixed seed: data sampling uses one
generator, and a metrics row is a plain dict whose keys are its file's
columns; the CLI owns every file a run reads or writes. The loop runs in
one thread. Where a second process fits (:func:`_second_process_fits`),
three pieces of work run in a forked child beside it: half of the
distillation set-up's teacher pass, ``rl_run``'s reference forwards and
``distill_run``'s alignment terms. Each gives the bytes of one process.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .losses import (
    cross_entropy_loss,
    dpo_loss,
    hidden_term_weight,
    kl_distill_loss,
    kto_loss,
    sequence_logprob,
    total_distill_loss,
)
from .mamba2 import (
    SPIKING,
    Hook,
    LanguageModel,
    hidden_align_loss,
    sgc_forward,
)
from .optim import AdamW, lr_schedule
from .tensor import (
    ContractError,
    Graph,
    Tensor,
    custom_op,
    default_dtype,
    narrow,
    parameter,
)
from .tokenizer import EOS, tokenize

# ---------------------------------------------------------------------------
# synthetic corpus

_SUBJECTS = ["the spike", "the state", "a signal", "the stream", "the gate"]
_VERBS = ["rides", "holds", "opens", "follows", "remembers"]
_OBJECTS = ["the slow river", "a quiet pulse", "the long memory",
            "the next token", "a narrow path"]


def synthetic_corpus(n_lines: int = 400, seed: int = 0) -> list[str]:
    """Short templated sentences over a tiny vocabulary; easy to memorize.
    The (subject, verb, object) picks of all lines are one bulk draw,
    which numpy serves from the same stream as one draw per pick."""
    if n_lines < 0:
        raise ContractError(f"line count must be >= 0, got {n_lines}")
    rng = np.random.default_rng(seed)
    picks = rng.integers((len(_SUBJECTS), len(_VERBS), len(_OBJECTS)), size=(n_lines, 3))
    return [f"{_SUBJECTS[s]} {_VERBS[v]} {_OBJECTS[o]}." for s, v, o in picks.tolist()]


def token_stream(lines: list[str]) -> np.ndarray:
    """One long id stream, each line framed by BOS/EOS."""
    if not lines:
        raise ContractError("empty corpus")
    return np.concatenate([tokenize(line) for line in lines])


def require_window(stream: np.ndarray, width: int, *, sampled: bool = False) -> None:
    """ContractError unless ``stream`` holds one window of ``width`` tokens,
    the one length rule for every corpus a run cuts windows from. A
    ``sampled`` window's start is drawn from ``[0, stream.size - width)``,
    so it needs one token more than a consecutive one."""
    need = width + 1 if sampled else width
    if stream.size < need:
        kind = "training" if sampled else "evaluation"
        raise ContractError(f"corpus shorter than one {kind} window: "
                            f"{stream.size} tokens, {need} needed")


def require_positive(**sizes: int) -> None:
    """ContractError naming the first of ``sizes`` below 1."""
    for name, value in sizes.items():
        if value < 1:
            raise ContractError(f"{name} must be >= 1, got {value}")


def sample_windows(stream: np.ndarray, batch: int, width: int,
                   rng: np.random.Generator) -> np.ndarray:
    require_window(stream, width, sampled=True)
    starts = rng.integers(0, stream.size - width, size=batch)
    return np.stack([stream[s:s + width] for s in starts])


# ---------------------------------------------------------------------------
# the optimisation loop

def optimise(params: list[Tensor], steps: int, lr: float,
             record_step: Callable[[int], tuple[Graph, Tensor, dict]]) -> list[dict]:
    """``steps`` AdamW steps over ``params``, the optimizer built through
    this module's name; returns the metrics rows ``{"step": step, **row,
    "lr": rate}`` at each step's :func:`optim.lr_schedule` rate.
    ``record_step(step)`` records one step and returns ``(graph, loss,
    row)``; as a plain function, what it names but does not return is
    freed before the walk."""
    opt = AdamW(params)
    rows = []
    for step in range(steps):
        cur_lr = lr_schedule(step, steps, lr)
        graph, loss, row = record_step(step)
        opt.step(graph.backward(loss, wrt=params), cur_lr)
        rows.append({"step": step, **row, "lr": cur_lr})
    return rows


# ---------------------------------------------------------------------------
# teacher pretraining

SEQ_LEN = 48  # tokens a window predicts where a run sets no length


def train_teacher(model: LanguageModel, lines: list[str], *, steps: int = 1200,
                  batch: int = 16, seq_len: int = SEQ_LEN, lr: float = 3e-3,
                  seed: int = 0) -> list[dict]:
    require_positive(steps=steps, batch=batch, seq_len=seq_len)
    stream = token_stream(lines)
    rng = np.random.default_rng(seed)

    def record_step(step):
        window = sample_windows(stream, batch, seq_len + 1, rng)
        with Graph() as g:
            logits = model.forward_batch(window[:, :-1])[0]
            loss = cross_entropy_loss(logits, window[:, 1:])
        return g, loss, {"loss": loss.item()}

    return optimise(model.parameters(), steps, lr, record_step)


# rows per no-tape batched pass: eval_ppl's windows and the teacher
# trunk over the pseudo-labels, so the distillation set-up holds no
# larger forward beside the run's distillation targets
EVAL_BATCH = 16


def eval_ppl(model: LanguageModel, lines: list[str], *, seq_len: int = SEQ_LEN,
             hook: Hook | None = None) -> float:
    """exp(mean next-token cross entropy) over consecutive corpus windows,
    :data:`EVAL_BATCH` windows a forward.

    ``hook`` is passed to every forward (see :func:`mamba2.block_forward`).
    """
    require_positive(seq_len=seq_len)
    stream = token_stream(lines)
    width = seq_len + 1
    require_window(stream, width)
    n_win = stream.size // width
    windows = stream[: n_win * width].reshape(n_win, width)
    total, count = 0.0, 0
    for i in range(0, n_win, EVAL_BATCH):
        chunk = windows[i:i + EVAL_BATCH]
        logits = model.forward_batch(chunk[:, :-1], hook=hook)[0]
        ce = cross_entropy_loss(logits, chunk[:, 1:]).item()
        del logits  # not held while the next batch's forward runs
        total += ce * chunk[:, 1:].size
        count += chunk[:, 1:].size
    return float(np.exp(total / count))


# ---------------------------------------------------------------------------
# distillation

@dataclass
class DistillResult:
    student: LanguageModel
    metrics: list[dict] = field(default_factory=list)

    @property
    def initial_kl(self) -> float:
        return self.metrics[0]["loss_kl"]

    @property
    def final_kl(self) -> float:
        return self.metrics[-1]["loss_kl"]


def generate_pseudo_labels(teacher: LanguageModel, lines: list[str], *,
                           n_sequences: int = 192, prompt_len: int = 8,
                           total_len: int = 64, seed: int = 0
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy teacher continuations of ``n_sequences`` sampled corpus
    prompts, fixed total length, and the teacher's distillation targets
    over them.

    A greedy continuation is a function of its prompt, so only the
    distinct prompts are decoded and scored (:func:`teacher_pass`).
    Returns ``(sequences, rows, targets)``: the (m, total_len)
    continuations of the m distinct prompts in ``np.unique`` order, the
    (n_sequences,) index of each sampled row's sequence, and the
    sequences' :func:`teacher_targets`. This is the distillation set-up's
    one dedupe."""
    require_positive(n_sequences=n_sequences, prompt_len=prompt_len)
    if total_len <= prompt_len:
        raise ContractError(f"total_len must exceed prompt_len {prompt_len}, "
                            f"got {total_len}")
    stream = token_stream(lines)
    rng = np.random.default_rng(seed)
    prompts = sample_windows(stream, n_sequences, prompt_len, rng)
    distinct, rows = np.unique(prompts, axis=0, return_inverse=True)
    sequences, targets = teacher_pass(teacher, distinct, total_len - prompt_len)
    return sequences, rows, targets


def teacher_pass(teacher: LanguageModel, prompts: np.ndarray,
                 max_new: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sequences, targets)``: the (m, T) greedy continuations of m
    prompts by the ``matmul`` kernel, and their :func:`teacher_targets`,
    both in anonymous shared mappings. ``label(lo, hi)`` writes rows
    ``[lo, hi)`` of each; where :func:`_splits` holds, a forked child
    labels rows ``m // 2`` on (:func:`_in_two_processes`). The bytes are
    one process's: each half decodes at least ``SPLIT_ROWS`` rows, and a
    trunk row is the same bytes in any row batch. An error in either half
    is raised with its type and message."""
    m, T0 = prompts.shape
    dtype = teacher.embedding.data.dtype
    seqs = _shared((m, T0 + max_new), np.int64)
    out = _shared((m, T0 + max_new, teacher.cfg.d_model), dtype)

    def label(lo: int, hi: int) -> None:
        seqs[lo:hi] = teacher.generate_greedy(prompts[lo:hi], max_new, kernel="matmul")
        teacher_targets(teacher, seqs[lo:hi], out[lo:hi])

    if _splits(m, dtype):
        _in_two_processes(lambda: label(0, m // 2), lambda: label(m // 2, m))
    else:
        label(0, m)
    return seqs, out


def teacher_targets(teacher: LanguageModel, sequences: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The distillation targets of (m, T) ``sequences``: the teacher's
    (m, T, d_model) final normalised hidden states, from no-tape trunk
    passes of :data:`EVAL_BATCH` sequences, each copied into ``out`` (a
    new array if none is given). The peak is this output plus one such
    pass; every row is the same bytes at any row batch.

    The targets are held at model width, not vocabulary width: each
    :func:`distill_run` step applies ``teacher.head`` to the rows it
    gathers. They keep all T positions: the head's product over full
    rows is the one ``forward_batch`` computes, and over the continuation
    alone it gives other bits."""
    m, T = sequences.shape
    if out is None:
        out = np.empty((m, T, teacher.cfg.d_model), teacher.embedding.data.dtype)
    for i in range(0, m, EVAL_BATCH):
        out[i:i + EVAL_BATCH] = teacher.trunk(sequences[i:i + EVAL_BATCH])[0].data
    return out


# Rows each process takes when the distillation set-up's teacher pass
# splits (teacher_pass). A fork and its copy-on-write faults cost
# a fixed 20-30 ms: at one BLAS thread a split greedy decode read 1.16x one
# process at 16 rows, 1.09x at 32, 0.77x at 48 and 0.65-0.70x from 64; the
# trunk passes after it only add work to each half. Below 54 rows the
# in-projection's (M, 64) @ (64, 290) product takes OpenBLAS's small-matrix
# sgemm path, whose rows differ in the last bits from a large batch's; at
# float32, every split of 108..259 rows gave the one-process logits and
# states, at 1 and 2 BLAS threads. The trunk's rows are the same bytes at
# any row batch. Float64 never splits: its dgemm rows changed at 100, 108,
# 112 and 136 rows.
SPLIT_ROWS = 56

# OpenBLAS reads its thread count from the first of these that is set,
# once, when numpy loads it; unset, it takes every CPU.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int:
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


def _second_process_fits() -> bool:
    """Whether this process may fork a second one to work beside it: the
    one rule of the three callers that do (:func:`teacher_pass` through
    :func:`_splits`, :func:`rl_run` and :func:`distill_run`).

    Each process needs CPUs for all its BLAS threads: where BLAS already
    takes every CPU, a split teacher pass read 2.2-2.8x one process.
    ``fork`` copies only the calling thread, so a process running other
    Python threads never forks."""
    return threading.active_count() == 1 and _usable_cpus() >= 2 * _blas_threads()


def _shared(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, shared with forked children."""
    n, itemsize = math.prod(shape), np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, max(n * itemsize, 1)), dtype, n).reshape(shape)


def _fork() -> int | None:
    """``os.fork()``: 0 in the child, the child's pid here; None where
    ``os.fork`` is missing or raises ``OSError`` (EAGAIN at the process
    limit, say)."""
    fork = getattr(os, "fork", None)
    try:
        return fork() if fork else None
    except OSError:
        return None


def _kill_and_reap(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _in_two_processes(here: Callable[[], None], there: Callable[[], None]) -> None:
    """Run ``here()``, and ``there()`` in a forked child; both leave
    their results in shared memory. The child leaves through ``os._exit``:
    it never unwinds into the caller's stack or flushes the buffers it
    inherited. Both halves are deterministic, so a child that does not
    exit 0 (it raised, was killed, or never forked) is not asked why:
    ``there()`` runs again here, after ``here()``, and gives the same
    results or raises its own error. If ``here`` raises or is
    interrupted, before or while the child is awaited, the child is killed
    and reaped before the error propagates."""
    pid = _fork()
    if pid == 0:
        status = 1
        try:
            there()
            status = 0
        finally:
            os._exit(status)
    try:
        here()
        status = os.waitpid(pid, 0)[1] if pid else 1
    except BaseException:
        if pid:
            _kill_and_reap(pid)
        raise
    if status:
        there()


# the two ends of a pipe between a parent and its child (_child)
Receive = Callable[[int], bytes | None]
Send = Callable[[bytes], None]


def _receiver(fd: int) -> Receive:
    """``receive(n)``: the next ``n`` bytes of pipe ``fd``. None at EOF or
    a short read (the writer raised, was killed, exited early, or never
    forked), and at every call after it: the reader then computes what
    it waited for itself."""
    live = True

    def receive(n: int) -> bytes | None:
        nonlocal live
        got = b""
        while live and len(got) < n:
            part = os.read(fd, n - len(got))
            live = bool(part)
            got += part
        return got if live else None

    return receive


def _sender(fd: int) -> Send:
    """``send(data)``: all of ``data`` into pipe ``fd``; nothing once its
    reader has gone, which the other end learns from its own reads."""
    def send(data: bytes) -> None:
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(fd, view):]
        except BrokenPipeError:
            pass

    return send


def _keep_off(pid: int, cpus: set[int]) -> None:
    """Run this process on ``cpus`` but the one process ``pid`` last ran
    on (read from ``/proc``), where that leaves a CPU.

    A child that sleeps between short pieces of work for its parent was
    often woken on the parent's CPU, where it preempted the parent. On a
    two-vCPU Xeon guest at one BLAS thread, a one-byte hand-off to the
    alignment child then read 1.7-2.6 ms, and distillation steps with
    the child read 0.65-1.9x the one-process step, median 1.10, over 8
    pairs; kept off the parent's CPU, 0.67-0.99x, median 0.86."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            cpu = int(f.read().rsplit(b")", 1)[1].split()[36])
        if cpus - {cpu}:
            os.sched_setaffinity(0, cpus - {cpu})
    except (OSError, ValueError, IndexError):
        pass


@contextmanager
def _child(work: Callable[[Receive, Send], None] | None) -> Iterator[tuple[Send, Receive]]:
    """Run ``work(receive, send)`` in a forked child, a pipe each way;
    the block gets this end of both, ``(send, receive)`` (see
    :func:`_receiver` and :func:`_sender`). ``work`` None forks nothing,
    and ``receive`` then returns None at once. The pipes' buffers bound
    how far ahead the child runs, and it leaves through ``os._exit``, as
    in :func:`_in_two_processes`. However the block ends, the child is
    killed and reaped."""
    down, up = os.pipe(), os.pipe()
    pid = _fork() if work is not None else None
    if pid == 0:
        status = 1
        try:
            os.close(down[1])
            os.close(up[0])
            work(_receiver(down[0]), _sender(up[1]))
            status = 0
        finally:
            os._exit(status)
    os.close(down[0])
    os.close(up[1])
    try:
        yield _sender(down[1]), _receiver(up[0])
    finally:
        os.close(down[1])
        os.close(up[0])
        if pid:
            _kill_and_reap(pid)


def _splits(rows: int, dtype: np.dtype) -> bool:
    """Whether the distillation set-up's teacher pass
    (:func:`teacher_pass`) over ``rows`` distinct prompts of a
    ``dtype`` teacher runs in two processes: float32 (see
    :data:`SPLIT_ROWS`), at least ``2 * SPLIT_ROWS`` rows, and where
    :func:`_second_process_fits`."""
    return (default_dtype() == np.float32 and dtype == np.float32
            and rows >= 2 * SPLIT_ROWS and _second_process_fits())


def _teacher_logits(teacher: LanguageModel,
                    labels: tuple[np.ndarray, np.ndarray, np.ndarray],
                    prompt_len: int) -> np.ndarray:
    """The targets of ``labels`` (:func:`generate_pseudo_labels`' triple).
    The benchmark in ``perfbench/`` calls and patches this name;
    ``teacher`` and ``prompt_len`` go unused."""
    return labels[2]


def compensated_layers(n_layers: int) -> frozenset[int]:
    """The layers a compensation path serves: first, middle and last."""
    return frozenset({0, n_layers // 2, n_layers - 1})


def _term_tape(arrays, d_max: int, seed: np.generic | np.ndarray
               ) -> tuple[np.ndarray, Callable[[], list[np.ndarray]]]:
    """One alignment term, given as its projection's input and output and
    its mirror, on a tape of its own: the ops a one-tape step records for
    it (``tanh``, ``mul``, ``matmul``, ``hidden_align``). Returns its
    value and ``walk()``, its (input, output, mirror) gradients from the
    upstream gradient ``seed``."""
    leaves = [parameter(a) for a in arrays]
    with Graph() as g:
        value = hidden_align_loss(leaves[1], sgc_forward(leaves[0], leaves[2], d_max))
        seeded = value * seed

    def walk():
        walked = g.backward(seeded, wrt=leaves)
        return [walked[id(t)] for t in leaves]

    return value.data, walk


def _alignment_terms(terms: list, d_max: int, seed: np.generic
                     ) -> tuple[list, Callable[[], list[list[np.ndarray]]]]:
    """``(values, walk)`` of several :func:`_term_tape`, ``walk()`` giving
    each term's gradients from ``seed``."""
    tapes = [_term_tape(arrays, d_max, seed) for arrays in terms]
    return [value for value, _ in tapes], lambda: [walk() for _, walk in tapes]


def _stand_in(term: tuple[Tensor, Tensor, Tensor], value: np.ndarray, d_max: int,
              seed: np.generic, answer: Callable[[], list[np.ndarray]]) -> Tensor:
    """Op ``sgc_term`` of value ``value`` over an alignment term's input,
    output and mirror. Its backward is the term's: ``answer()``, the
    gradients walked from ``seed``, where the upstream gradient is
    ``seed``, and the term's own tape walked here from any other upstream
    gradient (:func:`_term_tape`). A loss that weighs the term otherwise
    than ``seed`` assumed so still gets the term's exact gradients."""
    def grad_fn(g):
        if g.dtype == seed.dtype and np.array_equal(g, seed):
            return answer()
        return _term_tape([t.data for t in term], d_max, g)[1]()

    return custom_op(value, term, grad_fn, "sgc_term")


def alignment_term(inp: Tensor, out: Tensor, w: Tensor, d_max: int) -> Tensor:
    """``hidden_align_loss(out, sgc_forward(inp, w, d_max))`` recorded as
    the one op a distillation step records for it (:func:`_stand_in`)."""
    seed = default_dtype().type(1.0)
    value, walk = _term_tape([inp.data, out.data, w.data], d_max, seed)
    return _stand_in((inp, out, w), value, d_max, seed, walk)


class _Alignment:
    """The alignment terms of one :func:`distill_run`, two per compensated
    layer, and the child forked to compute them.

    Each step the parent hands the child every compensated layer in
    order, as its block returns: it copies the layer's arrays into shared
    mappings and sends the layer's slot byte. The child (:meth:`serve`)
    records the layer's :func:`_alignment_terms`, leaves their values in
    shared memory and answers one byte; after the last layer it walks the
    layers' tapes in reverse, the order the parent's walk needs them,
    answering one byte as each layer's gradients are in place. ``live``
    says whether the parent still hands layers to it; :meth:`hear` clears
    it at the first read that finds the child gone."""

    def __init__(self, mirrors: dict[int, tuple[Tensor, Tensor]], d_max: int,
                 lead: tuple[int, int]):
        self.mirrors, self.d_max = mirrors, d_max
        # the upstream gradient each term gets from the step's total
        self.seed = default_dtype().type(hidden_term_weight(2 * len(mirrors)))
        self.slot = {i: k for k, i in enumerate(mirrors)}
        self.live = True
        self.owed = 0  # bytes the child is still to answer
        self.send = self.receive = None  # this end of the child's pipes
        dtype = default_dtype()
        # per slot and term: input, output and mirror, then their gradients
        self.shared = [[[_shared(shape, dtype) for shape in
                         2 * (lead + (w.shape[0],), lead + (w.shape[1],), w.shape)]
                        for w in ws] for ws in mirrors.values()]
        self.shared_values = _shared((len(mirrors), 2), dtype)

    def hear(self) -> bool:
        """Read the child's next byte: False, and no longer ``live``, once
        the child is gone."""
        if self.live and self.receive(1) is not None:
            self.owed -= 1
            return True
        self.live = False
        return False

    def settle(self) -> None:
        """Read what the child still owes of an earlier step: the bytes of
        gradients the parent did not take, having walked the terms from
        another upstream gradient than ``seed``."""
        while self.owed and self.hear():
            pass

    def serve(self, receive: Receive, send: Send) -> None:
        walks, parent = [], os.getppid()
        cpus = set(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else set()
        while (got := receive(1)) is not None:
            _keep_off(parent, cpus)
            k = got[0]
            self.shared_values[k], walk = _alignment_terms(
                [b[:3] for b in self.shared[k]], self.d_max, self.seed)
            send(b"v")
            walks.append((k, walk))
            if len(walks) == len(self.mirrors):
                for k, walk in reversed(walks):
                    for bufs, grads in zip(self.shared[k], walk()):
                        for buf, g in zip(bufs[3:], grads):
                            buf[...] = g
                    send(b"g")
                walks = []


@dataclass
class _Layer:
    slot: int
    terms: list[tuple[Tensor, Tensor, Tensor]]  # per term: input, output, mirror
    stand_ins: list[Tensor] = field(default_factory=list)
    grads: list[list[np.ndarray]] | None = None  # computed here, else the child's


class _StepTerms:
    """One step's alignment terms on its tape.

    :meth:`record` is the student forward's ``on_block``: as a compensated
    block returns, it hands the layer to the child (while it is live)
    and records one :func:`_stand_in` per term, whose backward, from the
    seed the step's total gives it, returns the gradients walked here or
    in the child. :meth:`values` fills in the stand-ins' values for the
    step's total. The parent waits for the child only there, for the
    values, and where the walk reaches a layer's stand-ins, for that
    layer's gradients. Where the child did not answer, the layer's terms
    run here, and so do every later layer's. Each gradient reaches its
    tensor as one operand of a two-operand add, as on a tape of the whole
    step, so the bytes do not depend on where the terms ran."""

    def __init__(self, run: _Alignment):
        self.run = run
        run.settle()
        self.heard = 0  # bytes the child answered this step
        self.layers: list[_Layer] = []

    def record(self, i: int, aux) -> None:
        run = self.run
        k = run.slot.get(i)
        if k is None:
            return
        layer = _Layer(k, [(inp, out, w) for (inp, out), w in
                           zip(aux.projections, run.mirrors[i])])
        if run.live:
            for bufs, term in zip(run.shared[k], layer.terms):
                for buf, t in zip(bufs, term):
                    buf[...] = t.data
            run.send(bytes([k]))
            run.owed += 2
        for j, term in enumerate(layer.terms):
            layer.stand_ins.append(_stand_in(term, np.empty((), default_dtype()), run.d_max,
                                             run.seed, lambda j=j: self._grads(layer, j)))
        self.layers.append(layer)

    def values(self) -> list[Tensor]:
        """The stand-ins in term order, with their values. From here only
        its stand-ins hold a layer, so the walk frees it as it passes."""
        layers, self.layers = self.layers, []
        for layer in layers:
            if self._heard(layer.slot):
                vals = self.run.shared_values[layer.slot]
            else:
                vals, walk = self._here(layer)
                layer.grads = walk()
            for s, v in zip(layer.stand_ins, vals):
                s.data[...] = v
        return [s for layer in layers for s in layer.stand_ins]

    def _grads(self, layer: _Layer, j: int) -> list[np.ndarray]:
        if layer.grads is None:
            if self._heard(2 * len(self.run.mirrors) - 1 - layer.slot):
                return self.run.shared[layer.slot][j][3:]
            layer.grads = self._here(layer)[1]()
        return layer.grads[j]

    def _heard(self, n: int) -> bool:
        """Whether the child sent its byte ``n`` of this step, reading up
        to it: over L layers, slot k's values are byte k and its
        gradients byte 2L - 1 - k."""
        while self.heard <= n and self.run.hear():
            self.heard += 1
        return self.heard > n

    def _here(self, layer: _Layer) -> tuple[list, Callable[[], list[list[np.ndarray]]]]:
        return _alignment_terms([tuple(t.data for t in term) for term in layer.terms],
                                self.run.d_max, self.run.seed)


def distill_run(teacher: LanguageModel, student: LanguageModel,
                lines: list[str], *, steps: int = 2000, batch: int = 8,
                prompt_len: int = 8, total_len: int = 64,
                n_sequences: int = 192, lr: float = 1e-3, seed: int = 0) -> DistillResult:
    """Single-stage distillation: KL on teacher pseudo-labels plus the
    hidden alignment losses from the compensation path.

    Each step draws ``batch`` of the sampled rows, gathers their
    distinct sequences and :func:`teacher_targets` through
    ``rows``, and applies the teacher head to the gathered full
    rows, outside the tape: the teacher logits are the bytes a teacher
    ``forward_batch`` would give, and the set-up holds d_model, not
    vocab, floats a position.

    With ``student.cfg.sgc`` set, each of :func:`compensated_layers`
    gets mirrors of its two projections, trained parameters that start
    as copies of them and are dropped when the run ends: the
    compensation path is training-only. The run builds it from the
    (input, output) pairs the taped forward hands over as each block
    returns, one alignment term per projection, in layer order, the
    input projection first. Where :func:`_second_process_fits`, a child
    forked before the loop computes them (:class:`_Alignment`), a layer's
    terms while the student's next layer runs here: on the step's tape
    each term is then a stand-in (:class:`_StepTerms`), and from the
    first layer the child did not answer the stand-ins' terms run here.
    Otherwise the step records the terms' ops on its own tape. Either way
    the bytes are one tape's, and the child is killed and reaped when
    the run returns or raises.
    """
    if student.cfg.mode != SPIKING:
        raise ContractError("the distillation student must be a spiking model")
    if (teacher.cfg.d_model, teacher.cfg.n_layers, teacher.cfg.vocab) != (
            student.cfg.d_model, student.cfg.n_layers, student.cfg.vocab):
        raise ContractError("teacher/student configuration shapes disagree")
    require_positive(steps=steps, batch=batch)

    labels = generate_pseudo_labels(
        teacher, lines, n_sequences=n_sequences, prompt_len=prompt_len,
        total_len=total_len, seed=seed)
    sequences, rows, _ = labels
    targets = _teacher_logits(teacher, labels, prompt_len)

    rng = np.random.default_rng(seed + 1)
    layers = compensated_layers(student.cfg.n_layers) if student.cfg.sgc else ()
    mirrors = {i: (parameter(layer.w_in.data.copy()), parameter(layer.w_out.data.copy()))
               for i, layer in enumerate(student.layers) if i in layers}
    params = student.parameters() + [w for pair in mirrors.values() for w in pair]
    cont = sequences.shape[1] - prompt_len
    d_max = student.cfg.neuron.d_max
    align = (_Alignment(mirrors, d_max, (batch, sequences.shape[1]))
             if mirrors and _second_process_fits() else None)

    def record_step(step):
        pick = rows[rng.integers(0, rows.size, size=batch)]
        t_logits = teacher.head(targets[pick]).data  # before the tape opens
        terms = _StepTerms(align) if align else None
        with Graph() as g:
            logits, auxes = student.forward_batch(sequences[pick],
                                                  on_block=terms.record if terms else None)
            s_cont = narrow(logits, 1, prompt_len - 1, cont)
            l_kl = kl_distill_loss(t_logits[:, prompt_len - 1:-1], s_cont)
            hidden = terms.values() if terms else [
                hidden_align_loss(out, sgc_forward(inp, w, d_max))
                for i, ws in mirrors.items() for (inp, out), w in zip(auxes[i].projections, ws)]
            loss = total_distill_loss(l_kl, hidden)
        fr_in, fr_out = student.site_stats(auxes)
        return g, loss, {"loss_total": loss.item(), "loss_kl": l_kl.item(),
                         "loss_hidden": (loss.item() - l_kl.item()) if hidden else 0.0,
                         "fr_in": fr_in.rate, "fr_out": fr_out.rate}

    if align is None:
        metrics = optimise(params, steps, lr, record_step)
    else:
        with _child(align.serve) as (align.send, align.receive):
            metrics = optimise(params, steps, lr, record_step)
    return DistillResult(student=student, metrics=metrics)


# ---------------------------------------------------------------------------
# preference optimization

METHODS = ("dpo", "kto")


@dataclass
class PreferenceExample:
    """One alignment record: ``responses`` holds one response (KTO, with
    its ``label``), or the preferred then the dispreferred one (DPO)."""

    prompt: str
    responses: tuple[str, ...]
    label: int = 1

    def __post_init__(self):
        if len(self.responses) not in (1, 2):
            raise ContractError(f"an example holds 1 or 2 responses, got {len(self.responses)}")
        if self.label not in (1, -1):
            raise ContractError("label must be +1 or -1")

    @property
    def paired(self) -> bool:
        return len(self.responses) == 2


def parse_preference_line(line: str, method: str) -> PreferenceExample:
    """Tab-separated records: DPO lines are ``prompt<TAB>preferred<TAB>
    dispreferred``; KTO lines are ``prompt<TAB>response<TAB>{+1,-1}``."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise ContractError(f"expected 3 tab-separated fields, got {len(parts)}")
    if method == "dpo":
        return PreferenceExample(parts[0], (parts[1], parts[2]))
    if method == "kto":
        if parts[2] not in ("+1", "-1", "1"):
            raise ContractError(f"bad KTO label {parts[2]!r}")
        return PreferenceExample(parts[0], (parts[1],), 1 if parts[2] in ("+1", "1") else -1)
    raise ContractError(f"unknown preference method {method!r}")


def synth_preference_lines(lines: list[str], n: int, seed: int,
                           method: str) -> list[str]:
    """Toy preference data: real corpus continuations are preferred over
    random printable-ASCII noise, drawn one line's worth at a time."""
    if method not in METHODS:
        raise ContractError(f"unknown preference method {method!r}")
    if not lines:
        raise ContractError("no corpus lines to build preferences from")
    if n < 0:
        raise ContractError(f"preference count must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        line = lines[rng.integers(len(lines))]
        cut = max(3, len(line) // 3)
        prompt, good = line[:cut], line[cut:]
        noise = rng.integers(33, 127, size=len(good)).astype(np.uint8).tobytes().decode("ascii")
        if method == "dpo":
            out.append(f"{prompt}\t{good}\t{noise}")
        else:
            label = "+1" if rng.integers(2) else "-1"
            out.append(f"{prompt}\t{good if label == '+1' else noise}\t{label}")
    return out


def _example_tokens(prompt: str, response: str) -> tuple[np.ndarray, int]:
    """The framed ids of prompt + response and the index of the first
    response token."""
    return tokenize(prompt + response), 1 + len(prompt.encode("utf-8"))


def _padded(seqs: list[tuple[np.ndarray, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-pad (ids, start) sequences with EOS into one (N, T) batch;
    returns the batch, the starts and the unpadded lengths."""
    lengths = np.array([ids.size for ids, _ in seqs])
    tokens = np.full((len(seqs), lengths.max()), EOS, dtype=np.int64)
    for row, (ids, _) in zip(tokens, seqs):
        row[:ids.size] = ids
    return tokens, np.array([s for _, s in seqs]), lengths


def _response_logprobs(model: LanguageModel, tokens: np.ndarray,
                       starts: np.ndarray, lengths: np.ndarray) -> Tensor:
    """(N,) response log-probs of a padded batch from one forward. Padding
    is exact: every op of the forward is per-token or causal, so pad
    positions never reach a real one, and the mask drops their logits."""
    logits, _ = model.forward_batch(tokens)
    return sequence_logprob(logits, tokens, starts, lengths)


def _kto_pairs(seqs: list[list[tuple[np.ndarray, int]]],
               idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The padded rows of KTO's z_ref (:func:`_kto_z_ref`): prompt j with
    row j+1's response (mod B), where row j is ``seqs[idx[j]][0]``. A pair
    of two rows of one example (drawn with replacement) is that example's
    own reward, so it is skipped; with no pair left, None."""
    pairs = []
    for i, k in zip(idx, np.roll(idx, -1)):
        if i != k:
            (a, sa), (b, sb) = seqs[i][0], seqs[k][0]
            pairs.append((np.concatenate((a[:sa], b[sb:])), sa))
    return _padded(pairs) if pairs else None


def _kto_z_ref(policy: LanguageModel, pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
               lp_ref: np.ndarray, beta_pref: float) -> float:
    """KTO's z_ref (Ethayarajh et al. 2024): beta * max(0, mean_j log pi(y_{j+1}
    | x_j) - log pi_ref(y_{j+1} | x_j)) over the :func:`_kto_pairs` rows
    ``pairs``, from one no-tape policy forward here. ``lp_ref`` holds the
    reference's log-probs of the same rows; :func:`rl_run` computes them
    ahead, in its child where one runs."""
    ratio = _response_logprobs(policy, *pairs).data - lp_ref
    return beta_pref * max(0.0, float(np.mean(ratio)))


def check_rl_batch(method: str, batch: int) -> None:
    """ContractError unless ``batch`` rows can run ``method``: every step
    needs a row, and KTO's ``z_ref`` pairs each row's prompt with another
    row's response."""
    require_positive(batch=batch)
    if method == "kto" and batch < 2:
        raise ContractError("KTO needs batch >= 2 to pair prompts with other responses")


def rl_run(policy: LanguageModel, examples: list[PreferenceExample], *,
           method: str, steps: int = 120, batch: int = 4, lr: float = 5e-6,
           beta_pref: float = 0.1, seed: int = 0) -> list[dict]:
    """DPO / KTO alignment against a frozen copy of the starting policy.

    Each step runs one padded policy forward over its sequences (DPO: the
    ``batch`` preferred responses, then the dispreferred ones; KTO: the
    responses) and makes one loss call on the (B,) log-prob vectors. The
    reference log-probs are constants of an example, kept in one
    (n_examples, n_responses) array; each is computed once, in one no-tape
    forward over the rows of the step that first samples the example.
    KTO's ``z_ref`` is :func:`_kto_z_ref`'s, so KTO needs ``batch >= 2``.

    Where :func:`_second_process_fits`, every reference forward (those
    rows, and the reference half of each ``z_ref``) runs ahead of the
    steps, in a child forked before the loop (:func:`_child`): it replays
    the step draws from its own ``default_rng(seed)`` and streams each
    step's log-probs through a pipe. Otherwise, and from the first step
    the child did not finish, they run here, before the step's policy
    forward. They are the same calls on the same padded rows either way,
    so the run's bytes do not depend on where they ran.
    """
    if not examples:
        raise ContractError("no preference examples")
    if method not in METHODS:
        raise ContractError(f"unknown preference method {method!r}")
    if method == "dpo" and not all(e.paired for e in examples):
        raise ContractError("DPO requires paired examples")
    if method == "kto" and any(e.paired for e in examples):
        raise ContractError("KTO requires unpaired examples")
    require_positive(steps=steps)
    check_rl_batch(method, batch)
    n_resp = 2 if method == "dpo" else 1
    seqs = [[_example_tokens(e.prompt, r) for r in e.responses] for e in examples]
    labels = np.array([e.label for e in examples])
    ref_lp = np.full((len(examples), n_resp), np.nan, dtype=default_dtype())  # nan: unscored
    reference = policy.clone()

    def draws():
        """Each step's example indices, their padded rows, the positions
        in ``idx`` of examples no earlier step drew, and the rows of the
        step's reference forwards: those examples' rows, then KTO's z_ref
        pairs, each None where there are none."""
        rng = np.random.default_rng(seed)
        drawn = np.zeros(len(examples), dtype=bool)
        for _ in range(steps):
            idx = rng.integers(0, len(examples), size=batch)
            rows = _padded([seqs[i][k] for k in range(n_resp) for i in idx])
            new = [j for j, i in enumerate(idx) if i not in idx[:j] and not drawn[i]]
            drawn[idx[new]] = True
            picks = [k * batch + j for k in range(n_resp) for j in new]
            new_rows = tuple(a[picks] for a in rows) if new else None
            pairs = _kto_pairs(seqs, idx) if method == "kto" else None
            yield idx, rows, new, (new_rows, pairs)

    def reference_logprobs(rows):
        return _response_logprobs(reference, *rows).data

    def ahead(receive, send):
        for *_, work in draws():
            for rows in work:
                if rows is not None:
                    send(reference_logprobs(rows).tobytes())

    with _child(ahead if _second_process_fits() else None) as (_, receive):
        steps_drawn = draws()

        def received_logprobs(rows):
            got = receive(rows[0].shape[0] * ref_lp.itemsize)
            return reference_logprobs(rows) if got is None else np.frombuffer(got, ref_lp.dtype)

        def record_step(step):
            idx, (tokens, starts, lengths), new, (new_rows, pairs) = next(steps_drawn)
            if new:
                ref_lp[idx[new]] = received_logprobs(new_rows).reshape(n_resp, len(new)).T
            ref = ref_lp[idx]
            if method == "kto":
                z_ref = (0.0 if pairs is None else
                         _kto_z_ref(policy, pairs, received_logprobs(pairs), beta_pref))
            with Graph() as g:
                lp = _response_logprobs(policy, tokens, starts, lengths)
                if method == "dpo":
                    loss = dpo_loss((narrow(lp, 0, 0, batch), narrow(lp, 0, batch, batch)),
                                    (ref[:, 0], ref[:, 1]), beta_pref)
                else:
                    loss = kto_loss(lp, ref[:, 0], labels[idx], beta_pref, z_ref)
            return g, loss, {"loss": loss.item()}

        return optimise(policy.parameters(), steps, lr, record_step)
