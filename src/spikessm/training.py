"""Toy-scale training: teacher pretraining, single-stage distillation
onto a spiking student, and preference optimization, each a set-up and
one step of the shared loop :func:`optimise`.

Everything is deterministic under a fixed seed: data sampling uses one
generator, and a metrics row is a plain dict whose keys are its file's
columns; the CLI owns every file a run reads or writes. The loop runs in
one thread. Four pieces of work run in a :class:`procs.Child` forked
beside it, which decides where a second process fits: half of the
distillation set-up's teacher pass, ``rl_run``'s reference forwards,
``distill_run``'s alignment terms and half of each ``eval_ppl`` batch.
The first three children live for their call; ``eval_ppl``'s row helper
lives as long as its model (:class:`_RowHelper`). Where a child's answer
does not come, the child is closed and this process does that work
itself, so each gives the bytes of one process.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

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
from .procs import Child, Receive, Send, shared
from .tensor import (
    ContractError,
    Graph,
    Tensor,
    active_graph,
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
    :data:`EVAL_BATCH` windows a forward, each batch's logits from
    :func:`_batch_logits`.

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
        logits = _batch_logits(model, chunk[:, :-1], hook)
        ce = cross_entropy_loss(logits, chunk[:, 1:]).item()
        del logits  # not held while the next batch's forward runs
        total += ce * chunk[:, 1:].size
        count += chunk[:, 1:].size
    return float(np.exp(total / count))


# the row helper of each model eval_ppl scored a batch of
_ROW_HELPERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _batch_logits(model: LanguageModel, tokens: np.ndarray, hook: Hook | None) -> Tensor:
    """The (B, T, vocab) logits of one batch of ``eval_ppl`` windows: one
    forward here, or, where the model's :class:`_RowHelper` may take
    half of it, that helper's. It may where no hook is given, no tape is
    open and the batch :func:`_splits` with one row a process: a row's
    float32 logits are the same bytes at any row batch."""
    if (hook is None and active_graph() is None
            and _splits(tokens.shape[0], model.embedding.data.dtype, 1)):
        helper = _ROW_HELPERS.get(model)
        if helper is None:
            helper = _ROW_HELPERS[model] = _RowHelper(model)
        return helper.logits(model, tokens)
    return model.forward_batch(tokens, hook=hook)[0]


class _RowHelper:
    """The row helper of one model: a :class:`procs.Child`, forked at the
    model's second batch, that scores rows ``[B // 2, B)`` of each later
    batch of B windows while this process scores the rows before them.

    A fork costs more than a batch saves, so a model scored in one
    batch never forks one. The child holds shared mappings of the
    model's parameters, one batch's token rows and one batch's logits,
    sized at the fork from :data:`EVAL_BATCH` and the window width; a
    batch of another width replaces the child. Before each batch this
    process copies every parameter (the optimizer replaces the arrays,
    so nothing tracks them) and the child's half of the tokens into them
    and sends the row count; the child scores those rows with a model
    reading the mapped parameters in place, leaves their logits in the
    mapping and sends one byte. Where that byte does not come (the child raised,
    was killed or exited), this process scores those rows itself; where
    an error escapes while the child holds a batch, it is raised. Either
    way the child is killed and reaped at once, so no late byte answers
    a later batch. Once the child is closed, or where none forked at the
    second batch, the model scores in one process from then on. The
    child is closed when the model is collected, at interpreter exit,
    or by :func:`procs.close_all`; this object holds no reference to the
    model."""

    def __init__(self, model: LanguageModel):
        self.cfg = model.cfg
        self.shapes = {name: t.shape for name, t in model.named_parameters()}
        self.batches = 0  # scored so far
        self.size = None  # (window width, EVAL_BATCH) the child was sized for
        self.child = Child(None)
        weakref.finalize(model, self.close)

    def close(self) -> None:
        self.child.close()

    def _mapped(self) -> Callable[[Receive, Send], None]:
        """The shared mappings, made right before the fork; the child's work."""
        width, batch = self.size
        rows, dtype = batch - batch // 2, default_dtype()
        self.params = {name: shared(shape, dtype) for name, shape in self.shapes.items()}
        self.tokens = shared((rows, width - 1), np.int64)
        self.out = shared((rows, width - 1, self.cfg.vocab), dtype)
        return self.serve

    def serve(self, receive: Receive, send: Send) -> None:
        mapped = LanguageModel.from_tensors(self.cfg, self.params)  # reads them in place
        while (got := receive(1)) is not None:
            n = got[0]
            self.out[:n] = mapped.forward_batch(self.tokens[:n])[0].data
            send(b"d")

    def _running(self, width: int) -> bool:
        """Whether the child takes this batch: forked at the model's
        second batch, and again where a live one was sized for another."""
        self.batches += 1
        if self.batches == 2 or (self.child.live and self.size != (width, EVAL_BATCH)):
            self.close()
            self.size = (width, EVAL_BATCH)
            self.child = Child(self._mapped)
        return self.child.live

    def logits(self, model: LanguageModel, tokens: np.ndarray) -> Tensor:
        B, T = tokens.shape
        if not self._running(T + 1):
            return model.forward_batch(tokens)[0]
        half = B // 2
        for name, t in model.named_parameters():
            self.params[name][...] = t.data
        self.tokens[:B - half] = tokens[half:]
        self.child.send(bytes([B - half]))
        try:
            mine = model.forward_batch(tokens[:half])[0].data
            answered = self.child.receive(1) is not None
        except BaseException:
            self.close()
            raise
        theirs = self.out[:B - half] if answered else model.forward_batch(tokens[half:])[0].data
        return Tensor(np.concatenate([mine, theirs]))


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
    ``[lo, hi)`` of each. Where :func:`_splits` holds at ``SPLIT_ROWS``
    and a :class:`procs.Child` forks, the child labels rows ``m // 2``
    on, then sends one byte, while this process labels the rows before
    them; where that byte does not come (the child raised, was killed or
    ended early), this process labels the child's rows too. The bytes are
    one process's: each half decodes at least ``SPLIT_ROWS`` rows, and a
    trunk row is the same bytes in any row batch. An error in either half
    is raised with its type and message."""
    m, T0 = prompts.shape
    dtype = teacher.embedding.data.dtype
    seqs = shared((m, T0 + max_new), np.int64)
    out = shared((m, T0 + max_new, teacher.cfg.d_model), dtype)

    def label(lo: int, hi: int) -> None:
        seqs[lo:hi] = teacher.generate_greedy(prompts[lo:hi], max_new, kernel="matmul")
        teacher_targets(teacher, seqs[lo:hi], out[lo:hi])

    def there(receive: Receive, send: Send) -> None:
        label(m // 2, m)
        send(b"d")

    with Child((lambda: there) if _splits(m, dtype, SPLIT_ROWS) else None) as child:
        forked = child.live
        label(0, m // 2 if forked else m)
        if forked and child.receive(1) is None:
            label(m // 2, m)
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


def _splits(rows: int, dtype: np.dtype, least: int) -> bool:
    """Whether a no-tape pass over ``rows`` rows of a ``dtype`` model may
    run in two processes of at least ``least`` rows each: the run and
    the model are float32 (see :data:`SPLIT_ROWS`) and there are at least
    ``2 * least`` rows. The teacher pass asks with ``SPLIT_ROWS``,
    ``eval_ppl`` with 1."""
    return default_dtype() == np.float32 and dtype == np.float32 and rows >= 2 * least


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


@dataclass
class _Term:
    index: int  # in recording order
    tensors: tuple[Tensor, Tensor, Tensor]  # input, output, mirror
    grads: list[np.ndarray] | None = None  # computed here, else the child's


class _Alignment:
    """The alignment terms of one :func:`distill_run`, one per projection
    of each compensated layer, and the :class:`procs.Child` forked to
    compute them, with its shared mappings made right before the fork.

    Each step the parent hands the child every term in recording order
    (layer order, the input projection first), as soon as the term's
    projection has run: it copies the projection's input and output and
    the mirror into term t's shared mappings and sends the byte t. The
    child (:meth:`serve`) records the term's :func:`_term_tape`, leaves
    its value in shared memory and answers one byte; after the last term
    it walks the terms' tapes in reverse, the order the parent's walk
    needs them, answering one byte as each term's gradients are in
    place.

    In the parent, :meth:`step` begins a step's terms on its tape.
    :meth:`record` is called right after each compensated projection's
    product: it hands the term to the child (while it is live) and
    records one :func:`_stand_in`, whose backward, from the seed the
    step's total gives it, returns the gradients walked here or in the
    child. So the stand-in sits on the tape right after its projection,
    and the walk asks for an input projection's gradients only after
    its block's whole backward. :meth:`values` fills in the stand-ins'
    values for the step's total. The parent waits for the child only
    there, for the values, and where the walk reaches a stand-in, for
    that term's gradients. Where the child did not answer, the term
    runs here, and so does every later term. Each gradient reaches its
    tensor as one operand of a two-operand add, as on a tape of the
    whole step, so the bytes do not depend on where the terms ran."""

    def __init__(self, mirrors: dict[int, tuple[Tensor, Tensor]], d_max: int,
                 lead: tuple[int, int]):
        self.d_max = d_max
        # per term: input, output and mirror, then their gradients
        self.shapes = [2 * (lead + (w.shape[0],), lead + (w.shape[1],), w.shape)
                       for ws in mirrors.values() for w in ws]
        self.owed = 0  # bytes the child is still to answer
        self.child = Child(self._mapped if mirrors else None)

    def _mapped(self) -> Callable[[Receive, Send], None]:
        """The shared mappings, made right before the fork; the child's work."""
        dtype = default_dtype()
        self.shared = [[shared(shape, dtype) for shape in shapes] for shapes in self.shapes]
        self.shared_values = shared((len(self.shared),), dtype)
        # the upstream gradient each term gets from the step's total
        self.seed = dtype.type(hidden_term_weight(len(self.shared)))
        return self.serve

    def serve(self, receive: Receive, send: Send) -> None:
        walks = []
        while (got := receive(1)) is not None:
            bufs = self.shared[got[0]]
            self.shared_values[got[0]], walk = _term_tape(bufs[:3], self.d_max, self.seed)
            send(b"v")
            walks.append((bufs, walk))
            if len(walks) == len(self.shared):
                for bufs, walk in reversed(walks):
                    for buf, g in zip(bufs[3:], walk()):
                        buf[...] = g
                    send(b"g")
                walks = []

    def hear(self) -> bool:
        """Read the child's next byte: False once the child is gone."""
        if self.child.receive(1) is None:
            return False
        self.owed -= 1
        return True

    def step(self) -> None:
        """Begin a step: read what the child still owes of the last one
        (the bytes of gradients the parent did not take, having walked
        the terms from another upstream gradient than ``seed``)."""
        while self.owed and self.hear():
            pass
        self.heard = 0  # bytes the child answered this step
        self.terms: list[tuple[_Term, Tensor]] = []  # and their stand-ins

    def record(self, inp: Tensor, out: Tensor, w: Tensor) -> Tensor:
        term = _Term(len(self.terms), (inp, out, w))
        if self.child.live:
            for buf, t in zip(self.shared[term.index], term.tensors):
                buf[...] = t.data
            self.child.send(bytes([term.index]))
            self.owed += 2
        stand_in = _stand_in(term.tensors, np.empty((), default_dtype()), self.d_max,
                             self.seed, lambda: self._grads(term))
        self.terms.append((term, stand_in))
        return stand_in

    def values(self) -> None:
        """Fill in the stand-ins' values. From here only its stand-in
        holds a term, so the walk frees it as it passes."""
        terms, self.terms = self.terms, []
        for term, stand_in in terms:
            if self._heard(term.index):
                stand_in.data[...] = self.shared_values[term.index]
            else:
                value, walk = self._here(term)
                stand_in.data[...] = value
                term.grads = walk()

    def _grads(self, term: _Term) -> list[np.ndarray]:
        if term.grads is None:
            if self._heard(2 * len(self.shared) - 1 - term.index):
                return self.shared[term.index][3:]
            term.grads = self._here(term)[1]()
        return term.grads

    def _heard(self, n: int) -> bool:
        """Whether the child sent its byte ``n`` of this step, reading up
        to it: over N terms, term t's value is byte t and its gradients
        byte 2N - 1 - t."""
        while self.heard <= n and self.hear():
            self.heard += 1
        return self.heard > n

    def _here(self, term: _Term) -> tuple[np.ndarray, Callable[[], list[np.ndarray]]]:
        return _term_tape([t.data for t in term.tensors], self.d_max, self.seed)


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
    (input, output) pair the taped forward hands over right after each
    projection (``on_projection``), one alignment term per projection,
    in layer order, the input projection first, each recorded at that
    point of the tape. Where a child forks before the loop
    (:class:`_Alignment`), it computes them, each term while the
    student's forward goes on here: on the step's tape each term is then
    a stand-in, and from the first term the child did not answer the
    stand-ins' terms run here. Otherwise the step records the
    terms' own ops on its tape. Either way the bytes are one tape's, and
    the child is killed and reaped when the run returns or raises.
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
    align = _Alignment(mirrors, d_max, (batch, sequences.shape[1]))

    def record_step(step):
        pick = rows[rng.integers(0, rows.size, size=batch)]
        t_logits = teacher.head(targets[pick]).data  # before the tape opens
        if align:
            align.step()
        hidden = []

        def projected(i, j, inp, out):
            if i in mirrors:
                w = mirrors[i][j]
                hidden.append(align.record(inp, out, w) if align else
                              hidden_align_loss(out, sgc_forward(inp, w, d_max)))

        with Graph() as g:
            logits, auxes = student.forward_batch(
                sequences[pick], on_projection=projected if mirrors else None)
            s_cont = narrow(logits, 1, prompt_len - 1, cont)
            l_kl = kl_distill_loss(t_logits[:, prompt_len - 1:-1], s_cont)
            if align:
                align.values()
            loss = total_distill_loss(l_kl, hidden)
        fr_in, fr_out = student.site_stats(auxes)
        return g, loss, {"loss_total": loss.item(), "loss_kl": l_kl.item(),
                         "loss_hidden": (loss.item() - l_kl.item()) if hidden else 0.0,
                         "fr_in": fr_in.rate, "fr_out": fr_out.rate}

    with align.child:
        if not align.child.live:  # each step records the terms' own ops
            align = None
        return DistillResult(student=student, metrics=optimise(params, steps, lr, record_step))


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

    Where a :class:`procs.Child` forks before the loop, every
    reference forward (those rows, and the reference half of each
    ``z_ref``) runs ahead of the steps there: it replays the step
    draws from its own ``default_rng(seed)`` and streams each
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

    with Child(lambda: ahead) as child:
        steps_drawn = draws()

        def received_logprobs(rows):
            got = child.receive(rows[0].shape[0] * ref_lp.itemsize)
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
