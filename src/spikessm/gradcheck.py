"""Central finite-difference audits for the gradient engine.

Every differentiable path in the package is checked the same way:
compute analytic gradients on the tape, then probe random entries with
a symmetric difference quotient at 64-bit precision. ``gradcheck_targets``
is the registry of those paths that ``spikessm gradcheck`` audits: the op
kinds the training runs record, but the neurons, whose backward is a surrogate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .losses import cross_entropy_loss, dpo_loss, kl_distill_loss, kto_loss, sequence_logprob
from .mamba2 import (
    LanguageModel,
    Mamba2Config,
    block_forward,
    hidden_align_loss,
    init_block_params,
)
from .tensor import Graph, Tensor, activation, parameter, rmsnorm, sum_
from .training import alignment_term

FD_STEP = 1e-5
REL_TOL = 1e-4
# below this magnitude the quotient |a - n| / max(|a|, |n|) is dominated by
# roundoff of the difference quotient itself, so the floor takes over
DENOM_FLOOR = 1e-6


def analytic_grads(loss_fn: Callable[[], Tensor], params: Sequence[Tensor]) -> list[np.ndarray]:
    with Graph() as g:
        loss = loss_fn()
    grads = g.backward(loss, wrt=params)
    return [grads[id(p)] for p in params]


def numeric_grad_entry(loss_fn: Callable[[], Tensor], param: Tensor, flat_index: int) -> float:
    flat = param.data.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + FD_STEP
    hi = float(loss_fn().data)
    flat[flat_index] = orig - FD_STEP
    lo = float(loss_fn().data)
    flat[flat_index] = orig
    return (hi - lo) / (2.0 * FD_STEP)


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    rng: np.random.Generator,
    probes: int = 100,
) -> float:
    """Max relative error between tape and finite-difference gradients.

    ``probes`` entries are drawn at random across all parameters; the run
    precision should be float64 for the stated tolerances to hold.
    """
    analytic = analytic_grads(loss_fn, params)
    sizes = np.array([p.data.size for p in params])
    total = int(sizes.sum())
    worst = 0.0
    for _ in range(probes):
        pick = int(rng.integers(total))
        pi = int(np.searchsorted(np.cumsum(sizes), pick, side="right"))
        fi = pick - int(np.cumsum(sizes)[pi - 1]) if pi > 0 else pick
        a = float(analytic[pi].reshape(-1)[fi])
        n = numeric_grad_entry(loss_fn, params[pi], fi)
        rel = abs(a - n) / max(abs(a), abs(n), DENOM_FLOOR)
        worst = max(worst, rel)
    return worst


def gradcheck_targets(rng: np.random.Generator) -> list[tuple]:
    """(name, loss_fn, params) triples covering every differentiable path."""
    targets = []

    for name in ("tanh", "sigmoid", "silu", "softplus", "exp"):
        x = parameter(rng.normal(size=16) * 0.7)
        probe = Tensor(rng.normal(size=16))
        targets.append((f"op:{name}",
                        lambda n=name, x=x, p=probe: sum_(activation(n, x) * p), [x]))

    x = parameter(rng.normal(size=(4, 6)))
    probe = Tensor(rng.normal(size=(4, 6)))
    w = parameter(rng.normal(size=6) + 1.0)
    targets.append(("op:rmsnorm", lambda: sum_(rmsnorm(x, w) * probe), [x, w]))

    xs = parameter(rng.normal(size=(4, 6)))
    ws = parameter(rng.normal(size=(6, 3)))
    spk = Tensor(rng.normal(size=(4, 3)))
    targets.append(("sgc_path", lambda: alignment_term(xs, spk, ws, 4), [xs, ws]))
    ya, yb = parameter(rng.normal(size=(4, 5))), parameter(rng.normal(size=(4, 5)))
    targets.append(("hidden_align", lambda: hidden_align_loss(ya, yb), [ya, yb]))

    t = rng.normal(size=(4, 9))
    sl = parameter(rng.normal(size=(4, 9)))
    targets.append(("kl_loss", lambda: kl_distill_loss(t, sl), [sl]))

    # the preference losses on (B,) vectors, the form rl_run calls them in
    lw, ll = parameter(rng.normal(size=3)), parameter(rng.normal(size=3))
    ref_w, ref_l = rng.normal(size=3), rng.normal(size=3)
    targets.append(("dpo_loss",
                    lambda: dpo_loss((lw, ll), (ref_w, ref_l), 0.7), [lw, ll]))

    lps = parameter(rng.normal(size=3))
    targets.append(("kto_loss",
                    lambda: kto_loss(lps, [0.0, 0.1, -0.1], [1, -1, 1], 0.5,
                                     z_ref=0.02), [lps]))

    logits = parameter(rng.normal(size=(2, 6, 5)))
    toks = rng.integers(0, 5, size=(2, 6))
    row_w = Tensor(rng.normal(size=2))
    targets.append(("sequence_logprob",  # a padded batch: rows of length 6 and 4
                    lambda: sum_(sequence_logprob(logits, toks, [1, 2], [6, 4]) * row_w),
                    [logits]))

    cfg = Mamba2Config(d_model=8, n_state=4, n_heads=2, d_head=8,
                       n_layers=1, vocab=11)
    params = init_block_params(cfg, rng)
    u = parameter(rng.normal(size=(1, 4, cfg.d_model)))
    bp = Tensor(rng.normal(size=(1, 4, cfg.d_model)))

    def block_loss():
        y, _ = block_forward(params, u, cfg)
        return sum_(y * bp)

    targets.append(("dense_block", block_loss, [u] + [p for _, p in params.named()]))

    lm = LanguageModel(cfg, rng)  # the embedding gather and the tied head
    ids = rng.integers(0, cfg.vocab, size=(2, 5))
    targets.append(("lm_head", lambda: cross_entropy_loss(
        lm.forward_batch(ids[:, :-1])[0], ids[:, 1:]), lm.parameters()))
    return targets
