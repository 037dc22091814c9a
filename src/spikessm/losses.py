"""Distillation and preference-optimization losses.

All losses return scalar tensors on the tape (``sequence_logprob``, one
per sequence of a batch). Teacher / reference quantities enter as plain
floats or arrays: they are training data, not differentiable inputs.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ContractError,
    DimensionError,
    Tensor,
    concat,
    custom_op,
    default_dtype,
    log_softmax,
    log_softmax_forward,
    reshape,
    sigmoid,
    softplus,
    sum_,
)

np_log_softmax = log_softmax_forward  # the name callers outside the package import


def kl_distill_loss(teacher_logits: np.ndarray, student_logits: Tensor) -> Tensor:
    """Mean per-position KL(teacher || student), computed in log space.

    One tape node over the student logits. The teacher rows are
    normalised here, each position over its own vocabulary row, so a
    gathered batch normalises as its rows would alone. The floating-point
    operations are those of the composite
    ``const - sum(p_t * log_softmax(s)) / rows``, in its order, so value
    and gradient are bit-identical to it.
    """
    teacher_logits = np.asarray(teacher_logits)
    if teacher_logits.shape != student_logits.shape:
        raise DimensionError(
            f"teacher/student logits disagree: "
            f"{teacher_logits.shape} vs {student_logits.shape}"
        )
    rows = int(np.prod(teacher_logits.shape[:-1]))
    t_logp = log_softmax_forward(teacher_logits)
    t_p = np.exp(t_logp)
    # -H(teacher) over this batch, independent of the student
    const = float(np.multiply(t_p, t_logp, out=t_logp).sum()) / rows
    t_p = t_p.astype(default_dtype(), copy=False)  # as the composite's Tensor(t_p)
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


def hidden_term_weight(n_terms: int) -> float:
    """The weight :func:`total_distill_loss` gives each of ``n_terms``
    alignment terms, and so the gradient each receives from the total."""
    return 1.0 / n_terms


def total_distill_loss(l_kl: Tensor, hidden_losses: list[Tensor]) -> Tensor:
    """KL term plus the mean over compensation-path alignment sites."""
    if not hidden_losses:
        return l_kl
    acc = hidden_losses[0]
    for h in hidden_losses[1:]:
        acc = acc + h
    return l_kl + acc * hidden_term_weight(len(hidden_losses))


def cross_entropy_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token cross entropy; ``targets`` matches logits' leading shape."""
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise DimensionError("targets must match logits leading dims")
    onehot = np.zeros(targets.shape + (vocab,), dtype=logits.data.dtype)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    rows = int(np.prod(targets.shape))
    return -(sum_(log_softmax(logits) * Tensor(onehot)) * (1.0 / rows))


def _batch_mean(x: Tensor) -> Tensor:
    """Mean of the entries of ``x``, added left to right like a chained
    ``a + b + ...`` (``np.sum`` would pair them up in another order)."""
    scale = np.asarray(1.0 / x.data.size, dtype=x.data.dtype)
    data = np.asarray(np.add.accumulate(x.data.reshape(-1))[-1] * scale)

    def grad_fn(g):
        return (np.full(x.shape, g * scale, dtype=x.data.dtype),)

    return custom_op(data, (x,), grad_fn, "batch_mean")


def dpo_loss(policy_logprobs: tuple[Tensor, Tensor],
             ref_logprobs: tuple,
             beta_pref: float) -> Tensor:
    """Batch mean of -log sigmoid(beta * (margin of preferred over dispreferred
    log-ratios)) over (preferred, dispreferred) pairs of 0-d or (B,) policy
    tensors and reference floats or (B,) arrays."""
    if len(policy_logprobs) != 2 or len(ref_logprobs) != 2:
        raise ContractError("dpo_loss needs (preferred, dispreferred) pairs")
    lp_w, lp_l = policy_logprobs
    ref_w, ref_l = (np.asarray(r, dtype=default_dtype()) for r in ref_logprobs)
    if not (lp_w.shape == lp_l.shape == ref_w.shape == ref_l.shape) or lp_w.ndim > 1:
        raise DimensionError("dpo_loss operands must share one 0-d or (B,) shape")
    f_w = lp_w - ref_w
    f_l = lp_l - ref_l
    # -log sigmoid(z) == softplus(-z), stable for large |z|
    return _batch_mean(softplus(-((f_w - f_l) * beta_pref)))


def kto_loss(policy_logprobs: Tensor | list[Tensor], ref_logprobs,
             labels, beta_pref: float, z_ref: float) -> Tensor:
    """Mean over examples of 1 - sigmoid(s_y * (r - z_ref)), ``r`` beta times
    the policy/reference log-ratio. The examples are the entries, in order,
    of ``policy_logprobs`` (a (B,) tensor or a list of B scalars), one
    reference log-prob and label (+1 desirable, -1 not) each. ``z_ref`` is a
    constant; ``rl_run`` passes the batch estimate of ``training._kto_z_ref``.
    """
    parts = [policy_logprobs] if isinstance(policy_logprobs, Tensor) else policy_logprobs
    if len(parts) == 0:
        raise ContractError("kto_loss needs at least one example")
    lp = concat([reshape(p, (-1,)) for p in parts], axis=0)
    ref = np.asarray(ref_logprobs, dtype=default_dtype()).reshape(-1)
    signs = np.asarray(labels, dtype=default_dtype()).reshape(-1)
    if not (lp.shape == ref.shape == signs.shape) or lp.shape[0] == 0:
        raise ContractError("kto_loss inputs must align")
    if not np.isin(signs, (1, -1)).all():
        raise ContractError("labels must be +1 or -1")
    r = (lp - ref) * beta_pref
    return _batch_mean(1.0 - sigmoid((r - float(z_ref)) * signs))


def sequence_logprob(logits: Tensor, tokens: np.ndarray, start: int | np.ndarray,
                     length: int | np.ndarray) -> Tensor:
    """(B,) per-row sums of log p(tokens[t] | tokens[:t]) for start <= t < length.

    ``logits`` is (B, T, V) over (B, T) ``tokens``; ``start`` and
    ``length`` are one int or one per row. Positions from ``length`` on
    are padding and contribute nothing.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or logits.shape[:-1] != tokens.shape:
        raise DimensionError("sequence_logprob needs (B, T, V) logits over (B, T) tokens")
    B, T = tokens.shape
    start = np.broadcast_to(np.asarray(start), (B,))
    length = np.broadcast_to(np.asarray(length), (B,))
    if not ((1 <= start) & (start <= length) & (length <= T)).all():
        raise ContractError("need 1 <= start <= length <= len(tokens) per row")
    logp = log_softmax(logits)
    pos = np.arange(T)
    r, t = np.nonzero((pos >= start[:, None]) & (pos < length[:, None]))
    mask = np.zeros(logits.shape, dtype=logits.data.dtype)
    mask[r, t - 1, tokens[r, t]] = 1.0  # position t-1 predicts token t
    return sum_(logp * Tensor(mask), axis=(-2, -1))
