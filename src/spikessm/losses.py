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
    custom_op,
    default_dtype,
    log_softmax,
    log_softmax_forward,
    sigmoid,
    softplus,
    sum_,
)

np_log_softmax = log_softmax_forward  # the name callers outside the package import


def kl_distill_loss(teacher_logits: np.ndarray, student_logits: Tensor,
                    teacher_norm: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Mean per-position KL(teacher || student), computed in log space.

    One tape node over the student logits. ``teacher_norm`` is the
    teacher's ``(max, log-normaliser)`` from :func:`tensor.log_softmax_norm`,
    for a caller that keeps it per sequence; without it the pair is
    computed here. The floating-point operations are those of the
    composite ``const - sum(p_t * log_softmax(s)) / rows``, in its order,
    so value and gradient are bit-identical to it.
    """
    teacher_logits = np.asarray(teacher_logits)
    if teacher_logits.shape != student_logits.shape:
        raise DimensionError(
            f"teacher/student logits disagree: "
            f"{teacher_logits.shape} vs {student_logits.shape}"
        )
    rows = int(np.prod(teacher_logits.shape[:-1]))
    t_logp = log_softmax_forward(teacher_logits, norm=teacher_norm)
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


def total_distill_loss(l_kl: Tensor, hidden_losses: list[Tensor]) -> Tensor:
    """KL term plus the mean over compensation-path alignment sites."""
    if not hidden_losses:
        return l_kl
    acc = hidden_losses[0]
    for h in hidden_losses[1:]:
        acc = acc + h
    return l_kl + acc * (1.0 / len(hidden_losses))


def cross_entropy_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token cross entropy; ``targets`` matches logits' leading shape."""
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise DimensionError("targets must match logits leading dims")
    onehot = np.zeros(targets.shape + (vocab,), dtype=logits.data.dtype)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    rows = int(np.prod(targets.shape))
    return -(sum_(log_softmax(logits, axis=-1) * Tensor(onehot)) * (1.0 / rows))


def dpo_loss(policy_logprobs: tuple[Tensor, Tensor],
             ref_logprobs: tuple[float, float],
             beta_pref: float) -> Tensor:
    """-log sigmoid(beta * (margin of preferred over dispreferred log-ratios))."""
    if len(policy_logprobs) != 2 or len(ref_logprobs) != 2:
        raise ContractError("dpo_loss needs (preferred, dispreferred) pairs")
    lp_w, lp_l = policy_logprobs
    f_w = lp_w - float(ref_logprobs[0])
    f_l = lp_l - float(ref_logprobs[1])
    # -log sigmoid(z) == softplus(-z), stable for large |z|
    return softplus(-((f_w - f_l) * beta_pref))


def kto_loss(policy_logprobs: list[Tensor], ref_logprobs: list[float],
             labels: list[int], beta_pref: float,
             z_ref: float | None = None,
             weights: list[float] | None = None) -> Tensor:
    """Mean of w(y) * (1 - sigmoid(s_y * (r - z_ref))).

    ``r`` is beta times the policy/reference log-ratio. When ``z_ref``
    is not supplied it is the batch mean of r over desirable examples
    (over all examples if none are desirable), treated as a constant.
    """
    n = len(policy_logprobs)
    if n == 0:
        raise ContractError("kto_loss needs at least one example")
    if not (len(ref_logprobs) == len(labels) == n):
        raise ContractError("kto_loss inputs must align")
    weights = weights if weights is not None else [1.0] * n
    if any(w <= 0 for w in weights):
        raise ContractError("weights must be positive")
    if any(s not in (1, -1) for s in labels):
        raise ContractError("labels must be +1 or -1")

    rs = [(lp - float(ref)) * beta_pref for lp, ref in zip(policy_logprobs, ref_logprobs)]
    if z_ref is None:
        vals = [float(r.data) for r, s in zip(rs, labels) if s == 1]
        vals = vals or [float(r.data) for r in rs]
        z_ref = float(np.mean(vals))

    acc = None
    for r, s, w in zip(rs, labels, weights):
        term = (1.0 - sigmoid((r - z_ref) * float(s))) * w
        acc = term if acc is None else acc + term
    return acc * (1.0 / n)


def sequence_logprob(logits: Tensor, tokens: np.ndarray, start: int | np.ndarray,
                     length: int | np.ndarray | None = None) -> Tensor:
    """Per-row sum of log p(tokens[t] | tokens[:t]) for start <= t < length.

    ``logits`` is (B, T, V) over (B, T) ``tokens`` and gives a (B,) tensor;
    ``start`` and ``length`` (default T) are one int or one per row.
    Positions from ``length`` on are padding and contribute nothing. A
    (T, V) / (T,) pair is a single row and gives a scalar.
    """
    tokens = np.asarray(tokens)
    if logits.shape[:-1] != tokens.shape or tokens.ndim not in (1, 2):
        raise DimensionError("logits/token length mismatch")
    rows = tokens.reshape(-1, tokens.shape[-1])
    B, T = rows.shape
    start = np.broadcast_to(np.asarray(start), (B,))
    length = np.broadcast_to(np.asarray(T if length is None else length), (B,))
    if not ((1 <= start) & (start <= length) & (length <= T)).all():
        raise ContractError("need 1 <= start <= length <= len(tokens) per row")
    logp = log_softmax(logits, axis=-1)
    pos = np.arange(T)
    r, t = np.nonzero((pos >= start[:, None]) & (pos < length[:, None]))
    mask = np.zeros((B, T, logits.shape[-1]), dtype=logits.data.dtype)
    mask[r, t - 1, rows[r, t]] = 1.0  # position t-1 predicts token t
    return sum_(logp * Tensor(mask.reshape(logits.shape)), axis=(-2, -1))
