"""Spiking neurons: binary, integer, and signed ternary-integer variants.

Training mode quantizes activations to integers with a rectangular
surrogate gradient; inference mode expands each integer into a binary
micro-step spike train whose column sum reconstructs it exactly.
Everything here is a pure function, safe to call in parallel across
channels and sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ContractError, Tensor, custom_op

LIF = "lif"
ILIF = "ilif"
TILIF = "tilif"
KINDS = (LIF, ILIF, TILIF)


@dataclass(frozen=True)
class NeuronConfig:
    """Neuron kind plus its amplitude bound and surrogate scale.

    Decay and threshold are fixed at 1: the micro-step expansion is exact
    only then, so neither is a setting.
    """

    kind: str = TILIF
    d_max: int = 4
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown neuron kind {self.kind!r}")
        if self.d_max < 1:
            raise ContractError("d_max must be >= 1")
        if self.kind == LIF and self.d_max != 1:
            raise ContractError("LIF implies d_max == 1")


@dataclass
class SpikeTrain:
    """Binary spikes per micro-step plus a one-bit sign flag per activation
    of ``s``, channels first: (channels,) or (channels, n)."""

    spikes: np.ndarray  # (d_max,) + s.shape of {0, 1}
    sign: np.ndarray    # s.shape of {+1, -1}

    @property
    def channels(self) -> int:
        return self.spikes.shape[1]


def quantize(cfg: NeuronConfig, x: np.ndarray) -> np.ndarray:
    """Plain-array neuron forward. Ties round half to even."""
    if cfg.kind == LIF:
        return (x - 1.0 >= 0.0).astype(x.dtype)
    r = np.round(x)
    lo = 0.0 if cfg.kind == ILIF else -float(cfg.d_max)
    return np.clip(r, lo, float(cfg.d_max))


def surrogate_window(cfg: NeuronConfig, x: np.ndarray) -> np.ndarray:
    """Rectangular surrogate: alpha inside the (inclusive) active range, else 0."""
    d = float(cfg.d_max)
    lo = 0.0 if cfg.kind == ILIF else -d
    return np.where((x >= lo) & (x <= d), cfg.alpha, 0.0).astype(x.dtype)


def neuron_forward(cfg: NeuronConfig, x: Tensor) -> Tensor:
    """Integer-valued spike activation with the rectangular surrogate backward."""
    def grad_fn(g):
        return (g * surrogate_window(cfg, x.data),)

    return custom_op(quantize(cfg, x.data), (x,), grad_fn, f"neuron_{cfg.kind}")


def expand_spike_train(cfg: NeuronConfig, s_int: np.ndarray) -> SpikeTrain:
    """Expand integer activations into d_max binary micro-steps.

    Micro-step i fires iff |s_int| >= i + 1: the leaky integrate-and-fire
    recurrence with decay 1 and threshold 1, fed |s_int| once at the
    first micro-step. The per-channel spike count then equals |s_int|
    exactly; the sign is carried separately (sign of zero is +1). The
    train keeps the shape of ``s_int`` behind its micro-step axis.
    """
    s = np.asarray(s_int, dtype=np.float64)
    mag = np.abs(s)
    if not (s == np.round(s)).all():
        raise ContractError("spike-train expansion requires integer activations")
    if (mag > cfg.d_max).any():
        raise ContractError(f"activation magnitude exceeds d_max={cfg.d_max}: "
                            f"max |s| = {mag.max()}")
    levels = np.arange(1, cfg.d_max + 1).reshape((-1,) + (1,) * s.ndim)
    spikes = (mag >= levels).astype(np.uint8)
    return SpikeTrain(spikes=spikes, sign=np.where(s < 0, -1.0, 1.0))


def collapse_spike_train(train: SpikeTrain) -> np.ndarray:
    """Inverse of expansion: signed column sums recover the integer activations."""
    return train.sign * train.spikes.sum(axis=0)
