"""Event-driven sparse linear projection and fire-rate accounting.

Both kernels compute the dense matmul on quantized activations: zero
channels are skipped entirely, and the event kernel accumulates weight
columns micro-step-major, channel-minor, so the per-row reduction order
is fixed. That order is not the dense product's, so with floating-point
weights they agree with it to rounding, not bit for bit; they are exact
only where every partial sum is representable (integer weights, say).
Parallelism across output rows is safe because each row's sum is
order-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .neurons import SpikeTrain
from .tensor import ContractError, DimensionError


@dataclass
class OpCounter:
    """Counts accumulate operations actually performed by the event kernel."""

    accumulations: int = 0

    def add(self, n: int) -> None:
        self.accumulations += n


@dataclass(frozen=True)
class FireStats:
    spike_count: int
    micro_steps: int
    channels: int
    tokens: int

    @property
    def rate(self) -> float:
        return self.spike_count / (self.tokens * self.micro_steps * self.channels)

    def merged(self, other: "FireStats") -> "FireStats":
        if (other.micro_steps, other.channels) != (self.micro_steps, self.channels):
            raise ContractError("cannot merge fire stats from differently shaped sites")
        return FireStats(
            spike_count=self.spike_count + other.spike_count,
            micro_steps=self.micro_steps,
            channels=self.channels,
            tokens=self.tokens + other.tokens,
        )


def spike_linear_int(W: np.ndarray, s_int: np.ndarray) -> np.ndarray:
    """y = sum over firing channels of s_int[i] * W[:, i].

    Equals ``W @ s_int`` in exact arithmetic; channels with s == 0 are
    never touched.
    """
    W = np.asarray(W)
    s = np.asarray(s_int)
    if W.ndim != 2 or s.ndim != 1 or W.shape[1] != s.shape[0]:
        raise DimensionError(f"spike_linear_int shapes disagree: {W.shape} vs {s.shape}")
    idx = np.nonzero(s)[0]
    if idx.size == 0:
        return np.zeros(W.shape[0], dtype=W.dtype)
    return W[:, idx] @ s[idx].astype(W.dtype)


def spike_linear_event(
    W: np.ndarray, train: SpikeTrain, counter: OpCounter | None = None
) -> np.ndarray:
    """Accumulate weight columns per binary spike, applying the sign flag.

    One accumulation per (spike, output row); ``counter`` observes how
    many were performed.
    """
    W = np.asarray(W)
    if W.ndim != 2 or train.channels != W.shape[1]:
        raise DimensionError(
            f"spike_linear_event: W is {W.shape}, train has {train.channels} channels"
        )
    y = np.zeros(W.shape[0], dtype=W.dtype)
    signed = train.sign.astype(W.dtype)
    for step in train.spikes:  # micro-step-major
        idx = np.nonzero(step)[0]  # ascending: channel-minor within the step
        if idx.size == 0:
            continue
        y = y + W[:, idx] @ signed[idx]
        if counter is not None:
            counter.add(int(idx.size) * W.shape[0])
    return y


def fire_stats_from_ints(s_int: np.ndarray, k: int) -> FireStats:
    """Fire stats computed directly from integer activations (tokens, channels).

    Expansion emits exactly |s| spikes per channel, so the count is the
    sum of magnitudes; this avoids materializing trains during training.
    """
    s = np.asarray(s_int)
    if s.size == 0:
        raise ContractError("fire stats need at least one token and channel")
    if s.ndim == 1:
        s = s[None, :]
    tokens = int(np.prod(s.shape[:-1]))
    return FireStats(
        spike_count=int(np.abs(s).sum()),
        micro_steps=k,
        channels=s.shape[-1],
        tokens=tokens,
    )
