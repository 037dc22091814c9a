"""Event-driven sparse linear projection and fire-rate accounting.

Both kernels compute the dense matmul on quantized activations, one
column or a batch of columns per call, and skip the channels that fire
in no column. BLAS orders each gathered product's sums, by the number of
channels and columns, so with floating-point weights the kernels agree
with the dense product, and a batch with its columns one by one, to
rounding; they are exact where every partial sum is representable
(integer weights, say).
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

    ``s_int`` is one column (in,) or a batch of columns (in, n); the
    result has the shape of ``W @ s_int``. Equals that product in exact
    arithmetic; channels that fire in no column are never touched.
    """
    W = np.asarray(W)
    s = np.asarray(s_int)
    if W.ndim != 2 or s.ndim not in (1, 2) or W.shape[1] != s.shape[0]:
        raise DimensionError(f"spike_linear_int shapes disagree: {W.shape} vs {s.shape}")
    idx = np.nonzero(s.reshape(s.shape[0], -1).any(axis=1))[0]
    return W[:, idx] @ s.take(idx, axis=0).astype(W.dtype)  # take: a faster row gather than s[idx]


def spike_linear_event(
    W: np.ndarray, train: SpikeTrain, counter: OpCounter | None = None
) -> np.ndarray:
    """Accumulate weight columns per binary spike, applying the sign flag.

    The train expands one column (in,) or a batch of columns (in, n);
    the result has the shape of ``W @`` those columns. Each micro-step
    gathers the channels that fire in any column and multiplies their
    signed spikes once. One accumulation per (spike, output row);
    ``counter`` observes how many were performed.
    """
    W = np.asarray(W)
    if W.ndim != 2 or train.spikes.ndim not in (2, 3) or train.channels != W.shape[1]:
        raise DimensionError(f"spike_linear_event: W is {W.shape}, "
                             f"train spikes are {train.spikes.shape}")
    y = np.zeros(W.shape[:1] + train.sign.shape[1:], dtype=W.dtype)
    signed = train.spikes * train.sign.astype(W.dtype)
    active = train.spikes.reshape(train.spikes.shape[:2] + (-1,)).any(axis=2)
    for step, on in zip(signed, active):  # micro-step-major
        idx = np.nonzero(on)[0]
        if idx.size:
            y = y + W[:, idx] @ step.take(idx, axis=0)
    if counter is not None:
        counter.accumulations += np.count_nonzero(train.spikes) * W.shape[0]
    return y


def fire_stats_from_ints(s_int: np.ndarray, k: int) -> FireStats:
    """Fire stats computed directly from integer activations (tokens, channels).

    Expansion emits exactly |s| spikes per channel, so the count is the
    sum of magnitudes; this avoids materializing trains during training.
    """
    s = np.asarray(s_int)
    if s.size == 0:
        raise ContractError("fire stats need at least one token and channel")
    return FireStats(
        spike_count=int(np.abs(s).sum()),
        micro_steps=k,
        channels=s.shape[-1],
        tokens=int(np.prod(s.shape[:-1])),
    )
