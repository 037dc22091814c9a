"""Bias-corrected adaptive optimizer and the run schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import ContractError, Tensor


class AdamW:
    """Standard bias-corrected adaptive update, without weight decay."""

    b1, b2, eps = 0.9, 0.98, 1e-8

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        self.t = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.params}
        self._v = {id(p): np.zeros_like(p.data) for p in self.params}

    def step(self, grads: dict[int, np.ndarray], lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for p in self.params:
            g = grads.get(id(p))
            if g is None:
                raise ContractError("missing gradient for a registered parameter")
            if g.shape != p.data.shape:
                raise ContractError("gradient/parameter shape mismatch")
            m = self._m[id(p)]
            v = self._v[id(p)]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.data = p.data - lr * update


def lr_schedule(step: int, total_steps: int, peak: float) -> float:
    """Linear warm-up over the first 1% of steps, then cosine to 10% of peak."""
    warmup = max(1, int(round(0.01 * total_steps)))
    if step < warmup:
        return peak * (step + 1) / warmup
    span = max(1, total_steps - warmup)
    progress = min(1.0, (step - warmup) / span)
    floor = 0.1 * peak
    return floor + 0.5 * (peak - floor) * (1.0 + math.cos(math.pi * progress))
