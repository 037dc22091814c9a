"""Machine-speed ruler: timings scaled to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to 2x over minutes as other tenants come and go, longer than one
run. No statistic taken inside a run removes a drift that covers it.
So every timed sample is followed at once by ``reference_work``: fixed
numpy and Python work that calls nothing in the package, in the same
mix as the workloads (interpreter-bound loops, B=1-sized vector ops,
B8-sized array ops, and a tape's pattern of many small arrays kept
alive and read back). A sample is then reported as the time it would
have taken on a machine where that reference work takes ``REF_MS``:
``t * REF_MS / ref``. A change to the package moves ``t`` and leaves
``ref`` alone, so it shows in full; a slow stretch of the machine
moves both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# A round figure near the reference work's median time on a 2-vCPU Xeon
# (Sapphire Rapids) KVM guest with one BLAS thread; it sets only the
# scale of the reported times.
REF_MS = 4.0

_BLOCK = np.linspace(0.0, 1.0, 8 * 64 * 64, dtype=np.float32).reshape(8, 64, 64)
_MIX = np.eye(64, dtype=np.float32) * 0.9
_VEC = np.linspace(-1.0, 1.0, 64, dtype=np.float32)
_ROWS = [np.linspace(-1.0, 1.0, 64 * k, dtype=np.float32).reshape(k, 64) for k in (1, 8, 16)]


def reference_work() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    t0 = perf_counter()
    acc = 0
    for i in range(2000):
        acc += (i * 7) % 13
    acc += len({str(j): j for j in range(150)})
    x = _VEC
    for _ in range(75):
        y = _MIX @ np.tanh(x * 0.5 + _VEC)
        x = y / (1.0 + np.abs(y).max())
    a = _BLOCK
    for _ in range(4):
        a = np.tanh(a * 0.9 + _BLOCK)
        acc += float(np.exp(-np.abs(a @ _MIX)).sum(axis=-1)[0, 0])
    # a tape's pattern: many small arrays kept alive, then read back in reverse
    tape = []
    for i in range(70):
        for v in _ROWS:
            h = np.tanh(v @ _MIX + 0.1)
            tape.append((h, h * v, i))
    for _, g, _ in reversed(tape):
        acc += float(g[0, 0])
    elapsed = perf_counter() - t0
    if not np.isfinite(acc + float(x[0])):
        raise RuntimeError("reference work produced a non-finite value")
    return elapsed


@dataclass
class Series:
    """Timed samples of one kind, each with the reference time taken
    right after it: the median of ``ref_reps`` runs of the reference
    work, more than one where a sample is long or samples are few."""

    ref_reps: int = 1
    raw: list[float] = field(default_factory=list)
    ref: list[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.ref.append(float(np.median([reference_work() for _ in range(self.ref_reps)])))

    def scaled(self) -> np.ndarray:
        """Samples in seconds at the reference speed."""
        return np.asarray(self.raw) * (REF_MS * 1e-3) / np.asarray(self.ref)

    def __len__(self) -> int:
        return len(self.raw)
