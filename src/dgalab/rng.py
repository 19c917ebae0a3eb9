"""Counter-based deterministic random streams.

Every stochastic routine in the package takes an explicit ``RngStream``.
A stream is a value, not a stateful object: drawing from the same stream
twice yields the same numbers. Fresh randomness comes from deriving child
streams (disjoint Philox keys), which returns a new value and leaves the
original untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit ints."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Immutable handle into a Philox counter-based generator.

    (seed, stream_id) selects the 128-bit Philox key.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator positioned at this stream's state."""
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Statistically independent stream derived from this one."""
        derived = _mix64(self.stream_id ^ _mix64((index & _MASK64) ^ 0x9E3779B97F4A7C15))
        return RngStream(self.seed, derived)

    def normal(self, size, scale: float = 1.0) -> np.ndarray:
        """Standard normal draws times `scale` (exact zeros for scale 0)."""
        if scale == 0.0:
            return np.zeros(size, dtype=np.float64)
        return scale * self.generator().standard_normal(size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), sorted ascending."""
        picked = self.generator().choice(n, size=k, replace=False)
        return np.sort(picked)
