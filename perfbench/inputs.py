"""Seeded inputs for the benchmark workloads.

Every array is drawn from an ``RngStream`` derived from the ``--seed``
argument; the library only ever receives the finished arrays.
"""

from __future__ import annotations

import numpy as np

from dgalab.attention import AttentionBatch
from dgalab.rng import RngStream


def gaussian_batch(rng: RngStream, L: int, d: int) -> AttentionBatch:
    """Q, K and V with i.i.d. standard normal entries."""
    q, k, v = rng.generator().standard_normal((3, L, d))
    return AttentionBatch(q, k, v)


def planted_batch(
    rng: RngStream, L: int, d: int, heavy_frac: float, boost: float
) -> AttentionBatch:
    """Gaussian Q/K/V with planted heavy-hitter keys.

    Following H2O (arXiv 2306.14048), a few tokens should carry most of
    the attention mass. Every query and the ``heavy_frac * L`` planted keys
    share one shift along a random unit direction, sized so that each
    planted key's logit q.k/sqrt(d) rises by ``boost`` for every query.
    """
    gen = rng.generator()
    q, k, v = gen.standard_normal((3, L, d))
    u = gen.standard_normal(d)
    u /= np.linalg.norm(u)
    heavy = gen.choice(L, size=max(1, int(heavy_frac * L)), replace=False)
    shift = np.sqrt(boost) * d**0.25 * u
    q += shift
    k[heavy] += shift
    return AttentionBatch(q, k, v)


def decode_tokens(rng: RngStream, steps: int, d: int) -> np.ndarray:
    """(steps, 3, d) array of per-step q, k, v rows."""
    return rng.generator().standard_normal((steps, 3, d))
