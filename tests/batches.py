"""Seeded Q/K/V batches shared by the attention, DGA and decode tests."""

import numpy as np

from dgalab.attention import AttentionBatch


def random_batch(rng, L, d):
    return AttentionBatch(
        rng.normal(size=(L, d)), rng.normal(size=(L, d)), rng.normal(size=(L, d))
    )


def scaled_batch(seed, L, d, reach):
    """Gaussian Q/K/V with Q scaled so the largest |q.k| / sqrt(d) is reach."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(L, d)) for _ in range(3))
    q *= reach / np.abs(q @ k.T / np.sqrt(d)).max()
    return AttentionBatch(q, k, v)


def planted_batch(seed, L, d, heavy_frac=0.03, boost=4.0):
    """Gaussian Q/K/V in which every query and heavy_frac * L keys share one
    shift that raises those keys' logits by boost, so few tokens carry most
    of the attention mass."""
    rng = np.random.default_rng(seed)
    q, k, v = rng.normal(size=(3, L, d))
    u = rng.normal(size=d)
    shift = np.sqrt(boost) * d**0.25 * u / np.linalg.norm(u)
    q += shift
    k[rng.choice(L, size=max(1, int(heavy_frac * L)), replace=False)] += shift
    return AttentionBatch(q, k, v)
