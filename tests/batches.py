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
