"""Quantities the benchmark computes itself from a partition and the inputs.

None of this calls the library's fast paths: the per-row reference, the
visible-column count and the focal set of exact scoring are rebuilt here
from first principles, so they can check the library and count its work.
"""

from __future__ import annotations

import numpy as np


def _softmax_last(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def group_array(part) -> np.ndarray:
    """The partition's blocks as a (k, m) array of token indices."""
    return np.array(part.groups, dtype=np.int64).reshape(part.k, part.m)


def reference_rows(batch, part, rows) -> np.ndarray:
    """Grouped-attention output of the given query rows.

    Query i sees its past focal tokens, one aggregated row per block that
    ends at or before i (weights: the softmax of the block's keys against
    the block's last query), and the raw members <= i of the block whose
    span straddles i.
    """
    q, k, v = batch.q, batch.k, batch.v
    scale = 1.0 / np.sqrt(q.shape[1])
    groups = group_array(part)
    if part.k:
        p = _softmax_last(np.einsum("gmd,gd->gm", k[groups], q[groups[:, -1]]) * scale)
        k_agg = np.einsum("gm,gmd->gd", p, k[groups])
        v_agg = np.einsum("gm,gmd->gd", p, v[groups])
    out = np.empty((len(rows), q.shape[1]))
    for n, i in enumerate(rows):
        focal = part.focal[part.focal <= i]
        keys, vals = [k[focal]], [v[focal]]
        if part.k:
            past = groups[:, -1] <= i
            keys.append(k_agg[past])
            vals.append(v_agg[past])
            straddle = np.nonzero((groups[:, 0] <= i) & (groups[:, -1] > i))[0]
            for g in straddle:
                members = groups[g][groups[g] <= i]
                keys.append(k[members])
                vals.append(v[members])
        w = _softmax_last((np.concatenate(keys) @ q[i]) * scale)
        out[n] = w @ np.concatenate(vals)
    return out


def exact_rows(batch, rows) -> np.ndarray:
    """Causal softmax attention output of the given query rows."""
    scale = 1.0 / np.sqrt(batch.q.shape[1])
    out = np.empty((len(rows), batch.q.shape[1]))
    for n, i in enumerate(rows):
        w = _softmax_last((batch.k[: i + 1] @ batch.q[i]) * scale)
        out[n] = w @ batch.v[: i + 1]
    return out


def visible_columns(part) -> np.ndarray:
    """Number of visible grouped-layout columns for each query row."""
    L = part.L
    i = np.arange(L)
    count = np.searchsorted(part.focal, i, side="right")
    if part.k == 0:
        return count
    groups = group_array(part)
    count = count + np.searchsorted(groups[:, -1], i, side="right")
    g = np.searchsorted(groups[:, 0], i, side="right") - 1
    straddling = (g >= 0) & (i < groups[np.maximum(g, 0), -1])
    members = (groups[np.maximum(g, 0)] <= i[:, None]).sum(axis=1)
    return count + np.where(straddling, members, 0)


def base_focal_count(L: int, gamma: float) -> int:
    """Focal tokens before divisibility promotion: max(1, ceil(gamma L))."""
    return max(1, int(np.ceil(gamma * L - 1e-9)))


def exact_focal(weights: np.ndarray, r: int) -> np.ndarray:
    """The r best tokens by exact column-sum score (ties by index)."""
    L = weights.shape[0]
    scores = weights.sum(axis=0) / (L - np.arange(L))
    return np.sort(np.argsort(-scores, kind="stable")[:r])


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Relative Frobenius error ||got - want|| / ||want||."""
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))
