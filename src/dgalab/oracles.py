"""Naive reference implementations used to cross-check the fast paths.

Everything here favors explicit loops and first-principles enumeration
over code shared with the fast paths, sharing no kernel, not even softmax,
so a bug must appear in both routes to go unnoticed. The `dga-check` CLI
subcommand and the test suite both drive these. `jacobi_eigenvalues`, a
pure-Python cyclic Jacobi solver, cross-checks `numerics.sym_eigenvalues`.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionBatch
from .dga import TokenPartition
from .errors import ConvergenceError, InvalidInputError


def naive_causal_attention(batch: AttentionBatch) -> tuple[np.ndarray, np.ndarray]:
    """Double-loop causal attention; O(L^2 d) with scalar dot products."""
    L, d = batch.q.shape
    scale = 1.0 / np.sqrt(d)
    out = np.zeros((L, d))
    weights = np.zeros((L, L))
    for i in range(L):
        logits = np.array(
            [float(np.dot(batch.q[i], batch.k[j])) * scale for j in range(i + 1)]
        )
        e = np.exp(logits - logits.max())
        row = e / e.sum()
        weights[i, : i + 1] = row
        for j in range(i + 1):
            out[i] += row[j] * batch.v[j]
    return out, weights


def importance_scores_loop(weights: np.ndarray) -> np.ndarray:
    """Column-sum scores via explicit loops."""
    L = weights.shape[0]
    scores = np.zeros(L)
    for i in range(L):
        total = 0.0
        for j in range(L):
            total += weights[j, i]
        scores[i] = total / (L - i)
    return scores


def mask_by_reachability(partition: TokenPartition) -> np.ndarray:
    """Rebuild the visibility mask by asking, per (query, token) pair,
    which single column carries the token.

    A past token must be reachable through exactly one of: its focal
    column, its block's aggregated column (block fully past), or the
    complement slot of the query's straddling block. Raises AssertionError
    when a past token is unreachable or reachable twice -- that is the
    no-loss / no-double-count guarantee.
    """
    L, m, r, k = partition.L, partition.m, partition.r, partition.k
    focal_col = {int(j): col for col, j in enumerate(partition.focal)}
    token_group = {}
    token_slot = {}
    for g, members in enumerate(partition.groups):
        for slot, j in enumerate(members):
            token_group[int(j)] = g
            token_slot[int(j)] = slot

    mask = np.zeros((L, r + k + m))
    for i in range(L):
        straddled = None
        for g, members in enumerate(partition.groups):
            if members[0] <= i <= members[-1]:
                straddled = g
        for j in range(L):
            routes = []
            if j in focal_col:
                if j <= i:
                    routes.append(focal_col[j])
            else:
                g = token_group[j]
                if i >= partition.groups[g][-1]:
                    routes.append(r + g)
                elif g == straddled and j <= i:
                    routes.append(r + k + token_slot[j])
            if j <= i:
                assert len(routes) == 1, (
                    f"token {j} reachable via {len(routes)} routes from query {i}"
                )
                mask[i, routes[0]] = 1.0
            else:
                assert not routes, f"future token {j} visible to query {i}"
    return mask


def naive_dga_attention(batch: AttentionBatch, partition: TokenPartition) -> np.ndarray:
    """Per-query materialization of the grouped layout, all loops.

    Builds the focal rows and every block aggregate once, from raw member
    rows with scalar dot products, then copies that layout for each query
    and fills in its complement slots; no shared state with the
    production path beyond the partition.
    """
    L, d = batch.q.shape
    m, r, k = partition.m, partition.r, partition.k
    scale = 1.0 / np.sqrt(d)
    mask = mask_by_reachability(partition)
    base_keys = np.zeros((r + k + m, d))
    base_values = np.zeros((r + k + m, d))
    for col, j in enumerate(partition.focal):
        base_keys[col] = batch.k[j]
        base_values[col] = batch.v[j]
    for g, members in enumerate(partition.groups):
        last = members[-1]
        logits = np.array(
            [float(np.dot(batch.q[last], batch.k[j])) * scale for j in members]
        )
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        for idx, j in enumerate(members):
            base_keys[r + g] += p[idx] * batch.k[j]
            base_values[r + g] += p[idx] * batch.v[j]
    out = np.zeros((L, d))
    for i in range(L):
        keys = base_keys.copy()
        values = base_values.copy()
        for members in partition.groups:
            if members[0] <= i <= members[-1]:
                for slot, j in enumerate(members):
                    keys[r + k + slot] = batch.k[j]
                    values[r + k + slot] = batch.v[j]
        visible = np.nonzero(mask[i] > 0)[0]
        logits = np.array([float(np.dot(batch.q[i], keys[c])) * scale for c in visible])
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        for wt, c in zip(w, visible):
            out[i] += wt * values[c]
    return out


def jacobi_eigenvalues(a, off_rtol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi, sorted descending.

    Independent of LAPACK and of `numerics.sym_eigenvalues`, which it
    cross-checks. Uses the symmetric part of a; rotates in a fixed (p, q)
    sweep order until the off-diagonal Frobenius norm falls below
    off_rtol * ||A||_F. Raises ConvergenceError after max_sweeps.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidInputError("matrix must be square and nonempty")

    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    work = 0.5 * (a + a.T)
    norm = np.linalg.norm(work)
    if norm == 0.0:
        return np.zeros(n)
    target = off_rtol * norm

    def off_norm(m):
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        return np.linalg.norm(off)

    for _ in range(max_sweeps):
        if off_norm(work) < target:
            break
        # Rotating truly negligible entries just churns rounding noise.
        skip = target / (n * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = work[p, p], work[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                new_p = c * col_p - s * col_q
                new_q = s * col_p + c * col_q
                work[:, p] = new_p
                work[p, :] = new_p
                work[:, q] = new_q
                work[q, :] = new_q
                work[p, p] = app - t * apq
                work[q, q] = aqq + t * apq
                work[p, q] = 0.0
                work[q, p] = 0.0
    if off_norm(work) >= target:
        raise ConvergenceError(
            f"Jacobi sweep budget ({max_sweeps}) exhausted; "
            f"off-diagonal norm {off_norm(work):.3e} >= {target:.3e}"
        )
    return np.sort(np.diag(work))[::-1]


class NaiveDecodeSession:
    """Cache-free replay of the decode rules.

    Keeps every raw key/value it has ever seen plus the formation record
    of each aggregated block (member range, forming query), and rebuilds
    all aggregates from scratch at every step.
    """

    def __init__(self, d: int, m: int):
        self.d = d
        self.m = m
        self.threshold = -(-11 * m // 10)  # ceil(1.1 m) in integers
        self.focal_k: list = []
        self.focal_v: list = []
        self.block_members: list = []  # (k rows, v rows, forming query)
        self.tail_k: list = []
        self.tail_v: list = []
        self.columns_log: list = []

    @classmethod
    def from_prefill(cls, batch: AttentionBatch, partition: TokenPartition):
        sess = cls(batch.width, partition.m)
        for j in partition.focal:
            sess.focal_k.append(batch.k[j].copy())
            sess.focal_v.append(batch.v[j].copy())
        for g, members in enumerate(partition.groups):
            sess.block_members.append(
                (
                    [batch.k[j].copy() for j in members],
                    [batch.v[j].copy() for j in members],
                    batch.q[members[-1]].copy(),
                )
            )
        return sess

    def _aggregates(self):
        scale = 1.0 / np.sqrt(self.d)
        rows_k, rows_v = [], []
        for ks, vs, q_form in self.block_members:
            logits = np.array([float(np.dot(q_form, kk)) * scale for kk in ks])
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            rows_k.append(sum(p[t] * ks[t] for t in range(len(ks))))
            rows_v.append(sum(p[t] * vs[t] for t in range(len(vs))))
        return rows_k, rows_v

    def step(self, q, k, v) -> np.ndarray:
        self.tail_k.append(np.asarray(k, dtype=np.float64))
        self.tail_v.append(np.asarray(v, dtype=np.float64))
        agg_k, agg_v = self._aggregates()
        keys = self.focal_k + agg_k + self.tail_k
        values = self.focal_v + agg_v + self.tail_v
        scale = 1.0 / np.sqrt(self.d)
        logits = np.array([float(np.dot(q, kk)) * scale for kk in keys])
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        out = np.zeros(self.d)
        for wt, vv in zip(w, values):
            out += wt * vv
        self.columns_log.append(len(keys))
        if len(self.tail_k) >= self.threshold:
            self.block_members.append(
                (
                    self.tail_k[: self.m],
                    self.tail_v[: self.m],
                    np.asarray(q, dtype=np.float64).copy(),
                )
            )
            self.tail_k = self.tail_k[self.m :]
            self.tail_v = self.tail_v[self.m :]
        return out
