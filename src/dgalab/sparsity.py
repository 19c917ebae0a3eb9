"""Concentration metrics for attention-weight rows.

A length-L weight row is rho-sparse when some entry strictly exceeds
1/(L*rho). The module estimates the probability of that event empirically
and computes a Monte Carlo lower bound from per-coordinate head/tail
statistics of the logit distribution.

Bound construction: for any x > 0 the event {alpha_j <= 1/(L*rho)} is
contained in {exp(xi_j) <= x} union {(L*rho - 1) x <= sum_{k != j}
exp(xi_k)} (if both fail, coordinate j already exceeds the threshold), so

    P_sparse(L, rho) >= max_x 1 - P{head(x) or tail(x)}^L,

where the outer product step assumes the negative dependence of weights
that share a normalizer. The guarantee is verified only for i.i.d. logit
samplers; sources with dependent coordinates are reported, never asserted.
An array a LogitSource's draw returns is only read: the weight rows and the
bound's log-sum-exp are computed in one new array each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, check_count, check_finite
from .numerics import _as_finite_vector, exp_rows, softmax_into
from .rng import RngStream

_CHUNK_ENTRIES = 4_000_000


@dataclass(frozen=True)
class LogitSource:
    """Named distribution over length-L logit vectors.

    draw(rng, n, L) returns an (n, L) float array whose coordinates are
    exchangeable, so the bound may use a single generic coordinate.
    """

    name: str
    draw: Callable[[RngStream, int, int], np.ndarray]


def gaussian_source() -> LogitSource:
    def draw(rng, n, L):
        return rng.generator().standard_normal((n, L))

    return LogitSource("gaussian(mean=0.0,std=1.0)", draw)


def student_t_source() -> LogitSource:
    def draw(rng, n, L):
        return rng.generator().standard_t(2.0, size=(n, L))

    return LogitSource("student_t(df=2.0,scale=1.0)", draw)


def mixture_source() -> LogitSource:
    """Standard normal bulk; each logit is shifted by 3 with probability 0.1."""

    def draw(rng, n, L):
        gen = rng.generator()
        base = gen.standard_normal((n, L))
        spikes = gen.random((n, L)) < 0.1
        return base + 3.0 * spikes

    return LogitSource("mixture(p=0.1,mu=3.0,std=1.0)", draw)


def attention_source(d: int = 16) -> LogitSource:
    """Last-token logits K @ q / sqrt(d) of random Gaussian batches.

    Given q the logits are i.i.d. N(0, |q|^2 / d), dependent only through the
    shared |q|. draw samples that law: q as one (n, d) array, then z as one
    (n, L) array from the same generator, returning z * |q| / sqrt(d) from
    n*(L + d) normals, not n*L*d. Bound values for this source are reported only.
    """
    d = check_count(d, "d", 1)

    def draw(rng, n, L):
        gen = rng.generator()
        scale = np.linalg.norm(gen.standard_normal((n, d)), axis=1) / np.sqrt(d)
        z = gen.standard_normal((n, L))
        return np.multiply(z, scale[:, None], out=z)

    return LogitSource(f"attention(d={d})", draw)


def named_source(name: str, d: int = 16) -> LogitSource:
    table = {
        "gaussian": gaussian_source,
        "student_t": student_t_source,
        "mixture": mixture_source,
        "attention": lambda: attention_source(d),
    }
    if name not in table:
        raise InvalidInputError(f"unknown logit source {name!r}")
    return table[name]()


def _check_rho(rho: float, L: int) -> float:
    rho = float(rho)
    if not (1.0 / L < rho <= 1.0):
        raise InvalidInputError(
            f"rho must lie in (1/L, 1] = ({1.0 / L:.6g}, 1]; got {rho!r}"
        )
    return rho


def empirical_p_sparse(weight_rows, rho: float) -> float:
    """Fraction of weight rows that are rho-sparse, i.e. whose largest
    weight strictly exceeds 1/(L*rho); a single row gives 0.0 or 1.0."""
    rows = np.atleast_2d(check_finite(weight_rows, "weight_rows"))
    if rows.size == 0:
        raise InvalidInputError("no weight rows given")
    L = rows.shape[1]
    rho = _check_rho(rho, L)
    return float(np.mean(rows.max(axis=1) > 1.0 / (L * rho)))


def sample_weight_rows(source: LogitSource, L: int, n: int, rng: RngStream) -> np.ndarray:
    """n softmaxed logit rows of length L from the source."""
    L, n = check_count(L, "L", 1), check_count(n, "n", 0)
    logits = source.draw(rng, n, L)
    return softmax_into(logits, np.empty_like(logits))


@dataclass(frozen=True)
class BoundDetail:
    bound: float
    standard_error: float


def p_sparse_lower_bound_detail(
    source: LogitSource,
    L: int,
    rho: float,
    x_grid=None,
    trials: int = 10_000,
    rng: RngStream = RngStream(0),
) -> BoundDetail:
    """Monte Carlo sparsity lower bound, maximized over a grid of x.

    The per-coordinate head/tail events are evaluated in log space so
    heavy-tailed logits cannot overflow. When x_grid is None, 32
    log-spaced points spanning the [1st, 99th] percentile of exp(xi_j)
    are used. The source's exchangeability lets coordinate 0 stand for
    every coordinate.
    """
    L = check_count(L, "L", 1)
    rho = _check_rho(rho, L)
    trials = check_count(trials, "trials", 10_000)
    if x_grid is not None:
        x_grid = _as_finite_vector(x_grid, "x_grid")
        if np.any(x_grid <= 0):
            raise InvalidInputError("x_grid values must be positive")

    log_thresh = np.log(L * rho - 1.0)
    block = max(1, _CHUNK_ENTRIES // L)
    log_head, log_tail = np.empty(trials), np.empty(trials)
    for start in range(0, trials, block):
        stop = min(trials, start + block)
        logits = source.draw(rng.child(start), stop - start, L)
        log_head[start:stop] = logits[:, 0]
        # log sum_{k != 0} exp(logits[:, k]), shifted by the row max, in one new array
        rest = logits[:, 1:]
        log_tail[start:stop] = rest.max(axis=1) + np.log(exp_rows(rest, np.empty_like(rest)))
    if x_grid is None:
        lo, hi = np.percentile(log_head, [1.0, 99.0])
        grid_logs = np.linspace(lo, hi, 32)
    else:
        grid_logs = np.log(np.sort(x_grid))
    lx = grid_logs[:, None]
    u = ((log_head <= lx) | (log_thresh + lx <= log_tail)).mean(axis=1).tolist()
    # Scalar pow, as numpy's vector pow can differ in the last bit; u in [0, 1] needs no clip.
    bounds = [1.0 - x**L for x in u]
    u = u[bounds.index(max(bounds))]  # the first best x
    return BoundDetail(max(bounds), float(L * u ** (L - 1) * np.sqrt(u * (1.0 - u) / trials)))


def sparsity_profile(
    source: LogitSource,
    L_list,
    rho_list,
    trials: int,
    rng: RngStream,
) -> dict:
    """Empirical P_sparse and its lower bound on the (L, rho) grid, as
    {(L, rho): (empirical_p, bound_p)}.

    Grid cells with rho <= 1/L fall outside the sparse-rate domain and are
    skipped. A repeated L is computed once, from the stream of its last
    occurrence in L_list.
    """
    lengths = [check_count(L, "L", 1) for L in L_list]
    trials = check_count(trials, "trials", 1)
    rhos = check_finite(rho_list, "rho").tolist()
    cells = {}
    for L, li in {L: li for li, L in enumerate(lengths)}.items():
        cell_rng = rng.child(1000 + li)
        rows = sample_weight_rows(source, L, trials, cell_rng.child(0))
        for ri, rho in enumerate(rhos):
            if not (1.0 / L < rho <= 1.0):
                continue
            emp = empirical_p_sparse(rows, rho)
            detail = p_sparse_lower_bound_detail(
                source, L, rho, None, max(trials, 10_000), cell_rng.child(1 + ri)
            )
            cells[(L, rho)] = (emp, detail.bound)
    return cells
