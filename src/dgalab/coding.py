"""Constrained least squares over token values, grouped and ungrouped.

The ungrouped problem seeks simplex weights alpha minimizing
||sum_j alpha_j V_j - y||^2; the grouped variant shares one weight per
contiguous block of m tokens, replacing the value rows by their block
averages. The module also quantifies how grouping changes the optimization
landscape (Hessian spectra, condition numbers) and how it damps additive
logit noise (first-order softmax perturbation, variance ratios, KL drift).
The noise estimators overwrite only their own draws: each (trials, L) draw is
scaled, shifted, softmaxed, centred and squared in place; no argument is written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, StepTooLargeError, check_count, check_finite
from .numerics import (
    _as_finite_vector,
    check_prob_vector,
    condition_number,
    project_to_simplex,
    softmax,
    softmax_into,
    sym_eigenvalues,
)
from .rng import RngStream


@dataclass(frozen=True)
class CodingInstance:
    """Value rows V (L x d) and target embedding y (length d)."""

    v: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        v, y = check_finite(self.v, "V"), check_finite(self.y, "y")
        if v.ndim != 2 or v.size == 0:
            raise InvalidInputError("V must be a nonempty L x d matrix")
        if y.shape != (v.shape[1],):
            raise InvalidInputError("y length must match V's width")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "y", y)

    @property
    def length(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True)
class GroupStructure:
    """Partition of 1..L into k contiguous blocks of exactly m indices."""

    L: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "L", check_count(self.L, "L", 1))
        object.__setattr__(self, "m", check_count(self.m, "m", 1))
        if self.L % self.m:
            raise InvalidInputError(f"group size {self.m} does not divide L={self.L}")

    @property
    def k(self) -> int:
        return self.L // self.m


def build_grouping_matrix(L: int, m: int) -> np.ndarray:
    """k x L block-averaging matrix: 1/m on each contiguous block."""
    return np.repeat(np.eye(GroupStructure(L, m).k), m, axis=1) / m


def _basis(inst: CodingInstance, groups: GroupStructure | None) -> np.ndarray:
    """V, or its block averages M V when grouped."""
    if groups is None:
        return inst.v
    if groups.L != inst.length:
        raise InvalidInputError("group structure length mismatch")
    return build_grouping_matrix(groups.L, groups.m) @ inst.v


def hessians(inst: CodingInstance, groups: GroupStructure) -> tuple[np.ndarray, np.ndarray]:
    """Objective Hessians with respect to the simplex variables.

    H = 2 Gram(V rows) is L x L; H_bar = 2 Gram(rows of M V) is k x k,
    where M is the block-averaging matrix. Both are symmetric PSD.
    """
    v_bar = _basis(inst, groups)
    return 2.0 * (inst.v @ inst.v.T), 2.0 * (v_bar @ v_bar.T)


def verify_condition_numbers(inst: CodingInstance, m: int) -> tuple[float, float, bool]:
    """Condition numbers of the grouped and ungrouped Hessians.

    holds is True when grouping did not worsen the conditioning,
    kappa(H_bar) <= kappa(H) up to 1e-9 relative slack.
    """
    h, h_bar = hessians(inst, GroupStructure(inst.length, m))
    kappa_h = condition_number(sym_eigenvalues(h))
    kappa_h_bar = condition_number(sym_eigenvalues(h_bar))
    return kappa_h, kappa_h_bar, kappa_h_bar <= kappa_h * (1.0 + 1e-9)


@dataclass
class SolveTrace:
    """Objective trajectory of a projected-gradient solve."""

    iterates: list
    final_alpha: np.ndarray

    def iterations_to_gap(self) -> int:
        """First iteration whose objective is within 1e-6 (relative) of the best."""
        best = min(obj for _, obj in self.iterates)
        floor = best + 1e-6 * max(1.0, abs(best))
        for it, obj in self.iterates:
            if obj <= floor:
                return it
        return self.iterates[-1][0]


def solve_coding(
    inst: CodingInstance,
    groups: GroupStructure | None = None,
    step: float | None = None,
    iters: int = 10_000,
) -> SolveTrace:
    """Projected gradient descent on the closed simplex.

    With groups, optimizes the k shared block weights against the
    block-averaged value rows; otherwise the full L-dimensional problem.
    step=None uses 1 / (2 lambda_max) of the relevant Hessian, which keeps
    the objective non-increasing. Raises StepTooLargeError when the
    objective grows by ten orders of magnitude.
    """
    iters = check_count(iters, "iters", 1)
    basis = _basis(inst, groups)
    if step is None:
        lam_max = float(sym_eigenvalues(2.0 * (basis @ basis.T))[0])
        step = 0.5 / lam_max if lam_max > 0 else 1.0
    elif check_finite(step, "step") <= 0:
        raise InvalidInputError("step must be positive")

    n = basis.shape[0]
    alpha = np.full(n, 1.0 / n)
    r = basis.T @ alpha - inst.y  # the residual serves both the objective and the gradient
    obj = float(r @ r)
    limit = 1e10 * max(obj, 1e-30)
    iterates = [(0, obj)]
    for it in range(1, iters + 1):
        alpha = project_to_simplex(alpha - step * (2.0 * (basis @ r)))
        r = basis.T @ alpha - inst.y
        obj = float(r @ r)
        if obj > limit:
            raise StepTooLargeError(
                f"objective grew to {obj:.3e} at iteration {it}; reduce step"
            )
        iterates.append((it, obj))
    return SolveTrace(iterates, alpha)


def softmax_perturbation_residual(alpha_tilde, delta) -> float:
    """Norm of (exact softmax change) minus (first-order prediction).

    The first-order prediction for logit perturbation D is
    alpha_j * (D_j - sum_i alpha_i D_i).
    """
    alpha_tilde = np.asarray(alpha_tilde, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    alpha = softmax(alpha_tilde)
    exact = softmax(alpha_tilde + delta) - alpha
    predicted = alpha * (delta - float(alpha @ delta))
    return float(np.linalg.norm(exact - predicted))


def first_order_delta_check(
    alpha_tilde, delta_scale: float, rng: RngStream
) -> float:
    """Richardson check of the first-order softmax expansion.

    Draws one Gaussian direction, evaluates the expansion residual at
    scales delta and delta/2, and returns their ratio; a second-order
    remainder gives a ratio near 4.
    """
    if check_finite(delta_scale, "delta_scale") < 0:
        raise InvalidInputError("delta_scale must be nonnegative")
    alpha_tilde = _as_finite_vector(alpha_tilde, "alpha_tilde")
    direction = rng.normal(alpha_tilde.size)
    big = softmax_perturbation_residual(alpha_tilde, delta_scale * direction)
    small = softmax_perturbation_residual(alpha_tilde, 0.5 * delta_scale * direction)
    if small == 0.0:
        return float("nan")
    return big / small


def _noisy_softmax(gen, logits: np.ndarray, sigma: float, trials: int, cols=slice(None)):
    """Rows softmax(logits + sigma z), z ~ N(0, 1) (trials, L), in z's one array."""
    x = gen.standard_normal((trials, logits.size))
    np.add(np.multiply(x, sigma, out=x), logits, out=x)
    return softmax_into(x, x, cols)


def _mean_var(x: np.ndarray, clean: np.ndarray) -> float:
    """Mean over columns of np.var(x - clean, axis=0, ddof=1), np.var's steps in x."""
    x -= clean
    x -= x.sum(axis=0, keepdims=True) / x.shape[0]
    np.square(x, out=x)
    return (x.sum(axis=0) / (x.shape[0] - 1)).mean()


def perturbation_variance(
    alpha, j: int, sigma: float, trials: int, rng: RngStream
) -> tuple[float, float]:
    """Empirical vs predicted variance of one softmax weight under noise.

    Noise is i.i.d. N(0, sigma^2) on every logit; the prediction is the
    first-order closed form alpha_j^2 (1 + sum_i alpha_i^2 - 2 alpha_j)
    sigma^2.
    """
    alpha = check_prob_vector(alpha)
    j = check_count(j, "j", 0)
    if j >= alpha.size:
        raise InvalidInputError("index j out of range")
    check_finite(sigma, "sigma")
    trials = check_count(trials, "trials", 2)
    predicted = float(
        alpha[j] ** 2 * (1.0 + np.sum(alpha**2) - 2.0 * alpha[j]) * sigma**2
    )
    if sigma == 0.0:
        return 0.0, 0.0
    with np.errstate(divide="ignore"):
        alpha_tilde = np.where(alpha > 0, np.log(alpha), -np.inf)
    perturbed = _noisy_softmax(rng.generator(), alpha_tilde, sigma, trials, slice(j, j + 1))
    return float(np.var(perturbed[:, j], ddof=1)), predicted


def _plain_noise(alpha_tilde, m: int, sigma: float, trials: int, rng: RngStream):
    """Shared start of the two variance ratios: check m, sigma, trials and the
    logits (by their clean softmax), draw one N(0, sigma^2) per logit, and return
    the blocks of m, the generator after that draw, the noisy softmax rows (in
    the draw's array) and the clean softmax."""
    alpha_tilde = np.asarray(alpha_tilde, dtype=np.float64)
    groups = GroupStructure(alpha_tilde.size, m)
    if not 0 < sigma < np.inf:
        raise InvalidInputError("sigma must be positive and finite")
    trials = check_count(trials, "trials", 2)
    clean = softmax(alpha_tilde)
    gen = rng.generator()
    return groups, gen, _noisy_softmax(gen, alpha_tilde, sigma, trials), clean


def grouped_variance_ratio(
    alpha_tilde, m: int, sigma: float, trials: int, rng: RngStream
) -> float:
    """Variance damping of per-member weight changes under group noise.

    Grouped model: one N(0, sigma^2) draw per block of m logits, applied
    to each member at strength 1/m (the block weight absorbs the noise and
    spreads it over its members). Ungrouped model: independent
    N(0, sigma^2) per logit. Returns mean-over-members variance ratio
    grouped / ungrouped at the same clean weights; the construction makes
    this concentrate near 1/m^2.
    """
    alpha_tilde = np.asarray(alpha_tilde, dtype=np.float64)
    groups, gen, noisy, clean = _plain_noise(alpha_tilde, m, sigma, trials, rng)
    spread = np.repeat(sigma * gen.standard_normal((trials, groups.k)) / m, m, axis=1)
    spread += alpha_tilde
    return float(_mean_var(softmax_into(spread, spread), clean) / _mean_var(noisy, clean))


def ambient_variance_ratio(
    alpha_tilde, m: int, sigma: float, trials: int, rng: RngStream
) -> float:
    """Alternative baseline: full-strength i.i.d. noise on every member
    logit, with the block-shared weight recomputed from the noisy members.

    Reported alongside the grouped ratio; no damping guarantee is claimed
    for this model.
    """
    groups, _, noisy, clean = _plain_noise(alpha_tilde, m, sigma, trials, rng)

    def regroup(rows):
        shared = rows.reshape(rows.shape[0], groups.k, m).mean(axis=2)
        return np.repeat(shared, m, axis=1)

    return float(_mean_var(regroup(noisy), regroup(clean[None, :])) / _mean_var(noisy, clean))


def kl_under_noise(
    inst: CodingInstance,
    groups: GroupStructure,
    sigma_list,
    trials: int,
    rng: RngStream,
) -> list:
    """Mean KL drift of clean vs noisy weights, ungrouped and grouped.

    Logits are the value-target alignments V @ y. Ungrouped: N(0, sigma^2)
    on each of the L logits. Grouped: N(0, sigma^2) on each of the k block
    logits (block means of the member logits), compared on the
    L-dimensional effective distribution that gives every member its
    block's weight split m ways. Returns rows (sigma, kl_ungrouped,
    kl_grouped).
    """
    if groups.L != inst.length:
        raise InvalidInputError("group structure length mismatch")
    trials = check_count(trials, "trials", 1)
    sigmas = check_finite(sigma_list, "sigma").tolist()
    logits = inst.v @ inst.y
    block_logits = build_grouping_matrix(groups.L, groups.m) @ logits
    clean = softmax(logits)
    clean_grouped = softmax(block_logits)

    def mean_kl(p, q_rows):
        support = p > 0
        ps = p[support]
        with np.errstate(divide="ignore"):  # [:, support] is one column-major copy
            logq = np.log(q_rows, out=q_rows)[:, support]
        np.subtract(np.log(ps), logq, out=logq)
        return float(np.mean(np.multiply(logq, ps, out=logq).sum(axis=1)))

    rows = []
    for si, sigma in enumerate(sigmas):
        gen = rng.child(si).generator()
        noisy = _noisy_softmax(gen, logits, sigma, trials)
        noisy_grouped = _noisy_softmax(gen, block_logits, sigma, trials)
        # KL on the per-member effective distribution equals the
        # block-level KL because each block spreads its weight evenly.
        rows.append((sigma, mean_kl(clean, noisy), mean_kl(clean_grouped, noisy_grouped)))
    return rows
