"""Grouped coding: grouping-matrix spectra, Hessian conditioning,
projected-gradient solves, and noise-damping measurements."""

import numpy as np
import pytest

from dgalab.coding import (
    CodingInstance,
    GroupStructure,
    ambient_variance_ratio,
    build_grouping_matrix,
    first_order_delta_check,
    grouped_variance_ratio,
    hessians,
    kl_under_noise,
    perturbation_variance,
    softmax_perturbation_residual,
    solve_coding,
    verify_condition_numbers,
)
from dgalab.matrixio import write_csv
from dgalab.errors import InvalidInputError, StepTooLargeError
from dgalab.numerics import softmax, sym_eigenvalues
from dgalab.rng import RngStream


def random_instance(rng, L, d):
    return CodingInstance(rng.normal(size=(L, d)), rng.normal(size=d))


class NoDrawStream:
    """Stands in for an RngStream where a check must reject the input first."""

    def generator(self):
        raise AssertionError("drew before rejecting the input")

    def child(self, index):
        return self


class TestGroupingMatrix:
    def test_two_block_layout(self):
        want = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        np.testing.assert_array_equal(build_grouping_matrix(4, 2), want)

    def test_unit_blocks_give_identity(self):
        np.testing.assert_array_equal(build_grouping_matrix(5, 1), np.eye(5))

    def test_spectral_identities(self):
        """Row sums 1, M M^T = I/m, and top eigenvalue of M^T M is 1/m."""
        for L, m in [(4, 2), (12, 3), (16, 4), (24, 8), (6, 6)]:
            mat = build_grouping_matrix(L, m)
            k = L // m
            np.testing.assert_allclose(mat.sum(axis=1), np.ones(k), atol=1e-12)
            np.testing.assert_allclose(mat @ mat.T, np.eye(k) / m, atol=1e-12)
            eigs = sym_eigenvalues(mat.T @ mat)
            assert abs(eigs[0] - 1.0 / m) <= 1e-12
            # Spectrum is 1/m with multiplicity k and zero elsewhere.
            np.testing.assert_allclose(eigs[:k], np.full(k, 1.0 / m), atol=1e-12)
            np.testing.assert_allclose(eigs[k:], np.zeros(L - k), atol=1e-12)

    def test_indivisible_rejected(self):
        with pytest.raises(InvalidInputError, match="group size 3 does not divide L=10"):
            build_grouping_matrix(10, 3)


class TestHessians:
    def test_identity_values(self):
        """Orthonormal value rows: H = 2I, blocks of 2 give H_bar = I."""
        L = 4
        inst = CodingInstance(np.eye(L), np.zeros(L))
        h, h_bar = hessians(inst, GroupStructure(L, 2))
        np.testing.assert_allclose(h, 2.0 * np.eye(L), atol=1e-14)
        np.testing.assert_allclose(h_bar, np.eye(2), atol=1e-14)
        kh, khb, holds = verify_condition_numbers(inst, 2)
        assert (kh, khb, holds) == (1.0, 1.0, True)

    def test_unit_groups_reproduce_ungrouped(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 6, 3)
        h, h_bar = hessians(inst, GroupStructure(6, 1))
        np.testing.assert_array_equal(h, h_bar)

    def test_matches_direct_product_oracle(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 8, 8)
        groups = GroupStructure(8, 2)
        h, h_bar = hessians(inst, groups)
        np.testing.assert_allclose(h, 2.0 * inst.v @ inst.v.T, atol=1e-12)
        mv = build_grouping_matrix(8, 2) @ inst.v
        np.testing.assert_allclose(h_bar, 2.0 * mv @ mv.T, atol=1e-12)

    def test_grouped_spectrum_brackets(self):
        """Across random full-rank instances, blocking divides both edge
        eigenvalues by at least / at most m."""
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(200):
            L, d = 16, 32
            inst = random_instance(rng, L, d)
            m = int(rng.choice([2, 4, 8]))
            h, h_bar = hessians(inst, GroupStructure(L, m))
            eig_h = sym_eigenvalues(h)
            eig_hb = sym_eigenvalues(h_bar)
            assert eig_h[-1] > 0
            assert eig_hb[0] <= eig_h[0] / m * (1 + 1e-9)
            assert eig_hb[-1] >= eig_h[-1] / m * (1 - 1e-9)
            checked += 1
        assert checked == 200

    def test_conditioning_never_worsens(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            inst = random_instance(rng, 16, 32)
            for m in (1, 2, 4, 8):
                kh, khb, holds = verify_condition_numbers(inst, m)
                assert holds
                if m == 1:
                    assert khb == pytest.approx(kh)


class TestSolveCoding:
    def test_attainable_target_reaches_zero(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(6, 4))
        inst = CodingInstance(v, v[0].copy())
        trace = solve_coding(inst, iters=4000)
        assert trace.iterates[-1][1] <= 1e-8
        assert trace.final_alpha[0] == pytest.approx(1.0, abs=1e-3)

    def test_grouped_hand_solvable_case(self):
        """Identity values in blocks of two: the first block's average is
        exactly the target, so the grouped optimum puts all weight there."""
        inst = CodingInstance(np.eye(4), np.array([0.5, 0.5, 0.0, 0.0]))
        trace = solve_coding(inst, GroupStructure(4, 2), iters=3000)
        assert trace.iterates[-1][1] <= 1e-10
        np.testing.assert_allclose(trace.final_alpha, [1.0, 0.0], atol=1e-4)

    def test_objective_monotone_at_safe_step(self):
        rng = np.random.default_rng(5)
        for groups in (None, GroupStructure(12, 3)):
            inst = random_instance(rng, 12, 6)
            trace = solve_coding(inst, groups, step=None, iters=500)
            objs = np.array([obj for _, obj in trace.iterates])
            assert np.all(np.diff(objs) <= 1e-12)
            assert abs(trace.final_alpha.sum() - 1.0) <= 1e-12
            assert trace.final_alpha.min() >= 0.0

    def test_iteration_counts_are_recorded_not_asserted(self):
        """Grouped vs ungrouped convergence speed is experiment output;
        the trace only has to expose a well-defined count."""
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 16, 32)
        plain = solve_coding(inst, None, None, 800).iterations_to_gap()
        grouped = solve_coding(inst, GroupStructure(16, 4), None, 800).iterations_to_gap()
        assert 0 <= grouped <= 800 and 0 <= plain <= 800

    def test_oversized_step_raises(self):
        """Start near the optimum (tiny objective) and take an absurd step:
        the objective jumps by far more than ten orders of magnitude."""
        rng = np.random.default_rng(7)
        v = rng.normal(size=(8, 4))
        y = v.T @ np.full(8, 1.0 / 8) + 1e-12
        with pytest.raises(StepTooLargeError):
            solve_coding(CodingInstance(v, y), step=1e8, iters=50)

    def test_bad_iters_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(InvalidInputError):
            solve_coding(random_instance(rng, 4, 2), iters=0)


class TestFirstOrderExpansion:
    def test_zero_perturbation_zero_residual(self):
        assert softmax_perturbation_residual(np.zeros(5), np.zeros(5)) == 0.0

    def test_uniform_logits_halving_ratio(self):
        """Residual is second order: halving the scale quarters it."""
        base = RngStream(20)
        ratios = [
            first_order_delta_check(np.zeros(8), 1e-3, base.child(i))
            for i in range(100)
        ]
        assert 3.5 <= np.mean(ratios) <= 4.5

    def test_skewed_logits_halving_ratio(self):
        logits = np.array([4.0, 0.0, 0.0, -1.0, 0.5, 0.0])
        base = RngStream(21)
        ratios = [
            first_order_delta_check(logits, 1e-3, base.child(i)) for i in range(100)
        ]
        assert 3.5 <= np.mean(ratios) <= 4.5

    @pytest.mark.parametrize("alpha_tilde", [[], np.zeros((2, 2))], ids=["empty", "matrix"])
    def test_logits_shape_is_checked_before_the_draw(self, alpha_tilde):
        """[] and a (2, 2) array used to draw 0 and 4 entries before softmax raised."""

        class NoDraw:
            def normal(self, size):
                pytest.fail(f"drew {size} entries before the shape check")

        with pytest.raises(InvalidInputError, match="alpha_tilde must be a nonempty 1-D vector"):
            first_order_delta_check(alpha_tilde, 1e-3, NoDraw())


class TestPerturbationVariance:
    def test_sigma_zero(self):
        assert perturbation_variance(np.full(4, 0.25), 0, 0.0, 10, RngStream(22)) == (0.0, 0.0)

    def test_uniform_closed_form(self):
        """Uniform weights specialize the prediction to (1/L^2)(1 - 1/L) s^2."""
        for L in (4, 8, 32):
            uniform = np.full(L, 1.0 / L)
            _, pred = perturbation_variance(uniform, 0, 1e-3, 10, RngStream(23))
            want = (1.0 / L**2) * (1.0 - 1.0 / L) * 1e-6
            assert pred == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_matches_prediction(self):
        uniform = np.full(8, 1.0 / 8)
        emp, pred = perturbation_variance(uniform, 0, 1e-3, 10**5, RngStream(24))
        assert emp == pytest.approx(pred, rel=0.05)

    def test_skewed_weights_match_too(self):
        alpha = softmax(np.array([2.0, 0.0, -1.0, 0.5, 0.0, 1.0]))
        for j in (0, 2):
            emp, pred = perturbation_variance(alpha, j, 1e-3, 10**5, RngStream(25).child(j))
            assert emp == pytest.approx(pred, rel=0.05)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InvalidInputError, match="sigma must be finite"):
            perturbation_variance(np.full(4, 0.25), 0, sigma, 10, NoDrawStream())

    @pytest.mark.parametrize("sigma", [0.0, 1e-3])
    @pytest.mark.parametrize("trials", [1, 0])
    def test_fewer_than_two_trials_rejected(self, trials, sigma):
        """One trial left numpy's ddof=1 variance at nan with a RuntimeWarning."""
        with pytest.raises(InvalidInputError, match="trials must be at least 2"):
            perturbation_variance(np.full(4, 0.25), 0, sigma, trials, NoDrawStream())


class TestGroupedVarianceRatio:
    def test_unit_groups_do_not_damp(self):
        ratio = grouped_variance_ratio(np.zeros(16), 1, 1e-3, 50_000, RngStream(26))
        assert 0.9 <= ratio <= 1.1

    def test_quadratic_damping(self):
        """Block size m damps the per-member variance by about 1/m^2."""
        for m in (4, 8):
            ratio = grouped_variance_ratio(np.zeros(32), m, 1e-3, 50_000, RngStream(27))
            assert 0.5 / m**2 <= ratio <= 2.0 / m**2

    def test_ambient_baseline_reported(self):
        ratio = ambient_variance_ratio(np.zeros(16), 4, 1e-3, 20_000, RngStream(28))
        assert 0.0 < ratio < 1.0

    @pytest.mark.parametrize("ratio", [grouped_variance_ratio, ambient_variance_ratio])
    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1e-3])
    def test_sigma_must_be_positive_and_finite(self, ratio, sigma):
        """NaN passed the old sigma <= 0 check and wrote nan rows."""
        with pytest.raises(InvalidInputError, match="sigma must be positive and finite"):
            ratio(np.zeros(8), 2, sigma, 10, NoDrawStream())

    @pytest.mark.parametrize("ratio", [grouped_variance_ratio, ambient_variance_ratio])
    @pytest.mark.parametrize("trials", [1, 0])
    def test_fewer_than_two_trials_rejected(self, ratio, trials):
        with pytest.raises(InvalidInputError, match="trials must be at least 2"):
            ratio(np.zeros(8), 2, 1e-3, trials, NoDrawStream())

    @pytest.mark.parametrize("ratio", [grouped_variance_ratio, ambient_variance_ratio])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected_before_any_draw(self, ratio, bad):
        """A NaN logit used to be drawn and softmaxed over all trials first,
        with a RuntimeWarning from the subtraction, before the clean softmax raised."""
        alpha_tilde = np.zeros(8)
        alpha_tilde[3] = bad
        with pytest.raises(InvalidInputError, match="must be finite"):
            ratio(alpha_tilde, 2, 1e-3, 10, NoDrawStream())


class TestKlUnderNoise:
    def test_zero_noise(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 8, 4)
        rows = kl_under_noise(inst, GroupStructure(8, 2), [0.0], 100, RngStream(29))
        assert rows == [(0.0, 0.0, 0.0)]

    def test_zero_trials_rejected(self):
        """Zero trials averaged an empty slice into nan."""
        inst = random_instance(np.random.default_rng(9), 8, 4)
        with pytest.raises(InvalidInputError, match="trials must be at least 1"):
            kl_under_noise(inst, GroupStructure(8, 2), [0.01], 0, NoDrawStream())

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_rejected_before_any_draw(self, sigma):
        """A nan sigma returned (nan, nan, nan); the finite sigma before it
        in the list must not be drawn either."""
        inst = random_instance(np.random.default_rng(9), 8, 4)
        with pytest.raises(InvalidInputError, match="sigma must be finite"):
            kl_under_noise(inst, GroupStructure(8, 2), [0.01, sigma], 10, NoDrawStream())

    def test_grouping_reduces_drift_on_uniform_logits(self):
        """With y = 0 every logit ties, and block noise moves the output
        distribution less than per-token noise."""
        L = 32
        inst = CodingInstance(np.random.default_rng(10).normal(size=(L, 4)), np.zeros(4))
        for m in (2, 4, 8):
            rows = kl_under_noise(
                inst, GroupStructure(L, m), [0.05, 0.2], 10_000, RngStream(30)
            )
            for sigma, kl_plain, kl_grouped in rows:
                assert kl_grouped <= kl_plain

    def test_rows_round_trip_csv_schema(self, tmp_path):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, 8, 4)
        rows = kl_under_noise(inst, GroupStructure(8, 4), [0.0, 1e-2], 200, RngStream(31))
        header = ["sigma", "kl_ungrouped", "kl_grouped"]
        write_csv(str(tmp_path / "a.csv"), header, rows)
        text = (tmp_path / "a.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "sigma,kl_ungrouped,kl_grouped"
        parsed = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[1:]]
        assert parsed == [tuple(map(float, row)) for row in rows]
        write_csv(str(tmp_path / "b.csv"), header, parsed)
        assert (tmp_path / "b.csv").read_text() == text


# Bit-for-bit pins: the noise estimators against test-local copies of their
# allocating formulas (a fresh array per step), compared with ==.


def ref_softmax_rows(mat):
    e = mat - mat.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def ref_ratio(changed, baseline):
    var_changed = np.var(changed, axis=0, ddof=1)
    return float(var_changed.mean() / np.var(baseline, axis=0, ddof=1).mean())


def ref_plain_noise(alpha_tilde, sigma, trials, rng):
    gen = rng.generator()
    plain = sigma * gen.standard_normal((trials, alpha_tilde.size))
    return gen, ref_softmax_rows(alpha_tilde + plain), ref_softmax_rows(alpha_tilde)


def ref_perturbation_variance(alpha, j, sigma, trials, rng):
    predicted = float(alpha[j] ** 2 * (1.0 + np.sum(alpha**2) - 2.0 * alpha[j]) * sigma**2)
    with np.errstate(divide="ignore"):
        alpha_tilde = np.where(alpha > 0, np.log(alpha), -np.inf)
    noise = sigma * rng.generator().standard_normal((trials, alpha.size))
    perturbed = ref_softmax_rows(alpha_tilde + noise)
    return float(np.var(perturbed[:, j], ddof=1)), predicted


def ref_grouped_variance_ratio(alpha_tilde, m, sigma, trials, rng):
    gen, noisy, clean = ref_plain_noise(alpha_tilde, sigma, trials, rng)
    group_draws = sigma * gen.standard_normal((trials, alpha_tilde.size // m))
    spread = np.repeat(group_draws, m, axis=1) / m
    return ref_ratio(ref_softmax_rows(alpha_tilde + spread) - clean, noisy - clean)


def ref_ambient_variance_ratio(alpha_tilde, m, sigma, trials, rng):
    _, noisy, clean = ref_plain_noise(alpha_tilde, sigma, trials, rng)
    k = alpha_tilde.size // m

    def regroup(rows):
        return np.repeat(rows.reshape(rows.shape[0], k, m).mean(axis=2), m, axis=1)

    return ref_ratio(regroup(noisy) - regroup(clean[None, :]), noisy - clean)


def ref_kl_under_noise(inst, groups, sigmas, trials, rng):
    logits = inst.v @ inst.y
    block_logits = build_grouping_matrix(groups.L, groups.m) @ logits
    clean, clean_grouped = ref_softmax_rows(logits), ref_softmax_rows(block_logits)

    def mean_kl(p, q_rows):
        support = p > 0
        ps = p[support]
        with np.errstate(divide="ignore"):
            logq = np.log(q_rows[:, support])
        return float(np.mean((ps * (np.log(ps) - logq)).sum(axis=1)))

    rows = []
    for si, sigma in enumerate(sigmas):
        gen = rng.child(si).generator()
        noisy = ref_softmax_rows(logits + sigma * gen.standard_normal((trials, groups.L)))
        noisy_grouped = ref_softmax_rows(
            block_logits + sigma * gen.standard_normal((trials, groups.k)))
        rows.append((float(sigma), mean_kl(clean, noisy), mean_kl(clean_grouped, noisy_grouped)))
    return rows


# (L, m, sigma, trials): m = 1 and m = L, two trials, and more trials than a
# numpy buffer of 8192 holds.
NOISE_CELLS = [(8, 1, 1e-3, 2), (8, 2, 0.5, 2), (8, 8, 3.0, 7), (12, 3, 1e-2, 1000),
               (12, 1, 2.0, 333), (32, 4, 1e-2, 10_000), (32, 32, 0.3, 9000)]


def noise_logits(L, seed):
    """Zero logits for even seeds; spread ones, some 40 below the top, for odd."""
    if seed % 2 == 0:
        return np.zeros(L)
    logits = np.random.default_rng(seed).normal(scale=3.0, size=L)
    logits[::5] -= 40.0
    return logits


@pytest.mark.parametrize("L, m, sigma, trials", NOISE_CELLS)
@pytest.mark.parametrize("seed", [0, 1])
def test_variance_ratios_are_bit_identical_to_the_allocating_formula(L, m, sigma, trials, seed):
    logits, rng = noise_logits(L, seed), RngStream(50 + seed).child(L * m)
    for got_fn, want_fn in ((grouped_variance_ratio, ref_grouped_variance_ratio),
                            (ambient_variance_ratio, ref_ambient_variance_ratio)):
        before = logits.copy()
        got = got_fn(logits, m, sigma, trials, rng)
        assert got == want_fn(logits, m, sigma, trials, rng), got_fn.__name__
        assert np.array_equal(logits, before)


@pytest.mark.parametrize("L, m, sigma, trials", NOISE_CELLS)
@pytest.mark.parametrize("seed", [0, 1])
def test_perturbation_variance_is_bit_identical_to_the_allocating_formula(
        L, m, sigma, trials, seed):
    """Weights from the same logits, so odd seeds hold exact zeros (log -inf)."""
    logits = noise_logits(L, seed)
    logits[::5] -= 800.0 * seed
    alpha = softmax(logits)
    alpha /= alpha.sum()
    rng = RngStream(60 + seed).child(L * m)
    for j in sorted({0, 1, L - 1}):
        before = alpha.copy()
        got = perturbation_variance(alpha, j, sigma, trials, rng.child(j))
        assert got == ref_perturbation_variance(alpha, j, sigma, trials, rng.child(j)), j
        assert np.array_equal(alpha, before)


@pytest.mark.parametrize("L, m", [(8, 1), (8, 2), (8, 8), (12, 3)])
@pytest.mark.parametrize("trials", [1, 2, 500, 9000])
@pytest.mark.parametrize("spread", [1.0, 300.0])
def test_kl_under_noise_is_bit_identical_to_the_allocating_formula(L, m, trials, spread):
    """spread 300 puts some clean weights at exact zero, so the KL runs on a
    support smaller than L, and some noisy ones too (KL inf)."""
    gen = np.random.default_rng(L * m + trials)
    inst = CodingInstance(spread * gen.normal(size=(L, 4)), gen.normal(size=4))
    sigmas, rng = [0.0, 1e-3, 0.5, 5.0], RngStream(70).child(trials)
    got = kl_under_noise(inst, GroupStructure(L, m), sigmas, trials, rng)
    assert got == ref_kl_under_noise(inst, GroupStructure(L, m), sigmas, trials, rng)
