"""Sparsity predicate, empirical rates, and the Monte Carlo lower bound."""

import numpy as np
import pytest

from dgalab.errors import InvalidInputError
from dgalab.rng import RngStream
from dgalab.sparsity import (
    LogitSource,
    attention_source,
    empirical_p_sparse,
    gaussian_source,
    mixture_source,
    named_source,
    p_sparse_lower_bound_detail,
    sample_weight_rows,
    sparsity_profile,
    student_t_source,
)


class TestIsRhoSparse:
    """The rho-sparse rule on one row: empirical_p_sparse is 1.0 or 0.0."""

    def test_dominant_entry(self):
        assert empirical_p_sparse([0.7, 0.1, 0.1, 0.1], 0.5) == 1.0

    def test_uniform_small(self):
        assert empirical_p_sparse([0.25, 0.25, 0.25, 0.25], 0.5) == 0.0

    def test_uniform_never_sparse(self):
        """max = 1/L never strictly exceeds 1/(L rho) for rho <= 1."""
        for L in (2, 7, 64):
            uniform = np.full(L, 1.0 / L)
            for rho in (2.0 / L, 0.5, 1.0):
                if rho <= 1.0 / L:
                    continue
                assert empirical_p_sparse(uniform, rho) == 0.0

    def test_monotone_in_rho(self):
        """Sparse at rho implies sparse at every larger rho."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            L = int(rng.integers(4, 40))
            alpha = rng.dirichlet(np.full(L, 0.3))
            rhos = np.sort(rng.uniform(1.0 / L + 1e-9, 1.0, size=5))
            flags = [empirical_p_sparse(alpha, r) for r in rhos]
            for lo, hi in zip(flags, flags[1:]):
                assert hi >= lo

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        alpha = rng.dirichlet(np.ones(10) * 0.5)
        for rho in (0.2, 0.5, 1.0):
            want = empirical_p_sparse(alpha, rho)
            for _ in range(10):
                assert empirical_p_sparse(rng.permutation(alpha), rho) == want

    def test_invalid_rate(self):
        with pytest.raises(InvalidInputError, match=r"rho must lie in \(1/L, 1\]"):
            empirical_p_sparse([0.5, 0.5], 0.4)
        with pytest.raises(InvalidInputError, match=r"rho must lie in \(1/L, 1\]"):
            empirical_p_sparse([0.5, 0.5], 1.5)


class TestEmpiricalPSparse:
    def test_uniform_rows(self):
        rows = np.full((10, 8), 1.0 / 8)
        assert empirical_p_sparse(rows, 0.5) == 0.0

    def test_one_hot_rows(self):
        rows = np.eye(8)[np.arange(10) % 8]
        assert empirical_p_sparse(rows, 0.5) == 1.0

    def test_gaussian_rows_lie_in_unit_interval(self):
        rows = sample_weight_rows(gaussian_source(), 512, 100, RngStream(2))
        p = empirical_p_sparse(rows, 0.01)
        assert 0.0 <= p <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            empirical_p_sparse(np.zeros((0, 4)), 0.5)


class TestLowerBound:
    def test_constant_logits_closed_form(self):
        """Uniform weights are never sparse and the bound is exactly zero:
        at every x, either the head event (exp(c) <= x) or the tail event
        ((L rho - 1) x <= (L-1) exp(c)) holds, so the per-coordinate union
        probability is 1."""
        source = LogitSource("constant(0.7)", lambda rng, n, L: np.full((n, L), 0.7))
        bound = p_sparse_lower_bound_detail(
            source, L=16, rho=0.5, trials=10_000, rng=RngStream(3)
        ).bound
        assert bound == 0.0

    def test_rho_near_lower_limit_collapses(self):
        """As rho -> 1/L the sparsity threshold approaches 1, the tail
        event holds everywhere, and the bound collapses to zero."""
        L = 16
        bound = p_sparse_lower_bound_detail(
            gaussian_source(), L=L, rho=1.05 / L, trials=10_000, rng=RngStream(4)
        ).bound
        emp = empirical_p_sparse(
            sample_weight_rows(gaussian_source(), L, 4000, RngStream(5)), 1.05 / L
        )
        assert bound <= 1e-6
        assert emp >= bound

    def test_bound_below_empirical_for_iid_samplers(self):
        """Paired Monte Carlo with shared seeds: for independent logits
        the bound never exceeds the empirical rate by more than three
        standard errors."""
        cases = [
            (gaussian_source(), 64, 0.05),
            (gaussian_source(), 256, 0.02),
            (gaussian_source(), 256, 0.05),
            (student_t_source(), 128, 0.05),
            (mixture_source(), 128, 0.05),
        ]
        for idx, (source, L, rho) in enumerate(cases):
            rng = RngStream(6).child(idx)
            detail = p_sparse_lower_bound_detail(
                source, L, rho, trials=20_000, rng=rng.child(0)
            )
            rows = sample_weight_rows(source, L, 4000, rng.child(1))
            emp = empirical_p_sparse(rows, rho)
            se_emp = np.sqrt(max(emp * (1 - emp), 1e-12) / 4000)
            slack = 3.0 * np.sqrt(se_emp**2 + detail.standard_error**2)
            assert emp >= detail.bound - slack, source.name

    def test_informative_on_heavy_tails(self):
        """Heavy-tailed logits concentrate weight, and the bound sees it."""
        detail = p_sparse_lower_bound_detail(
            student_t_source(), 256, 0.05, trials=20_000, rng=RngStream(7)
        )
        rows = sample_weight_rows(student_t_source(), 256, 2000, RngStream(8))
        emp = empirical_p_sparse(rows, 0.05)
        assert detail.bound > 0.2
        assert emp >= detail.bound - 0.05

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            p_sparse_lower_bound_detail(
                gaussian_source(), 16, 0.5, x_grid=[1.0, -2.0], trials=10_000,
                rng=RngStream(9),
            ).bound
        with pytest.raises(InvalidInputError):
            p_sparse_lower_bound_detail(
                gaussian_source(), 16, 0.5, trials=100, rng=RngStream(9)
            ).bound

    def test_deterministic(self):
        a = p_sparse_lower_bound_detail(
            gaussian_source(), 64, 0.05, trials=10_000, rng=RngStream(10)
        ).bound
        b = p_sparse_lower_bound_detail(
            gaussian_source(), 64, 0.05, trials=10_000, rng=RngStream(10)
        ).bound
        assert a == b


def test_named_source_table():
    """The four CLI names map to their sources; d reaches the attention one."""
    assert named_source("gaussian").name == gaussian_source().name
    assert named_source("student_t").name == student_t_source().name
    assert named_source("mixture").name == mixture_source().name
    assert named_source("attention", d=4).name == "attention(d=4)"
    with pytest.raises(InvalidInputError):
        named_source("nope")


class TestSparsityProfile:
    def test_rho_one_always_sparse_for_continuous_logits(self):
        report = sparsity_profile(
            gaussian_source(), [16, 64], [1.0], trials=400, rng=RngStream(11)
        )
        for empirical_p, _ in report.values():
            assert empirical_p >= 0.99

    def test_trend_non_decreasing_for_heavy_tails(self):
        """Longer contexts concentrate more often; allow 2 sigma of noise."""
        trials = 2000
        report = sparsity_profile(
            student_t_source(),
            [64, 128, 256, 512],
            [0.02],
            trials=trials,
            rng=RngStream(12),
        )
        ps = [report[(L, 0.02)][0] for L in (64, 128, 256, 512)]
        for lo, hi in zip(ps, ps[1:]):
            noise = 2.0 * np.sqrt((lo * (1 - lo) + hi * (1 - hi)) / trials + 1e-12)
            assert hi >= lo - noise

    def test_invalid_cells_are_skipped(self):
        report = sparsity_profile(
            gaussian_source(), [64, 256], [0.01, 0.05], trials=10_000, rng=RngStream(13)
        )
        assert (64, 0.01) not in report
        assert (256, 0.01) in report
        assert (64, 0.05) in report

    def test_repeated_length_is_drawn_once(self, monkeypatch):
        """A repeated L used to be drawn and bounded again, keeping only
        the last result."""
        calls = []

        def counting(source, L, n, rng):
            calls.append(L)
            return sample_weight_rows(source, L, n, rng)

        monkeypatch.setattr("dgalab.sparsity.sample_weight_rows", counting)
        report = sparsity_profile(
            gaussian_source(), [64, 32, 64], [0.5], trials=10, rng=RngStream(16)
        )
        assert sorted(calls) == [32, 64]
        assert sorted(report) == [(32, 0.5), (64, 0.5)]

    def test_attention_source_rows_are_reported(self):
        """Correlated logits from random attention batches: values are
        recorded but the bound guarantee is not asserted."""
        report = sparsity_profile(
            attention_source(d=8), [32], [0.25], trials=10_000, rng=RngStream(14)
        )
        empirical_p, bound_p = report[(32, 0.25)]
        assert 0.0 <= empirical_p <= 1.0
        assert 0.0 <= bound_p <= 1.0

    def test_mixture_source_draws(self):
        rows = sample_weight_rows(mixture_source(), 64, 50, RngStream(15))
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(50), atol=1e-12)
