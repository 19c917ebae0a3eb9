"""Sparsity predicate, empirical rates, and the Monte Carlo lower bound."""

import numpy as np
import pytest

from dgalab.errors import InvalidInputError
from dgalab.numerics import softmax_into
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

    @pytest.mark.parametrize("grid", [np.ones((2, 3)), 1.0, [[1.0]]], ids=["2x3", "scalar", "1x1"])
    def test_grid_must_be_a_vector_before_any_draw(self, grid):
        def draw(rng, n, L):
            raise AssertionError("draw called")

        with pytest.raises(InvalidInputError, match="x_grid must be a nonempty 1-D vector"):
            p_sparse_lower_bound_detail(LogitSource("failing", draw), 16, 0.5, x_grid=grid,
                                        trials=10_000, rng=RngStream(9))

    def test_deterministic(self):
        a = p_sparse_lower_bound_detail(
            gaussian_source(), 64, 0.05, trials=10_000, rng=RngStream(10)
        ).bound
        b = p_sparse_lower_bound_detail(
            gaussian_source(), 64, 0.05, trials=10_000, rng=RngStream(10)
        ).bound
        assert a == b


def product_logits(gen, n, L, d):
    """Reference for attention_source: K q / sqrt(d) from n*L*d key normals,
    in row chunks so the (n, L, d) keys never sit in memory at once."""
    out = np.empty((n, L))
    for start in range(0, n, 1000):
        rows = min(n, start + 1000) - start
        keys = gen.standard_normal((rows, L, d))
        queries = gen.standard_normal((rows, d))
        out[start : start + rows] = np.einsum("nld,nd->nl", keys, queries) / np.sqrt(d)
    return out


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@pytest.mark.parametrize("d", [1, 4, 16])
def test_attention_draw_has_the_law_of_k_q(d):
    """The closed-form draw z |q| / sqrt(d) matches K q / sqrt(d) in law.

    KS at alpha = 0.001 on column 0 and on the softmax row maxima, and the
    rho = 0.05 sparse rate within 4 combined standard errors. At d = 1 the
    logits are a product of two normals, so dropping the |q| factor fails.
    """
    n, L, rho = 20_000, 64, 0.05
    got = attention_source(d).draw(RngStream(40).child(d), n, L)
    want = product_logits(np.random.default_rng(41 + d), n, L, d)
    critical = 1.95 * np.sqrt(2.0 / n)
    assert ks_statistic(got[:, 0], want[:, 0]) < critical
    got_rows = softmax_into(got, np.empty_like(got))
    want_rows = softmax_into(want, np.empty_like(want))
    assert ks_statistic(got_rows.max(axis=1), want_rows.max(axis=1)) < critical
    p_got = empirical_p_sparse(got_rows, rho)
    p_want = empirical_p_sparse(want_rows, rho)
    se = np.sqrt((p_got * (1 - p_got) + p_want * (1 - p_want)) / n)
    assert abs(p_got - p_want) <= 4.0 * se


@pytest.mark.parametrize("n", [0, 3])
def test_attention_draw_shape(n):
    logits = attention_source(4).draw(RngStream(42), n, 8)
    assert logits.shape == (n, 8)
    assert logits.dtype == np.float64


def counting_source():
    """A zero-logit source and the list of L values it was drawn at."""
    calls = []

    def draw(rng, n, L):
        calls.append(L)
        return np.zeros((n, L))

    return LogitSource("counting", draw), calls


@pytest.mark.parametrize("d", [0, -1])
def test_attention_width_below_one_rejected(d):
    with pytest.raises(InvalidInputError, match="d must be at least 1"):
        attention_source(d)


@pytest.mark.parametrize("L", [0, -3])
@pytest.mark.parametrize(
    "run",
    [
        lambda source, L: sample_weight_rows(source, L, 5, RngStream(43)),
        lambda source, L: sparsity_profile(source, [16, L], [0.5], 10, RngStream(43)),
        lambda source, L: p_sparse_lower_bound_detail(
            source, L, 0.5, trials=10_000, rng=RngStream(43)
        ),
    ],
    ids=["sample_weight_rows", "sparsity_profile", "p_sparse_lower_bound_detail"],
)
def test_length_below_one_rejected_before_any_draw(run, L):
    source, calls = counting_source()
    with pytest.raises(InvalidInputError, match="L must be at least 1"):
        run(source, L)
    assert calls == []


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda source: sample_weight_rows(source, 8, -1, RngStream(44)),
         "n must be at least 0"),
        (lambda source: sparsity_profile(source, [16], [0.5], 0, RngStream(44)),
         "trials must be at least 1"),
        (lambda source: sparsity_profile(source, [16], [0.5], -2, RngStream(44)),
         "trials must be at least 1"),
    ],
    ids=["sample_weight_rows_n=-1", "sparsity_profile_trials=0", "sparsity_profile_trials=-2"],
)
def test_row_count_below_minimum_rejected_before_any_draw(run, message):
    """Negative counts used to reach numpy ("negative dimensions are not
    allowed"), and trials=0 drew first and only then failed."""
    source, calls = counting_source()
    with pytest.raises(InvalidInputError, match=message):
        run(source)
    assert calls == []


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
        """Logits of random attention batches, uncorrelated but dependent
        through the shared |q|: values are recorded but the bound guarantee
        is not asserted."""
        report = sparsity_profile(
            attention_source(d=8), [32], [0.25], trials=10_000, rng=RngStream(14)
        )
        empirical_p, bound_p = report[(32, 0.25)]
        assert 0.0 <= empirical_p <= 1.0
        assert 0.0 <= bound_p <= 1.0

    def test_mixture_source_draws(self):
        rows = sample_weight_rows(mixture_source(), 64, 50, RngStream(15))
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(50), atol=1e-12)


# Bit-for-bit pins: the draws, the weight rows and the bound against
# test-local copies of their allocating formulas, compared with ==.


def ref_attention_draw(d):
    def draw(rng, n, L):
        gen = rng.generator()
        scale = np.linalg.norm(gen.standard_normal((n, d)), axis=1) / np.sqrt(d)
        return gen.standard_normal((n, L)) * scale[:, None]

    return draw


def ref_softmax_rows(mat):
    e = mat - mat.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def ref_bound(draw, L, rho, x_grid, trials, rng):
    log_thresh = np.log(L * rho - 1.0)
    block = max(1, 4_000_000 // L)
    log_head, log_tail = np.empty(trials), np.empty(trials)
    for start in range(0, trials, block):
        stop = min(trials, start + block)
        logits = draw(rng.child(start), stop - start, L)
        log_head[start:stop] = logits[:, 0]
        rest = logits[:, 1:]
        peak = rest.max(axis=1)
        log_tail[start:stop] = peak + np.log(np.exp(rest - peak[:, None]).sum(axis=1))
    if x_grid is None:
        lo, hi = np.percentile(log_head, [1.0, 99.0])
        grid_logs = np.linspace(lo, hi, 32)
    else:
        grid_logs = np.log(np.sort(np.asarray(x_grid, dtype=np.float64)))
    best = (-np.inf, 0.0)
    for lx in grid_logs:
        u = ((log_head <= lx) | (log_thresh + lx <= log_tail)).mean()
        bound = float(np.clip(1.0 - u**L, 0.0, 1.0))
        if bound > best[0]:
            best = (bound, float(L * u ** (L - 1) * np.sqrt(u * (1.0 - u) / trials)))
    return best


PIN_SOURCES = [gaussian_source(), student_t_source(), mixture_source(), attention_source(1),
               attention_source(16)]


@pytest.mark.parametrize("source", PIN_SOURCES, ids=lambda s: s.name)
@pytest.mark.parametrize("n, L", [(0, 4), (1, 1), (2, 2), (300, 64), (9000, 5)])
def test_weight_rows_are_bit_identical_to_the_allocating_formula(source, n, L):
    rng = RngStream(80).child(n + L)
    got = sample_weight_rows(source, L, n, rng)
    assert got.shape == (n, L) and (got == ref_softmax_rows(source.draw(rng, n, L))).all()


@pytest.mark.parametrize("d", [1, 3, 16])
@pytest.mark.parametrize("n, L", [(0, 4), (1, 1), (2, 2), (300, 64)])
def test_attention_draw_is_bit_identical_to_the_allocating_formula(d, n, L):
    rng = RngStream(81).child(d)
    got = attention_source(d).draw(rng, n, L)
    assert got.shape == (n, L) and (got == ref_attention_draw(d)(rng, n, L)).all()


# (L, rho, x_grid, trials): L = 2, a given grid, and L = 512 in two chunks.
BOUND_CELLS = [(2, 1.0, None, 10_000), (16, 0.5, [0.3, 2.0, 1.0], 10_000),
               (64, 0.05, None, 12_345), (512, 0.02, None, 10_000)]


@pytest.mark.parametrize("source", PIN_SOURCES, ids=lambda s: s.name)
@pytest.mark.parametrize("L, rho, x_grid, trials", BOUND_CELLS)
def test_bound_is_bit_identical_to_the_allocating_formula(source, L, rho, x_grid, trials):
    rng = RngStream(82).child(L)
    got = p_sparse_lower_bound_detail(source, L, rho, x_grid, trials, rng)
    assert (got.bound, got.standard_error) == ref_bound(source.draw, L, rho, x_grid, trials, rng)


def fixed_source(n, L):
    """A source whose draw returns one and the same (n, L) array every call."""
    logits = np.random.default_rng(83).standard_t(2.0, size=(n, L))
    calls = []

    def draw(rng, rows, cols):
        assert (rows, cols) == (n, L)
        calls.append(rows)
        return logits

    return LogitSource("fixed", draw), logits, calls


@pytest.mark.parametrize(
    "run",
    [
        lambda source: sample_weight_rows(source, 16, 10_000, RngStream(84)),
        lambda source: p_sparse_lower_bound_detail(source, 16, 0.5, None, 10_000, RngStream(84)),
        lambda source: sparsity_profile(source, [16], [0.25, 0.5], 10_000, RngStream(84)),
    ],
    ids=["sample_weight_rows", "p_sparse_lower_bound_detail", "sparsity_profile"],
)
def test_a_drawn_array_is_never_written(run):
    """Each call reads the one array the source returns and leaves it as it
    was, so a second call gives the same result."""
    source, logits, calls = fixed_source(10_000, 16)
    before = logits.copy()
    first = run(source)
    assert np.array_equal(logits, before)
    second = run(source)
    assert np.array_equal(logits, before) and len(calls) >= 2
    if isinstance(first, np.ndarray):
        assert np.array_equal(first, second) and not np.shares_memory(first, logits)
    else:
        assert first == second


# Cells where numpy's vector power rounds the best u^L differently from the
# scalar power the per-x loop takes (on CPUs where numpy vectorises pow).
@pytest.mark.parametrize("L", [3, 14])
def test_bound_takes_the_scalar_power(L):
    rng = RngStream(84).child(L)
    got = p_sparse_lower_bound_detail(gaussian_source(), L, 0.5, None, 10_000, rng)
    assert (got.bound, got.standard_error) == ref_bound(gaussian_source().draw, L, 0.5, None,
                                                         10_000, rng)
