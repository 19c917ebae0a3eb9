"""The count rule: every integer argument of the library goes through
`errors.check_count`. A value that is not a Python or numpy integer, or is
below its minimum, raises InvalidInputError before any draw or scoring tile;
a numpy integer is handed on as a Python int and gives the same results."""

import pickle

import numpy as np
import pytest

from batches import random_batch
from dgalab.coding import (
    CodingInstance,
    GroupStructure,
    ambient_variance_ratio,
    build_grouping_matrix,
    grouped_variance_ratio,
    kl_under_noise,
    perturbation_variance,
    solve_coding,
    verify_condition_numbers,
)
from dgalab.decode import prefill
from dgalab.dga import (
    SampleSpec,
    approx_importance_scores,
    compute_partition,
    dga_attention,
    partition_tokens,
)
from dgalab.errors import InvalidInputError, check_count
from dgalab.rng import RngStream
from dgalab.sparsity import (
    attention_source,
    gaussian_source,
    p_sparse_lower_bound_detail,
    sample_weight_rows,
    sparsity_profile,
)

BATCH = random_batch(np.random.default_rng(29), 300, 4)
_gen = np.random.default_rng(30)
INST = CodingInstance(_gen.normal(size=(16, 4)), _gen.normal(size=4))
UNIFORM = np.full(16, 1.0 / 16)
SOURCE = gaussian_source()

# name -> (minimum, call passing the count under test); every other argument is valid.
ENTRY_POINTS = {
    "SampleSpec.recent_count": (0, lambda n: SampleSpec(n, 4)),
    "SampleSpec.random_count": (0, lambda n: SampleSpec(4, n)),
    "partition_tokens.m": (1, lambda n: partition_tokens(np.arange(300.0), 0.1, n)),
    "compute_partition.m": (1, lambda n: compute_partition(BATCH, n, 0.1)),
    "compute_partition.m_sampled": (
        1, lambda n: compute_partition(BATCH, n, 0.1, SampleSpec(8, 8), RngStream(0))),
    "dga_attention.m": (1, lambda n: dga_attention(BATCH, n, 0.1)),
    "prefill.m": (1, lambda n: prefill(BATCH, n, 0.1)),
    "GroupStructure.L": (1, lambda n: GroupStructure(n, 1)),
    "GroupStructure.m": (1, lambda n: GroupStructure(16, n)),
    "build_grouping_matrix.m": (1, lambda n: build_grouping_matrix(16, n)),
    "verify_condition_numbers.m": (1, lambda n: verify_condition_numbers(INST, n)),
    "solve_coding.iters": (1, lambda n: solve_coding(INST, None, None, n)),
    "perturbation_variance.j": (
        0, lambda n: perturbation_variance(UNIFORM, n, 1e-3, 10, RngStream(0))),
    "perturbation_variance.trials": (
        2, lambda n: perturbation_variance(UNIFORM, 0, 1e-3, n, RngStream(0))),
    "grouped_variance_ratio.m": (
        1, lambda n: grouped_variance_ratio(np.zeros(16), n, 1e-3, 10, RngStream(0))),
    "grouped_variance_ratio.trials": (
        2, lambda n: grouped_variance_ratio(np.zeros(16), 4, 1e-3, n, RngStream(0))),
    "ambient_variance_ratio.trials": (
        2, lambda n: ambient_variance_ratio(np.zeros(16), 4, 1e-3, n, RngStream(0))),
    "kl_under_noise.trials": (
        1, lambda n: kl_under_noise(INST, GroupStructure(16, 4), [1e-3], n, RngStream(0))),
    "attention_source.d": (1, lambda n: attention_source(n)),
    "sample_weight_rows.L": (1, lambda n: sample_weight_rows(SOURCE, n, 5, RngStream(0))),
    "sample_weight_rows.n": (0, lambda n: sample_weight_rows(SOURCE, 16, n, RngStream(0))),
    "p_sparse_lower_bound_detail.L": (
        1, lambda n: p_sparse_lower_bound_detail(SOURCE, n, 0.5, trials=10_000, rng=RngStream(0))),
    "p_sparse_lower_bound_detail.trials": (
        10_000, lambda n: p_sparse_lower_bound_detail(SOURCE, 16, 0.5, trials=n, rng=RngStream(0))),
    "sparsity_profile.L": (
        1, lambda n: sparsity_profile(SOURCE, [16, n], [0.5], 10, RngStream(0))),
    "sparsity_profile.trials": (
        1, lambda n: sparsity_profile(SOURCE, [16], [0.5], n, RngStream(0))),
}


@pytest.mark.parametrize("value", [2.5, np.float64(4), None], ids=["2.5", "float64(4)", "least-1"])
@pytest.mark.parametrize("least, run", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_bad_count_rejected_before_any_draw_or_tile(no_work, least, run, value):
    """2.5 and np.float64(4) used to pass the comparison checks and fail later
    in numpy (TypeError, IndexError) or not at all; least - 1 was already rejected."""
    value = least - 1 if value is None else value
    with pytest.raises(InvalidInputError, match=f"must be at least {least} and an integer"):
        run(value)


def test_fractional_length_in_profile_grid_rejected(no_work):
    """[16.7] used to report a cell for L = 16."""
    with pytest.raises(InvalidInputError, match="L must be at least 1 and an integer, not 16.7"):
        sparsity_profile(SOURCE, [16.7], [0.5], 10, RngStream(0))


@pytest.mark.parametrize("value", [4, np.int64(4), np.uint8(4), np.int32(0)])
def test_check_count_returns_a_python_int(value):
    count = check_count(value, "m", 0)
    assert type(count) is int and count == value


def test_check_count_message_names_the_value():
    with pytest.raises(InvalidInputError, match=r"^m must be at least 1 and an integer, not 0$"):
        check_count(0, "m", 1)


def _attention_rows(d, L, n):
    source = attention_source(d)
    return source.name, sample_weight_rows(source, L, n, RngStream(3))


# name -> (Python int counts, call): numpy counts must give the same pickled result.
VALID_CALLS = {
    "approx_importance_scores": (
        (8, 8), lambda a, b: approx_importance_scores(BATCH, SampleSpec(a, b), RngStream(0))),
    "partition_tokens": ((4,), lambda m: partition_tokens(BATCH.q[:, 0], 0.1, m)),
    "compute_partition": (
        (4, 8), lambda m, n: compute_partition(BATCH, m, 0.1, SampleSpec(n, n), RngStream(1))),
    "dga_attention": ((4,), lambda m: dga_attention(BATCH, m, 0.1)),
    "prefill": ((4,), lambda m: prefill(BATCH, m, 0.1)),
    "GroupStructure": ((16, 4), GroupStructure),
    "build_grouping_matrix": ((16, 4), build_grouping_matrix),
    "verify_condition_numbers": ((4,), lambda m: verify_condition_numbers(INST, m)),
    "solve_coding": (
        (16, 4, 50), lambda L, m, it: solve_coding(INST, GroupStructure(L, m), None, it)),
    "perturbation_variance": (
        (3, 100), lambda j, t: perturbation_variance(UNIFORM, j, 1e-2, t, RngStream(1))),
    "grouped_variance_ratio": (
        (4, 100), lambda m, t: grouped_variance_ratio(np.zeros(16), m, 1e-2, t, RngStream(2))),
    "ambient_variance_ratio": (
        (4, 100), lambda m, t: ambient_variance_ratio(np.zeros(16), m, 1e-2, t, RngStream(2))),
    "kl_under_noise": (
        (16, 4, 50),
        lambda L, m, t: kl_under_noise(INST, GroupStructure(L, m), [1e-2], t, RngStream(4))),
    "attention_source": ((4, 16, 5), _attention_rows),
    "p_sparse_lower_bound_detail": (
        (16, 10_000),
        lambda L, t: p_sparse_lower_bound_detail(SOURCE, L, 0.5, trials=t, rng=RngStream(5))),
    "sparsity_profile": (
        (16, 32, 20), lambda a, b, t: sparsity_profile(SOURCE, [a, b], [0.5], t, RngStream(6))),
}


@pytest.mark.parametrize("to_numpy", [np.int64, lambda n: np.min_scalar_type(n).type(n)],
                         ids=["int64", "smallest_unsigned"])
@pytest.mark.parametrize("counts, run", VALID_CALLS.values(), ids=list(VALID_CALLS))
def test_numpy_counts_give_the_same_result(counts, run, to_numpy):
    """Pickles hold each stored count's type, so a numpy count kept in a
    result would differ from the Python int's. The smallest unsigned type
    (np.uint8(4)) used to overflow in the arithmetic after the check."""
    want = run(*counts)
    got = run(*(to_numpy(n) for n in counts))
    assert pickle.dumps(got) == pickle.dumps(want)
