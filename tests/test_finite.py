"""The finiteness rule: every float argument of the library goes through
`errors.check_finite`. A NaN or infinite entry raises InvalidInputError,
"{name} must be finite", before any draw or scoring tile; a finite value is
handed on as a float64 array with the same values."""

import re

import numpy as np
import pytest

from batches import random_batch
from dgalab.attention import AttentionBatch
from dgalab.coding import (
    CodingInstance,
    GroupStructure,
    first_order_delta_check,
    kl_under_noise,
    perturbation_variance,
    solve_coding,
)
from dgalab.decode import decode_step, prefill
from dgalab.dga import partition_tokens
from dgalab.errors import InvalidInputError, check_finite
from dgalab.numerics import (
    check_prob_vector,
    condition_number,
    project_to_simplex,
    softmax,
    sym_eigenvalues,
)
from dgalab.rng import RngStream
from dgalab.sparsity import (
    empirical_p_sparse,
    gaussian_source,
    p_sparse_lower_bound_detail,
    sparsity_profile,
)

BATCH = random_batch(np.random.default_rng(31), 40, 4)
_gen = np.random.default_rng(32)
INST = CodingInstance(_gen.normal(size=(16, 4)), _gen.normal(size=4))
UNIFORM = np.full(16, 1.0 / 16)
SOURCE = gaussian_source()
STATE = prefill(BATCH, 4, 0.1)[1]  # built here: the fixture forbids tiles


def with_entry(values, bad, index=1):
    """A float64 copy of values with its flat entry `index` set to bad."""
    arr = np.array(values, dtype=np.float64)
    arr.flat[index] = bad
    return arr


# name -> (the name the message gives, call passing the non-finite value under test).
ENTRY_POINTS = {
    "AttentionBatch.Q": ("Q", lambda x: AttentionBatch(with_entry(BATCH.q, x), BATCH.k, BATCH.v)),
    "AttentionBatch.K": ("K", lambda x: AttentionBatch(BATCH.q, with_entry(BATCH.k, x), BATCH.v)),
    "AttentionBatch.V": ("V", lambda x: AttentionBatch(BATCH.q, BATCH.k, with_entry(BATCH.v, x))),
    "softmax": ("input", lambda x: softmax([0.0, x])),
    "project_to_simplex": ("input", lambda x: project_to_simplex([0.5, x])),
    "check_prob_vector": ("alpha", lambda x: check_prob_vector([1.0, x])),
    "sym_eigenvalues": ("matrix", lambda x: sym_eigenvalues([[1.0, x], [x, 1.0]])),
    "condition_number": ("eigenvalues", lambda x: condition_number([2.0, x])),
    "CodingInstance.V": ("V", lambda x: CodingInstance(with_entry(INST.v, x), INST.y)),
    "CodingInstance.y": ("y", lambda x: CodingInstance(INST.v, with_entry(INST.y, x))),
    "solve_coding.step": ("step", lambda x: solve_coding(INST, None, x, 10)),
    "first_order_delta_check.alpha_tilde": (
        "alpha_tilde", lambda x: first_order_delta_check(with_entry(np.zeros(8), x), 1e-3,
                                                         RngStream(0))),
    "first_order_delta_check.delta_scale": (
        "delta_scale", lambda x: first_order_delta_check(np.zeros(8), x, RngStream(0))),
    "perturbation_variance.sigma": (
        "sigma", lambda x: perturbation_variance(UNIFORM, 0, x, 10, RngStream(0))),
    "kl_under_noise.sigma_list": (
        "sigma", lambda x: kl_under_noise(INST, GroupStructure(16, 4), [1e-3, x], 10,
                                          RngStream(0))),
    "partition_tokens.scores": (
        "scores", lambda x: partition_tokens(with_entry(np.arange(40.0), x), 0.1, 4)),
    "decode_step.q": ("q/k/v", lambda x: decode_step(STATE, with_entry(np.ones(4), x),
                                                     np.ones(4), np.ones(4))),
    "decode_step.k": ("q/k/v", lambda x: decode_step(STATE, np.ones(4),
                                                     with_entry(np.ones(4), x), np.ones(4))),
    "decode_step.v": ("q/k/v", lambda x: decode_step(STATE, np.ones(4), np.ones(4),
                                                     with_entry(np.ones(4), x))),
    "empirical_p_sparse.weight_rows": (
        "weight_rows", lambda x: empirical_p_sparse([[x, 0.2, 0.3, 0.5]], 0.5)),
    "p_sparse_lower_bound_detail.x_grid": (
        "x_grid", lambda x: p_sparse_lower_bound_detail(SOURCE, 16, 0.5, [1.0, x],
                                                        rng=RngStream(0))),
    "sparsity_profile.rho_list": (
        "rho", lambda x: sparsity_profile(SOURCE, [16], [x, 0.5], 10, RngStream(0))),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, run", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_non_finite_rejected_before_any_draw_or_tile(no_work, name, run, value):
    """condition_number([2, nan]) used to return 1.0, empirical_p_sparse
    0.0, sparsity_profile dropped a NaN rho, first_order_delta_check drew
    first and solve_coding's step failed inside the simplex projection."""
    rows, generated = STATE.rows, STATE.generated
    with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be finite$"):
        run(value)
    assert (STATE.rows, STATE.generated) == (rows, generated)


def test_decode_width_is_checked_before_finiteness():
    with pytest.raises(InvalidInputError, match="must have width 4"):
        decode_step(STATE, [np.nan] * 3, np.ones(4), np.ones(4))


@pytest.mark.parametrize("value", [2, [1, -2.5], np.float32(0.1), [[0.5], [3.0]]])
def test_check_finite_returns_a_float64_array_of_the_values(value):
    arr = check_finite(value, "x")
    assert type(arr) is np.ndarray and arr.dtype == np.float64
    np.testing.assert_array_equal(arr, np.asarray(value, dtype=np.float64))
