"""Numerical laboratory for dynamic group attention.

Importance-scored token grouping with complementary keys/values, exact
causal attention as the reference oracle, sparsity and noise-robustness
metrics for attention weights, simplex-constrained coding solvers, and an
incremental decoding simulator with exact cost ledgers.
"""

from .attention import AttentionBatch, causal_attention
from .coding import (
    CodingInstance,
    GroupStructure,
    SolveTrace,
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
from .decode import (
    ComplexityLedger,
    DecoderState,
    decode_step,
    ledger,
    prefill,
    regroup_threshold,
    vanilla_ledger,
)
from .dga import (
    GroupedKV,
    SampleSpec,
    TokenPartition,
    approx_importance_scores,
    build_group_mask,
    build_grouped_kv,
    compute_partition,
    dga_attention,
    dga_attention_with_partition,
    importance_scores_exact,
    partition_tokens,
)
from .matrixio import read_matrix, write_matrix
from .numerics import (
    condition_number,
    gaussian_sample,
    kl_divergence,
    project_to_simplex,
    softmax,
    sym_eigenvalues,
)
from .rng import RngStream
from .sparsity import (
    LogitSource,
    SparsityReport,
    attention_source,
    constant_source,
    empirical_p_sparse,
    gaussian_source,
    is_rho_sparse,
    mixture_source,
    p_sparse_lower_bound,
    sparsity_profile,
    student_t_source,
)

__version__ = "0.1.0"
