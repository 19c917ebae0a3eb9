"""Numerical laboratory for dynamic group attention.

Importance-scored token grouping with complementary keys/values, exact
causal attention as the reference oracle, sparsity and noise-robustness
metrics for attention weights, simplex-constrained coding solvers, and an
incremental decoding simulator with exact cost ledgers.
"""
