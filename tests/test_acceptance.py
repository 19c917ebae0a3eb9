"""Acceptance battery.

One test per criterion; each prints a single pass/fail line with its
runtime and the measured quantities, then asserts at the stated
tolerance. Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they complete.
"""

import contextlib
import io
import time

import numpy as np

from dgalab.attention import AttentionBatch, causal_attention
from dgalab.cli import main as cli_main
from dgalab.coding import (
    CodingInstance,
    build_grouping_matrix,
    first_order_delta_check,
    grouped_variance_ratio,
    perturbation_variance,
    verify_condition_numbers,
)
from dgalab.decode import decode_step, prefill
from dgalab.dga import (
    build_group_mask,
    compute_partition,
    dga_attention,
    dga_attention_with_partition,
)
from dgalab.numerics import sym_eigenvalues
from dgalab.oracles import NaiveDecodeSession, mask_by_reachability, naive_dga_attention
from dgalab.rng import RngStream
from dgalab.sparsity import (
    empirical_p_sparse,
    gaussian_source,
    p_sparse_lower_bound_detail,
    sample_weight_rows,
)


def _report(num, ok, elapsed, limit, detail):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {num} ({elapsed:.1f}s / limit {limit}s): {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s runtime budget"


def _random_batch(gen, L, d):
    return AttentionBatch(
        gen.standard_normal((L, d)),
        gen.standard_normal((L, d)),
        gen.standard_normal((L, d)),
    )


def test_criterion_1_degenerate_equivalence():
    """gamma = 1 collapses the grouped pipeline onto exact causal attention."""
    start = time.monotonic()
    gen = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        L = int(gen.integers(1, 65))
        d = int(gen.integers(1, 17))
        batch = _random_batch(gen, L, d)
        ref, _ = causal_attention(batch)
        got = dga_attention(batch, m=int(gen.integers(1, 9)), gamma=1.0)
        worst = max(worst, float(np.abs(got - ref).max()))
    _report(1, worst <= 1e-10, time.monotonic() - start, 10,
            f"50 batches, max |dga - causal| = {worst:.3e} <= 1e-10")


def test_criterion_2_causality_oracle():
    """Exhaustive future-token perturbation: with the token partition held
    fixed (importance scoring aggregates whole-sequence statistics by
    construction, so it is not part of the causal contract), perturbing
    Q/K/V at any position j must leave every output row before j
    bit-identical."""
    start = time.monotonic()
    gen = np.random.default_rng(202)
    m_grid = [2, 3, 4]
    gamma_grid = [0.1, 0.25, 0.5]
    violations = 0
    for t in range(20):
        m = m_grid[t % 3]
        gamma = gamma_grid[(t // 3) % 3]
        L = int(gen.integers(m + 2, 33))
        d = int(gen.integers(2, 9))
        batch = _random_batch(gen, L, d)
        partition = compute_partition(batch, m, gamma)
        base = dga_attention_with_partition(batch, partition)
        for j in range(1, L):
            for field in range(3):
                arrays = [batch.q.copy(), batch.k.copy(), batch.v.copy()]
                arrays[field][j] += 25.0
                pert = dga_attention_with_partition(AttentionBatch(*arrays), partition)
                if not np.array_equal(pert[:j], base[:j]):
                    violations += 1
    _report(2, violations == 0, time.monotonic() - start, 60,
            f"20 configs (m in {m_grid}, gamma in {gamma_grid}), "
            f"all (i, j>i) pairs, {violations} violations")


def test_criterion_3_oracle_equivalence():
    """Vectorized attention and mask match the loop/reachability oracles."""
    start = time.monotonic()
    gen = np.random.default_rng(303)
    worst_att = 0.0
    worst_mask = 0.0
    for case in range(100):
        L = int(gen.integers(2, 33))
        d = int(gen.integers(1, 9))
        m = int(gen.choice([1, 2, 3, 4]))
        gamma = float(gen.choice([0.1, 0.25, 0.5, 1.0]))
        batch = _random_batch(gen, L, d)
        partition = compute_partition(batch, m, gamma)
        got = dga_attention_with_partition(batch, partition)
        want = naive_dga_attention(batch, partition)
        worst_att = max(worst_att, float(np.abs(got - want).max()))
        mask_diff = np.abs(build_group_mask(partition) - mask_by_reachability(partition))
        worst_mask = max(worst_mask, float(mask_diff.max()))
    ok = worst_att <= 1e-12 and worst_mask == 0.0
    _report(3, ok, time.monotonic() - start, 60,
            f"100 cases, attention gap {worst_att:.3e} <= 1e-12, mask gap {worst_mask:.0f}")


def test_criterion_4_condition_numbers_and_spectra():
    """Grouping never worsens the Hessian condition number; the averaging
    matrix has top eigenvalue 1/m and satisfies M M^T = I/m exactly."""
    start = time.monotonic()
    for L, m in [(16, 2), (16, 4), (16, 8)]:
        mat = build_grouping_matrix(L, m)
        k = L // m
        assert np.abs(mat @ mat.T - np.eye(k) / m).max() <= 1e-12
        eigs = sym_eigenvalues(mat.T @ mat)
        assert abs(eigs[0] - 1.0 / m) <= 1e-12
    gen = np.random.default_rng(404)
    fails = 0
    worst_ratio = 0.0
    for _ in range(200):
        inst = CodingInstance(gen.standard_normal((16, 32)), gen.standard_normal(32))
        for m in (2, 4, 8):
            kappa_h, kappa_h_bar, holds = verify_condition_numbers(inst, m)
            fails += not holds
            worst_ratio = max(worst_ratio, kappa_h_bar / kappa_h)
    _report(4, fails == 0, time.monotonic() - start, 30,
            f"200 instances x m in (2,4,8): kappa ratio max {worst_ratio:.6f} <= 1, "
            f"spectral identities exact to 1e-12")


def test_criterion_5_variance_closed_form_and_damping():
    """Single-weight noise variance matches the first-order closed form
    within 5%; block noise damps per-member variance by about 1/m^2."""
    start = time.monotonic()
    detail = []
    ok = True
    for idx, L in enumerate((4, 8, 32)):
        uniform = np.full(L, 1.0 / L)
        emp, pred = perturbation_variance(uniform, 0, 1e-3, 10**5, RngStream(500).child(idx))
        rel = abs(emp - pred) / pred
        ok &= rel <= 0.05
        detail.append(f"L={L}: {100 * rel:.2f}%")
    for m in (2, 4, 8):
        ratio = grouped_variance_ratio(np.zeros(32), m, 1e-3, 10**5, RngStream(501).child(m))
        scaled = ratio * m * m
        ok &= 0.5 <= scaled <= 2.0
        detail.append(f"m={m}: ratio*m^2={scaled:.3f}")
    _report(5, ok, time.monotonic() - start, 120, "; ".join(detail))


def test_criterion_6_first_order_residual_halving():
    """The softmax expansion's residual is second order: halving the
    perturbation scale divides the residual by about four."""
    start = time.monotonic()
    base = RngStream(600)
    ratios = [first_order_delta_check(np.zeros(8), 1e-3, base.child(i)) for i in range(100)]
    mean_ratio = float(np.mean(ratios))
    _report(6, 3.5 <= mean_ratio <= 4.5, time.monotonic() - start, 10,
            f"mean halving ratio over 100 draws = {mean_ratio:.3f} in [3.5, 4.5]")


def test_criterion_7_sparsity_bound_and_trend():
    """For i.i.d. Gaussian logits the Monte Carlo lower bound stays below
    the matched empirical rate (3 standard errors of slack), and the
    empirical rate is non-decreasing in L at fixed rho (2 sigma slack).
    Cells with rho <= 1/L lie outside the sparse-rate domain (only
    (L=64, rho=0.01)) and are skipped."""
    start = time.monotonic()
    source = gaussian_source()
    rows_n, bound_trials = 4000, 20_000
    emp, se_emp, detail = {}, {}, []
    ok = True
    for li, L in enumerate((64, 256, 1024)):
        rows = sample_weight_rows(source, L, rows_n, RngStream(700).child(li))
        for ri, rho in enumerate((0.01, 0.02, 0.05)):
            if rho <= 1.0 / L:
                continue
            p = empirical_p_sparse(rows, rho)
            emp[(L, rho)] = p
            se_emp[(L, rho)] = np.sqrt(max(p * (1 - p), 1e-12) / rows_n)
            bound = p_sparse_lower_bound_detail(
                source, L, rho, None, bound_trials, RngStream(701).child(10 * li + ri)
            )
            slack = 3.0 * np.sqrt(se_emp[(L, rho)] ** 2 + bound.standard_error**2)
            cell_ok = p >= bound.bound - slack
            ok &= cell_ok
            detail.append(f"L={L},rho={rho}: emp={p:.4f}>=bound={bound.bound:.4f}-3se")
    for rho in (0.01, 0.02, 0.05):
        ladder = [(L, emp[(L, rho)]) for L in (64, 256, 1024) if (L, rho) in emp]
        for (l1, p1), (l2, p2) in zip(ladder, ladder[1:]):
            noise = 2.0 * np.sqrt(se_emp[(l1, rho)] ** 2 + se_emp[(l2, rho)] ** 2)
            trend_ok = p2 >= p1 - noise
            ok &= trend_ok
            if not trend_ok:
                detail.append(f"trend violated at rho={rho}: {l1}->{l2}")
    _report(7, ok, time.monotonic() - start, 120,
            f"{len(emp)} valid cells; " + "; ".join(detail[:4]) + "; trends non-decreasing")


def test_criterion_8_decode_ledger_and_oracle():
    """Per-token decode cost is exactly focal + blocks + tail columns,
    always below the vanilla count, and a 50-step session tracks the
    cache-free replay."""
    start = time.monotonic()
    gen = np.random.default_rng(808)
    ok = True
    notes = []
    for L, m, gamma in [(64, 2, 0.1), (128, 4, 0.1), (256, 8, 0.1)]:
        batch = _random_batch(gen, L, 8)
        _, state = prefill(batch, m, gamma)
        session = NaiveDecodeSession.from_prefill(batch, compute_partition(batch, m, gamma))
        worst = 0.0
        for step in range(50):
            q, k, v = gen.standard_normal((3, 8))
            before = state.focal_rows + state.group_rows + state.tail_rows
            out, state = decode_step(state, q, k, v)
            want = session.step(q, k, v)
            worst = max(worst, float(np.abs(out - want).max()))
            columns = before + 1
            ok &= columns == session.columns_log[-1]
            ok &= columns < state.total_tokens
        ok &= worst <= 1e-10
        notes.append(f"L={L},m={m}: oracle gap {worst:.1e}, columns {columns} < {state.total_tokens}")
    _report(8, ok, time.monotonic() - start, 30, "; ".join(notes))


def test_criterion_9_cli_reproducibility(tmp_path):
    """Every subcommand yields byte-identical files and stdout when rerun
    with the same seed and flags."""
    start = time.monotonic()
    jobs = [
        (["sparsity", "--L", "32,64", "--rho", "0.1", "--trials", "10000"], ["sparsity.csv"]),
        (["coding", "--L", "8", "--d", "16", "--m", "2,4", "--instances", "10",
          "--iters", "50"], ["condnum.csv", "trace.csv"]),
        (["noise", "--L", "16", "--m", "1,4", "--sigma", "0.001,0.01",
          "--trials", "4000"], ["noise.csv", "noise_alt.csv", "klnoise.csv"]),
        (["dga-check", "--L", "16", "--d", "4", "--m", "2", "--gamma", "0.25",
          "--cases", "5"], []),
        (["decode-bench", "--L", "32", "--d", "4", "--m", "4", "--steps", "16"],
         ["decode_trace.csv", "ledger_summary.csv"]),
    ]
    ok = True
    for argv, files in jobs:
        outputs = []
        for run_idx in (1, 2):
            out_dir = tmp_path / f"{argv[0]}_{run_idx}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv + ["--seed", "13", "--out", str(out_dir)])
            ok &= code == 0
            stdout = buf.getvalue().replace(str(out_dir), "<out>")
            outputs.append((stdout, [(out_dir / f).read_bytes() for f in files]))
        ok &= outputs[0] == outputs[1]
    _report(9, ok, time.monotonic() - start, 120,
            f"{len(jobs)} subcommands byte-identical across paired runs (seed 13)")
