"""Command-line front end.

Subcommands wire the library into reproducible experiments, each emitting
deterministic CSV files into --out:

  sparsity      empirical vs bound sparsity probabilities -> sparsity.csv
  coding        condition-number sweep and solver traces  -> condnum.csv, trace.csv
  noise         variance and KL noise experiments         -> noise.csv, noise_alt.csv, klnoise.csv
  dga-check     oracle equivalence battery: grouped attention, mask, exact
                attention (exit 1 on failure, the failing case's Q, K, V, got
                and want dumped as .mat files, NaN and inf included)
  decode-bench  decode session trace and cost ledgers     -> decode_trace.csv, ledger_summary.csv

Flags override an optional key=value --config file; identical seed and
configuration produce byte-identical outputs. Every flag is resolved and
checked against its minimum (see --help) before the subcommand runs, so a
rejected run writes no file.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .attention import AttentionBatch, causal_attention
from .coding import (
    CodingInstance,
    GroupStructure,
    ambient_variance_ratio,
    grouped_variance_ratio,
    kl_under_noise,
    perturbation_variance,
    solve_coding,
    verify_condition_numbers,
)
from .decode import decode_step, ledger, prefill
from .dga import build_group_mask, compute_partition, dga_attention_with_partition
from .errors import check_finite
from .matrixio import dump_case, write_csv
from .oracles import mask_by_reachability, naive_causal_attention, naive_dga_attention
from .rng import RngStream
from .sparsity import named_source, sparsity_profile

USAGE_ERROR = 2
CHECK_FAILED = 1


def _parse_int_list(text: str) -> list:
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _parse_float_list(text: str) -> list:
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def load_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgalab",
        description="Grouped-attention numerical experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        for flag, (parse, _, low, flag_help) in flags.items():
            if low is not None:
                flag_help += f" (at least {low})"
            p.add_argument(f"--{flag}", type=parse, default=None, help=flag_help)
    return parser


def _prepare(args) -> argparse.Namespace:
    """Resolve every flag of the subcommand: command-line value if given,
    else config value, else default. Adds the seeded stream as `rng`.
    A config key that names no flag of the subcommand, a list flag with no
    value and a value below its flag's minimum are errors, reported for the
    first flag in table order."""
    cfg = load_config(args.config) if args.config is not None else {}
    flags = _COMMANDS[args.command][2]
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise ValueError(
            f"{args.config}: unknown key(s) for {args.command}: {', '.join(unknown)}"
        )
    values = {}
    for key, (parse, default, low, _) in flags.items():
        given = getattr(args, key)
        if given is None:
            given = parse(cfg[key]) if key in cfg else default
        if given == []:
            raise ValueError(f"--{key} needs at least one value")
        if low is not None and np.min(given) < low:
            raise ValueError(f"--{key} must be at least {low}, got {given}")
        values[key] = given
    return argparse.Namespace(rng=RngStream(values["seed"]), **values)


def run_sparsity(p) -> int:
    check_finite(p.rho, "rho")
    if not any(1.0 / L < rho <= 1.0 for L in p.L for rho in p.rho):
        raise ValueError("no --rho value lies in (1/L, 1] for any --L")
    source = named_source(p.sampler, d=p.d)
    cells = sparsity_profile(source, p.L, p.rho, p.trials, p.rng)
    path = os.path.join(p.out, "sparsity.csv")
    write_csv(path, ["L", "rho", "empirical_p", "bound_p", "samples"],
              [(L, rho, emp, bound, p.trials) for (L, rho), (emp, bound) in sorted(cells.items())])
    print(f"wrote {path} ({len(cells)} cells, sampler={source.name})")
    return 0


def run_coding(p) -> int:
    L, d = p.L, p.d
    for m in p.m:
        GroupStructure(L, m)  # an indivisible m exits 2 before any output
    rows = []
    holds_all = True
    for idx in range(p.instances):
        gen = p.rng.child(idx).generator()
        inst = CodingInstance(gen.standard_normal((L, d)), gen.standard_normal(d))
        for m in p.m:
            kappa_h, kappa_h_bar, holds = verify_condition_numbers(inst, m)
            holds_all &= holds
            rows.append((L, d, m, kappa_h, kappa_h_bar, holds))
    write_csv(os.path.join(p.out, "condnum.csv"),
              ["L", "d", "m", "kappa_H", "kappa_Hbar", "holds"], rows)

    gen = p.rng.child(p.instances).generator()
    inst = CodingInstance(gen.standard_normal((L, d)), gen.standard_normal(d))
    trace_rows = []
    trace = solve_coding(inst, None, None, p.iters)
    trace_rows += [("ungrouped", 0, it, obj) for it, obj in trace.iterates]
    gap_note = [f"ungrouped: {trace.iterations_to_gap()} iters to 1e-6 gap"]
    for m in p.m:
        trace = solve_coding(inst, GroupStructure(L, m), None, p.iters)
        trace_rows += [("grouped", m, it, obj) for it, obj in trace.iterates]
        gap_note.append(f"grouped m={m}: {trace.iterations_to_gap()} iters")
    write_csv(os.path.join(p.out, "trace.csv"),
              ["variant", "m", "iteration", "objective"], trace_rows)

    print(f"wrote condnum.csv ({len(rows)} rows, all holds={holds_all}) and trace.csv")
    print("; ".join(gap_note))
    return 0


def run_noise(p) -> int:
    L, trials = p.L, p.trials
    for m in p.m:
        GroupStructure(L, m)  # an indivisible m exits 2 before any output
    uniform = np.full(L, 1.0 / L)
    logits = np.zeros(L)
    rows, alt_rows = [], []
    for mi, m in enumerate(p.m):
        for si, sigma in enumerate(p.sigma):
            sub = p.rng.child(100 * mi + si)
            emp, pred = perturbation_variance(uniform, 0, sigma, trials, sub.child(0))
            ratio = grouped_variance_ratio(logits, m, sigma, trials, sub.child(1))
            ambient = ambient_variance_ratio(logits, m, sigma, trials, sub.child(2))
            rows.append((L, m, sigma, emp, pred, ratio))
            alt_rows.append((L, m, sigma, ambient))
    write_csv(os.path.join(p.out, "noise.csv"),
              ["L", "m", "sigma", "emp_var", "pred_var", "ratio"], rows)
    write_csv(os.path.join(p.out, "noise_alt.csv"),
              ["L", "m", "sigma", "ratio_ambient"], alt_rows)

    gen = p.rng.child(999).generator()
    inst = CodingInstance(gen.standard_normal((L, p.d)), gen.standard_normal(p.d))
    kl_m = p.m[-1]
    kl_rows = kl_under_noise(inst, GroupStructure(L, kl_m), p.sigma, trials, p.rng.child(1000))
    write_csv(os.path.join(p.out, "klnoise.csv"),
              ["sigma", "kl_ungrouped", "kl_grouped"], kl_rows)
    print(f"wrote noise.csv ({len(rows)} rows), noise_alt.csv, klnoise.csv (m={kl_m})")
    return 0


def run_dga_check(p) -> int:
    m, gamma = p.m, p.gamma
    for case in range(p.cases):
        case_rng = p.rng.child(case)
        gen = case_rng.generator()
        L = int(gen.integers(2, p.L + 1))
        d = int(gen.integers(1, p.d + 1))
        batch = AttentionBatch(*case_rng.child(0).generator().standard_normal((3, L, d)))
        partition = compute_partition(batch, m, gamma)
        exact, naive_exact = causal_attention(batch), naive_causal_attention(batch)
        checks = [  # (kind, got, want, tolerance)
            ("attention", dga_attention_with_partition(batch, partition),
             naive_dga_attention(batch, partition), 1e-12),
            ("mask", build_group_mask(partition), mask_by_reachability(partition), 0),
            *(("causal", got, want, 1e-12) for got, want in zip(exact, naive_exact)),
            ("degenerate", dga_attention_with_partition(batch, compute_partition(batch, m, 1.0)),
             exact[0], 1e-10),
        ]
        # "not <= tol", never "> tol": a NaN difference compares False, and must fail.
        failures = [check for check in checks if not np.abs(check[1] - check[2]).max() <= check[3]]
        if failures:
            kind, got, want, _ = failures[0]
            dumped = dump_case(p.out, [("Q", batch.q), ("K", batch.k), ("V", batch.v),
                                       ("got", got), ("want", want)])
            print(
                f"FAIL case {case} ({kind}, L={L}, d={d}, m={m}, gamma={gamma}); "
                f"dumped {len(dumped)} matrices to {p.out}",
                file=sys.stderr,
            )
            return CHECK_FAILED
    print(f"dga-check passed: {p.cases} cases, L<={p.L}, d<={p.d}, m={m}, gamma={gamma}")
    return 0


def run_decode_bench(p) -> int:
    batch = AttentionBatch(*p.rng.child(0).generator().standard_normal((3, p.L, p.d)))
    _, state = prefill(batch, p.m, p.gamma)
    gen = p.rng.child(1).generator()
    trace = []
    for step in range(1, p.steps + 1):
        q, k, v = gen.standard_normal((3, p.d))
        columns = state.rows + 1  # the step attends the cache plus its own token
        decode_step(state, q, k, v)
        trace.append((step, state.focal_rows, state.group_rows, state.tail_rows,
                      columns, state.rows))

    write_csv(
        os.path.join(p.out, "decode_trace.csv"),
        ["step", "focal_rows", "group_rows", "tail_rows", "columns_touched", "cache_entries"],
        trace,
    )
    dga, tokens = ledger(state), state.total_tokens
    # Vanilla full attention: every token attends, and caches, all of them.
    write_csv(
        os.path.join(p.out, "ledger_summary.csv"),
        ["tokens", "dga_columns", "vanilla_columns", "dga_cache", "vanilla_cache",
         "dga_dots", "vanilla_dots"],
        [(tokens, dga.per_token_columns, tokens, dga.cache_entries, tokens,
          dga.score_dot_products, tokens * tokens)],
    )
    print(
        f"wrote decode_trace.csv ({p.steps} steps) and ledger_summary.csv; "
        f"next-token columns {dga.per_token_columns} vs vanilla {tokens}"
    )
    return 0


# Flags every subcommand takes besides --config.
_COMMON = {
    "seed": (int, 0, None, "base RNG seed"),
    "out": (str, ".", None, "output directory"),
}

# subcommand -> (help, runner, {flag: (parse, default, minimum, help)}), with
# minimum None for a flag that is not a count. The parser, its help, the
# flag > config > default resolution, the minimum checks and main all read
# this one table.
_COMMANDS = {
    "sparsity": ("sparsity probabilities and bounds", run_sparsity, {
        **_COMMON,
        "L": (_parse_int_list, [64, 128, 256], 1, "context lengths, comma-separated"),
        "rho": (_parse_float_list, [0.01, 0.02, 0.05], None, "sparse rates, comma-separated"),
        "trials": (int, 10_000, 1, "Monte Carlo sample count"),
        "sampler": (str, "gaussian", None,
                    "logit distribution family: gaussian, student_t, mixture or attention"),
        "d": (int, 16, 1, "embedding width for the attention sampler"),
    }),
    "coding": ("condition numbers and solver traces", run_coding, {
        **_COMMON,
        "L": (int, 16, 1, "token count per instance"),
        "d": (int, 32, 1, "embedding width"),
        "m": (_parse_int_list, [2, 4, 8], 1, "group sizes, comma-separated"),
        "instances": (int, 200, 1, "random instances per group size"),
        "iters": (int, 2000, 1, "solver iterations for the trace"),
    }),
    "noise": ("variance damping and KL drift under noise", run_noise, {
        **_COMMON,
        # below 2 logits a softmax never moves; below 2 trials there is no variance
        "L": (int, 32, 2, "logit vector length"),
        "m": (_parse_int_list, [1, 2, 4, 8], 1, "group sizes, comma-separated"),
        "sigma": (_parse_float_list, [1e-4, 1e-3, 1e-2], None, "noise levels, comma-separated"),
        "trials": (int, 20_000, 2, "Monte Carlo trials"),
        "d": (int, 8, 1, "embedding width for the KL instance"),
    }),
    "dga-check": ("oracle equivalence battery", run_dga_check, {
        **_COMMON,
        "L": (int, 24, 2, "maximum sequence length"),
        "d": (int, 8, 1, "maximum embedding width"),
        "m": (int, 4, 1, "group size"),
        "gamma": (float, 0.25, None, "importance rate"),
        "cases": (int, 25, 1, "number of random cases"),
    }),
    "decode-bench": ("decode trace and cost ledgers", run_decode_bench, {
        **_COMMON,
        "L": (int, 64, 1, "prompt length"),
        "d": (int, 8, 1, "embedding width"),
        "m": (int, 4, 1, "group size"),
        "gamma": (float, 0.1, None, "importance rate"),
        "steps": (int, 64, 0, "decode steps"),
    }),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][1](_prepare(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
