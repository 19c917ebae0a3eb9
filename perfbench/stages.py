"""The three measured stages: grouped prefill, decode sessions, lab suite.

Each stage owns its seeded inputs and exposes the same steps:
``oracle_check`` (a down-scaled copy checked against ``dgalab.oracles``),
``warm_up`` (one untimed operation), ``prepare`` (the seeded inputs of
operation n), ``timed`` (one operation on those inputs, timing only the
library calls), ``check`` (correctness of that operation's outputs),
``record`` (keep its timings) and ``metrics`` (end-to-end metrics).
Library functions are always called through their module so that traced
runs can swap in wrappers.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from dgalab import attention, coding, decode, dga, numerics, oracles, sparsity
from dgalab.dga import SampleSpec
from perfbench import inputs, reference

D, M, GAMMA = 64, 16, 0.1
SPEC = SampleSpec(recent_count=16, random_count=16)
HEAVY_FRAC, HEAVY_BOOST = 0.03, 4.0  # planted keys: 3% of tokens (< gamma), +4 logit
ORACLE_TOL = 1e-12
SPOT_ROWS = 8


@dataclass
class Tally:
    """Operations attempted and failed; a failed check or a raised
    exception fails the operation."""

    attempted: int = 0
    failed: int = 0

    def count(self, failures: list, what: str) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"FAILED {what}: {msg}", file=sys.stderr)


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _max_diff(got, want) -> float:
    """Largest absolute difference; infinite when either side is not finite."""
    diff = np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))
    return float(diff.max()) if np.all(np.isfinite(diff)) else float("inf")


# --- grouped prefill versus exact attention ---------------------------------


@dataclass(frozen=True)
class PrefillSize:
    L: int
    pool: int  # distinct sequences, cycled; every one is run at least once


class PrefillStage:
    kind = "prefill"
    ORACLE = PrefillSize(L=128, pool=1)

    def __init__(self, rng, size: PrefillSize):
        self.rng, self.size = rng, size
        self.min_ops = size.pool
        self.t_dga, self.t_exact, self.errs = [], [], {}

    def prepare(self, n: int) -> dict:
        """Inputs, sampling stream and spot-checked rows of pool entry n % pool."""
        i = n % self.size.pool
        rng, L = self.rng.child(i), self.size.L
        return {
            "i": i,
            "batch": inputs.planted_batch(rng.child(0), L, D, HEAVY_FRAC, HEAVY_BOOST),
            "sampler": rng.child(1),
            "spot": np.union1d([0, L - 1], rng.child(2).choice_without_replacement(L, SPOT_ROWS)),
        }

    @classmethod
    def oracle_check(cls, rng) -> list:
        L = cls.ORACLE.L
        batch = inputs.planted_batch(rng.child(0), L, D, HEAVY_FRAC, HEAVY_BOOST)
        sampler = rng.child(1)
        part = dga.compute_partition(batch, M, GAMMA, SPEC, sampler)
        got = dga.dga_attention(batch, M, GAMMA, SPEC, sampler)
        want = oracles.naive_dga_attention(batch, part)
        mask = dga.build_group_mask(part)
        exact, weights = attention.causal_attention(batch)
        exact_want, weights_want = oracles.naive_causal_attention(batch)
        failures = []
        if _max_diff(got, want) > ORACLE_TOL:
            failures.append(f"dga_attention vs naive_dga_attention: {_max_diff(got, want):.3e}")
        if _max_diff(mask, oracles.mask_by_reachability(part)) > ORACLE_TOL:
            failures.append("build_group_mask differs from mask_by_reachability")
        if max(_max_diff(exact, exact_want), _max_diff(weights, weights_want)) > ORACLE_TOL:
            failures.append("causal_attention differs from naive_causal_attention")
        rows = np.arange(L)
        if _max_diff(reference.reference_rows(batch, part, rows), want) > ORACLE_TOL:
            failures.append("benchmark per-row reference differs from naive_dga_attention")
        if not np.array_equal(reference.visible_columns(part), mask.sum(axis=1)):
            failures.append("benchmark visible-column count differs from the mask")
        return failures

    def warm_up(self) -> None:
        self.timed(self.prepare(0), None)

    def timed(self, inp: dict, tracer) -> dict:
        batch = inp["batch"]
        t0 = perf_counter()
        out = dga.dga_attention(batch, M, GAMMA, SPEC, inp["sampler"])
        t1 = perf_counter()
        exact, _ = attention.causal_attention(batch)
        t2 = perf_counter()
        return dict(inp, out=out, exact=exact, t_dga=t1 - t0, t_exact=t2 - t1)

    @staticmethod
    def op_seconds(res: dict) -> float:
        return res["t_dga"] + res["t_exact"]

    def check(self, res: dict) -> list:
        i, batch, rows, out, exact = res["i"], res["batch"], res["spot"], res["out"], res["exact"]
        if not _finite(out, exact):
            return ["non-finite attention output"]
        # The sampling stream is a value, so this rebuilds the partition
        # dga_attention used.
        part = dga.compute_partition(batch, M, GAMMA, SPEC, res["sampler"])
        failures = []
        diff = _max_diff(out[rows], reference.reference_rows(batch, part, rows))
        if diff > ORACLE_TOL:
            failures.append(f"sequence {i}: grouped rows differ from the reference by {diff:.3e}")
        diff = _max_diff(exact[rows], reference.exact_rows(batch, rows))
        if diff > ORACLE_TOL:
            failures.append(f"sequence {i}: exact rows differ from the reference by {diff:.3e}")
        self.errs.setdefault(i, reference.rel_err(out, exact))
        return failures

    def layer_counts(self, res: dict) -> dict:
        return {}

    def record(self, res: dict) -> None:
        self.t_dga.append(res["t_dga"])
        self.t_exact.append(res["t_exact"])

    def metrics(self) -> dict:
        L, n = self.size.L, len(self.t_dga)
        return {
            "prefill_tok_s": (L * n / sum(self.t_dga), "tok/s",
                              f"L={L}, {n} sequences, tokens / total time"),
            "exact_tok_s": (L * n / sum(self.t_exact), "tok/s",
                            f"L={L}, {n} sequences, tokens / total time"),
            "dga_rel_err": (float(np.mean(list(self.errs.values()))), "1",
                            f"mean over {len(self.errs)} distinct sequences"),
        }


# --- decode sessions -------------------------------------------------------


@dataclass(frozen=True)
class DecodeSize:
    prompt: int
    steps: int


class DecodeStage:
    kind = "decode"
    ORACLE = DecodeSize(prompt=64, steps=160)
    WARM_STEPS = 1024
    MIN_STEPS = 1100  # a session's p99 needs at least ten samples beyond it

    def __init__(self, rng, size: DecodeSize):
        self.rng, self.size = rng, size
        self.min_ops = 1
        self.ttft, self.step_s = [], []

    def prepare(self, n: int) -> dict:
        """Prompt and per-step q/k/v rows of session n."""
        rng = self.rng.child(n)
        return {"batch": inputs.gaussian_batch(rng.child(0), self.size.prompt, D),
                "tokens": inputs.decode_tokens(rng.child(1), self.size.steps, D)}

    @staticmethod
    def invariants(state, prompt: int, steps: int) -> list:
        failures = []
        rows = state.focal_rows + state.group_rows + state.tail_rows
        tokens = state.focal_rows + state.m * state.group_rows + state.tail_rows
        if tokens != prompt + steps or state.total_tokens != prompt + steps:
            failures.append(f"cache holds {tokens} tokens, expected {prompt + steps}")
        led = decode.ledger(state)
        if led.per_token_columns != rows or led.cache_entries != rows:
            failures.append(f"ledger columns {led.per_token_columns} != cache rows {rows}")
        return failures

    @classmethod
    def oracle_check(cls, rng) -> list:
        inp = cls(rng, cls.ORACLE).prepare(0)
        batch, toks = inp["batch"], inp["tokens"]
        part = dga.compute_partition(batch, M, GAMMA)
        out, state = decode.prefill(batch, M, GAMMA)
        failures = []
        if _max_diff(out, oracles.naive_dga_attention(batch, part)) > ORACLE_TOL:
            failures.append("prefill output differs from naive_dga_attention")
        session = oracles.NaiveDecodeSession.from_prefill(batch, part)
        worst = 0.0
        for q, k, v in toks:
            got, _ = decode.decode_step(state, q, k, v)
            worst = max(worst, _max_diff(got, session.step(q, k, v)))
        if worst > ORACLE_TOL:
            failures.append(f"decode_step differs from NaiveDecodeSession by {worst:.3e}")
        return failures + cls.invariants(state, cls.ORACLE.prompt, cls.ORACLE.steps)

    def warm_up(self) -> None:
        inp = self.prepare(0)
        _, state = decode.prefill(inp["batch"], M, GAMMA)
        for q, k, v in inp["tokens"][: self.WARM_STEPS]:
            decode.decode_step(state, q, k, v)

    def timed(self, inp: dict, tracer) -> dict:
        batch, toks = inp["batch"], inp["tokens"]
        steps = self.size.steps
        step_s = np.empty(steps)
        outs = np.empty((steps, D))
        t0 = perf_counter()
        prefill_out, state = decode.prefill(batch, M, GAMMA)
        ttft = perf_counter() - t0
        for s in range(steps):
            q, k, v = toks[s]
            t = perf_counter()
            out, _ = decode.decode_step(state, q, k, v)
            step_s[s] = perf_counter() - t
            outs[s] = out
        return {"ttft": ttft, "step_s": step_s, "state": state,
                "prefill_out": prefill_out, "outs": outs}

    @staticmethod
    def op_seconds(res: dict) -> float:
        return res["ttft"] + float(res["step_s"].sum())

    def check(self, res: dict) -> list:
        failures = [] if _finite(res["prefill_out"], res["outs"]) else ["non-finite decode output"]
        return failures + self.invariants(res["state"], self.size.prompt, self.size.steps)

    def layer_counts(self, res: dict) -> dict:
        state = res["state"]
        return {
            "decode.ledger_dots": decode.ledger(state).score_dot_products,
            "decode.cache_rows_final": state.focal_rows + state.group_rows + state.tail_rows,
        }

    def record(self, res: dict) -> None:
        self.ttft.append(res["ttft"])
        self.step_s.append(res["step_s"])

    def metrics(self) -> dict:
        # Per-session percentiles, averaged: sessions fall in the fast and
        # slow spells of a shared machine, and a mean moves with the share
        # of each where a pooled median jumps between them.
        sessions = len(self.step_s)
        steps = self.size.steps
        if steps < self.MIN_STEPS:
            raise ValueError(f"{steps} steps per session leave fewer than ten beyond p99")
        p50, p99 = (float(np.mean([np.percentile(s, q) for s in self.step_s])) * 1e6
                    for q in (50, 99))
        total = float(sum(s.sum() for s in self.step_s))
        where = f"{sessions} sessions, prompt {self.size.prompt}, {steps} steps each"
        return {
            "ttft_s": (statistics.mean(self.ttft), "s", f"mean of {where}"),
            "decode_tok_s": (sessions * steps / total, "tok/s", f"steps / total time, {where}"),
            "decode_step_p50_us": (p50, "us", f"mean of per-session p50, {where}"),
            "decode_step_p99_us": (p99, "us", f"mean of per-session p99 "
                                   f"({int(steps * 0.01)} steps beyond it), {where}"),
        }


# --- lab suite -------------------------------------------------------------


@dataclass(frozen=True)
class LabSize:
    sparsity_L: tuple
    rho: tuple
    trials: int
    attn_d: int
    coding_L: int
    coding_d: int
    coding_m: tuple
    instances: int
    iters: int
    noise_L: int
    noise_m: tuple
    sigma: tuple
    noise_trials: int
    kl_d: int


def lab_inputs(size: LabSize, rng) -> dict:
    """The coding instances of one pass; the library draws the rest from
    child streams of ``rng``."""

    def instance(stream, L, d):
        gen = stream.generator()
        return coding.CodingInstance(gen.standard_normal((L, d)), gen.standard_normal(d))

    cL, cd = size.coding_L, size.coding_d
    return {
        "rng": rng,
        "sweep": [instance(rng.child(3).child(i), cL, cd) for i in range(size.instances)],
        "solve": instance(rng.child(4), cL, cd),
        "kl": instance(rng.child(6), size.noise_L, size.kl_d),
    }


def run_lab(size: LabSize, inp: dict, tracer=None) -> dict:
    """One pass of the measurement experiments: a sparsity profile for the
    attention sampler and an i.i.d. Gaussian one, the condition-number
    sweep with solver traces, and noise damping with KL drift."""
    rng = inp["rng"]
    attn = sparsity.attention_source(size.attn_d)
    iid = sparsity.gaussian_source()
    if tracer is not None:
        attn, iid = tracer.wrap_source(attn), tracer.wrap_source(iid)
    sparsity.sparsity_profile(attn, size.sparsity_L, size.rho, size.trials, rng.child(0))
    iid_cells = []
    for li, L in enumerate(size.sparsity_L):
        rows = sparsity.sample_weight_rows(iid, L, size.trials, rng.child(1).child(li))
        for ri, rho in enumerate(size.rho):
            emp = sparsity.empirical_p_sparse(rows, rho)
            detail = sparsity.p_sparse_lower_bound_detail(
                iid, L, rho, None, max(size.trials, 10_000), rng.child(2).child(10 * li + ri)
            )
            iid_cells.append((L, rho, emp, detail))

    holds = [coding.verify_condition_numbers(inst, m)[2]
             for inst in inp["sweep"] for m in size.coding_m]
    inst = inp["solve"]
    traces = [coding.solve_coding(inst, None, None, size.iters)]
    traces += [coding.solve_coding(inst, coding.GroupStructure(size.coding_L, m), None, size.iters)
               for m in size.coding_m]

    nL, trials = size.noise_L, size.noise_trials
    ratios = []
    for mi, m in enumerate(size.noise_m):
        for si, sigma in enumerate(size.sigma):
            sub = rng.child(5).child(100 * mi + si)
            coding.perturbation_variance(np.full(nL, 1.0 / nL), 0, sigma, trials, sub.child(0))
            ratio = coding.grouped_variance_ratio(np.zeros(nL), m, sigma, trials, sub.child(1))
            ratios.append((m, sigma, ratio))
            coding.ambient_variance_ratio(np.zeros(nL), m, sigma, trials, sub.child(2))
    kl = coding.kl_under_noise(inp["kl"], coding.GroupStructure(nL, size.noise_m[-1]),
                               size.sigma, trials, rng.child(7))
    return {"iid": iid_cells, "holds": holds, "traces": traces, "ratios": ratios,
            "kl": kl, "trials": size.trials}


def check_lab(res: dict) -> list:
    failures = []
    if not all(res["holds"]):
        failures.append(f"{res['holds'].count(False)} condition-number rows do not hold")
    for m, sigma, ratio in res["ratios"]:
        # Same window as acceptance criterion 5: ratio * m^2 in [0.5, 2].
        if not 0.5 <= ratio * m * m <= 2.0:
            failures.append(f"grouped variance ratio {ratio:.4g} not near 1/m^2 (m={m}, sigma={sigma})")
    for L, rho, emp, detail in res["iid"]:
        # Three combined standard errors of slack, as in criterion 7.
        se_emp = np.sqrt(max(emp * (1.0 - emp), 1e-12) / res["trials"])
        if detail.bound > emp + 3.0 * np.hypot(se_emp, detail.standard_error):
            failures.append(f"i.i.d. bound {detail.bound:.4f} exceeds empirical {emp:.4f} "
                            f"(L={L}, rho={rho})")
    for trace in res["traces"]:
        objs = [obj for _, obj in trace.iterates]
        if not (np.all(np.isfinite(objs)) and objs[-1] <= objs[0]):
            failures.append("projected-gradient objective did not decrease")
    if not all(np.isfinite(row).all() and min(row) >= 0.0 for row in res["kl"]):
        failures.append("KL drift is negative or non-finite")
    return failures


class LabStage:
    kind = "lab"
    ORACLE = LabSize(sparsity_L=(32,), rho=(0.1,), trials=1000, attn_d=8,
                     coding_L=16, coding_d=32, coding_m=(2, 4), instances=2, iters=50,
                     noise_L=16, noise_m=(2, 4), sigma=(1e-2,), noise_trials=2000, kl_d=8)

    def __init__(self, rng, size: LabSize):
        self.rng, self.size = rng, size
        self.min_ops = 3
        self.passes = []

    @classmethod
    def oracle_check(cls, rng) -> list:
        # oracles.py has no lab reference, so the Jacobi eigensolver is
        # checked against LAPACK and the suite's own invariants run small.
        failures = check_lab(run_lab(cls.ORACLE, lab_inputs(cls.ORACLE, rng.child(0))))
        gen = rng.child(1).generator()
        a = gen.standard_normal((24, 24))
        a = a + a.T
        want = np.sort(np.linalg.eigvalsh(a))[::-1]
        if _max_diff(numerics.sym_eigenvalues(a), want) > 1e-10 * np.abs(want).max():
            failures.append("sym_eigenvalues differs from numpy.linalg.eigvalsh")
        return failures

    def prepare(self, n: int) -> dict:
        return lab_inputs(self.size, self.rng.child(n))

    def warm_up(self) -> None:
        run_lab(self.size, self.prepare(10**6))

    def timed(self, inp: dict, tracer) -> dict:
        t0 = perf_counter()
        res = run_lab(self.size, inp, tracer)
        res["t"] = perf_counter() - t0
        return res

    @staticmethod
    def op_seconds(res: dict) -> float:
        return res["t"]

    def check(self, res: dict) -> list:
        return check_lab(res)

    def layer_counts(self, res: dict) -> dict:
        return {}

    def record(self, res: dict) -> None:
        self.passes.append(res["t"])

    def metrics(self) -> dict:
        return {"lab_suite_s": (statistics.mean(self.passes), "s",
                                f"mean of {len(self.passes)} suite passes")}


# Sizes: "full" for the workload's own stage and for the lab suite, which
# runs beside both; "probe" for the other of prefill and decode, which only
# runs so that every end-to-end metric is reported on every workload.
SIZES = {
    "prefill": {"full": PrefillSize(L=4096, pool=12), "probe": PrefillSize(L=1024, pool=16)},
    "decode": {"full": DecodeSize(prompt=2048, steps=8192),
               "probe": DecodeSize(prompt=512, steps=2048)},
    "lab": {
        "full": LabSize(sparsity_L=(64,), rho=(0.05,), trials=2000, attn_d=16,
                        coding_L=16, coding_d=32, coding_m=(2, 4, 8), instances=12, iters=400,
                        noise_L=32, noise_m=(2, 4, 8), sigma=(1e-3, 1e-2),
                        noise_trials=10_000, kl_d=8),
        "probe": LabSize(sparsity_L=(32,), rho=(0.1,), trials=1000, attn_d=8,
                         coding_L=16, coding_d=32, coding_m=(2, 4), instances=3, iters=100,
                         noise_L=16, noise_m=(2, 4), sigma=(1e-2,), noise_trials=2000, kl_d=8),
    },
}
STAGES = {"prefill": PrefillStage, "decode": DecodeStage, "lab": LabStage}
STREAMS = {"prefill": 1, "decode": 2, "lab": 3}


def guarded(fn, *args):
    """Run fn; an exception becomes a failure message."""
    try:
        return fn(*args)
    except Exception as exc:  # a failing operation is counted, not fatal
        traceback.print_exc()
        return [f"raised {type(exc).__name__}: {exc}"]


def build(kind: str, size: str, seed, tally: Tally):
    """Make a stage's inputs, check its down-scaled copy, warm it up."""
    rng = seed.child(STREAMS[kind])
    cls = STAGES[kind]
    tally.count(guarded(cls.oracle_check, rng.child(10**6 + 1)), f"{kind} oracle check")
    stage = cls(rng, SIZES[kind][size])
    stage.warm_up()
    return stage
