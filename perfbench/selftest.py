"""Self-test: the benchmark's checks count corrupted outputs as failures.

Run from the repository root with ``python3 perfbench/selftest.py``. Each
case runs one small operation through the same path as the benchmark,
first on the real library (no failure expected), then with one library
function swapped for a version that corrupts its output (exactly one
failed operation expected). Exits 1 if any case is not detected.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import run  # noqa: E402

run.import_library()

import numpy as np  # noqa: E402

from dgalab import coding, decode, dga  # noqa: E402
from dgalab.rng import RngStream  # noqa: E402
from perfbench import stages, tracing  # noqa: E402


def _with(out, index, value=None, shift=0.0):
    """Copy of ``out`` with one entry replaced by ``value`` or shifted."""
    out = np.array(out, dtype=np.float64)
    out[index] = out[index] + shift if value is None else value
    return out


def corrupt_dga_last_row(original):
    return lambda *a, **kw: _with(original(*a, **kw), (-1, 0), shift=1e-9)


def corrupt_dga_nan(original):
    return lambda *a, **kw: _with(original(*a, **kw), (3, 0), value=np.nan)


def corrupt_step_nan(original):
    def step(state, *rest):
        out, state = original(state, *rest)
        return (_with(out, 0, value=np.nan) if state.generated == 5 else out), state

    return step


def corrupt_step_drop_tail(original):
    def step(state, *rest):
        out, state = original(state, *rest)
        if state.generated == 40 and state.tail_rows:
            state.k_tail, state.v_tail = state.k_tail[1:], state.v_tail[1:]
        return out, state

    return step


def corrupt_condnum(original):
    def verify(*a, **kw):
        kappa, kappa_bar, _ = original(*a, **kw)
        return kappa, kappa_bar, False

    return verify


def corrupt_variance_ratio(original):
    return lambda *a, **kw: 4.0 * original(*a, **kw)


def make_stages(seed):
    return {
        "prefill": stages.PrefillStage(seed.child(1), stages.PrefillSize(L=256, pool=1)),
        "decode": stages.DecodeStage(seed.child(2), stages.DecodeSize(prompt=64, steps=200)),
        "lab": stages.LabStage(seed.child(3), stages.LabStage.ORACLE),
    }


CASES = [
    ("prefill", "dga_attention", dga.dga_attention, corrupt_dga_last_row),
    ("prefill", "dga_attention", dga.dga_attention, corrupt_dga_nan),
    ("decode", "decode_step", decode.decode_step, corrupt_step_nan),
    ("decode", "decode_step", decode.decode_step, corrupt_step_drop_tail),
    ("lab", "verify_condition_numbers", coding.verify_condition_numbers, corrupt_condnum),
    ("lab", "grouped_variance_ratio", coding.grouped_variance_ratio, corrupt_variance_ratio),
]


def failures_of(fn) -> int:
    tally = stages.Tally()
    fn(tally)
    return tally.failed


def main() -> int:
    seed = RngStream(12345)
    built = make_stages(seed)
    ok = True
    for kind, stage in built.items():
        failed = failures_of(lambda t: run.run_op(stage, 0, t))
        print(f"clean {kind} operation: {failed} failed")
        ok &= failed == 0
    for kind, name, original, corrupt in CASES:
        undo = tracing.rebind(original, corrupt(original))
        try:
            failed = failures_of(lambda t: run.run_op(built[kind], 0, t))
        finally:
            tracing.restore(undo)
        print(f"{kind} operation with {corrupt.__name__}: {failed} failed")
        ok &= failed == 1
    undo = tracing.rebind(dga.dga_attention, corrupt_dga_last_row(dga.dga_attention))
    try:
        failed = failures_of(
            lambda t: t.count(stages.guarded(stages.PrefillStage.oracle_check, seed.child(9)), "oracle")
        )
    finally:
        tracing.restore(undo)
    print(f"prefill oracle check with corrupt_dga_last_row: {failed} failed")
    ok &= failed == 1
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
