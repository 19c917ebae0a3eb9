"""Seeded benchmark for dgalab: one workload per invocation.

Usage, from the repository root:

    python3 perfbench/run.py --workload prefill-long --seed 1 --seconds 15 --trace 0

Every run first sets up each stage it measures (inputs from the seed, a
down-scaled oracle check, an untimed warm-up) several times and reports
the median as ``setup_s``. The workload's own stage then runs as a closed
loop for half of ``--seconds``; the lab suite at full size and the other
of prefill and decode at a small probe size share the rest, interleaved
with it, so that every end-to-end metric is reported on every workload.
Human-readable lines go first; the last line of standard output is one
JSON object with the metrics.

With ``--trace 1`` the workload's own stage runs in pairs of one
untraced and one traced operation on the same input, each pair followed
by one traced lab-suite pass. Traced operations record spans around the
library's public functions; the per-layer metrics come from those spans
and the pairs give the tracing overhead. Spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {"prefill-long": "prefill", "decode-session": "decode"}
OWN_SHARE = 0.5  # of --seconds for the workload's own stage; the other two split the rest
SETUP_REPEATS = 3
BLAS_THREADS = "1"  # closed loop, one client: keep BLAS single-threaded for steadiness
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")



def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import dgalab from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import dgalab

    if not os.path.abspath(dgalab.__file__).startswith(src + os.sep):
        raise ImportError(f"dgalab imported from {dgalab.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def declared(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def select(metrics: dict, kind: str) -> dict:
    """The declared metrics, in declared order; fails on a missing metric
    or a unit that differs from the declaration."""
    out = {}
    for name, unit in declared(kind).items():
        value, got_unit, note = metrics[name]
        if got_unit != unit:
            raise ValueError(f"{name} measured in {got_unit}, declared in {unit}")
        out[name] = (value, unit, note)
    return out


def run_op(stage, n, tally, tracer=None):
    """One operation plus its checks; returns its result, or None if it raised."""
    from perfbench.stages import guarded

    gc.collect()
    holder = {}

    def op():
        inp = stage.prepare(n)
        if tracer is None:
            holder["res"] = stage.timed(inp, None)
        else:
            with tracer.active(f"{stage.kind}-{n}"):
                holder["res"] = stage.timed(inp, tracer)
        return stage.check(holder["res"])

    tally.count(guarded(op), f"{stage.kind} operation {n}")
    return holder.get("res")


def run_stages(plan, seconds, tally) -> None:
    """Interleave the stages' operations for ``seconds``, giving each stage
    its share of the wall time, so that a slow spell of a shared machine
    falls on every stage alike; then finish any stage below its minimum."""
    used = [0.0] * len(plan)
    done = [0] * len(plan)
    end = time.perf_counter() + seconds
    while True:
        todo = [j for j, (stage, _) in enumerate(plan) if done[j] < stage.min_ops]
        if time.perf_counter() < end:
            todo = range(len(plan))
        if not todo:
            return
        j = min(todo, key=lambda j: used[j] / plan[j][1])
        stage = plan[j][0]
        t0 = time.perf_counter()
        res = run_op(stage, done[j], tally)
        used[j] += time.perf_counter() - t0
        if res is not None:
            stage.record(res)
        done[j] += 1


def measure(args, seed, tally, import_s):
    from perfbench import stages

    own = WORKLOADS[args.workload]
    plan = [(own, "full", OWN_SHARE)]
    plan += [(k, "full" if k == "lab" else "probe", (1 - OWN_SHARE) / 2)
             for k in stages.STAGES if k != own]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = [(stages.build(kind, size, seed, tally), share) for kind, size, share in plan]
        setups.append(time.perf_counter() - t0)
    run_stages(built, args.seconds, tally)

    metrics = {"setup_s": (import_s + statistics.median(setups), "s",
                           f"imports {import_s:.3f} s + median of {SETUP_REPEATS} set-ups")}
    for stage, _ in built:
        metrics.update(stage.metrics())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB", "ru_maxrss of this process")
    return select(metrics, "end_to_end")


def measure_traced(args, seed, tally):
    from perfbench import stages, tracing

    own = WORKLOADS[args.workload]
    stage = stages.build(own, "full", seed, tally)
    lab = stages.build("lab", "full", seed, tally)
    tracer = tracing.Tracer()
    ratios, coverage = [], []
    deadline = time.perf_counter() + args.seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        took = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            res = run_op(stage, pair, tally, tracer if traced else None)
            if res is None:
                continue
            took[traced] = stage.op_seconds(res)
            if traced:
                op = f"{own}-{pair}"
                for name, value in stage.layer_counts(res).items():
                    tracer.record(op, name, value)
                coverage.append(tracer.self_total(op) / took[True])
        if len(took) == 2:
            ratios.append(took[True] / took[False])
        # numerics, rng, sparsity and coding do their work in the lab suite
        run_op(lab, pair, tally, tracer)
        pair += 1

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    values = tracer.per_layer(own)
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    values["trace.self_coverage"] = statistics.median(coverage) if coverage else 0.0
    values["failed_frac"] = tally.failed / tally.attempted
    print(f"traced {len(coverage)} of {2 * pair} {own} operations ({pair} pairs) "
          f"and {pair} lab-suite passes")
    return {name: (values[name], unit, "") for name, unit in declared("per_layer").items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import dgalab from this checkout: {exc}", file=sys.stderr)
        return 2
    from dgalab.rng import RngStream
    from perfbench.stages import Tally

    import_s = time.perf_counter() - _START
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    seed = RngStream(args.seed)
    tally = Tally()
    if args.trace:
        metrics = measure_traced(args, seed, tally)
    else:
        metrics = measure(args, seed, tally, import_s)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<30} {value:<14.6g} {unit:<6} {note}")
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations failed)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
