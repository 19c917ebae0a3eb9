"""Spans and counts recorded around the library's public functions.

The library itself is not instrumented. While a traced operation runs,
each target function below is replaced by a wrapper in every ``dgalab``
module that binds it -- ``dga.py`` calls ``build_grouped_kv`` and
friends through its own globals, and ``decode`` and ``coding`` import
with ``from .x import y`` -- and the original bindings are restored when
the operation ends.

A span holds a name, start, end, parent span and the id of the operation
(sequence, session or suite pass) it belongs to. Spans stay in memory
until the run ends; a layer's self time is its span's duration minus the
part covered by its child spans. Counts marked "computed" are derived by
the benchmark from argument and result sizes, not read from the library.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from perfbench import reference


def rebind(original, replacement) -> list:
    """Point every ``dgalab`` module name bound to ``original`` at
    ``replacement``; returns the (module, name, original) undo list."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dgalab" or mod_name.startswith("dgalab.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


# --- observers: (tracer, args, result, dt, before) -> None ----------------


def _obs_causal(tr, args, result, dt, before):
    L = args[0].length
    tr.add("attention.weights_bytes", L * L * 8)
    tr.notes["weights"] = result[1]
    if tr.inside("dga.compute_partition"):
        tr.add_dots(L * L)  # exact scoring builds the full Q K^T


def _obs_approx_scores(tr, args, result, dt, before):
    batch, spec = args[0], args[1]
    rng = args[2] if len(args) > 2 else None
    tr.add_dots(int((spec.positions(batch.length, rng) + 1).sum()))


def _obs_partition(tr, args, result, dt, before):
    part = result
    tr.add("dga.r", part.r)
    tr.add("dga.k", part.k)
    tr.add("dga.promoted", part.r - reference.base_focal_count(part.L, part.gamma))
    tr.add("dga.visible_cols_mean", float(reference.visible_columns(part).mean()))
    tr.notes["partition"] = part


def _obs_grouped_kv(tr, args, result, dt, before):
    part = args[1]
    tr.add("dga.grouped_kv_calls", 1)
    tr.add_dots(part.k * part.m)


def _obs_mask(tr, args, result, dt, before):
    part = args[0]
    tr.add("dga.mask_bytes", part.L * (part.r + part.k + part.m) * 8)


def _obs_attend(tr, args, result, dt, before):
    part = args[1]
    tr.add_dots(part.L * (part.r + part.k + part.m))


def _before_step(state, *rest):
    return state.focal_rows + state.group_rows + state.tail_rows, state.group_rows


def _obs_step(tr, args, result, dt, before):
    state = args[0]
    rows_before, groups_before = before
    regroup = state.group_rows > groups_before
    tr.add("decode.regroups", int(regroup))
    tr.add("decode.dots_counted", rows_before + 1 + (state.m if regroup else 0))
    key = "decode.step_regroup_us" if regroup else "decode.step_plain_us"
    tr.samples[key].append(dt * 1e6)


def _obs_solve(tr, args, result, dt, before):
    tr.add("coding.solve_iters", len(result.iterates) - 1)


def _obs_draw(tr, args, result, dt, before):
    tr.add("sparsity.draw_entries", int(result.size))


def _counter(name):
    def observe(tr, args, result, dt, before):
        tr.add(name, 1)

    return observe


# (module, attribute, span name or None for count-only, observer, before)
TARGETS = [
    ("dgalab.attention", "causal_attention", "attention.causal_attention", _obs_causal, None),
    ("dgalab.dga", "dga_attention", "dga.dga_attention", None, None),
    ("dgalab.dga", "compute_partition", "dga.compute_partition", None, None),
    ("dgalab.dga", "approx_importance_scores", "dga.approx_importance_scores", _obs_approx_scores, None),
    ("dgalab.dga", "importance_scores_exact", "dga.importance_scores_exact", None, None),
    ("dgalab.dga", "partition_tokens", "dga.partition_tokens", _obs_partition, None),
    ("dgalab.dga", "build_grouped_kv", "dga.build_grouped_kv", _obs_grouped_kv, None),
    ("dgalab.dga", "build_group_mask", "dga.build_group_mask", _obs_mask, None),
    ("dgalab.dga", "dga_attention_with_partition", "dga.dga_attention_with_partition", _obs_attend, None),
    ("dgalab.decode", "prefill", "decode.prefill", None, None),
    ("dgalab.decode", "decode_step", "decode.decode_step", _obs_step, _before_step),
    ("dgalab.numerics", "softmax", None, _counter("numerics.softmax_calls"), None),
    ("dgalab.numerics", "sym_eigenvalues", "numerics.sym_eigenvalues",
     _counter("numerics.sym_eigenvalues_calls"), None),
    ("dgalab.numerics", "project_to_simplex", "numerics.project_to_simplex", None, None),
    ("dgalab.sparsity", "sparsity_profile", "sparsity.sparsity_profile", None, None),
    ("dgalab.sparsity", "sample_weight_rows", "sparsity.sample_weight_rows", None, None),
    ("dgalab.sparsity", "p_sparse_lower_bound_detail", "sparsity.p_sparse_lower_bound_detail", None, None),
    ("dgalab.coding", "verify_condition_numbers", "coding.verify_condition_numbers", None, None),
    ("dgalab.coding", "solve_coding", "coding.solve_coding", _obs_solve, None),
    ("dgalab.coding", "perturbation_variance", "coding.perturbation_variance", None, None),
    ("dgalab.coding", "grouped_variance_ratio", "coding.grouped_variance_ratio", None, None),
    ("dgalab.coding", "ambient_variance_ratio", "coding.ambient_variance_ratio", None, None),
    ("dgalab.coding", "kl_under_noise", "coding.kl_under_noise", None, None),
]

# Per-layer self times: metric -> span names whose self time it sums.
SELF_TIME = {
    "attention.causal_s": ["attention.causal_attention"],
    "dga.score_s": ["dga.compute_partition", "dga.approx_importance_scores",
                    "dga.importance_scores_exact"],
    "dga.partition_s": ["dga.partition_tokens"],
    "dga.grouped_kv_s": ["dga.build_grouped_kv"],
    "dga.mask_s": ["dga.build_group_mask"],
    "dga.attend_s": ["dga.dga_attention_with_partition"],
    "numerics.sym_eigenvalues_s": ["numerics.sym_eigenvalues"],
    "numerics.project_to_simplex_s": ["numerics.project_to_simplex"],
    "sparsity.draw_s": ["sparsity.draw"],
    "sparsity.sample_rows_s": ["sparsity.sample_weight_rows"],
    "sparsity.bound_s": ["sparsity.p_sparse_lower_bound_detail"],
    "coding.condnum_s": ["coding.verify_condition_numbers"],
    "coding.solve_s": ["coding.solve_coding"],
    "coding.noise_s": ["coding.perturbation_variance", "coding.grouped_variance_ratio",
                       "coding.ambient_variance_ratio", "coding.kl_under_noise"],
}

# Per-operation counts reported as their mean over traced operations.
COUNTS = [
    "attention.weights_bytes", "dga.score_overlap", "dga.r", "dga.k", "dga.promoted",
    "dga.grouped_kv_calls", "dga.mask_bytes", "dga.visible_cols_mean", "dga.dots",
    "decode.regroups", "decode.cache_rows_final", "decode.dots_counted", "decode.ledger_dots",
    "numerics.sym_eigenvalues_calls", "numerics.softmax_calls", "rng.generator_calls",
    "sparsity.draw_entries", "coding.solve_iters",
]

# Layers that only the lab suite exercises: their metrics come from the
# traced lab-suite passes, every other metric from the workload's own stage.
LAB_LAYERS = ("numerics.sym_eigenvalues", "numerics.project_to_simplex", "rng.",
              "sparsity.", "coding.")

# Latency samples pooled over traced operations and reported as a p50.
SAMPLES = ["decode.step_plain_us", "decode.step_regroup_us"]


class Tracer:
    """Span and count recorder for traced operations."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.notes: dict = {}
        self.samples = defaultdict(list)
        self._counts = defaultdict(float)
        self._stack: list = []
        self._op = None
        self._paused = False
        self._per_op: dict = {}  # op id -> {metric: value} per traced operation

    # -- recording -------------------------------------------------------

    def add(self, name: str, value) -> None:
        self._counts[name] += value

    def add_dots(self, n: int) -> None:
        """Count q.k dot products of the grouped pipeline; those made under
        a decode span also count toward the session's total."""
        self.add("dga.dots", n)
        if self.inside("decode.prefill") or self.inside("decode.decode_step"):
            self.add("decode.dots_counted", n)

    def inside(self, span_name: str) -> bool:
        return any(self.spans[i][0] == span_name for i in self._stack)

    def wrap(self, fn, span=None, observe=None, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused or tracer._op is None:
                return fn(*args, **kwargs)
            token = tracer._call_paused(before, *args) if before else None
            dt = None
            if span is None:
                result = fn(*args, **kwargs)
            else:
                parent = tracer._stack[-1] if tracer._stack else -1
                rec = [span, 0.0, 0.0, parent, tracer._op]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(rec)
                rec[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
                    tracer._stack.pop()
                dt = rec[2] - rec[1]
            if observe:
                tracer._call_paused(observe, tracer, args, result, dt, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _call_paused(self, fn, *args):
        self._paused = True
        try:
            return fn(*args)
        finally:
            self._paused = False

    def wrap_source(self, source):
        """A LogitSource whose draw is recorded as a ``sparsity.draw`` span."""
        return dataclasses.replace(
            source, draw=self.wrap(source.draw, "sparsity.draw", _obs_draw)
        )

    @contextmanager
    def active(self, op_id):
        """Trace one operation: patch the targets, then restore them."""
        undo = []
        first_span = len(self.spans)
        self._counts.clear()
        self.notes.clear()
        try:
            for module, attr, span, observe, before in TARGETS:
                original = getattr(importlib.import_module(module), attr)
                undo += rebind(original, self.wrap(original, span, observe, before))
            rng_cls = importlib.import_module("dgalab.rng").RngStream
            original = rng_cls.generator
            rng_cls.generator = self.wrap(original, None, _counter("rng.generator_calls"))
            undo.append((rng_cls, "generator", original))
            self._op = op_id
            yield self
        finally:
            self._op = None
            self._stack.clear()
            restore(undo)
        self._finish_op(op_id, first_span)

    def _finish_op(self, op_id, first_span: int) -> None:
        part = self.notes.pop("partition", None)
        weights = self.notes.pop("weights", None)
        if part is not None and weights is not None and weights.shape[0] == part.L:
            overlap = np.intersect1d(reference.exact_focal(weights, part.r), part.focal).size
            self.add("dga.score_overlap", overlap / part.r)
        values = dict(self._counts)
        selfs = self_times(self.spans, first_span)
        for metric, names in SELF_TIME.items():
            values[metric] = sum(selfs.get(n, 0.0) for n in names)
        values["span_self_total"] = sum(selfs.values())
        self._per_op[op_id] = values

    def record(self, op_id, name: str, value) -> None:
        """Attach a count the stage computed after a traced operation."""
        values = self._per_op[op_id]
        values[name] = values.get(name, 0.0) + value

    # -- reporting -------------------------------------------------------

    def per_layer(self, own: str) -> dict:
        """Per-operation medians of self times, means of counts, pooled p50s;
        over the lab-suite passes for ``LAB_LAYERS``, else over the
        operations of stage ``own``."""

        def ops(metric):
            kind = "lab" if metric.startswith(LAB_LAYERS) else own
            return [v for op, v in self._per_op.items() if op.startswith(kind + "-")]

        out = {}
        for metric in SELF_TIME:
            vals = [v[metric] for v in ops(metric)]
            out[metric] = statistics.median(vals) if vals else 0.0
        for metric in COUNTS:
            vals = [v.get(metric, 0.0) for v in ops(metric)]
            out[metric] = float(np.mean(vals)) if vals else 0.0
        for metric in SAMPLES:
            out[metric] = float(np.median(self.samples[metric])) if self.samples[metric] else 0.0
        return out

    def self_total(self, op_id) -> float:
        """Summed self time of every span of a traced operation."""
        return self._per_op[op_id]["span_self_total"]

    def write_spans(self, path: str) -> None:
        """One JSON object per span, with its self time."""
        selfs = _self_per_span(self.spans, 0)
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "self": selfs[idx]}) + "\n")


def _self_per_span(spans: list, first: int) -> list:
    own = [end - start for _, start, end, _, _ in spans[first:]]
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            own[parent - first] -= end - start
    return own


def self_times(spans: list, first: int = 0) -> dict:
    """Self time per span name over spans[first:]."""
    totals = defaultdict(float)
    for rec, own in zip(spans[first:], _self_per_span(spans, first)):
        totals[rec[0]] += own
    return dict(totals)
