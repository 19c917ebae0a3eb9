"""Seeded end-to-end and per-layer benchmark for dgalab.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and which layer is
expected to move which metric.
"""
