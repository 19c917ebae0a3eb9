"""The benchmark harness still runs against the library: its self-test
passes and every function its tracer wraps still exists."""

import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
    for kind in ("prefill", "decode", "lab"):
        assert f"clean {kind} operation: 0 failed" in proc.stdout


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    for module, attr, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
