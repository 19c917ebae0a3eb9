"""Shared test settings: a fixed, bounded hypothesis profile so property
tests draw the same examples on every run, and the `no_work` fixture."""

import pytest
from hypothesis import settings

from dgalab import attention, dga
from dgalab.rng import RngStream

settings.register_profile("dgalab", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("dgalab")


@pytest.fixture
def no_work(monkeypatch):
    """Any draw or scoring tile fails the test."""
    def spy(*args, **kwargs):
        raise AssertionError("drew or scored before rejecting the argument")

    monkeypatch.setattr(RngStream, "generator", spy)
    monkeypatch.setattr(attention, "_tile", spy)
    monkeypatch.setattr(dga, "_tile", spy)
