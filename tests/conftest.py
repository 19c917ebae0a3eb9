"""Shared test settings: a fixed, bounded hypothesis profile so property
tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("dgalab", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("dgalab")
