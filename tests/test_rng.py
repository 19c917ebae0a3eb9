"""Determinism and independence of the counter-based streams."""

import numpy as np

from dgalab.rng import RngStream


class TestDeterminism:
    def test_same_stream_same_draws(self):
        a = RngStream(42, 7).normal(100)
        b = RngStream(42, 7).normal(100)
        np.testing.assert_array_equal(a, b)

    def test_stream_is_a_value(self):
        """Drawing twice from one stream object repeats the numbers."""
        stream = RngStream(5)
        np.testing.assert_array_equal(stream.normal(16), stream.normal(16))

    def test_distinct_stream_ids_differ(self):
        a = RngStream(42, 0).normal(64)
        b = RngStream(42, 1).normal(64)
        assert np.abs(a - b).max() > 1e-3


class TestChildren:
    def test_children_are_distinct(self):
        base = RngStream(1, 3)
        ids = {base.child(i).stream_id for i in range(1000)}
        assert len(ids) == 1000

    def test_children_do_not_collide_with_parent(self):
        base = RngStream(1, 3)
        assert all(base.child(i).stream_id != base.stream_id for i in range(100))

    def test_child_is_reproducible(self):
        a = RngStream(8).child(5).normal(10)
        b = RngStream(8).child(5).normal(10)
        np.testing.assert_array_equal(a, b)

    def test_child_streams_look_independent(self):
        base = RngStream(123)
        draws = np.stack([base.child(i).normal(2000) for i in range(8)])
        corr = np.corrcoef(draws)
        off = corr - np.eye(8)
        assert np.abs(off).max() < 0.08


class TestHelpers:
    def test_zero_scale_is_exactly_zero(self):
        assert np.all(RngStream(0).normal(50, scale=0.0) == 0.0)

    def test_choice_without_replacement(self):
        picked = RngStream(4).choice_without_replacement(20, 8)
        assert picked.size == 8
        assert np.unique(picked).size == 8
        assert np.all(np.diff(picked) > 0)
        assert picked.min() >= 0 and picked.max() < 20
