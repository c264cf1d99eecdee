"""Tests for the sampled h-ASPL estimator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import random_host_switch_graph
from repro.core.hostswitch import HostSwitchGraph
from repro.core.metrics import h_aspl, h_aspl_sampled


class TestEstimator:
    def test_full_sample_is_exact(self):
        g = random_host_switch_graph(40, 10, 8, seed=0)
        bearing = np.flatnonzero(g.host_counts() > 0)
        assert h_aspl_sampled(g, bearing) == pytest.approx(h_aspl(g))

    def test_single_source_matches_per_source_mean(self):
        g = HostSwitchGraph.from_edges(3, 4, [(0, 1), (1, 2)], [0, 1, 2, 2])
        # From switch 0's host: distances 3 (s1 host), 4, 4 -> mean 11/3.
        assert h_aspl_sampled(g, np.asarray([0])) == pytest.approx(11 / 3)

    def test_hostless_source_rejected(self):
        g = HostSwitchGraph.from_edges(3, 4, [(0, 1), (1, 2)], [0, 0, 2])
        with pytest.raises(ValueError, match="at least one host"):
            h_aspl_sampled(g, np.asarray([1]))

    def test_disconnected_gives_inf(self):
        g = HostSwitchGraph.from_edges(3, 4, [(0, 1)], [0, 1, 2])
        assert h_aspl_sampled(g, np.asarray([0])) == float("inf")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 5_000))
    def test_estimate_close_to_exact(self, seed):
        g = random_host_switch_graph(60, 15, 8, seed=seed)
        exact = h_aspl(g)
        rng = np.random.default_rng(seed)
        counts = g.host_counts().astype(float)
        bearing = np.flatnonzero(counts > 0)
        probs = counts[bearing] / counts[bearing].sum()
        sample = rng.choice(bearing, size=min(8, len(bearing)), replace=False, p=probs)
        estimate = h_aspl_sampled(g, sample)
        assert estimate == pytest.approx(exact, rel=0.25)

    def test_unbiased_over_many_samples(self):
        g = random_host_switch_graph(60, 15, 8, seed=7)
        exact = h_aspl(g)
        rng = np.random.default_rng(7)
        counts = g.host_counts().astype(float)
        bearing = np.flatnonzero(counts > 0)
        probs = counts[bearing] / counts[bearing].sum()
        estimates = []
        for _ in range(200):
            # Size-1 samples drawn ∝ host count: exactly unbiased.
            sample = rng.choice(bearing, size=1, p=probs)
            estimates.append(h_aspl_sampled(g, sample))
        assert np.mean(estimates) == pytest.approx(exact, rel=0.02)
