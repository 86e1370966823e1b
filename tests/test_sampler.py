"""Sampled two-layer networks: unbiasedness, exact errors, the rate study."""

import concurrent.futures
import math
import os

import numpy as np
import pytest

from cospde.atoms import AtomSum, evaluate
from cospde.sampler import (
    h1_error_exact,
    ols_fit,
    rate_study,
    rms_error_bound,
    sample_network,
    worker_count,
)
from conftest import random_sum


def ten_atom_target(seed=2):
    rng = np.random.default_rng(seed)
    s = random_sum(rng, 2, 10, max_freq=3)
    assert s.atom_count == 10
    return s


class TestSampleNetwork:
    def test_single_atom_target_is_reproduced_exactly(self):
        g = AtomSum.from_atoms([(2.0, (1.0, 0.0), 0.3)])
        for k in (1, 3, 7):
            net = sample_network(g, k, seed=11)
            assert h1_error_exact(net, g) == 0.0

    def test_width_one_network_is_one_scaled_atom(self):
        g = AtomSum.from_atoms([(3.0, (1.0, 0.0), 0.2), (-1.0, (0.0, 1.0), 0.9)])
        net = sample_network(g, 1, seed=0)
        assert net.width == 1
        assert abs(net.amplitudes[0]) == 4.0  # +-ell

    def test_same_seed_identical(self):
        g = ten_atom_target()
        a = sample_network(g, 64, seed=123)
        b = sample_network(g, 64, seed=123)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(a.frequencies, b.frequencies)
        assert np.array_equal(a.phases, b.phases)
        c = sample_network(g, 64, seed=124)
        assert not np.array_equal(a.amplitudes, c.amplitudes) or not np.array_equal(
            a.frequencies, c.frequencies
        )

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            sample_network(AtomSum.zero(2), 4, seed=0)
        g = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        with pytest.raises(ValueError):
            sample_network(g, 0, seed=0)

    def test_empirical_mean_matches_target(self):
        # width-1 networks over many seeds: the estimator is unbiased and
        # each draw is bounded by ell, so a Hoeffding window applies
        g = AtomSum.from_atoms([(3.0, (1.0, 0.0), 0.4), (-1.0, (0.0, 1.0), 1.1)])
        ell = g.tracked_norm
        n_seeds = 100_000
        points = np.array([[0.0, 0.0], [0.7, 1.9], [3.1, 5.2]])
        sums = np.zeros(len(points))
        for seed in range(n_seeds):
            net = sample_network(g, 1, seed=seed)
            theta = points @ net.frequencies[0] + net.phases[0]
            sums += net.amplitudes[0] * np.cos(theta)
        means = sums / n_seeds
        targets = evaluate(g, points)
        assert np.max(np.abs(means - targets)) <= 4.0 * ell / math.sqrt(n_seeds)


class TestConversion:
    def test_round_trip_matches_direct_evaluation(self):
        g = ten_atom_target()
        net = sample_network(g, 64, seed=5)
        s = net.to_atom_sum()
        rng = np.random.default_rng(55)
        pts = rng.uniform(0, 2 * math.pi, size=(200, 2))
        direct = net.evaluate(pts)
        via_atoms = evaluate(s, pts)
        scale_ref = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(direct - via_atoms)) <= 1e-13 * scale_ref

    @pytest.mark.parametrize("k", [1, 64, 4096])
    def test_matches_neuron_by_neuron_count(self, k):
        # reference: count each distinct (w, b) neuron in a dict, then scale
        g = ten_atom_target()
        net = sample_network(g, k, seed=21)
        counts = {}
        for a, w, b in zip(net.amplitudes, net.frequencies, net.phases):
            key = (tuple(w), float(b))
            counts[key] = counts.get(key, 0.0) + math.copysign(1.0, a)
        ell = abs(float(net.amplitudes[0]))
        expected = AtomSum.from_atoms(
            [(ell * c / k, w, b) for (w, b), c in counts.items() if c != 0.0], dimension=2
        )
        assert net.to_atom_sum() == expected

    def test_atom_count_bounded_by_target_support(self):
        g = ten_atom_target()
        net = sample_network(g, 4096, seed=9)
        assert net.to_atom_sum().atom_count <= g.atom_count

    def test_manual_exact_reconstruction_has_zero_error(self):
        # a network listing each atom of a rebalanced two-atom target in
        # proportion to its mass is the target itself
        g = AtomSum.from_atoms([(3.0, (1.0, 0.0), 0.2), (-1.0, (0.0, 1.0), 0.9)])
        ell = g.tracked_norm
        from cospde.sampler import TwoLayerNet

        amps = np.array([ell, ell, ell, -ell])
        freqs = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
        phases = np.array([0.2, 0.2, 0.2, 0.9])
        net = TwoLayerNet(2, amps, freqs, phases)
        assert h1_error_exact(net, g) == 0.0


class TestVarianceBound:
    def test_mean_squared_error_within_bound(self):
        g = ten_atom_target()
        k = 64
        trials = 200
        sq = [h1_error_exact(sample_network(g, k, seed=1000 + t), g) ** 2
              for t in range(trials)]
        mean_sq = math.fsum(sq) / trials
        assert mean_sq <= rms_error_bound(g, k) ** 2

    def test_bound_formula(self):
        g = AtomSum.from_atoms([(2.0, (3.0, 4.0), 0.0)])
        # ell = 2, R = 5
        assert rms_error_bound(g, 8) == math.sqrt(2.0 * 26.0 * 4.0 / 8.0)


class TestRateStudy:
    def test_single_atom_target_degenerate(self):
        g = AtomSum.from_atoms([(2.0, (1.0, 0.0), 0.3)])
        result = rate_study(g, [4, 16], trials=30, seed=3)
        assert result.degenerate
        assert all(rms == 0.0 for _, rms, _, _ in result.summary)

    def test_every_rms_within_bound_and_slope_near_half(self):
        g = ten_atom_target()
        result = rate_study(g, [16, 32, 64, 128, 256], trials=60, seed=42)
        for _, rms, bound, ratio in result.summary:
            assert rms <= bound
            assert ratio == rms / bound
        assert -0.75 <= result.slope <= -0.3
        assert result.slope_stderr < 0.2

    def test_deterministic_and_worker_invariant(self):
        g = ten_atom_target()
        a = rate_study(g, [16, 64], trials=30, seed=9)
        b = rate_study(g, [16, 64], trials=30, seed=9)
        assert a.rows == b.rows and a.summary == b.summary and a.slope == b.slope
        c = rate_study(g, [16, 64], trials=30, seed=9, workers=2)
        assert a.rows == c.rows and a.summary == c.summary and a.slope == c.slope

    def test_worker_count_capped_by_tasks_and_cpus(self):
        cpus = os.cpu_count() or 1
        assert worker_count(10**6, 5) == min(5, cpus)
        assert worker_count(10**6, 10**6) == cpus
        assert worker_count(3, 1) == 1
        assert worker_count(0, 5) == 1

    def test_pool_size_is_capped(self, monkeypatch):
        # a stand-in pool that records its size and runs in this process
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        g = ten_atom_target()
        capped = rate_study(g, [16, 64], trials=30, seed=9, workers=10**6)
        expected = min(2, os.cpu_count() or 1)  # two widths
        assert sizes == ([expected] if expected > 1 else [])
        serial = rate_study(g, [16, 64], trials=30, seed=9)
        assert capped.rows == serial.rows

    def test_ols_fit_matches_closed_form(self):
        assert ols_fit([1.0, 2.0, 3.0], [1.0, 3.0, 5.0]) == (2.0, 0.0)
        assert ols_fit([0.0, 1.0], [1.0, 4.0]) == (3.0, None)
        assert ols_fit([2.0, 2.0], [1.0, 4.0]) == (None, None)

    def test_validation(self):
        g = ten_atom_target()
        with pytest.raises(ValueError):
            rate_study(g, [], trials=30, seed=0)
        with pytest.raises(ValueError):
            rate_study(g, [16, 16], trials=30, seed=0)
        with pytest.raises(ValueError):
            rate_study(g, [16, 32], trials=10, seed=0)
