"""Sampled two-layer networks: unbiasedness, exact counts, exact errors, the rate study."""

import bisect
import concurrent.futures
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

import cospde.atoms as atoms
import cospde.sampler as sampler
from cospde.atoms import AtomSum, InputError, add, evaluate, h1_norm_torus, scale
from cospde.oracle import h1_distance
from cospde.sampler import (
    MAX_ROWS,
    MAX_WIDTH,
    expected_rms,
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
        assert net.atom_count == 1
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
    """The network as counts of the target's atoms."""

    @pytest.mark.parametrize("k", [1, 64, 4096])
    def test_matches_neuron_by_neuron_count(self, k):
        # reference: redraw the same Philox indices one neuron at a time,
        # count each drawn atom in a dict, then scale
        g = ten_atom_target()
        ell = g.tracked_norm
        cumulative = list(itertools.accumulate(abs(float(a)) / ell for a in g.amplitudes))
        cumulative[-1] = 1.0
        rng = np.random.Generator(np.random.Philox(21))
        counts = {}
        for _ in range(k):
            i = bisect.bisect_right(cumulative, rng.random())
            counts[i] = counts.get(i, 0) + 1
        atoms = g.atoms
        expected = AtomSum.from_atoms(
            [(ell * math.copysign(n, atoms[i].amplitude) / k, atoms[i].frequency, atoms[i].phase)
             for i, n in counts.items()],
            dimension=2,
        )
        assert sample_network(g, k, seed=21) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_network_is_canonical(self, seed):
        # the network skips the constructor; rebuilding it through the
        # constructor must change nothing, for targets with a constant atom
        # and negative amplitudes
        rng = np.random.default_rng(300 + seed)
        g = add(random_sum(rng, 2, 12, max_freq=2), AtomSum.from_atoms([(-0.7, (0.0, 0.0), 0.0)]))
        assert (g.amplitudes < 0).any() and (g.frequencies == 0).all(axis=1).any()
        for k in (1, 7, 64, 1000):
            net = sample_network(g, k, seed=seed)
            rebuilt = AtomSum(2, True, net.amplitudes, net.frequencies, net.phases)
            assert net == rebuilt
            assert net.tracked_norm == rebuilt.tracked_norm

    def test_atom_count_bounded_by_target_support(self):
        g = ten_atom_target()
        net = sample_network(g, 4096, seed=9)
        assert net.atom_count <= g.atom_count

    def test_manual_exact_reconstruction_has_zero_error(self):
        # a network listing each atom of a two-atom target in proportion to
        # its mass, one neuron of weight +-ell / 4 each, is the target itself
        g = AtomSum.from_atoms([(3.0, (1.0, 0.0), 0.2), (-1.0, (0.0, 1.0), 0.9)])
        ell = g.tracked_norm
        net = AtomSum.from_atoms(
            [(ell / 4, (1.0, 0.0), 0.2)] * 3 + [(-ell / 4, (0.0, 1.0), 0.9)]
        )
        assert h1_error_exact(net, g) == 0.0


def merged_error(net, g):
    """The H1 error through one merge of net - g: the formula the closed form
    in h1_error_exact replaces, kept here as its reference."""
    return h1_norm_torus(add(net, scale(g, -1.0)))


class TestExactError:
    """h1_error_exact without a merge, against the merged difference."""

    def test_sampled_networks_match_the_merge_bit_for_bit(self):
        rng = np.random.default_rng(26)
        cases = 0
        upper_phase = negative = 0
        for _ in range(200):
            d = int(rng.integers(1, 5))
            constant = AtomSum(d, True, [rng.uniform(-2.0, 2.0)], np.zeros((1, d)), [0.0])
            g = scale(add(random_sum(rng, d, int(rng.integers(1, 12)), max_freq=2), constant),
                      float(10.0 ** rng.uniform(-6.0, 6.0)))
            upper_phase += (g.phases >= math.pi).any()
            negative += (g.amplitudes < 0.0).any()
            for k in (1, 2, 7, 64, 1000):
                net = sample_network(g, k, seed=int(rng.integers(2**31)))
                assert h1_error_exact(net, g) == merged_error(net, g)
                cases += 1
        assert cases == 1000 and upper_phase > 100 and negative > 100

    @pytest.mark.parametrize("extra", [
        (0.4, (2.0, 1.0), 0.3),  # a frequency g does not hold
        (0.4, (1.0, 0.0), 1.0),  # g's frequency at another phase
        (0.4, (1.0, 0.0), 0.2 + math.pi),  # g's frequency at its phase + pi
    ])
    def test_other_networks_go_to_h1_distance(self, extra, monkeypatch):
        g = AtomSum.from_atoms([(3.0, (1.0, 0.0), 0.2), (-1.0, (0.0, 1.0), 0.9)])
        net = AtomSum.from_atoms([extra, (0.5, (0.0, 1.0), 0.9)])
        calls = []

        def counting_distance(u, v):
            calls.append(1)
            return h1_distance(u, v)

        monkeypatch.setattr(sampler, "h1_distance", counting_distance)
        err = h1_error_exact(net, g)
        assert calls == [1]
        assert err == h1_distance(net, g)
        assert err == pytest.approx(merged_error(net, g), rel=1e-12)

    def test_rate_study_canonicalizes_per_width_not_per_trial(self, monkeypatch):
        calls = []
        canonicalize = atoms._canonicalize_arrays

        def counting_canonicalize(*args):
            calls.append(1)
            return canonicalize(*args)

        monkeypatch.setattr(atoms, "_canonicalize_arrays", counting_canonicalize)
        widths = [16, 64, 256]
        rate_study(ten_atom_target(), widths, trials=30, seed=5)
        assert len(calls) <= 2 * len(widths)


class TestVarianceBound:
    def test_mean_squared_error_within_bound(self):
        g = ten_atom_target()
        k = 64
        trials = 200
        sq = [h1_error_exact(sample_network(g, k, seed=1000 + t), g) ** 2
              for t in range(trials)]
        mean_sq = math.fsum(sq) / trials
        assert mean_sq <= rms_error_bound(g, k) ** 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_expected_rms_is_the_enumerated_mean(self, k):
        # every ordered draw of k neurons, weighted by its probability
        g = AtomSum.from_atoms([(0.7, (0.0, 0.0), 0.0), (-1.3, (1.0, 0.0), 0.4),
                                (0.5, (1.0, 2.0), 3.5), (2.1, (0.0, 1.0), 5.9),
                                (-0.2, (3.0, -1.0), 1.0)])
        assert g.atom_count == 5
        ell = g.tracked_norm
        atoms_of_g = g.atoms
        mean_sq = []
        for draw in itertools.product(range(5), repeat=k):
            counts = {i: draw.count(i) for i in set(draw)}
            net = AtomSum.from_atoms(
                [(ell * math.copysign(n, atoms_of_g[i].amplitude) / k,
                  atoms_of_g[i].frequency, atoms_of_g[i].phase) for i, n in counts.items()],
                dimension=2)
            weight = math.prod(abs(atoms_of_g[i].amplitude) / ell for i in draw)
            mean_sq.append(weight * merged_error(net, g) ** 2)
        assert expected_rms(g, k) == pytest.approx(math.sqrt(math.fsum(mean_sq)), rel=1e-12)

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

    def test_bad_values_are_input_errors(self):
        g = ten_atom_target()
        with pytest.raises(InputError, match="seed"):
            rate_study(g, [16, 32], trials=30, seed=-1)
        with pytest.raises(InputError, match="trials"):
            rate_study(g, [16, 32], trials=29, seed=0)
        with pytest.raises(InputError, match="zero function"):
            sample_network(AtomSum.zero(2), 4, seed=0)

    @pytest.mark.parametrize("widths, trials", [
        ([16, MAX_WIDTH + 1], 30),
        ([16, 2**32], 30),
        ([16, 32], MAX_ROWS // 2 + 1),
    ])
    def test_caps_refuse_before_the_first_draw(self, widths, trials):
        g = ten_atom_target()
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"cap|{MAX_WIDTH}"):
                rate_study(g, widths, trials=trials, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_overflowing_bound_refused_before_the_first_draw(self, monkeypatch):
        g = AtomSum.from_atoms([(1e200, (1.0,), 0.0), (2e200, (2.0,), 0.0)])

        def no_draw(*args):
            raise AssertionError("drew a network")

        monkeypatch.setattr(sampler, "sample_network", no_draw)
        with pytest.raises(InputError, match="sampling bound"):
            rate_study(g, [16, 32], trials=30, seed=0)

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
