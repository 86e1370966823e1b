"""Atom-sum algebra: canonical form, exact merging, norms, serialization."""

import math

import numpy as np
import pytest

from cospde.atoms import (
    Atom,
    AtomSum,
    add,
    evaluate,
    from_text,
    h1_norm_torus,
    h_minus1_norm_torus,
    prune,
    scale,
    sum_many,
    to_text,
)
from conftest import h1_norm_quadrature, random_sum, scalar_eval

TWO_PI = 2.0 * math.pi


class TestCanonicalForm:
    def test_sign_rule_flips_negative_leading_frequency(self):
        s = AtomSum.from_atoms([(1.0, (-1.0, 0.0), 0.3)])
        (atom,) = s.atoms
        assert atom.frequency == (1.0, 0.0)
        assert atom.amplitude == 1.0
        assert atom.phase == TWO_PI - 0.3
        x = np.array([0.7, -1.3])
        assert math.isclose(evaluate(s, x), math.cos(-0.7 + 0.3), rel_tol=1e-14)

    def test_identical_atoms_merge_exactly(self):
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0), (1.0, (1.0, 0.0), 0.0)])
        (atom,) = s.atoms
        assert atom.amplitude == 2.0
        assert atom.phase == 0.0
        assert s.tracked_norm == 2.0

    def test_quarter_phase_merge_matches_hand_identity(self):
        # cos(t) + cos(t + pi/2) = cos(t) - sin(t) = sqrt(2) cos(t + pi/4)
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0), (1.0, (1.0, 0.0), math.pi / 2)])
        (atom,) = s.atoms
        assert math.isclose(atom.amplitude, math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(atom.phase, math.pi / 4, rel_tol=1e-15)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-4.0, 4.0, size=(100, 2))
        expected = np.cos(pts[:, 0]) + np.cos(pts[:, 0] + math.pi / 2)
        assert np.allclose(evaluate(s, pts), expected, atol=1e-13)

    def test_exact_cancellation_gives_zero_sum(self):
        s = add(
            AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)]),
            AtomSum.from_atoms([(-1.0, (1.0, 0.0), 0.0)]),
        )
        assert s.is_zero
        assert s.tracked_norm == 0.0
        assert s.atom_count == 0

    def test_opposite_phase_cancellation_is_exact(self):
        s = AtomSum.from_atoms([(1.0, (2.0,), 0.25), (1.0, (2.0,), 0.25 + math.pi)])
        assert s.is_zero

    def test_zero_frequency_folds_phase_into_amplitude(self):
        s = AtomSum.from_atoms([(2.0, (0.0, 0.0), 1.0)])
        (atom,) = s.atoms
        assert atom.frequency == (0.0, 0.0)
        assert atom.phase == 0.0
        assert math.isclose(atom.amplitude, 2.0 * math.cos(1.0), rel_tol=1e-15)

    def test_zero_amplitude_atoms_dropped(self):
        s = AtomSum.from_atoms([(0.0, (1.0,), 0.5), (1.0, (2.0,), 0.0)])
        assert s.atom_count == 1

    def test_atoms_sorted_lexicographically_by_frequency(self):
        s = AtomSum.from_atoms([(1.0, (2.0, 1.0), 0.0), (1.0, (0.0, 0.0), 0.0), (1.0, (1.0, -3.0), 0.0)])
        freqs = [a.frequency for a in s.atoms]
        assert freqs == sorted(freqs)

    @pytest.mark.parametrize("seed", range(6))
    def test_canonicalize_idempotent_exactly(self, seed):
        rng = np.random.default_rng(seed)
        s = random_sum(rng, d=rng.integers(1, 4), n_atoms=25, max_freq=2)
        rebuilt = AtomSum.from_atoms(s.atoms, dimension=s.dimension)
        assert rebuilt == s

    @pytest.mark.parametrize("seed", range(6))
    def test_canonical_form_independent_of_atom_order(self, seed):
        rng = np.random.default_rng(100 + seed)
        triples = [
            (rng.uniform(-1, 1), tuple(rng.integers(-2, 3, size=2).astype(float)), rng.uniform(0, TWO_PI))
            for _ in range(30)
        ]
        s1 = AtomSum.from_atoms(triples, dimension=2)
        order = rng.permutation(len(triples))
        s2 = AtomSum.from_atoms([triples[i] for i in order], dimension=2)
        assert s1 == s2

    @pytest.mark.parametrize("seed", range(4))
    def test_canonicalization_preserves_pointwise_values(self, seed):
        rng = np.random.default_rng(200 + seed)
        triples = [
            (rng.uniform(-1, 1), tuple(rng.integers(-2, 3, size=2).astype(float)), rng.uniform(0, TWO_PI))
            for _ in range(20)
        ]
        s = AtomSum.from_atoms(triples, dimension=2)
        for _ in range(25):
            x = rng.uniform(0, TWO_PI, size=2)
            raw = math.fsum(a * math.cos(w[0] * x[0] + w[1] * x[1] + b) for a, w, b in triples)
            assert math.isclose(evaluate(s, x), raw, rel_tol=0, abs_tol=1e-12)

    def test_merging_never_increases_tracked_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            triples = [
                (rng.uniform(-1, 1), (float(rng.integers(-1, 2)),), rng.uniform(0, TWO_PI))
                for _ in range(12)
            ]
            s = AtomSum.from_atoms(triples, dimension=1)
            raw_mass = math.fsum(abs(a) for a, _, _ in triples)
            assert s.tracked_norm <= raw_mass * (1 + 1e-13)


def _product_terms(rng, n1, n2, d, generic_phases):
    """Unmerged terms of the product of two random sums (the pair rule).

    Quarter-turn phases make many terms share a phase exactly; generic
    phases make every merge combine distinct phases."""

    def phases(n):
        if generic_phases:
            return rng.uniform(0.0, TWO_PI, n)
        return rng.integers(0, 4, n) * (math.pi / 2) + rng.choice([0.0, 0.7], n)

    w1 = rng.integers(-4, 5, size=(n1, d)).astype(float)
    w2 = rng.integers(-1, 2, size=(n2, d)).astype(float)
    b1, b2 = phases(n1), phases(n2)
    half = 0.5 * np.multiply.outer(rng.uniform(-1, 1, n1), rng.uniform(-1, 1, n2)).ravel()
    amps = np.concatenate([half, half])
    freqs = np.concatenate([(w1[:, None] + w2[None]).reshape(-1, d), (w1[:, None] - w2[None]).reshape(-1, d)])
    phs = np.concatenate([(b1[:, None] + b2[None]).ravel(), (b1[:, None] - b2[None]).ravel()])
    return amps, freqs, phs


def _bitwise_equal(s1, s2):
    return all(x.tobytes() == y.tobytes() for x, y in (
        (s1.amplitudes, s2.amplitudes), (s1.frequencies, s2.frequencies), (s1.phases, s2.phases)))


class TestMergeKernel:
    def test_phases_near_zero_and_two_pi_merge_across_the_wrap(self):
        s = AtomSum.from_atoms([(1.0, (3.0,), 1e-13), (2.0, (3.0,), TWO_PI - 1e-13)])
        assert [(a.amplitude, a.phase) for a in s.atoms] == [(3.0, 1e-13)]

    def test_phases_either_side_of_pi_form_one_cluster(self):
        s = AtomSum.from_atoms([(2.0, (3.0,), math.pi + 1e-13), (1.0, (3.0,), math.pi - 1e-13)])
        assert [(a.amplitude, a.phase) for a in s.atoms] == [(3.0, math.pi - 1e-13)]

    @pytest.mark.parametrize("terms,expected", [
        ([(1.0, 1.0 + 5e-13), (0.5, 1.0), (0.25, 1.0 + math.pi)], (1.25, 1.0)),
        ([(1.0, 4.0 + 5e-13), (0.5, 4.0)], (1.5, 4.0)),
        ([(1.0, 4.0), (0.25, 4.0 - math.pi)], (-0.75, 4.0 - math.pi)),
    ])
    def test_cluster_keeps_its_smallest_phase_and_opposite_phases_subtract(self, terms, expected):
        s = AtomSum.from_atoms([(a, (2.0,), b) for a, b in terms])
        assert [(a.amplitude, a.phase) for a in s.atoms] == [expected]

    @pytest.mark.parametrize("b", [0.0, 0.25, 3.0, 4.5, TWO_PI - 1e-13])
    def test_many_duplicates_at_b_and_b_plus_pi_cancel_exactly(self, b):
        rng = np.random.default_rng(60)
        a = rng.uniform(-1.0, 1.0, 300) * 10.0 ** rng.integers(-6, 3, 300)
        amps = np.concatenate([a, rng.permutation(a)])
        phases = np.concatenate([np.full(300, b), np.full(300, b + math.pi)])
        perm = rng.permutation(600)
        s = AtomSum(2, True, amps[perm], np.tile([2.0, -1.0], (600, 1)), phases[perm])
        assert s.is_zero

    @pytest.mark.parametrize("generic_phases", [False, True])
    def test_dense_product_is_independent_of_term_order(self, generic_phases):
        rng = np.random.default_rng(61)
        amps, freqs, phases = _product_terms(rng, 400, 13, 3, generic_phases)
        assert len(amps) == 10400
        s = AtomSum(3, True, amps, freqs, phases)
        for _ in range(3):
            perm = rng.permutation(len(amps))
            assert _bitwise_equal(AtomSum(3, True, amps[perm], freqs[perm], phases[perm]), s)

    @pytest.mark.parametrize("generic_phases", [False, True])
    def test_tracked_norm_at_most_premerge_mass(self, generic_phases):
        rng = np.random.default_rng(62)
        amps, freqs, phases = _product_terms(rng, 400, 13, 3, generic_phases)
        s = AtomSum(3, True, amps, freqs, phases)
        assert s.atom_count < len(amps)
        assert s.tracked_norm <= math.fsum(np.abs(amps))

    def test_merged_atoms_match_direct_complex_sums(self):
        rng = np.random.default_rng(63)
        amps, freqs, phases = _product_terms(rng, 400, 13, 3, generic_phases=True)
        direct = {}
        for a, w, b in zip(amps, freqs, phases):
            nz = np.flatnonzero(w)
            if len(nz) and w[nz[0]] < 0:
                w, b = -w, -b
            key = tuple(w + 0.0)
            direct[key] = direct.get(key, 0.0) + (a * math.cos(b) if not len(nz) else a * complex(math.cos(b), math.sin(b)))
        s = AtomSum(3, True, amps, freqs, phases)
        assert [a.frequency for a in s.atoms] == sorted(direct)
        for atom in s.atoms:
            z = direct[atom.frequency]
            got = atom.amplitude * complex(math.cos(atom.phase), math.sin(atom.phase))
            assert abs(got - z) <= 1e-13 * abs(z)

    def test_constant_that_rounds_to_zero_is_dropped(self):
        # 1e-310 * cos(pi/2) underflows to 0.0 once the constant is formed
        tiny = [1e-310, 1.0]
        s = AtomSum(1, True, tiny, [[0.0], [2.0]], [math.pi / 2, 0.0])
        assert [(a.amplitude, a.frequency) for a in s.atoms] == [(1.0, (2.0,))]
        assert AtomSum(1, True, tiny[:1], [[0.0]], [math.pi / 2]).is_zero

    def test_large_canonical_sum_round_trips_bitwise(self):
        rng = np.random.default_rng(64)
        s = random_sum(rng, 3, 6000, max_freq=8)
        assert s.atom_count >= 2000
        rebuilt = AtomSum.from_atoms(s.atoms, dimension=3)
        assert _bitwise_equal(rebuilt, s)


class TestValidation:
    def test_torus_mode_rejects_noninteger_frequency(self):
        with pytest.raises(ValueError):
            AtomSum.from_atoms([(1.0, (0.5,), 0.0)])

    def test_torus_is_the_only_space(self):
        with pytest.raises(ValueError, match="torus"):
            AtomSum(1, False, [1.0], [[1.0]], [0.0])
        with pytest.raises(ValueError, match="torus flag"):
            from_text("1 0 1\n1.0 1.0 0.0\n")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AtomSum.from_atoms([(math.nan, (1.0,), 0.0)])
        with pytest.raises(ValueError):
            AtomSum.from_atoms([(1.0, (1.0,), math.inf)])

    def test_dimension_mismatch_in_add(self):
        s1 = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        s2 = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)])
        with pytest.raises(ValueError):
            add(s1, s2)


class TestArithmetic:
    def test_tracked_norm_is_sum_of_absolute_amplitudes(self):
        s = AtomSum.from_atoms([(3.0, (1.0, 0.0), 0.3), (-1.0, (0.0, 1.0), 1.1)])
        assert s.tracked_norm == 4.0

    def test_support_radius_is_max_euclidean_frequency(self):
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0), (1.0, (3.0, 4.0), 0.0)])
        assert s.support_radius == 5.0
        assert AtomSum.zero(2).support_radius == 0.0

    def test_add_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s1 = random_sum(rng, 2, 10, max_freq=2)
            s2 = random_sum(rng, 2, 10, max_freq=2)
            total = add(s1, s2)
            assert total.tracked_norm <= (s1.tracked_norm + s2.tracked_norm) * (1 + 1e-13)
            assert total.support_radius <= max(s1.support_radius, s2.support_radius)

    def test_scale_is_exact_on_amplitudes(self):
        s = AtomSum.from_atoms([(1.5, (1.0,), 0.2), (-0.5, (2.0,), 0.1)])
        t = scale(s, -2.0)
        assert [a.amplitude for a in t.atoms] == [-3.0, 1.0]
        assert t.tracked_norm == 4.0
        assert scale(s, 0.0).is_zero

    def test_evaluate_invariant_under_reassociation(self):
        # one-pass merge and iterated binary adds may round differently in the
        # last ulp, but must agree pointwise to 1e-13 relative
        rng = np.random.default_rng(12)
        parts = [random_sum(rng, 2, 6, max_freq=1) for _ in range(4)]
        acc = parts[0]
        for p in parts[1:]:
            acc = add(acc, p)
        batched = sum_many(parts)
        assert [a.frequency for a in batched.atoms] == [a.frequency for a in acc.atoms]
        pts = rng.uniform(0, TWO_PI, size=(200, 2))
        va, vb = evaluate(batched, pts), evaluate(acc, pts)
        assert np.all(np.abs(va - vb) <= 1e-13 * np.maximum(1.0, np.abs(vb)))


class TestPrune:
    def test_prune_example(self):
        s = AtomSum.from_atoms([(1e-9, (1.0, 0.0), 0.3), (1.0, (2.0, 0.0), 0.1)])
        kept, dropped = prune(s, 1e-6)
        assert kept.atom_count == 1
        assert dropped == 1e-9
        assert kept.atoms[0].frequency == (2.0, 0.0)

    def test_prune_zero_threshold_is_identity(self):
        rng = np.random.default_rng(13)
        s = random_sum(rng, 2, 15)
        kept, dropped = prune(s, 0.0)
        assert kept == s
        assert dropped == 0.0

    def test_prune_negative_threshold_rejected(self):
        s = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        with pytest.raises(ValueError):
            prune(s, -1.0)

    def test_prune_supnorm_gap_bounded_by_dropped_mass(self):
        rng = np.random.default_rng(14)
        s = random_sum(rng, 2, 100, max_freq=4)
        cutoff = np.sort(np.abs(s.amplitudes))[19]  # 20th-smallest amplitude
        kept, dropped = prune(s, cutoff)
        assert dropped == math.fsum(np.sort(np.abs(s.amplitudes))[np.sort(np.abs(s.amplitudes)) < cutoff])
        pts = rng.uniform(0, TWO_PI, size=(1000, 2))
        gap = np.max(np.abs(evaluate(s, pts) - evaluate(kept, pts)))
        assert gap <= dropped * (1 + 1e-12)

    def test_prune_tracked_norm_drops_by_exact_mass(self):
        rng = np.random.default_rng(15)
        s = random_sum(rng, 1, 40, max_freq=6)
        kept, dropped = prune(s, 0.5)
        assert kept.tracked_norm + dropped == pytest.approx(s.tracked_norm, rel=1e-15)


class TestEvaluate:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluate_matches_scalar_recomputation(self, d):
        rng = np.random.default_rng(30 + d)
        s = random_sum(rng, d, 20, max_freq=3)
        pts = rng.uniform(-5.0, 5.0, size=(50, d))
        vals = evaluate(s, pts)
        for x, v in zip(pts, vals):
            ref = scalar_eval(s, x)
            assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_evaluate_single_point_returns_scalar(self):
        s = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        v = evaluate(s, np.array([0.5]))
        assert isinstance(v, float)
        assert math.isclose(v, math.cos(0.5), rel_tol=1e-15)

    def test_empty_sum_is_zero_function(self):
        z = AtomSum.zero(3)
        pts = np.zeros((4, 3))
        assert np.all(evaluate(z, pts) == 0.0)


class TestTorusNorms:
    def test_single_unit_atom_has_unit_h1_norm(self):
        # (1 + |w|^2) * mu_w = 2 * 1/2 = 1 for |w| = 1
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0, 0.0), 0.0)])
        assert h1_norm_torus(s) == 1.0

    def test_constant_atom_h1_norm(self):
        s = AtomSum.from_atoms([(1.0, (0.0,), 0.0)])
        assert h1_norm_torus(s) == 1.0

    def test_orthogonal_pair_h1_norm_frozen_value(self):
        # (1,(1,0),0): (1+1)/2 = 1;  (1,(0,2),0): (1+4)/2 = 5/2;  total sqrt(3.5)
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0), (1.0, (0.0, 2.0), 0.0)])
        assert math.isclose(h1_norm_torus(s), math.sqrt(3.5), rel_tol=1e-15)

    @pytest.mark.parametrize("seed,d", [(40, 1), (41, 2), (42, 2)])
    def test_h1_norm_matches_grid_quadrature(self, seed, d):
        rng = np.random.default_rng(seed)
        s = random_sum(rng, d, 12, max_freq=3)
        assert math.isclose(h1_norm_torus(s), h1_norm_quadrature(s), rel_tol=1e-10)

    def test_h1_norm_phase_invariant(self):
        a = AtomSum.from_atoms([(0.7, (2.0, 1.0), 0.0)])
        b = AtomSum.from_atoms([(0.7, (2.0, 1.0), 1.234)])
        assert h1_norm_torus(a) == h1_norm_torus(b)

    def test_h_minus1_norm_single_mode(self):
        s = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        assert math.isclose(h_minus1_norm_torus(s), 0.5, rel_tol=1e-15)


class TestSerialization:
    @pytest.mark.parametrize("seed,d", [(50, 1), (51, 3)])
    def test_round_trip_exact(self, seed, d):
        rng = np.random.default_rng(seed)
        s = random_sum(rng, d, 17)
        assert from_text(to_text(s)) == s

    def test_header_carries_shape(self):
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)])
        header = to_text(s).splitlines()[0]
        assert header == "2 1 1"

    def test_zero_sum_round_trip(self):
        z = AtomSum.zero(4)
        assert from_text(to_text(z)) == z

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError):
            from_text("2 1 1\n1.0 0.0\n")  # wrong field count
        with pytest.raises(ValueError):
            from_text("2 1 2\n1.0 1.0 0.0 0.0\n")  # wrong atom count
        with pytest.raises(ValueError):
            from_text("")
