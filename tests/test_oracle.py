"""Reference-solver module: Galerkin, FFT multiplier, kernel quadrature, probe."""

import math

import numpy as np
import pytest

from cospde.atoms import AtomSum, add, evaluate, h1_norm_torus, scale
from cospde.oracle import (
    ProbeFailureError,
    SpectralField,
    default_truncation,
    ellipticity_probe,
    fft_precondition_check,
    galerkin_solve,
    galerkin_system,
    green1d_check,
    h1_distance,
)
from cospde.problem import EllipticProblem, constant_sum, diagonal_cosine_family
from cospde.solver import solve
from conftest import d1_benchmark, d2_benchmark, identity_problem, random_sum


class TestSpectralField:
    def test_round_trip_matches_pointwise(self):
        rng = np.random.default_rng(100)
        s = random_sum(rng, 2, 12, max_freq=3)
        field = SpectralField.from_atom_sum(s, truncation=3)
        back = field.to_atom_sum()
        pts = rng.uniform(0, 2 * math.pi, size=(200, 2))
        va, vb = evaluate(s, pts), evaluate(back, pts)
        assert np.max(np.abs(va - vb)) <= 1e-13 * max(1.0, float(np.max(np.abs(va))))

    def test_h1_norm_matches_atom_side(self):
        rng = np.random.default_rng(101)
        s = random_sum(rng, 2, 10, max_freq=2)
        field = SpectralField.from_atom_sum(s, truncation=2)
        assert math.isclose(field.h1_norm(), h1_norm_torus(s), rel_tol=1e-12)

    def test_truncation_enforced(self):
        s = AtomSum.from_atoms([(1.0, (4.0,), 0.0)])
        with pytest.raises(ValueError):
            SpectralField.from_atom_sum(s, truncation=3)


class TestGalerkinSolve:
    def test_identity_problem_is_exact(self):
        ref = galerkin_solve(identity_problem(2), truncation=3)
        assert ref.table[(1, 0)] == (0.5, 0.0)
        others = [v for k, v in ref.table.items() if k != (1, 0)]
        assert max(abs(cv) + abs(sv) for cv, sv in others) == 0.0
        assert ref.residual <= 1e-14
        expected = AtomSum.from_atoms([(0.5, (1.0, 0.0), 0.0)])
        assert h1_distance(expected, ref) <= 1e-14

    def test_d1_truncation_convergence(self):
        p = d1_benchmark()
        coarse = galerkin_solve(p, truncation=32)
        fine = galerkin_solve(p, truncation=64)
        assert h1_distance(coarse.to_atom_sum(), fine) <= 1e-10

    def test_even_problem_has_no_sine_components(self):
        ref = galerkin_solve(d1_benchmark(), truncation=24)
        worst = max(abs(sv) for _, sv in ref.table.values())
        assert worst <= 1e-12

    def test_residual_small_relative_to_f(self):
        for p, k in ((d1_benchmark(), 24), (d2_benchmark(), 12)):
            ref = galerkin_solve(p, k)
            f_l2 = math.sqrt(
                math.fsum(
                    0.5 * a.amplitude**2 if any(a.frequency) else a.amplitude**2
                    for a in p.f.atoms
                )
            )
            assert ref.residual <= 1e-10 * f_l2

    def test_truncation_must_cover_f(self):
        with pytest.raises(ValueError, match="truncation"):
            galerkin_solve(d1_benchmark(), truncation=0)
        p = identity_problem(1)
        f5 = AtomSum.from_atoms([(1.0, (5.0,), 0.0)])
        p5 = EllipticProblem(p.a_entries, p.c, f5, 1.0, 1.0)
        with pytest.raises(ValueError, match="too small"):
            galerkin_solve(p5, truncation=3)

    def test_constant_coefficients_match_closed_form(self):
        # with constant A and c each mode decouples: u(k) = f(k) / (k^T A k + c)
        a = ((constant_sum(2, 2.0), constant_sum(2, 0.5)),
             (constant_sum(2, 0.5), constant_sum(2, 1.0)))
        f = random_sum(np.random.default_rng(130), 2, 12, max_freq=3)
        p = EllipticProblem(a, constant_sum(2, 1.5), f, 0.5, 2.5)
        ref = galerkin_solve(p, truncation=4)
        expected = SpectralField.from_atom_sum(f, truncation=4).table
        for key, (cv, sv) in ref.table.items():
            k = np.array(key, dtype=float)
            symbol = 2.0 * k[0] ** 2 + 2 * 0.5 * k[0] * k[1] + k[1] ** 2 + 1.5
            fc, fs = expected.get(key, (0.0, 0.0))
            assert abs(cv - fc / symbol) <= 1e-14
            assert abs(sv - fs / symbol) <= 1e-14

    def test_assembled_matrix_is_hermitian(self):
        def atoms(*triples):
            return AtomSum.from_atoms(triples, dimension=2)
        a11 = atoms((2.0, (0.0, 0.0), 0.0), (0.3, (1.0, 0.0), 0.7))
        a12 = atoms((0.2, (1.0, -1.0), 1.1))
        a22 = atoms((2.0, (0.0, 0.0), 0.0), (0.4, (0.0, 2.0), 0.2))
        c = atoms((1.0, (0.0, 0.0), 0.0), (0.25, (1.0, 1.0), 0.5))
        f = atoms((1.0, (1.0, 0.0), 0.3), (0.5, (1.0, 2.0), 2.0))
        p = EllipticProblem(((a11, a12), (a12, a22)), c, f, 0.5, 3.0)
        _, matrix, _ = galerkin_system(p, 5)
        assert abs(matrix - matrix.conj().T).max() == 0.0
        assert abs(matrix.imag).max() > 0.0
        # the atom-algebra residual checks the assembly of these phases
        assert galerkin_solve(p, 5).residual <= 1e-12

    def test_d4_reference_agrees_with_iteration(self):
        # the diagonal family with c coupling all four axes
        family = diagonal_cosine_family(4)
        c = AtomSum.from_atoms([(1.0, (0.0,) * 4, 0.0), (0.25, (1.0,) * 4, 0.0)])
        p = EllipticProblem(family.a_entries, c, family.f, 0.5, 1.5)
        ref = galerkin_solve(p, truncation=5)  # 11^4 = 14641 unknowns
        assert ref.residual <= 1e-12
        assert max(abs(sv) for _, sv in ref.table.values()) <= 1e-12
        result = solve(p, 1e-2, prune_enabled=False, compare_oracle=False)
        assert h1_distance(result.u, ref) <= 1e-2

    def test_default_truncation_covers_iterates(self):
        p = d2_benchmark()
        k = default_truncation(p, steps=10)
        # R_f + T * max(R_A, R_c) rounded up, plus margin 2
        assert k == math.ceil(1.0 + 10 * math.sqrt(2.0)) + 2


class TestH1Distance:
    def test_zero_for_field_converted_back(self):
        ref = galerkin_solve(d1_benchmark(), truncation=16)
        assert h1_distance(ref.to_atom_sum(), ref) <= 1e-15

    def test_single_extra_mode_closed_form(self):
        ref = galerkin_solve(identity_problem(2), truncation=3)
        u = add(ref.to_atom_sum(), AtomSum.from_atoms([(1e-3, (2.0, 1.0), 0.0)]))
        expected = 1e-3 * math.sqrt((1.0 + 5.0) / 2.0)
        assert math.isclose(h1_distance(u, ref), expected, rel_tol=1e-12)

    def test_agrees_with_atom_norm_of_difference(self):
        rng = np.random.default_rng(110)
        u = random_sum(rng, 2, 14, max_freq=4)
        v = random_sum(rng, 2, 9, max_freq=2)
        field = SpectralField.from_atom_sum(v, truncation=2)
        direct = h1_norm_torus(add(u, scale(v, -1.0)))
        assert math.isclose(h1_distance(u, field), direct, rel_tol=1e-12)

    def test_excess_frequencies_count_fully(self):
        ref = SpectralField(1, 2, {(1,): (1.0, 0.0)})
        u = AtomSum.from_atoms([(1.0, (5.0,), 0.0)])
        # difference is cos(5x) - cos(x): norms add in quadrature
        expected = math.sqrt(0.5 * 26.0 + 0.5 * 2.0)
        assert math.isclose(h1_distance(u, ref), expected, rel_tol=1e-12)


class TestFFTPreconditionCheck:
    def test_single_atom(self):
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)])
        assert fft_precondition_check(s, 8) <= 1e-12

    def test_constant(self):
        s = AtomSum.from_atoms([(2.0, (0.0,), 0.0)])
        assert fft_precondition_check(s, 4) == 0.0

    def test_random_sum_d2(self):
        rng = np.random.default_rng(120)
        s = random_sum(rng, 2, 20, max_freq=4)
        assert fft_precondition_check(s, 16) <= 1e-11

    def test_under_resolved_grid_rejected(self):
        s = AtomSum.from_atoms([(1.0, (4.0,), 0.0)])
        with pytest.raises(ValueError, match="under-resolved"):
            fft_precondition_check(s, 7)

    def test_dimension_cap(self):
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0, 0.0, 0.0), 0.0)])
        with pytest.raises(ValueError, match="capped"):
            fft_precondition_check(s, 8)


class TestGreen1d:
    def test_zero_frequency_unit_mass(self):
        assert green1d_check(0.0) <= 1e-8

    @pytest.mark.parametrize("w", [1.0, 2.0, 5.0, 10.0])
    def test_matches_multiplier(self, w):
        assert green1d_check(w) <= 1e-6

    def test_narrow_window_rejected(self):
        with pytest.raises(ValueError):
            green1d_check(1.0, quadrature_halfwidth=10.0)

    def test_under_resolved_rejected(self):
        with pytest.raises(ValueError, match="under-resolved"):
            green1d_check(50.0, n_nodes=128)


class TestEllipticityProbe:
    def test_identity_problem_exact(self):
        assert ellipticity_probe(identity_problem(2)) == (1.0, 1.0, 1.0, 1.0)

    def test_d1_benchmark_ranges(self):
        a_min, a_max, c_min, c_max = ellipticity_probe(d1_benchmark())
        assert 0.99 <= a_min <= 1.0
        assert 3.0 >= a_max >= 2.99
        assert c_min == c_max == 1.0

    def test_non_elliptic_detected(self):
        a = AtomSum.from_atoms([(1.0, (0.0,), 0.0), (2.0, (1.0,), 0.0)])
        one = constant_sum(1, 1.0)
        p = EllipticProblem(((a,),), one, one, 0.1, 3.0)
        with pytest.raises(ProbeFailureError, match="non-elliptic"):
            ellipticity_probe(p)

    def test_understated_lambda_max_detected(self):
        a = AtomSum.from_atoms([(2.0, (0.0,), 0.0), (1.0, (1.0,), 0.0)])
        one = constant_sum(1, 1.0)
        p = EllipticProblem(((a,),), one, one, 1.0, 2.5)
        with pytest.raises(ProbeFailureError, match="lam_max"):
            ellipticity_probe(p)

    def test_overstated_lambda_min_detected(self):
        a = AtomSum.from_atoms([(2.0, (0.0,), 0.0), (1.0, (1.0,), 0.0)])
        one = constant_sum(1, 1.0)
        p = EllipticProblem(((a,),), one, one, 1.5, 3.0)
        with pytest.raises(ProbeFailureError, match="lam_min"):
            ellipticity_probe(p)

    def test_high_dimensional_sampling_path(self):
        p = diagonal_cosine_family(5)
        a_min, a_max, c_min, c_max = ellipticity_probe(p)
        assert 0.5 < a_min < 0.6
        assert 1.4 < a_max < 1.5 + 1e-12
        assert c_min == c_max == 1.0

    def test_refinement_only_widens(self):
        p = diagonal_cosine_family(5)
        coarse = ellipticity_probe(p, refinement_limit=1)
        fine = ellipticity_probe(p, refinement_limit=3)
        assert fine[0] <= coarse[0] and fine[2] <= coarse[2]
        assert fine[1] >= coarse[1] and fine[3] >= coarse[3]
