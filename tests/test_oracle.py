"""Reference-solver module: Galerkin, FFT multiplier, kernel quadrature, probe."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cospde.atoms import AtomSum, InputError, add, h1_norm_torus, scale
from cospde.oracle import (
    GalerkinReference,
    ProbeFailureError,
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


def cos_sin_table(s):
    """{frequency: (a cos b, -a sin b)}: the cos(k.x) and sin(k.x) coefficients."""
    return {
        tuple(int(x) for x in w): (a * math.cos(b), -a * math.sin(b))
        for a, w, b in zip(s.amplitudes, s.frequencies, s.phases)
    }


def max_sine_coefficient(s):
    return float(np.max(np.abs(s.amplitudes * np.sin(s.phases)), initial=0.0))


class TestGalerkinSolve:
    def test_identity_problem_is_exact(self):
        ref = galerkin_solve(identity_problem(2), truncation=3)
        assert isinstance(ref, GalerkinReference)
        expected = AtomSum.from_atoms([(0.5, (1.0, 0.0), 0.0)])
        assert ref.u == expected  # every other box coefficient is exactly 0
        assert ref.residual <= 1e-14
        assert h1_distance(expected, ref.u) <= 1e-14

    def test_d1_truncation_convergence(self):
        p = d1_benchmark()
        coarse = galerkin_solve(p, truncation=32)
        fine = galerkin_solve(p, truncation=64)
        assert h1_distance(coarse.u, fine.u) <= 1e-10

    def test_even_problem_has_no_sine_components(self):
        ref = galerkin_solve(d1_benchmark(), truncation=24)
        assert max_sine_coefficient(ref.u) <= 1e-12

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

    def test_truncation_errors_are_input_errors(self):
        p = d1_benchmark()
        for k in (0, -1):
            with pytest.raises(InputError, match="--oracle-K must be at least 1"):
                galerkin_solve(p, truncation=k)

    def test_constant_coefficients_match_closed_form(self):
        # with constant A and c each mode decouples: u(k) = f(k) / (k^T A k + c)
        a = ((constant_sum(2, 2.0), constant_sum(2, 0.5)),
             (constant_sum(2, 0.5), constant_sum(2, 1.0)))
        f = random_sum(np.random.default_rng(130), 2, 12, max_freq=3)
        p = EllipticProblem(a, constant_sum(2, 1.5), f, 0.5, 2.5)
        ref = cos_sin_table(galerkin_solve(p, truncation=4).u)
        expected = cos_sin_table(f)
        for key in ref.keys() | expected.keys():
            k = np.array(key, dtype=float)
            symbol = 2.0 * k[0] ** 2 + 2 * 0.5 * k[0] * k[1] + k[1] ** 2 + 1.5
            cv, sv = ref.get(key, (0.0, 0.0))
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
        assert max_sine_coefficient(ref.u) <= 1e-12
        result = solve(p, 1e-2, prune_enabled=False, compare_oracle=False)
        assert h1_distance(result.u, ref.u) <= 1e-2

    def test_default_truncation_covers_iterates(self):
        p = d2_benchmark()
        k = default_truncation(p, steps=10)
        # R_f + T * max(R_A, R_c) rounded up, plus margin 2
        assert k == math.ceil(1.0 + 10 * math.sqrt(2.0)) + 2


class TestH1Distance:
    def test_zero_for_field_converted_back(self):
        ref = galerkin_solve(d1_benchmark(), truncation=16)
        assert h1_distance(ref.u, ref.u) == 0.0

    def test_single_extra_mode_closed_form(self):
        ref = galerkin_solve(identity_problem(2), truncation=3)
        u = add(ref.u, AtomSum.from_atoms([(1e-3, (2.0, 1.0), 0.0)]))
        expected = 1e-3 * math.sqrt((1.0 + 5.0) / 2.0)
        assert math.isclose(h1_distance(u, ref.u), expected, rel_tol=1e-12)

    def test_agrees_with_atom_norm_of_difference(self):
        rng = np.random.default_rng(110)
        u = random_sum(rng, 2, 14, max_freq=4)
        v = random_sum(rng, 2, 9, max_freq=2)
        direct = h1_norm_torus(add(u, scale(v, -1.0)))
        assert math.isclose(h1_distance(u, v), direct, rel_tol=1e-12)
        assert h1_distance(v, u) == h1_distance(u, v)

    def test_phases_within_merge_tolerance_still_differ(self):
        # a merge would join the two phases (PHASE_TOL = 1e-12) and cancel
        # them to zero; the coefficient difference keeps the 1e-13 gap
        u = AtomSum.from_atoms([(1.0, (1.0,), 0.5)])
        v = AtomSum.from_atoms([(1.0, (1.0,), 0.5 + 1e-13)])
        assert add(u, scale(v, -1.0)).is_zero
        assert math.isclose(h1_distance(u, v), 1e-13, rel_tol=1e-2)

    def test_excess_frequencies_count_fully(self):
        ref = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
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
        assert ellipticity_probe(d1_benchmark()) == (1.0, 3.0, 1.0, 1.0)

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

    def test_family_certified_exactly_at_every_dimension(self):
        for d in range(1, 17):
            assert ellipticity_probe(diagonal_cosine_family(d)) == (0.5, 1.5, 1.0, 1.0)

    def test_bounds_just_inside_the_true_range_rejected(self):
        # the family's eigenvalues reach exactly 1/2 and 3/2; bounds a hair
        # inside them must fail, which a sampled minimum cannot show
        family = diagonal_cosine_family(5)
        for lam_min, lam_max, name in ((0.5 + 1e-10, 1.5, "lam_min"),
                                       (0.5, 1.5 - 1e-10, "lam_max")):
            p = EllipticProblem(family.a_entries, family.c, family.f, lam_min, lam_max)
            with pytest.raises(ProbeFailureError, match=name):
                ellipticity_probe(p)

    def test_loose_certificate_names_the_certified_bound(self):
        # A = 3 + cos x + cos 2x never falls below 15/8, but its mass
        # certificate only proves 1
        a = AtomSum.from_atoms([(3.0, (0.0,), 0.0), (1.0, (1.0,), 0.0), (1.0, (2.0,), 0.0)])
        one = constant_sum(1, 1.0)
        p = EllipticProblem(((a,),), one, one, 1.5, 5.0)
        with pytest.raises(ProbeFailureError, match=r"lam_min=1\.5 .* bound 1\.0\b.*too loose"):
            ellipticity_probe(p)

    def test_gershgorin_certifies_constant_off_diagonal(self):
        # [[2, 1/2], [1/2, 1]] has eigenvalues (3 +- sqrt 2)/2, inside the
        # Gershgorin discs 2 +- 1/2 and 1 +- 1/2
        two, one, half = (constant_sum(2, v) for v in (2.0, 1.0, 0.5))
        p = EllipticProblem(((two, half), (half, one)), one, one, 0.5, 2.5)
        assert ellipticity_probe(p) == (0.5, 2.5, 1.0, 1.0)

    def test_bounds_round_outward(self):
        # c = 3 + 0.3 cos x reaches 3 - float(0.3), just above float(2.7) - ulp
        # and below float(2.7); the returned range must lie outside the exact one
        a = ((constant_sum(1, 10.0),),)
        c = AtomSum.from_atoms([(3.0, (0.0,), 0.0), (0.3, (1.0,), 0.0)])
        f = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        _, _, c_min, c_max = ellipticity_probe(EllipticProblem(a, c, f, 1.0, 20.0))
        exact_min, exact_max = 3 - Fraction(0.3), 3 + Fraction(0.3)
        assert Fraction(c_min) <= exact_min < Fraction(math.nextafter(c_min, math.inf))
        assert Fraction(math.nextafter(c_max, -math.inf)) < exact_max <= Fraction(c_max)
        assert (c_min, c_max) == (math.nextafter(2.7, 0.0), math.nextafter(3.3, 4.0))
        # each returned bound, passed back as the user's, is accepted; A = 10
        # leaves c_min the lowest bound, and A = 1 leaves c_max the highest
        low_a = ((constant_sum(1, 1.0),),)
        assert ellipticity_probe(EllipticProblem(a, c, f, c_min, 10.0))[2] == c_min
        assert ellipticity_probe(EllipticProblem(low_a, c, f, 1.0, c_max))[3] == c_max
        with pytest.raises(ProbeFailureError, match=rf"lam_min=2\.7 .* bound {c_min!r}:"):
            ellipticity_probe(EllipticProblem(a, c, f, 2.7, 10.0))
        with pytest.raises(ProbeFailureError, match=rf"lam_max=3\.3 .* bound {c_max!r}:"):
            ellipticity_probe(EllipticProblem(low_a, c, f, 1.0, 3.3))
