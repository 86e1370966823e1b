"""Problem container: validation and the derived ledger constants."""

import math

import pytest

from cospde.atoms import AtomSum, InputError
from cospde.problem import (
    MAX_DIMENSION,
    EllipticProblem,
    check_dimension,
    constant_sum,
    diagonal_coefficients,
    diagonal_cosine_family,
    identity_coefficients,
)
from conftest import d1_benchmark, d2_benchmark


class TestDerivedConstants:
    def test_d1_benchmark_values(self):
        p = d1_benchmark()
        assert p.dimension == 1
        assert p.ell_A == 3.0
        assert p.R_A == 1.0
        assert p.ell_c == 1.0
        assert p.R_c == 0.0
        assert p.ell_f == 1.0
        assert p.R_f == 1.0
        assert p.coeff_radius == 1.0

    def test_d2_benchmark_values(self):
        p = d2_benchmark()
        assert p.ell_A == 3.0
        assert p.R_A == 1.0
        assert p.ell_c == 1.5
        assert p.R_c == math.sqrt(2.0)
        assert p.ell_f == 2.0
        assert p.R_f == 1.0
        assert p.coeff_radius == math.sqrt(2.0)

    def test_initial_error_bound_d1(self):
        # |f|_{H^-1} = sqrt(mu * 1 / (1+1)) = 1/2, lam_min = 1
        assert d1_benchmark().initial_error_bound() == 0.5

    def test_initial_error_bound_d2(self):
        assert d2_benchmark().initial_error_bound() == math.sqrt(2.0)


class TestValidation:
    def test_asymmetric_matrix_rejected(self):
        one = constant_sum(2, 1.0)
        zero = AtomSum.zero(2)
        off = AtomSum.from_atoms([(0.5, (1.0, 0.0), 0.0)])
        with pytest.raises(ValueError, match="symmetric"):
            EllipticProblem(((one, off), (zero, one)), one, one, 1.0, 1.0)

    def test_wrong_matrix_size_rejected(self):
        one = constant_sum(2, 1.0)
        with pytest.raises(ValueError):
            EllipticProblem(((one,),), one, one, 1.0, 1.0)

    def test_bad_spectral_bounds_rejected(self):
        one = constant_sum(1, 1.0)
        mat = ((one,),)
        with pytest.raises(ValueError):
            EllipticProblem(mat, one, one, 0.0, 1.0)
        with pytest.raises(ValueError):
            EllipticProblem(mat, one, one, 2.0, 1.0)
        with pytest.raises(ValueError):
            EllipticProblem(mat, one, one, 1.0, math.inf)

    def test_bad_spectral_bounds_are_input_errors(self):
        one = constant_sum(1, 1.0)
        for lam in [(0.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(InputError, match="lam_min <= lam_max"):
                EllipticProblem(((one,),), one, one, *lam)

    def test_mixed_dimension_rejected(self):
        one1 = constant_sum(1, 1.0)
        one2 = constant_sum(2, 1.0)
        with pytest.raises(ValueError):
            EllipticProblem(((one1,),), one1, one2, 1.0, 1.0)


class TestHelpers:
    def test_identity_coefficients_shape(self):
        mat = identity_coefficients(3)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert mat[i][j].tracked_norm == 1.0
                    assert mat[i][j].support_radius == 0.0
                else:
                    assert mat[i][j].is_zero

    def test_diagonal_coefficients(self):
        s = AtomSum.from_atoms([(2.0, (1.0, 0.0), 0.0)])
        t = AtomSum.from_atoms([(3.0, (0.0, 1.0), 0.0)])
        mat = diagonal_coefficients([s, t])
        assert mat[0][0] == s and mat[1][1] == t
        assert mat[0][1].is_zero and mat[1][0].is_zero


class TestScalingFamily:
    def test_constants_are_dimension_independent(self):
        for d in (1, 4, 9):
            p = diagonal_cosine_family(d)
            assert p.dimension == d
            assert p.ell_A == 1.5
            assert p.R_A == 1.0
            assert p.ell_c == 1.0
            assert p.ell_f == 1.0  # d terms of amplitude 1/d
            assert p.R_f == 1.0
            assert (p.lam_min, p.lam_max) == (0.5, 1.5)
            assert p.f.atom_count == d

    def test_dimension_cap(self):
        assert MAX_DIMENSION >= 64  # scaling-report tests reach d = 64
        assert check_dimension(MAX_DIMENSION) == MAX_DIMENSION
        for d in (0, -1, MAX_DIMENSION + 1, 10**6):
            with pytest.raises(InputError, match=r"dimension must lie in \[1, 128\]"):
                check_dimension(d)
            with pytest.raises(InputError, match=r"dimension must lie in \[1, 128\]"):
                diagonal_cosine_family(d)

    def test_entries_depend_on_their_own_axis_only(self):
        p = diagonal_cosine_family(3)
        entry = p.a_entries[1][1]
        nonconstant = [a.frequency for a in entry.atoms if any(a.frequency)]
        assert nonconstant == [(0.0, 1.0, 0.0)]
