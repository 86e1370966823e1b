"""Atom calculus: products, derivatives, elliptic application, preconditioning."""

import math

import numpy as np
import pytest

from cospde.atoms import AtomSum, add, evaluate, scale
from cospde.calculus import (
    apply_elliptic,
    from_fourier_data,
    general_norm_bound,
    partial_derivative,
    precondition,
    product,
    rebalance,
    second_derivative,
)
from cospde.problem import EllipticProblem
from conftest import identity_problem, random_sum, scalar_eval

TWO_PI = 2.0 * math.pi


def phases_close(p1, p2, tol=1e-12):
    diff = abs(p1 - p2) % TWO_PI
    return min(diff, TWO_PI - diff) <= tol


def operator(a_entries, c):
    """A problem carrying A and c; apply_elliptic reads nothing else of it."""
    return EllipticProblem(a_entries, c, AtomSum.zero(c.dimension), 1.0, 1.0)


class TestProduct:
    def test_orthogonal_cosines_split_into_sum_and_difference(self):
        s1 = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)])
        s2 = AtomSum.from_atoms([(1.0, (0.0, 1.0), 0.0)])
        p = product(s1, s2)
        assert [(a.amplitude, a.frequency, a.phase) for a in p.atoms] == [
            (0.5, (1.0, -1.0), 0.0),
            (0.5, (1.0, 1.0), 0.0),
        ]

    def test_product_with_constant_rescales_exactly(self):
        const = AtomSum.from_atoms([(2.0, (0.0, 0.0), 0.0)])
        s = AtomSum.from_atoms([(1.0, (1.0, 2.0), 0.7)])
        p = product(const, s)
        assert [(a.amplitude, a.frequency, a.phase) for a in p.atoms] == [(2.0, (1.0, 2.0), 0.7)]

    def test_constant_one_is_identity(self):
        rng = np.random.default_rng(60)
        s = random_sum(rng, 2, 12, max_freq=2)
        one = AtomSum.from_atoms([(1.0, (0.0, 0.0), 0.0)])
        assert product(one, s) == s

    @pytest.mark.parametrize("d,seed", [(1, 61), (2, 62), (3, 63)])
    def test_pointwise_against_direct_multiplication(self, d, seed):
        rng = np.random.default_rng(seed)
        s1 = random_sum(rng, d, 8, max_freq=2)
        s2 = random_sum(rng, d, 7, max_freq=2)
        p = product(s1, s2)
        pts = rng.uniform(-4.0, 4.0, size=(300, d))
        expected = evaluate(s1, pts) * evaluate(s2, pts)
        got = evaluate(p, pts)
        scale_ref = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale_ref

    def test_commutative_atom_exact(self):
        rng = np.random.default_rng(64)
        s1 = random_sum(rng, 2, 9, max_freq=2)
        s2 = random_sum(rng, 2, 6, max_freq=2)
        assert product(s1, s2) == product(s2, s1)

    def test_bilinear_pointwise(self):
        rng = np.random.default_rng(65)
        s1, s2, s3 = (random_sum(rng, 2, 5, max_freq=1) for _ in range(3))
        left = product(add(s1, s2), s3)
        right = add(product(s1, s3), product(s2, s3))
        pts = rng.uniform(0, TWO_PI, size=(200, 2))
        vl, vr = evaluate(left, pts), evaluate(right, pts)
        assert np.max(np.abs(vl - vr)) <= 1e-12 * max(1.0, float(np.max(np.abs(vr))))

    def test_submultiplicative_tracked_norm(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            s1 = random_sum(rng, 2, 10, max_freq=2)
            s2 = random_sum(rng, 2, 10, max_freq=2)
            p = product(s1, s2)
            assert p.tracked_norm <= s1.tracked_norm * s2.tracked_norm * (1 + 1e-13)

    def test_zero_factor_gives_zero(self):
        s = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        assert product(s, AtomSum.zero(1)).is_zero


class TestDerivatives:
    def test_first_derivative_example(self):
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)])
        ds = partial_derivative(s, 0)
        (atom,) = ds.atoms
        assert atom.amplitude == 1.0
        assert atom.frequency == (1.0, 0.0)
        assert atom.phase == math.pi / 2

    def test_derivative_drops_orthogonal_atoms(self):
        s = AtomSum.from_atoms([(1.0, (0.0, 2.0), 0.3)])
        assert partial_derivative(s, 0).is_zero

    @pytest.mark.parametrize("d,seed", [(1, 70), (2, 71), (3, 72)])
    def test_derivative_matches_central_differences(self, d, seed):
        rng = np.random.default_rng(seed)
        s = random_sum(rng, d, 10, max_freq=3)
        h = 1e-5
        pts = rng.uniform(0, TWO_PI, size=(200, d))
        for axis in range(d):
            ds = partial_derivative(s, axis)
            got = evaluate(ds, pts)
            shift = np.zeros(d)
            shift[axis] = h
            fd = (evaluate(s, pts + shift) - evaluate(s, pts - shift)) / (2 * h)
            scale_ref = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(got - fd)) <= 1e-6 * scale_ref

    def test_derivatives_are_canonical_without_a_merge(self):
        rng = np.random.default_rng(75)
        s = random_sum(rng, 3, 40, max_freq=3)
        for ds in [partial_derivative(s, 1)] + [second_derivative(s, i, j) for i in range(3) for j in range(3)]:
            rebuilt = AtomSum(3, True, ds.amplitudes, ds.frequencies, ds.phases)
            assert ds.amplitudes.tobytes() == rebuilt.amplitudes.tobytes()
            assert ds.frequencies.tobytes() == rebuilt.frequencies.tobytes()
            assert ds.phases.tobytes() == rebuilt.phases.tobytes()

    def test_second_derivative_example(self):
        s = AtomSum.from_atoms([(1.0, (2.0,), 0.3)])
        d2 = second_derivative(s, 0, 0)
        (atom,) = d2.atoms
        assert atom.amplitude == 4.0
        assert phases_close(atom.phase, 0.3 + math.pi)

    def test_second_derivative_matches_two_first_derivatives(self):
        rng = np.random.default_rng(73)
        s = random_sum(rng, 3, 12, max_freq=2)
        for i in range(3):
            for j in range(3):
                direct = second_derivative(s, i, j)
                chained = partial_derivative(partial_derivative(s, i), j)
                assert [a.frequency for a in direct.atoms] == [a.frequency for a in chained.atoms]
                for a, b in zip(direct.atoms, chained.atoms):
                    assert a.amplitude == b.amplitude
                    assert phases_close(a.phase, b.phase)

    def test_mixed_partials_commute_pointwise(self):
        rng = np.random.default_rng(74)
        s = random_sum(rng, 2, 10, max_freq=2)
        pts = rng.uniform(0, TWO_PI, size=(100, 2))
        v12 = evaluate(second_derivative(s, 0, 1), pts)
        v21 = evaluate(second_derivative(s, 1, 0), pts)
        assert np.max(np.abs(v12 - v21)) <= 1e-12 * max(1.0, float(np.max(np.abs(v12))))

    def test_axis_out_of_range(self):
        s = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        with pytest.raises(ValueError):
            partial_derivative(s, 1)
        with pytest.raises(ValueError):
            second_derivative(s, 0, -1)


class TestPrecondition:
    def test_unit_frequency_halves(self):
        s = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)])
        (atom,) = precondition(s).atoms
        assert atom.amplitude == 0.5
        assert atom.frequency == (1.0, 0.0)
        assert atom.phase == 0.0

    def test_constant_passes_through(self):
        s = AtomSum.from_atoms([(3.0, (0.0,), 0.0)])
        assert precondition(s) == s

    def test_inverse_property_pointwise(self):
        # (I - Laplacian) applied to the preconditioned sum recovers the input
        rng = np.random.default_rng(80)
        s = random_sum(rng, 2, 10, max_freq=3)
        v = precondition(s)
        back = apply_elliptic(identity_problem(2), v)
        pts = rng.uniform(0, TWO_PI, size=(200, 2))
        vb, vs = evaluate(back, pts), evaluate(s, pts)
        assert np.max(np.abs(vb - vs)) <= 1e-12 * max(1.0, float(np.max(np.abs(vs))))

    def test_never_increases_mass_or_radius(self):
        rng = np.random.default_rng(81)
        s = random_sum(rng, 2, 15, max_freq=4)
        v = precondition(s)
        assert v.tracked_norm <= s.tracked_norm
        assert v.support_radius <= s.support_radius


class TestApplyElliptic:
    def test_identity_coefficients_give_one_minus_laplacian(self):
        s = AtomSum.from_atoms([(1.0, (1.0, 2.0), 0.4)])
        out = apply_elliptic(identity_problem(2), s)
        (atom,) = out.atoms
        assert atom.frequency == (1.0, 2.0)
        assert math.isclose(atom.amplitude, 6.0, rel_tol=1e-15)  # 1 + |w|^2
        assert phases_close(atom.phase, 0.4)

    def test_zero_input_maps_to_zero(self):
        out = apply_elliptic(identity_problem(1), AtomSum.zero(1))
        assert out.is_zero

    def test_rejects_input_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_elliptic(identity_problem(2), AtomSum.from_atoms([(1.0, (1.0,), 0.0)]))

    def test_variable_coefficients_match_finite_differences_1d(self):
        rng = np.random.default_rng(82)
        a11 = AtomSum.from_atoms([(2.0, (0.0,), 0.0), (1.0, (1.0,), 0.0)])  # 2 + cos x
        c = AtomSum.from_atoms([(1.0, (0.0,), 0.0), (0.3, (2.0,), 0.5)])
        u = random_sum(rng, 1, 8, max_freq=3)
        out = apply_elliptic(operator(((a11,),), c), u)
        h = 1e-4
        pts = rng.uniform(0, TWO_PI, size=(60, 1))
        for x in pts:
            up = scalar_eval(u, x + h)
            um = scalar_eval(u, x - h)
            u0 = scalar_eval(u, x)
            du = (up - um) / (2 * h)
            d2u = (up - 2 * u0 + um) / (h * h)
            da = (scalar_eval(a11, x + h) - scalar_eval(a11, x - h)) / (2 * h)
            ref = -(da * du + scalar_eval(a11, x) * d2u) + scalar_eval(c, x) * u0
            got = evaluate(out, x)
            assert abs(got - ref) <= 1e-5 * max(1.0, abs(ref))

    def test_full_matrix_matches_finite_differences_2d(self):
        rng = np.random.default_rng(83)
        diag1 = AtomSum.from_atoms([(2.0, (0.0, 0.0), 0.0), (1.0, (1.0, 0.0), 0.0)])
        diag2 = AtomSum.from_atoms([(2.0, (0.0, 0.0), 0.0), (1.0, (0.0, 1.0), 0.0)])
        off = AtomSum.from_atoms([(0.2, (1.0, 1.0), 0.0)])
        a_mat = ((diag1, off), (off, diag2))
        c = AtomSum.from_atoms([(1.0, (0.0, 0.0), 0.0), (0.5, (1.0, 1.0), 0.0)])
        u = random_sum(rng, 2, 6, max_freq=2)
        out = apply_elliptic(operator(a_mat, c), u)
        h = 1e-4
        ew = np.eye(2) * h

        def u_at(x):
            return scalar_eval(u, x)

        pts = rng.uniform(0, TWO_PI, size=(25, 2))
        for x in pts:
            ref = scalar_eval(c, x) * u_at(x)
            for i in range(2):
                for j in range(2):
                    aij = a_mat[i][j]
                    da = (scalar_eval(aij, x + ew[i]) - scalar_eval(aij, x - ew[i])) / (2 * h)
                    du = (u_at(x + ew[j]) - u_at(x - ew[j])) / (2 * h)
                    if i == j:
                        d2u = (u_at(x + ew[i]) - 2 * u_at(x) + u_at(x - ew[i])) / (h * h)
                    else:
                        d2u = (
                            u_at(x + ew[i] + ew[j])
                            - u_at(x + ew[i] - ew[j])
                            - u_at(x - ew[i] + ew[j])
                            + u_at(x - ew[i] - ew[j])
                        ) / (4 * h * h)
                    ref += -(da * du + scalar_eval(aij, x) * d2u)
            got = evaluate(out, x)
            assert abs(got - ref) <= 2e-5 * max(1.0, abs(ref))


class TestRebalance:
    def test_example_masses_and_signs(self):
        s = AtomSum.from_atoms([(3.0, (1.0, 0.0), 0.3), (-1.0, (0.0, 1.0), 1.0)])
        m = rebalance(s)
        assert m.total_mass == 4.0
        # atoms are held in canonical frequency order: (0,1) before (1,0)
        assert list(m.probabilities) == [0.25, 0.75]
        assert list(m.signs) == [-1.0, 1.0]

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(90)
        s = random_sum(rng, 2, 25, max_freq=3)
        m = rebalance(s)
        assert math.isclose(float(np.sum(m.probabilities)), 1.0, rel_tol=1e-12)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(91)
        s = random_sum(rng, 2, 15, max_freq=3)
        m = rebalance(s)
        pts = rng.uniform(0, TWO_PI, size=(100, 2))
        vals = np.zeros(len(pts))
        for p, sg, w, b in zip(m.probabilities, m.signs, m.frequencies, m.phases):
            vals += p * sg * m.total_mass * np.cos(pts @ w + b)
        ref = evaluate(s, pts)
        assert np.max(np.abs(vals - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            rebalance(AtomSum.zero(2))


class TestFromFourierData:
    def test_imaginary_coefficient_example(self):
        s = from_fourier_data([((1, 0), 0.5j)], dimension=2)
        (atom,) = s.atoms
        assert atom.amplitude == 1.0
        assert atom.frequency == (1.0, 0.0)
        assert phases_close(atom.phase, math.pi / 2)
        # 2 Re(0.5i e^{i x1}) = -sin(x1) = cos(x1 + pi/2)
        x = np.array([0.8, 0.0])
        assert math.isclose(evaluate(s, x), -math.sin(0.8), rel_tol=1e-14)

    def test_constant_coefficient_example(self):
        s = from_fourier_data([((0, 0), 2.0 + 0.0j)], dimension=2)
        (atom,) = s.atoms
        assert (atom.amplitude, atom.frequency, atom.phase) == (2.0, (0.0, 0.0), 0.0)

    def test_tracked_norm_accounting(self):
        s = from_fourier_data([((1, 0), 0.5j), ((0, 0), 2.0)], dimension=2)
        assert s.tracked_norm == 3.0  # 2*|c_k| + |Re c_0|

    def test_duplicate_representative_rejected(self):
        with pytest.raises(ValueError):
            from_fourier_data([((1, 0), 0.5), ((-1, 0), 0.25)], dimension=2)

    def test_matches_direct_complex_series(self):
        rng = np.random.default_rng(92)
        coeffs = []
        seen = set()
        while len(coeffs) < 8:
            k = tuple(int(v) for v in rng.integers(-3, 4, size=2))
            nz = [v for v in k if v != 0]
            key = tuple(-v for v in k) if nz and nz[0] < 0 else k
            if key in seen:
                continue
            seen.add(key)
            c = complex(rng.normal(), rng.normal()) if any(k) else complex(rng.normal(), 0.0)
            coeffs.append((k, c))
        s = from_fourier_data(coeffs, dimension=2)
        pts = rng.uniform(0, TWO_PI, size=(100, 2))
        ref = np.zeros(len(pts))
        for k, c in coeffs:
            kv = np.asarray(k, dtype=float)
            if any(k):
                ref += 2.0 * np.real(c * np.exp(1j * (pts @ kv)))
            else:
                ref += c.real
        got = evaluate(s, pts)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


class TestGeneralNormBound:
    UNIT = dict(ell_m=1.0, ell_d1=1.0, ell_d2=1.0, ell_A=1.0, ell_c=1.0, ell_f=1.0,
                R_m=1.0, R_d1=1.0, R_d2=1.0, R_A=1.0, R_c=1.0, R_f=1.0)

    def test_all_ones_frozen_values(self):
        norm_next, radius_next = general_norm_bound(1.0, 1.0, alpha=1.0, d=1, **self.UNIT)
        assert norm_next == 5.0
        assert radius_next == 2.0

    def test_zero_alpha_keeps_norm(self):
        norm_next, _ = general_norm_bound(1.7, 2.3, alpha=0.0, d=4, **self.UNIT)
        assert norm_next == 1.7

    def test_radius_never_shrinks(self):
        _, radius_next = general_norm_bound(1.0, 3.0, alpha=0.5, d=2, **self.UNIT)
        assert radius_next >= 3.0

    def test_nonpositive_constants_rejected(self):
        bad = dict(self.UNIT)
        bad["ell_m"] = 0.0
        with pytest.raises(ValueError):
            general_norm_bound(1.0, 1.0, alpha=1.0, d=1, **bad)
        with pytest.raises(ValueError):
            general_norm_bound(1.0, 1.0, alpha=-0.5, d=1, **self.UNIT)
