"""Atom calculus: products, derivatives, elliptic application, preconditioning."""

import math

import numpy as np
import pytest

import cospde.atoms as atoms
import cospde.calculus as calculus
from cospde.atoms import AtomSum, add, evaluate, h1_norm_torus, prune, scale, sum_many
from cospde.calculus import (
    apply_elliptic,
    from_fourier_data,
    partial_derivative,
    precondition,
    product,
)
from cospde.problem import EllipticProblem
from cospde.sampler import sample_network
from conftest import bitwise_equal, identity_problem, random_sum, scalar_eval

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


def expanded_product(s1, s2):
    """The pair rule's raw expansion of s1 * s2, canonicalized by the
    constructor: the product without any shortcut."""
    d = s1.dimension
    half = 0.5 * np.multiply.outer(s1.amplitudes, s2.amplitudes).ravel()
    w_plus = (s1.frequencies[:, None, :] + s2.frequencies[None, :, :]).reshape(-1, d)
    w_minus = (s1.frequencies[:, None, :] - s2.frequencies[None, :, :]).reshape(-1, d)
    b_plus = (s1.phases[:, None] + s2.phases[None, :]).ravel()
    b_minus = (s1.phases[:, None] - s2.phases[None, :]).ravel()
    return AtomSum(d, True, np.concatenate([half, half]), np.concatenate([w_plus, w_minus]),
                   np.concatenate([b_plus, b_minus]))


class TestProductWithConstant:
    """A factor that is one zero-frequency atom multiplies atom-wise; the
    result must be the merged pair-rule expansion bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("c0", [2.0, -2.0, 0.1, -0.75, 1.0 / 3.0, 1e-150, -7.5e120])
    def test_matches_the_merged_expansion_on_either_side(self, d, c0):
        rng = np.random.default_rng(90 + d)
        s = random_sum(rng, d, 60, max_freq=3)
        s = add(s, AtomSum.from_atoms([(0.625, (0.0,) * d, 0.0)]))  # and a constant atom
        const = AtomSum.from_atoms([(c0, (0.0,) * d, 0.0)])
        for left, right in ((const, s), (s, const)):
            got = product(left, right)
            assert bitwise_equal(got, expanded_product(left, right))
            assert got.atom_count == s.atom_count

    def test_constant_times_constant(self):
        a = AtomSum.from_atoms([(-3.0, (0.0, 0.0), 0.0)])
        b = AtomSum.from_atoms([(0.1, (0.0, 0.0), 0.0)])
        assert bitwise_equal(product(a, b), expanded_product(a, b))

    def test_two_atom_factor_with_a_constant_is_not_a_constant(self):
        rng = np.random.default_rng(97)
        c = AtomSum.from_atoms([(2.0, (0.0, 0.0), 0.0), (0.25, (1.0, 1.0), 0.5)])
        s = random_sum(rng, 2, 20, max_freq=2)
        assert bitwise_equal(product(c, s), expanded_product(c, s))

    @pytest.mark.parametrize("c0", [1e300, -1e300])
    def test_overflow_raises_the_constructor_error(self, c0):
        const = AtomSum.from_atoms([(c0, (0.0,), 0.0)])
        s = AtomSum.from_atoms([(1e10, (1.0,), 0.2), (1.0, (2.0,), 0.0)])
        for left, right in ((const, s), (s, const)):
            with np.errstate(over="ignore"):
                with pytest.raises(ValueError, match="atom data must be finite"):
                    expanded_product(left, right)
                with pytest.raises(ValueError, match="atom data must be finite"):
                    product(left, right)


class TestLazyLedgerNorms:
    """tracked_norm and support_radius_sq are computed on first read; they
    must equal the eager formulas on every way a sum is built."""

    @staticmethod
    def check(s):
        assert s._tracked is None and s._radius_sq is None
        a, w = s.amplitudes, s.frequencies
        eager_tracked = math.fsum(np.abs(a).tolist()) if a.size else 0.0
        eager_radius_sq = float(np.max(np.einsum("ij,ij->i", w, w))) if a.size else 0.0
        assert s.support_radius == math.sqrt(eager_radius_sq)
        for _ in range(2):  # computed on the first read, cached for the second
            assert s.tracked_norm == eager_tracked and s.support_radius_sq == eager_radius_sq

    def test_every_construction_path(self):
        rng = np.random.default_rng(98)
        d = 3

        def fresh():
            return random_sum(rng, d, 40, max_freq=3)

        s = fresh()
        built = [
            fresh(),
            AtomSum.zero(d),
            scale(fresh(), -0.3),
            prune(fresh(), 0.5)[0],
            partial_derivative(fresh(), 1),
            apply_elliptic(identity_problem(d), fresh()),
            precondition(fresh()),
            product(fresh(), fresh()),
            product(AtomSum.from_atoms([(2.0, (0.0,) * d, 0.0)]), fresh()),
            add(fresh(), fresh()),
            sample_network(s, 64, 5),
        ]
        for out in built:
            self.check(out)


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
        for ds in [partial_derivative(s, 1)] + [
            partial_derivative(partial_derivative(s, i), j) for i in range(3) for j in range(3)
        ]:
            rebuilt = AtomSum(3, True, ds.amplitudes, ds.frequencies, ds.phases)
            assert ds.amplitudes.tobytes() == rebuilt.amplitudes.tobytes()
            assert ds.frequencies.tobytes() == rebuilt.frequencies.tobytes()
            assert ds.phases.tobytes() == rebuilt.phases.tobytes()

    def test_two_first_derivatives_example(self):
        s = AtomSum.from_atoms([(1.0, (2.0,), 0.3)])
        d2 = partial_derivative(partial_derivative(s, 0), 0)
        (atom,) = d2.atoms
        assert atom.amplitude == 4.0
        assert phases_close(atom.phase, 0.3 + math.pi)

    def test_mixed_partials_commute_pointwise(self):
        rng = np.random.default_rng(74)
        s = random_sum(rng, 2, 10, max_freq=2)
        pts = rng.uniform(0, TWO_PI, size=(100, 2))
        v12 = evaluate(partial_derivative(partial_derivative(s, 0), 1), pts)
        v21 = evaluate(partial_derivative(partial_derivative(s, 1), 0), pts)
        assert np.max(np.abs(v12 - v21)) <= 1e-12 * max(1.0, float(np.max(np.abs(v12))))

    def test_axis_out_of_range(self):
        s = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
        for axis in (1, -1):
            with pytest.raises(ValueError):
                partial_derivative(s, axis)


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

    def test_underflowing_amplitude_is_dropped(self):
        s = AtomSum.from_atoms([(5e-324, (3.0,), 0.0)])
        out = precondition(s)
        assert out.is_zero
        assert out == AtomSum(1, True, out.amplitudes, out.frequencies, out.phases)

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


def product_chain_elliptic(p, u):
    """L u in the product-rule form -sum_ij (d_i A_ij * d_j u + A_ij * d_i d_j u)
    + c u, every derivative taken by partial_derivative: the reference the
    divergence form of apply_elliptic must agree with."""
    terms = [product(p.c, u)]
    for i, row in enumerate(p.a_entries):
        for j, a_ij in enumerate(row):
            du = partial_derivative(u, j)
            terms.append(scale(product(partial_derivative(a_ij, i), du), -1.0))
            terms.append(scale(product(a_ij, partial_derivative(du, i)), -1.0))
    return sum_many(terms)


def wrapping_sum(rng, d, n, max_freq=2):
    """Random atoms, half of them with phases just below 2*pi, so that products
    and derivatives carry phases past 2*pi."""
    freqs = rng.integers(-max_freq, max_freq + 1, size=(n, d))
    near = TWO_PI - rng.uniform(0.0, 1e-9, n)
    phases = np.where(rng.random(n) < 0.5, near, rng.uniform(0.0, TWO_PI, n))
    return AtomSum(d, True, rng.uniform(-1.0, 1.0, n), freqs, phases)


def random_operator(rng, d, shape, oscillating_c):
    """A problem with A of the given shape ("constant" 2I, variable "diagonal",
    "full" with every off-diagonal entry, "banded" with only the first
    off-diagonal) and c constant or oscillating."""
    two = AtomSum.from_atoms([(2.0, (0.0,) * d, 0.0)])
    rows = [[AtomSum.zero(d)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if i == j:
                entry = two if shape == "constant" else add(two, wrapping_sum(rng, d, 2))
            elif shape == "full" or (shape == "banded" and j == i + 1):
                entry = wrapping_sum(rng, d, 2)
            else:
                continue
            rows[i][j] = rows[j][i] = entry
    c = AtomSum.from_atoms([(1.5, (0.0,) * d, 0.0)])
    if oscillating_c:
        c = add(c, wrapping_sum(rng, d, 3))
    return operator(rows, c)


class TestProductChainReference:
    """apply_elliptic applies L through a stencil over (coefficient atom,
    solution atom) pairs; it must agree with the product-rule form built from
    partial_derivative alone."""

    @staticmethod
    def assert_matches(p, u, f):
        got = apply_elliptic(p, u, f)
        want = sum_many([product_chain_elliptic(p, u), scale(f, -1.0)])
        gap = h1_norm_torus(sum_many([got, scale(want, -1.0)]))
        assert gap <= 1e-13 * h1_norm_torus(want)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_matches_the_product_chain_form(self, d):
        rng = np.random.default_rng(300 + d)
        u = wrapping_sum(rng, d, 8)
        f = wrapping_sum(rng, d, 4)
        constant = AtomSum.from_atoms([(0.7, (0.0,) * d, 0.0)])
        cases = (("constant", False), ("constant", True), ("diagonal", False), ("full", True),
                 ("banded", False))
        for shape, oscillating_c in cases:
            p = random_operator(rng, d, shape, oscillating_c)
            self.assert_matches(p, u, f)
            self.assert_matches(p, add(u, constant), f)  # a constant atom of u: v = 0

    def test_zero_input_gives_exactly_minus_rhs(self):
        rng = np.random.default_rng(321)
        p = random_operator(rng, 3, "full", oscillating_c=True)
        f = wrapping_sum(rng, 3, 5)
        zero = AtomSum.zero(3)
        assert bitwise_equal(apply_elliptic(p, zero, f), scale(f, -1.0))
        assert apply_elliptic(p, zero).is_zero

    def test_entries_sharing_a_frequency_at_different_phases(self):
        # A_11, A_12 and A_22 all oscillate at (1, 1), at three phases
        def entry(constant, amplitude, phase):
            terms = [(amplitude, (1.0, 1.0), phase)]
            return AtomSum.from_atoms(terms + ([(constant, (0.0, 0.0), 0.0)] if constant else []))

        a_mat = ((entry(2.0, 0.3, 0.4), entry(0.0, 0.2, 1.9)),
                 (entry(0.0, 0.2, 1.9), entry(2.0, 0.25, 5.1)))
        p = operator(a_mat, AtomSum.from_atoms([(1.0, (0.0, 0.0), 0.0)]))
        rng = np.random.default_rng(322)
        self.assert_matches(p, wrapping_sum(rng, 2, 8), wrapping_sum(rng, 2, 3))

    @pytest.mark.parametrize("oscillating_c", [False, True])
    def test_one_product_with_c_no_derivative_and_one_merge_per_product(self, monkeypatch,
                                                                         oscillating_c):
        rng = np.random.default_rng(320)
        d = 4
        p = random_operator(rng, d, "banded", oscillating_c)
        u = wrapping_sum(rng, d, 8)
        f = wrapping_sum(rng, d, 3)
        want = apply_elliptic(p, u, f)
        multiplied, differentiated, merges = [], [], []
        real_product, real_derivative = calculus.product, calculus.partial_derivative
        real_canonicalize = atoms._canonicalize_arrays

        def counted_product(s1, s2):
            multiplied.append((s1, s2))
            return real_product(s1, s2)

        def counted_derivative(s, axis):
            differentiated.append(s)
            return real_derivative(s, axis)

        def counted_canonicalize(*args):
            merges.append(args)
            return real_canonicalize(*args)

        monkeypatch.setattr(calculus, "product", counted_product)
        monkeypatch.setattr(calculus, "partial_derivative", counted_derivative)
        monkeypatch.setattr(atoms, "_canonicalize_arrays", counted_canonicalize)
        assert bitwise_equal(apply_elliptic(p, u, f), want)
        assert len(multiplied) == 1 and multiplied[0][0] is p.c and multiplied[0][1] is u
        assert differentiated == []
        assert len(merges) == (2 if oscillating_c else 1)


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
