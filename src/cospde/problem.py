"""Container for the elliptic operator data -div(A grad u) + c u = f.

A problem bundles the coefficient matrix A (a d x d symmetric array of
cosine sums), the zeroth-order coefficient c, the right-hand side f, and
user-supplied spectral bounds lambda_min/lambda_max for the operator.
The derived amplitude budgets (ell_A, ell_c, ell_f) and frequency radii
(R_A, R_c, R_f) feed the growth ledger; ell_A and R_A are maxima over
the matrix entries.
"""

import math
from typing import NamedTuple

import numpy as np

from .atoms import AtomSum, InputError, h_minus1_norm_torus


# largest problem dimension: a problem holds a d x d matrix of coefficient
# sums and checks its symmetry pairwise, O(d^2) work before any step
MAX_DIMENSION = 128


def check_dimension(dimension):
    """The dimension as an int, checked to lie in [1, MAX_DIMENSION]."""
    d = int(dimension)
    if not 1 <= d <= MAX_DIMENSION:
        raise InputError(f"dimension must lie in [1, {MAX_DIMENSION}], got {d}")
    return d


def spectral_bounds(lam_min, lam_max):
    """The bounds as floats, checked finite with 0 < lam_min <= lam_max."""
    lam_min, lam_max = float(lam_min), float(lam_max)
    if not (math.isfinite(lam_max) and 0.0 < lam_min <= lam_max):
        raise InputError(f"spectral bounds must be finite with 0 < lam_min <= lam_max, "
                         f"got ({lam_min}, {lam_max})")
    return lam_min, lam_max


def constant_sum(dimension, value):
    """The constant function `value` as a single zero-frequency atom."""
    if value == 0.0:
        return AtomSum.zero(dimension)
    return AtomSum.from_atoms([(float(value), (0.0,) * dimension, 0.0)], dimension=dimension)


def identity_coefficients(dimension):
    """The identity matrix: constant 1 on the diagonal, 0 elsewhere."""
    one = constant_sum(dimension, 1.0)
    zero = AtomSum.zero(dimension)
    return tuple(
        tuple(one if i == j else zero for j in range(dimension))
        for i in range(dimension)
    )


def diagonal_coefficients(entries):
    """Coefficient matrix with the given sums on the diagonal, 0 elsewhere."""
    entries = tuple(entries)
    d = len(entries)
    if d == 0:
        raise ValueError("empty diagonal")
    zero = AtomSum.zero(entries[0].dimension)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(d)) for i in range(d)
    )


class CoefficientAtoms(NamedTuple):
    """A's atoms laid out for the stencil of `calculus.apply_elliptic`:
    `constant` is the d x d matrix A0 of the entries' zero-frequency atoms,
    and the other fields list every other atom of every entry, by amplitude,
    frequency and phase, with the row i and column j of its entry."""

    constant: np.ndarray
    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    i: np.ndarray
    j: np.ndarray


class EllipticProblem:
    """Validated problem data plus the derived ledger constants, and A's
    atoms laid out once for `calculus.apply_elliptic` (`a_atoms`)."""

    def __init__(self, a_entries, c, f, lam_min, lam_max):
        if not isinstance(c, AtomSum) or not isinstance(f, AtomSum):
            raise TypeError("c and f must be atom sums")
        d = c.dimension
        if f.dimension != d:
            raise ValueError("c and f have different dimensions")

        rows = tuple(tuple(row) for row in a_entries)
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ValueError(f"A must be {d}x{d} to match the coefficients")
        for i in range(d):
            for j in range(d):
                entry = rows[i][j]
                if not isinstance(entry, AtomSum):
                    raise TypeError("A entries must be atom sums")
                if entry.dimension != d:
                    raise ValueError(f"A[{i}][{j}] has dimension {entry.dimension}, not {d}")
                if j < i and rows[i][j] != rows[j][i]:
                    raise ValueError(f"A[{i}][{j}] != A[{j}][{i}]: A must be symmetric")

        self.lam_min, self.lam_max = spectral_bounds(lam_min, lam_max)
        self.a_entries = rows
        self.c = c
        self.f = f
        self.dimension = d

        flat = [rows[i][j] for i in range(d) for j in range(d)]
        entry = np.repeat(np.arange(d * d), [s.atom_count for s in flat])
        freqs = np.concatenate([s.frequencies for s in flat])
        amps = np.concatenate([s.amplitudes for s in flat])
        osc = freqs.any(axis=1)
        self.a_atoms = CoefficientAtoms(
            np.bincount(entry[~osc], amps[~osc], d * d).reshape(d, d), amps[osc], freqs[osc],
            np.concatenate([s.phases for s in flat])[osc], entry[osc] // d, entry[osc] % d)
        self.ell_A = max(s.tracked_norm for s in flat)
        self.R_A = max(s.support_radius for s in flat)
        self.ell_c = c.tracked_norm
        self.R_c = c.support_radius
        self.ell_f = f.tracked_norm
        self.R_f = f.support_radius
        # one application of the operator can shift a frequency by at most this
        self.coeff_radius = max(self.R_A, self.R_c, self.R_f)
        self.coeff_radius_sq = max(s.support_radius_sq for s in flat + [c, f])

    def initial_error_bound(self):
        """H1 distance from u0=0 to the solution: at most |f|_{H^-1} / lam_min."""
        return h_minus1_norm_torus(self.f) / self.lam_min

    def __repr__(self):
        return (
            f"EllipticProblem(d={self.dimension}, lam=({self.lam_min}, {self.lam_max}),"
            f" ell=({self.ell_A}, {self.ell_c}, {self.ell_f}))"
        )


def diagonal_cosine_family(dimension):
    """A = I + (1/2) diag(cos x_i), c = 1, f = (1/d) sum_i cos x_i.

    The coefficient eigenvalues 1 + cos(x_i)/2 and c stay inside
    [1/2, 3/2] for every dimension, so the spectral bounds are
    dimension independent while the data spreads over all axes.
    """
    d = check_dimension(dimension)

    def axis_freq(i):
        return tuple(1.0 if j == i else 0.0 for j in range(d))

    diag = []
    for i in range(d):
        diag.append(
            AtomSum.from_atoms(
                [(1.0, (0.0,) * d, 0.0), (0.5, axis_freq(i), 0.0)], dimension=d
            )
        )
    c = constant_sum(d, 1.0)
    f = AtomSum.from_atoms(
        [(1.0 / d, axis_freq(i), 0.0) for i in range(d)], dimension=d
    )
    return EllipticProblem(diagonal_coefficients(diag), c, f, 0.5, 1.5)
