"""Container for the elliptic operator data -div(A grad u) + c u = f.

A problem bundles the coefficient matrix A (a d x d symmetric array of
cosine sums), the zeroth-order coefficient c, the right-hand side f, and
user-supplied spectral bounds lambda_min/lambda_max for the operator.
The derived amplitude budgets (ell_A, ell_c, ell_f) and frequency radii
(R_A, R_c, R_f) feed the growth ledger; ell_A and R_A are maxima over
the matrix entries.
"""

import math

from .atoms import AtomSum, h_minus1_norm_torus


def constant_sum(dimension, value, torus_mode=True):
    """The constant function `value` as a single zero-frequency atom."""
    if value == 0.0:
        return AtomSum.zero(dimension, torus_mode)
    return AtomSum.from_atoms(
        [(float(value), (0.0,) * dimension, 0.0)],
        dimension=dimension,
        torus_mode=torus_mode,
    )


def identity_coefficients(dimension, torus_mode=True):
    """The identity matrix: constant 1 on the diagonal, 0 elsewhere."""
    one = constant_sum(dimension, 1.0, torus_mode)
    zero = AtomSum.zero(dimension, torus_mode)
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
    zero = AtomSum.zero(entries[0].dimension, entries[0].torus_mode)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(d)) for i in range(d)
    )


class EllipticProblem:
    """Validated problem data plus the derived ledger constants."""

    def __init__(self, a_entries, c, f, lam_min, lam_max):
        if not isinstance(c, AtomSum) or not isinstance(f, AtomSum):
            raise TypeError("c and f must be atom sums")
        d = c.dimension
        if f.dimension != d or f.torus_mode != c.torus_mode:
            raise ValueError("c and f live in different spaces")

        rows = tuple(tuple(row) for row in a_entries)
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ValueError(f"A must be {d}x{d} to match the coefficients")
        for i in range(d):
            for j in range(d):
                entry = rows[i][j]
                if not isinstance(entry, AtomSum):
                    raise TypeError("A entries must be atom sums")
                if entry.dimension != d or entry.torus_mode != c.torus_mode:
                    raise ValueError(f"A[{i}][{j}] lives in a different space")
                if j < i and rows[i][j] != rows[j][i]:
                    raise ValueError(f"A[{i}][{j}] != A[{j}][{i}]: A must be symmetric")

        lam_min = float(lam_min)
        lam_max = float(lam_max)
        if not (math.isfinite(lam_min) and math.isfinite(lam_max)):
            raise ValueError("spectral bounds must be finite")
        if not 0.0 < lam_min <= lam_max:
            raise ValueError(f"need 0 < lam_min <= lam_max, got ({lam_min}, {lam_max})")

        self.a_entries = rows
        self.c = c
        self.f = f
        self.lam_min = lam_min
        self.lam_max = lam_max
        self.dimension = d
        self.torus_mode = c.torus_mode

        flat = [rows[i][j] for i in range(d) for j in range(d)]
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
        if not self.torus_mode:
            raise ValueError("exact H^-1 norm needs torus mode")
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
    d = int(dimension)
    if d < 1:
        raise ValueError("dimension must be positive")

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
