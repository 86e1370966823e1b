"""Closed-form calculus on cosine atom sums.

Everything here is exact atom algebra: products split each cosine pair into
sum and difference frequencies, derivatives are quarter-period phase shifts
with frequency-component amplitude factors, and the (I - Laplacian)^-1
preconditioner acts atom-wise through the 1/(1 + |w|^2) multiplier.  The
expanded second-order operator

    L u = -sum_ij (dA_ij/dx_i * du/dx_j + A_ij * d2u/dx_i dx_j) + c u

therefore never leaves the atom representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import TWO_PI, AtomSum, scale, sum_many

HALF_PI = math.pi / 2


def product(s1: AtomSum, s2: AtomSum) -> AtomSum:
    """Pointwise product via the pair rule

    a1 cos(y1) * a2 cos(y2) = (a1 a2 / 2) [cos(y1 + y2) + cos(y1 - y2)],

    expanded over all atom pairs and canonicalized.  The pre-merge expansion
    carries mass exactly tracked_norm(s1) * tracked_norm(s2); merging can only
    shrink it, so tracked norms are submultiplicative.
    """
    d = s1.dimension
    if s2.dimension != d:
        raise ValueError("dimension mismatch")
    if s1.is_zero or s2.is_zero:
        return AtomSum.zero(d)
    half = 0.5 * np.multiply.outer(s1.amplitudes, s2.amplitudes).ravel()
    w_plus = (s1.frequencies[:, None, :] + s2.frequencies[None, :, :]).reshape(-1, d)
    w_minus = (s1.frequencies[:, None, :] - s2.frequencies[None, :, :]).reshape(-1, d)
    b_plus = (s1.phases[:, None] + s2.phases[None, :]).ravel()
    b_minus = (s1.phases[:, None] - s2.phases[None, :]).ravel()
    return AtomSum(
        d,
        True,
        np.concatenate([half, half]),
        np.concatenate([w_plus, w_minus]),
        np.concatenate([b_plus, b_minus]),
    )


def partial_derivative(s: AtomSum, axis: int) -> AtomSum:
    """d/dx_axis: (a, w, b) -> (a * w_axis, w, b + pi/2).  Axis is 0-based."""
    if not 0 <= axis < s.dimension:
        raise ValueError(f"axis {axis} out of range for dimension {s.dimension}")
    if s.is_zero:
        return s
    return s._rephased(s.amplitudes * s.frequencies[:, axis], HALF_PI)


def second_derivative(s: AtomSum, axis_i: int, axis_j: int) -> AtomSum:
    """d2/dx_i dx_j: (a, w, b) -> (a * w_i * w_j, w, b + pi)."""
    for ax in (axis_i, axis_j):
        if not 0 <= ax < s.dimension:
            raise ValueError(f"axis {ax} out of range for dimension {s.dimension}")
    if s.is_zero:
        return s
    return s._rephased(s.amplitudes * s.frequencies[:, axis_i] * s.frequencies[:, axis_j], math.pi)


def precondition(s: AtomSum) -> AtomSum:
    """(I - Laplacian)^-1, atom-wise: (a, w, b) -> (a / (1 + |w|^2), w, b)."""
    if s.is_zero:
        return s
    wsq = np.einsum("ij,ij->i", s.frequencies, s.frequencies)
    return AtomSum._trusted(s.dimension, s.amplitudes / (1.0 + wsq), s.frequencies, s.phases)


def apply_elliptic(p, u: AtomSum) -> AtomSum:
    """Apply L u = -sum_ij (d_i A_ij * d_j u + A_ij * d_ij u) + c u.

    `p` is an EllipticProblem, whose constructor has already checked that
    A is a symmetric d x d matrix of atom sums in the dimension of c and f.
    Returns L u itself (no right-hand side subtracted).  All terms stay in
    the atom algebra; empty coefficient entries are skipped.
    """
    d = p.dimension
    if u.dimension != d:
        raise ValueError("dimension mismatch")
    terms = [product(p.c, u)]
    if not u.is_zero:
        du = [partial_derivative(u, j) for j in range(d)]
        for i in range(d):
            for j in range(d):
                a_ij = p.a_entries[i][j]
                if a_ij.is_zero:
                    continue
                da = partial_derivative(a_ij, i)
                if not (da.is_zero or du[j].is_zero):
                    terms.append(scale(product(da, du[j]), -1.0))
                d2u = second_derivative(u, i, j)
                if not d2u.is_zero:
                    terms.append(scale(product(a_ij, d2u), -1.0))
    return sum_many(terms)


@dataclass(frozen=True)
class RebalancedMeasure:
    """Sampling form of an atom sum: frequency/phase pairs with probabilities
    |a_i| / l and signs sign(a_i), where l is the tracked norm.  Drawing
    (w, b, sign) from this measure and emitting sign * l * cos(<w,x> + b)
    reproduces the sum in expectation."""

    dimension: int
    total_mass: float
    probabilities: np.ndarray
    signs: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray


def rebalance(s: AtomSum) -> RebalancedMeasure:
    """Rebalanced atom measure of a nonzero sum."""
    if s.is_zero or s.tracked_norm == 0.0:
        raise ValueError("cannot rebalance a zero atom sum")
    absamp = np.abs(s.amplitudes)
    return RebalancedMeasure(
        dimension=s.dimension,
        total_mass=s.tracked_norm,
        probabilities=absamp / s.tracked_norm,
        signs=np.sign(s.amplitudes),
        frequencies=s.frequencies,
        phases=s.phases,
    )


def from_fourier_data(coefficients, dimension: int) -> AtomSum:
    """Build an atom sum from complex Fourier coefficients.

    `coefficients` holds (k, c) pairs with one representative per conjugate
    frequency pair: k != 0 maps to the atom (2|c|, k, arg c) since
    c e^{i<k,x>} + conj(c) e^{-i<k,x>} = 2|c| cos(<k,x> + arg c); k = 0 maps
    to (Re c, 0, 0).  Duplicate representatives (after the sign flip that
    identifies k with -k) are rejected.
    """
    triples = []
    seen = set()
    for k, cval in coefficients:
        kv = np.atleast_1d(np.asarray(k, dtype=np.float64))
        if kv.shape != (dimension,):
            raise ValueError(f"frequency {k!r} does not have dimension {dimension}")
        nz = np.nonzero(kv)[0]
        key = tuple(-kv) if len(nz) and kv[nz[0]] < 0 else tuple(kv)
        if key in seen:
            raise ValueError(f"duplicate conjugate-pair representative for frequency {key}")
        seen.add(key)
        cval = complex(cval)
        if len(nz) == 0:
            triples.append((cval.real, tuple(kv), 0.0))
        else:
            triples.append((2.0 * abs(cval), tuple(kv), math.atan2(cval.imag, cval.real) % TWO_PI))
    if not triples:
        return AtomSum.zero(dimension)
    return AtomSum.from_atoms(triples, dimension=dimension)


def general_norm_bound(
    norm_t: float,
    radius_t: float,
    *,
    alpha: float,
    d: int,
    ell_m: float,
    ell_d1: float,
    ell_d2: float,
    ell_A: float,
    ell_c: float,
    ell_f: float,
    R_m: float,
    R_d1: float,
    R_d2: float,
    R_A: float,
    R_c: float,
    R_f: float,
) -> tuple[float, float]:
    """One step of the general activation norm/radius recursion.

    For an activation with product constants (ell_m, R_m), derivative
    constants (ell_d1, R_d1) and (ell_d2, R_d2), coefficient masses ell_A,
    ell_c, ell_f and radii R_A, R_c, R_f, a step of size alpha admits

        norm_{t+1} <= (alpha ell_m ell_A (ell_d1^2 R_A R_t + ell_d2 R_t^2) d^2
                       + alpha ell_m ell_c + 1) norm_t + alpha ell_f

    for any radius

        R_{t+1} >= max{R_m R_d1 (R_t + R_A), R_m (R_d2 R_t + R_A),
                       R_m (R_t + R_c), R_t, R_f}.

    This is a pure formula evaluator for worst-case growth budgeting; cosine
    solves use the tighter cosine-specific ledger bound instead.
    """
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    if not (isinstance(d, int) and d >= 1):
        raise ValueError("d must be a positive integer")
    for name, val in (("ell_m", ell_m), ("ell_d1", ell_d1), ("ell_d2", ell_d2),
                      ("ell_A", ell_A), ("ell_c", ell_c), ("ell_f", ell_f),
                      ("R_m", R_m), ("R_d1", R_d1), ("R_d2", R_d2)):
        if not val > 0.0:
            raise ValueError(f"constant {name} must be positive")
    for name, val in (("R_A", R_A), ("R_c", R_c), ("R_f", R_f),
                      ("norm_t", norm_t), ("radius_t", radius_t)):
        if not val >= 0.0:
            raise ValueError(f"{name} must be nonnegative")
    norm_next = (
        alpha * ell_m * ell_A * (ell_d1**2 * R_A * radius_t + ell_d2 * radius_t**2) * d**2
        + alpha * ell_m * ell_c
        + 1.0
    ) * norm_t + alpha * ell_f
    radius_next = max(
        R_m * R_d1 * (radius_t + R_A),
        R_m * (R_d2 * radius_t + R_A),
        R_m * (radius_t + R_c),
        radius_t,
        R_f,
    )
    return norm_next, radius_next
