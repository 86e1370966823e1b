"""Closed-form calculus on cosine atom sums.

Everything here is exact atom algebra: products split each cosine pair into
sum and difference frequencies, derivatives are quarter-period phase shifts
with frequency-component amplitude factors, and the (I - Laplacian)^-1
preconditioner acts atom-wise through the 1/(1 + |w|^2) multiplier.  The
second-order operator, applied in divergence form,

    L u = -sum_i d/dx_i (sum_j A_ij du/dx_j) + c u,

therefore never leaves the atom representation.
"""

from __future__ import annotations

import math

import numpy as np

from .atoms import TWO_PI, AtomSum, _leading_sign, scale, sum_many

HALF_PI = math.pi / 2


def product(s1: AtomSum, s2: AtomSum) -> AtomSum:
    """Pointwise product via the pair rule

    a1 cos(y1) * a2 cos(y2) = (a1 a2 / 2) [cos(y1 + y2) + cos(y1 - y2)],

    expanded over all atom pairs and canonicalized.  The pre-merge expansion
    carries mass exactly tracked_norm(s1) * tracked_norm(s2); merging can only
    shrink it, so tracked norms are submultiplicative.

    When either factor is a pure constant c0 (a single zero-frequency atom),
    the product is atom-wise, (a, w, b) -> (c0 a, w, b), with no merge: the
    pair rule's two terms (c0 a/2, w, b) and (c0 a/2, -w, -b) are one atom
    and would merge to exactly c0 a (up to rounding when c0 a is subnormal).
    """
    d = s1.dimension
    if s2.dimension != d:
        raise ValueError("dimension mismatch")
    if s1.is_zero or s2.is_zero:
        return AtomSum.zero(d)
    for c, s in ((s1, s2), (s2, s1)):
        if c.atom_count == 1 and not c.frequencies.any():
            return s._rephased(s.amplitudes * c.amplitudes[0], 0.0)
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


def precondition(s: AtomSum) -> AtomSum:
    """(I - Laplacian)^-1, atom-wise: (a, w, b) -> (a / (1 + |w|^2), w, b).
    An amplitude that underflows to 0 is dropped."""
    if s.is_zero:
        return s
    wsq = np.einsum("ij,ij->i", s.frequencies, s.frequencies)
    return s._rephased(s.amplitudes / (1.0 + wsq), 0.0)


def apply_elliptic(p, u: AtomSum) -> AtomSum:
    """Apply L u = -sum_i d_i (sum_j A_ij d_j u) + c u, in divergence form.

    `p` is an EllipticProblem, whose constructor has already checked that
    A is a symmetric d x d matrix of atom sums in the dimension of c and f.
    Returns L u itself (no right-hand side subtracted).  Each axis i takes
    one product A_ij * d_j u per nonzero entry, one merge of those products
    into the flux, and one derivative of the flux; no coefficient is ever
    differentiated.

    The tracked-norm ledger stays sound.  A coefficient atom a cos(w.x + beta)
    of A_ij and a solution atom a_u cos(v.x + b) put mass |a a_u / 2| |k'_i v_j|
    at each output frequency k' = v +- w (the flux merge before d_i can only
    shrink it).  The product-rule form d_i A_ij d_j u + A_ij d_ij u puts
    |a a_u / 2| (|w_i| + |v_i|) |v_j| there, no less, since
    |k'_i| <= |w_i| + |v_i|.  Merging only shrinks mass, and the
    preconditioner scales both forms by the same 1 / (1 + |k'|^2), so
    `solver.cosine_ledger_bound`, proved for the product-rule form, bounds
    every step.
    """
    d = p.dimension
    if u.dimension != d:
        raise ValueError("dimension mismatch")
    terms = [product(p.c, u)]
    if not u.is_zero:
        du = [partial_derivative(u, j) for j in range(d)]
        for i, row in enumerate(p.a_entries):
            flux = [product(a_ij, du[j]) for j, a_ij in enumerate(row) if not a_ij.is_zero]
            if flux:
                terms.append(scale(partial_derivative(sum_many(flux), i), -1.0))
    return sum_many(terms)


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
        sign = _leading_sign(kv[None, :])[0]
        key = tuple(kv * sign)
        if key in seen:
            raise ValueError(f"duplicate conjugate-pair representative for frequency {key}")
        seen.add(key)
        cval = complex(cval)
        if sign == 0:
            triples.append((cval.real, tuple(kv), 0.0))
        else:
            triples.append((2.0 * abs(cval), tuple(kv), math.atan2(cval.imag, cval.real) % TWO_PI))
    if not triples:
        return AtomSum.zero(dimension)
    return AtomSum.from_atoms(triples, dimension=dimension)

