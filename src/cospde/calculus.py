"""Closed-form calculus on cosine atom sums.

Everything here is exact atom algebra: products split each cosine pair into
sum and difference frequencies, derivatives are quarter-period phase shifts
with frequency-component amplitude factors, and the (I - Laplacian)^-1
preconditioner acts atom-wise through the 1/(1 + |w|^2) multiplier.  The
second-order operator in divergence form,

    L u = -sum_i d/dx_i (sum_j A_ij du/dx_j) + c u,

is one stencil: a coefficient atom of A_ij and a solution atom map to the
two atoms at the sum and difference of their frequencies, with the
derivatives folded into the amplitude (`apply_elliptic`).  It therefore
never leaves the atom representation.
"""

from __future__ import annotations

import math

import numpy as np

from .atoms import TWO_PI, AtomSum, _leading_sign, scale

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


def _stencil_terms(table, u: AtomSum):
    """The unmerged terms of -sum_ij d_i (A_ij d_j u).

    A pair (a cos(w.x + beta) of A_ij, a_u cos(v.x + b)) gives
    -d_i [a cos(w.x + beta) * a_u v_j cos(v.x + b + pi/2)], the two terms
    (a a_u / 2) k'_i v_j cos(k'.x + b +- beta) at k' = v +- w; pairs with
    v_j = 0 give nothing and are skipped.  A zero-frequency coefficient
    atom (phase 0 once canonical) sends both images to v, so the constant
    parts A0 of all entries give one term per solution atom,
    a_u (v . A0 v) cos(v.x + b).
    """
    v = u.frequencies
    m, e = np.nonzero(v[:, table.j])
    half = 0.5 * table.amplitudes[e] * u.amplitudes[m] * v[m, table.j[e]]
    plus, minus = v[m] + table.frequencies[e], v[m] - table.frequencies[e]
    pair, i = np.arange(len(m)), table.i[e]
    amps = np.concatenate([u.amplitudes * np.einsum("nd,de,ne->n", v, table.constant, v),
                           half * plus[pair, i], half * minus[pair, i]])
    freqs = np.concatenate([v, plus, minus])
    phases = np.concatenate([u.phases, u.phases[m] + table.phases[e], u.phases[m] - table.phases[e]])
    return amps, freqs, phases


def apply_elliptic(p, u: AtomSum, rhs: AtomSum | None = None) -> AtomSum:
    """L u - rhs, for L u = -sum_i d_i (sum_j A_ij d_j u) + c u.

    `p` is an EllipticProblem, whose constructor has already checked that
    A is a symmetric d x d matrix of atom sums in the dimension of c and f,
    and has laid out A's atoms once (`p.a_atoms`).  The A part is a stencil
    over (coefficient atom, solution atom) pairs (`_stencil_terms`); c u is
    one `product`.  The terms of c u, of the stencil and of -rhs go through
    one canonicalization, so with a constant c a nonzero u costs one merge
    and an oscillating c two.  u = 0 gives exactly -rhs (or zero), with no
    merge.

    The tracked-norm ledger stays sound.  A coefficient atom a cos(w.x + beta)
    of A_ij and a solution atom a_u cos(v.x + b) put mass |a a_u / 2| |k'_i v_j|
    at each output frequency k' = v +- w, as in the divergence form; the
    constant parts put |a_u| |v . A0 v| <= sum_ij |A0_ij a_u| |v_i v_j| at v,
    no more than their pairs.  The product-rule form
    d_i A_ij d_j u + A_ij d_ij u puts |a a_u / 2| (|w_i| + |v_i|) |v_j| at k',
    no less, since |k'_i| <= |w_i| + |v_i|.  The -rhs terms carry |f|'s mass
    as before.  Merging only shrinks mass, and the preconditioner scales both
    forms by the same 1 / (1 + |k'|^2), so `solver.cosine_ledger_bound`,
    proved for the product-rule form, bounds every step.
    """
    d = p.dimension
    if u.dimension != d or (rhs is not None and rhs.dimension != d):
        raise ValueError("dimension mismatch")
    cu = product(p.c, u)
    if u.is_zero:
        return cu if rhs is None else scale(rhs, -1.0)
    terms = [_stencil_terms(p.a_atoms, u), (cu.amplitudes, cu.frequencies, cu.phases)]
    if rhs is not None:
        terms.append((-rhs.amplitudes, rhs.frequencies, rhs.phases))
    amps, freqs, phases = (np.concatenate(parts) for parts in zip(*terms))
    return AtomSum(d, True, amps, freqs, phases)


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

