"""Independent ground truth for the iteration.

Four unrelated checks live here: a spectral Galerkin reference solver on
the torus (exact assembly, independent linear solve), an FFT multiplier
check of the preconditioner, a quadrature check of the 1D screened
Poisson kernel, and a certificate that proves the user's ellipticity
bounds from the coefficients' atom masses (Gershgorin's theorem), with no
grid and no sampling.

The Galerkin reference is the package's only use of scipy (a CSR matrix
and its conjugate gradient solver).  `galerkin_system` and `galerkin_solve`
import it when they run, so importing the package, and every command that
never builds a reference, loads numpy alone.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .atoms import (AtomSum, InputError, _distinct_rows, _h1_terms, _leading_sign, evaluate,
                    l2_norm_torus)
from .calculus import apply_elliptic, precondition

TWO_PI = 2.0 * math.pi

# relative residual at which the Galerkin CG solve stops; far below every
# H1 tolerance the reference is compared against
CG_RTOL = 1e-13

# largest dimension of the FFT preconditioner check's dense grid
GRID_DIMENSION_CAP = 3


class ProbeFailureError(RuntimeError):
    """The certified coefficient range is not positive or does not fit the
    user's bounds."""


def _max_abs_frequency(s):
    if s.atom_count == 0:
        return 0
    return int(np.max(np.abs(s.frequencies)))


# cos/sin at quarter turns, kept exact: differentiation lands phases on
# these floats bitwise and the parity structure of even problems relies
# on the corresponding coefficients vanishing identically
_QUARTER_PHASES = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0])
_QUARTER_SIN = np.array([0.0, 1.0, 0.0, -1.0])


def _cos_sin(amplitudes, phases):
    """a cos(w.x + b) = (a cos b) cos(w.x) + (-a sin b) sin(w.x), per atom."""
    cos_b = np.cos(phases)
    sin_b = np.sin(phases)
    slot = np.minimum(np.searchsorted(_QUARTER_PHASES, phases), 3)
    exact = _QUARTER_PHASES[slot] == phases
    cos_b[exact] = _QUARTER_COS[slot[exact]]
    sin_b[exact] = _QUARTER_SIN[slot[exact]]
    return amplitudes * cos_b, -amplitudes * sin_b


@dataclass(frozen=True)
class GalerkinReference:
    """A Galerkin reference solution `u` with the number of CG iterations
    that produced it and the L2 residual of its truncated equation."""

    u: AtomSum
    cg_iterations: int
    residual: float


def default_truncation(p, steps):
    """Smallest per-axis cutoff containing every frequency T steps can reach."""
    return int(math.ceil(p.R_f + steps * max(p.R_A, p.R_c))) + 2


def check_truncation(p, truncation):
    """The reference box |k|_inf <= K as an int, checked nonempty and holding f."""
    truncation = int(truncation)
    smallest = max(1, _max_abs_frequency(p.f))
    if truncation < smallest:
        raise InputError(f"truncation {truncation} too small: --oracle-K must be at least "
                         f"{smallest} to hold f's frequencies")
    return truncation


def _fourier_coefficients(s):
    """Complex coefficients g(m) of s = sum_m g(m) e^{i m.x}, as (m, g(m)) terms.

    a cos(w.x + b) = (a/2) e^{ib} e^{i w.x} + (a/2) e^{-ib} e^{-i w.x}; both
    halves of a constant atom land on m = 0 and add back to a.  Terms are
    not merged: the sum at equal m is left to the caller's scatter.
    """
    cv, sv = _cos_sin(0.5 * s.amplitudes, s.phases)
    half = cv - 1j * sv
    return np.concatenate([s.frequencies, -s.frequencies]), np.concatenate([half, np.conj(half)])


def galerkin_system(p, truncation):
    """The weak form on the box |k|_inf <= K in the basis e^{i k.x}.

    Returns (frequencies, matrix, rhs): the box frequencies in lexicographic
    order, the Hermitian matrix M[k', k] = k'^T A(k' - k) k + c(k' - k) built
    from the coefficients' exact Fourier coefficients, and the coefficients
    f(k) of the right-hand side.  Row k' and column k pair through the shift
    m = k' - k, so each distinct coefficient frequency is scattered against
    every basis index at once.
    """
    d = p.dimension
    side = 2 * truncation + 1
    n = side**d
    freqs = np.indices((side,) * d).reshape(d, n).T - truncation
    strides = side ** np.arange(d - 1, -1, -1)

    # per shift m: c(m) in slot 0, A_ij(m) for i <= j in the slots after it
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    shifts, coeffs, slots = [], [], []
    for slot, s in enumerate([p.c] + [p.a_entries[i][j] for i, j in pairs]):
        if not s.is_zero:
            m, g = _fourier_coefficients(s)
            shifts.append(m)
            coeffs.append(g)
            slots.append(np.full(len(g), slot))
    rows, cols = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    vals = [np.zeros(0, np.complex128)]
    if shifts:
        unique, inverse = _distinct_rows(np.concatenate(shifts))
        table = np.zeros((len(unique), 1 + len(pairs)), dtype=np.complex128)
        np.add.at(table, (inverse, np.concatenate(slots)), np.concatenate(coeffs))
        for m, entry in zip(unique, table):
            inside = np.all(np.abs(freqs + m) <= truncation, axis=1)
            k = freqs[inside]
            kp = k + m
            val = np.full(len(k), entry[0])
            for slot, (i, j) in enumerate(pairs, start=1):
                if entry[slot] != 0.0:
                    # symmetric in (k', k) so that M is exactly Hermitian
                    w = kp[:, i] * k[:, i] if i == j else kp[:, i] * k[:, j] + kp[:, j] * k[:, i]
                    val = val + entry[slot] * w
            col = np.flatnonzero(inside)
            rows.append(col + int(m @ strides))
            cols.append(col)
            vals.append(val)
    import scipy.sparse

    matrix = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )

    rhs = np.zeros(n, dtype=np.complex128)
    if not p.f.is_zero:
        m, g = _fourier_coefficients(p.f)
        np.add.at(rhs, (m + truncation) @ strides, g)
    return freqs, matrix, rhs


def galerkin_solve(p, truncation):
    """Reference solution of the weak form over frequencies |k|_inf <= K.

    The system is assembled exactly from the Fourier coefficients of the
    atom data and solved by conjugate gradients preconditioned with the
    diagonal 1/(1 + |k|^2).  The returned reference holds the solution as
    an atom sum, the number of CG iterations, and the L2 residual of the
    truncated equation computed through the atom algebra (apply_elliptic),
    which checks the Fourier assembly independently.
    """
    truncation = check_truncation(p, truncation)

    import scipy.sparse
    import scipy.sparse.linalg

    freqs, matrix, rhs = galerkin_system(p, truncation)
    ksq = np.einsum("ij,ij->i", freqs, freqs)
    inverse_laplacian = scipy.sparse.diags(1.0 / (1.0 + ksq))
    iterations = 0

    def count_iteration(_):
        nonlocal iterations
        iterations += 1

    solution, info = scipy.sparse.linalg.cg(
        matrix, rhs, rtol=CG_RTOL, atol=0.0, M=inverse_laplacian, callback=count_iteration
    )
    if info != 0:
        raise RuntimeError(f"CG failed to converge (info={info})")
    if not np.all(np.isfinite(solution)):
        raise RuntimeError("singular Galerkin system despite verified ellipticity")

    # u = sum_k u(k) e^{ik.x} is real: pair k with -k, which sits at the
    # mirrored box index, and keep the half-space representative
    mirrored = solution[::-1]
    cos_part = (solution + mirrored).real
    sin_part = (mirrored - solution).imag
    centre = len(solution) // 2
    cos_part[centre] = solution[centre].real
    sin_part[centre] = 0.0
    half = _leading_sign(freqs) >= 0
    cv, sv = cos_part[half], sin_part[half]
    u = AtomSum(p.dimension, True, np.hypot(cv, sv), freqs[half], np.arctan2(-sv, cv))
    return GalerkinReference(u, iterations, _truncated_l2_residual(p, u, truncation))


def _truncated_l2_residual(p, u, truncation):
    """L2 norm of the part of L u - f inside the box |k|_inf <= truncation."""
    diff = apply_elliptic(p, u, p.f)
    inside = np.max(np.abs(diff.frequencies), axis=1, initial=0) <= truncation
    return l2_norm_torus(AtomSum._trusted(p.dimension, diff.amplitudes[inside],
                                          diff.frequencies[inside], diff.phases[inside]))


def h1_distance(u, v):
    """Exact H1 norm of u - v, coefficient by coefficient.

    Each canonical sum holds a frequency at most once, so the difference is
    taken on matched (cos, sin) coefficients without merging atoms (a merge
    joins phases within PHASE_TOL, which is not exact).  Frequencies held by
    only one of the sums contribute their full weight.
    """
    if u.dimension != v.dimension:
        raise ValueError("dimension mismatch")
    distinct, index = _distinct_rows(np.concatenate([v.frequencies, u.frequencies]))
    diff = np.zeros((len(distinct), 2))
    diff[index[: len(v)]] = -np.column_stack(_cos_sin(v.amplitudes, v.phases))
    diff[index[len(v):]] += np.column_stack(_cos_sin(u.amplitudes, u.phases))
    return math.sqrt(math.fsum(_h1_terms(distinct, diff[:, 0] ** 2 + diff[:, 1] ** 2)))


def _dense_grid(dimension, points_per_axis):
    axis = TWO_PI * np.arange(points_per_axis) / points_per_axis
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def fft_precondition_check(s, grid_points_per_axis):
    """Max grid discrepancy between the atomwise and FFT preconditioners."""
    d = s.dimension
    if d > GRID_DIMENSION_CAP:
        raise ValueError(f"grid check capped at dimension {GRID_DIMENSION_CAP}")
    n = int(grid_points_per_axis)
    needed = 2 * _max_abs_frequency(s) + 1
    if n < needed:
        raise ValueError(f"grid under-resolved: need at least {needed} points per axis")

    pts = _dense_grid(d, n)
    values = evaluate(s, pts).reshape((n,) * d)
    k_axis = (np.arange(n) + n // 2) % n - n // 2  # np.fft.fftfreq(n) * n, in integers
    k_mesh = np.meshgrid(*([k_axis] * d), indexing="ij")
    multiplier = 1.0 / (1.0 + sum(k * k for k in k_mesh))
    filtered = np.fft.ifftn(np.fft.fftn(values) * multiplier).real

    direct = evaluate(precondition(s), pts).reshape((n,) * d)
    return float(np.max(np.abs(filtered - direct)))


GREEN_NODES_PER_PANEL = 12


def green1d_check(w, quadrature_halfwidth=50.0, n_nodes=4096):
    """Quadrature check that the preconditioner kernel integrates cosines to 1/(1+w^2).

    Integrates (1/2) e^{-|y|} cos(w(0-y)) over [-H, H], folded to [0, H]
    by symmetry, with composite Gauss-Legendre panels.
    """
    w = float(w)
    halfwidth = float(quadrature_halfwidth)
    if halfwidth < 40.0:
        raise ValueError("halfwidth below 40 truncates the kernel visibly")
    panels = max(4, int(n_nodes) // GREEN_NODES_PER_PANEL)
    panel_width = halfwidth / panels
    if abs(w) * panel_width > 3.0:
        raise ValueError("quadrature under-resolved for this oscillation")

    nodes, weights = np.polynomial.legendre.leggauss(GREEN_NODES_PER_PANEL)
    edges = np.linspace(0.0, halfwidth, panels + 1)
    total = []
    for left, right in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        y = mid + half * nodes
        total.append(half * np.dot(weights, np.exp(-y) * np.cos(w * y)))
    integral = math.fsum(total)
    return abs(integral - 1.0 / (1.0 + w * w))


def _constant_and_mass(s):
    """(constant amplitude, oscillating l1 mass) of s, as exact fractions."""
    constant = ~s.frequencies.any(axis=1)
    return (sum(map(Fraction, s.amplitudes[constant].tolist())),
            sum(map(Fraction, np.abs(s.amplitudes[~constant]).tolist())))


def ellipticity_probe(p):
    """Proved ranges of the A(x) eigenvalues and of c(x), checked against the user bounds.

    A cosine sum k + sum_w a_w cos(w.x + b_w) stays within its oscillating
    mass o = sum_w |a_w| of its constant k, so c(x) lies in [k_c - o_c,
    k_c + o_c].  By Gershgorin's theorem every eigenvalue of A(x) lies in
    some disc k_ii +- (o_ii + sum_{j != i} m_ij), where m_ij is the l1 mass
    of A_ij, which bounds |A_ij(x)|; so the eigenvalues lie in
    [min_i(k_ii - o_ii - sum_j m_ij), max_i(k_ii + o_ii + sum_j m_ij)].
    The bounds are computed and compared in exact rational arithmetic from
    the atom amplitudes, in O(atoms), and are returned rounded outward as
    (a_min, a_max, c_min, c_max): each lower bound to the largest float at
    or below it, each upper bound to the smallest float at or above it, so
    a returned range passed back as the user's bounds is accepted.

    Raises ProbeFailureError when the ranges do not fit inside the user's
    [lam_min, lam_max]: either the coefficients violate the bound or the
    certificate, an upper bound on the true range, is too loose.
    """
    a_min, a_max = math.inf, -math.inf
    for i, row in enumerate(p.a_entries):
        split = [_constant_and_mass(e) for e in row]
        k, o = split[i]
        radius = o + sum(abs(kj) + oj for j, (kj, oj) in enumerate(split) if j != i)
        a_min, a_max = min(a_min, k - radius), max(a_max, k + radius)
    k_c, o_c = _constant_and_mass(p.c)
    c_min, c_max = k_c - o_c, k_c + o_c
    lower, upper = min(a_min, c_min), max(a_max, c_max)
    if lower <= 0:
        raise ProbeFailureError(
            f"non-elliptic coefficients or a loose certificate: the certified "
            f"lower bound {_float_down(lower)!r} is not positive"
        )
    if Fraction(p.lam_min) > lower:
        raise ProbeFailureError(
            f"lam_min={p.lam_min!r} exceeds the certified lower bound {_float_down(lower)!r}: "
            "either the coefficients violate it or the certificate is too loose"
        )
    if Fraction(p.lam_max) < upper:
        raise ProbeFailureError(
            f"lam_max={p.lam_max!r} below the certified upper bound {_float_up(upper)!r}: "
            "either the coefficients violate it or the certificate is too loose"
        )
    return _float_down(a_min), _float_up(a_max), _float_down(c_min), _float_up(c_max)


def _float_down(x):
    """The largest float at or below the fraction x."""
    f = float(x)
    return math.nextafter(f, -math.inf) if Fraction(f) > x else f


def _float_up(x):
    """The smallest float at or above the fraction x."""
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f
