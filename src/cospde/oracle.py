"""Independent ground truth for the iteration.

Four unrelated checks live here: a spectral Galerkin reference solver on
the torus (exact assembly, independent linear solve), an FFT multiplier
check of the preconditioner, a quadrature check of the 1D screened
Poisson kernel, and a sampling probe that validates the user's
ellipticity bounds.
"""

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .atoms import AtomSum, add, evaluate, scale
from .calculus import apply_elliptic, precondition

TWO_PI = 2.0 * math.pi

# relative residual at which the Galerkin CG solve stops; far below every
# H1 tolerance the reference is compared against
CG_RTOL = 1e-13

GRID_DIMENSION_CAP = 3

PROBE_SEED = 15485863


class ProbeFailureError(RuntimeError):
    """The coefficients fail ellipticity or contradict the user's bounds."""


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


def _integer_frequencies(s):
    return np.rint(s.frequencies).astype(np.int64)


def _group_rows(keys):
    """Distinct rows of an integer array in lexicographic order, and the
    position of each input row among them."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.concatenate(([True], np.any(ordered[1:] != ordered[:-1], axis=1)))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _h1_squares(keys, cos_sin):
    """Per-frequency squared H1 contributions mu_k (C^2 + S^2) (1 + |k|^2)."""
    ksq = np.einsum("ij,ij->i", keys, keys).astype(np.float64)
    weight = np.where(ksq == 0.0, 1.0, 0.5)
    return weight * (cos_sin[:, 0] ** 2 + cos_sin[:, 1] ** 2) * (1.0 + ksq)


class SpectralField:
    """Truncated Fourier series: cosine/sine amplitude per half-space frequency.

    Frequencies are integer vectors in canonical form (first nonzero
    component positive); `truncation` caps the max-norm of every stored
    frequency.  `keys` and `coeffs` hold the entries of `table` as arrays,
    built once at construction.  `residual` and `cg_iterations` are attached
    by galerkin_solve.
    """

    __slots__ = ("dimension", "truncation", "table", "keys", "coeffs", "residual",
                 "cg_iterations")

    def __init__(self, dimension, truncation, table, residual=None):
        self.dimension = int(dimension)
        self.truncation = int(truncation)
        self.table = dict(table)
        self.residual = residual
        self.cg_iterations = None
        for key in self.table:
            if len(key) != self.dimension:
                raise ValueError(f"frequency {key} has wrong dimension")
        self.keys = np.array(list(self.table), dtype=np.int64).reshape(-1, self.dimension)
        self.coeffs = np.array(list(self.table.values()), dtype=np.float64).reshape(-1, 2)
        if self.keys.size and np.max(np.abs(self.keys)) > self.truncation:
            worst = tuple(self.keys[np.argmax(np.max(np.abs(self.keys), axis=1))].tolist())
            raise ValueError(f"frequency {worst} outside truncation {truncation}")

    @classmethod
    def from_atom_sum(cls, s, truncation):
        keys = _integer_frequencies(s)
        cv, sv = _cos_sin(s.amplitudes, s.phases)
        table = zip(map(tuple, keys.tolist()), zip(cv.tolist(), sv.tolist()))
        return cls(s.dimension, truncation, table)

    def to_atom_sum(self):
        cv, sv = self.coeffs[:, 0], self.coeffs[:, 1]
        constant = ~np.any(self.keys != 0, axis=1)
        amps = np.where(constant, cv, np.hypot(cv, sv))
        phases = np.where(constant, 0.0, np.mod(np.arctan2(-sv, cv), TWO_PI))
        return AtomSum(self.dimension, True, amps, self.keys.astype(np.float64), phases)

    def h1_norm(self):
        return math.sqrt(math.fsum(_h1_squares(self.keys, self.coeffs)))


def default_truncation(p, steps):
    """Smallest per-axis cutoff containing every frequency T steps can reach."""
    return int(math.ceil(p.R_f + steps * max(p.R_A, p.R_c))) + 2


def _fourier_coefficients(s):
    """Complex coefficients g(m) of s = sum_m g(m) e^{i m.x}, as (m, g(m)) terms.

    a cos(w.x + b) = (a/2) e^{ib} e^{i w.x} + (a/2) e^{-ib} e^{-i w.x}; both
    halves of a constant atom land on m = 0 and add back to a.  Terms are
    not merged: the sum at equal m is left to the caller's scatter.
    """
    keys = _integer_frequencies(s)
    cv, sv = _cos_sin(0.5 * s.amplitudes, s.phases)
    half = cv - 1j * sv
    return np.concatenate([keys, -keys]), np.concatenate([half, np.conj(half)])


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
        unique, inverse = _group_rows(np.concatenate(shifts))
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
    diagonal 1/(1 + |k|^2).  The returned field carries the number of CG
    iterations and the L2 residual of the truncated equation computed
    through the atom algebra (apply_elliptic), which checks the Fourier
    assembly independently.
    """
    truncation = int(truncation)
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if _max_abs_frequency(p.f) > truncation:
        raise ValueError(
            f"truncation {truncation} too small: f has frequencies outside the span"
        )

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
    nonzero = freqs != 0
    leading = freqs[np.arange(len(freqs)), np.argmax(nonzero, axis=1)]
    half = leading >= 0
    table = zip(map(tuple, freqs[half].tolist()),
                zip(cos_part[half].tolist(), sin_part[half].tolist()))

    field = SpectralField(p.dimension, truncation, table)
    field.cg_iterations = iterations
    field.residual = _truncated_l2_residual(p, field)
    return field


def _truncated_l2_residual(p, field):
    image = apply_elliptic(p, field.to_atom_sum())
    diff = add(image, scale(p.f, -1.0))
    keys = _integer_frequencies(diff)
    inside = np.max(np.abs(keys), axis=1, initial=0) <= field.truncation
    a = diff.amplitudes[inside]
    weight = np.where(np.any(keys[inside] != 0, axis=1), 0.5, 1.0)
    return math.sqrt(math.fsum(weight * a * a))


def h1_distance(u, ref):
    """Exact H1 norm of u minus the reference, coefficient by coefficient.

    Frequencies of u outside the reference truncation contribute their
    full weight to the difference.
    """
    if u.dimension != ref.dimension:
        raise ValueError("dimension mismatch")
    keys = np.concatenate([ref.keys, _integer_frequencies(u)])
    unique, inverse = _group_rows(keys)
    # both key sets are canonical, so each holds a frequency at most once
    diff = np.zeros((len(unique), 2))
    diff[inverse[: len(ref.keys)]] = -ref.coeffs
    cv, sv = _cos_sin(u.amplitudes, u.phases)
    at_u = inverse[len(ref.keys):]
    diff[at_u, 0] += cv
    diff[at_u, 1] += sv
    return math.sqrt(math.fsum(_h1_squares(unique, diff)))


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
    k_axis = np.rint(np.fft.fftfreq(n) * n)
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


def _extrema_at(p, pts):
    npts = len(pts)
    d = p.dimension
    mat = np.empty((npts, d, d))
    for i in range(d):
        for j in range(d):
            mat[:, i, j] = evaluate(p.a_entries[i][j], pts)
    eigenvalues = np.linalg.eigvalsh(mat)
    c_vals = evaluate(p.c, pts)
    return (
        float(np.min(eigenvalues)),
        float(np.max(eigenvalues)),
        float(np.min(c_vals)),
        float(np.max(c_vals)),
    )


def _merge_extrema(a, b):
    return (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))


def _stable(prev, cur, tol=0.01):
    return all(
        abs(c - q) <= tol * max(abs(q), 1e-12) for c, q in zip(cur, prev)
    )


def ellipticity_probe(p, refinement_limit=6):
    """Sampled extrema of the A(x) eigenvalues and of c(x), checked against the user bounds.

    Dense nested grids up to dimension 3, accumulated random samples
    above; either way the estimates only widen under refinement.
    Raises ProbeFailureError on detected non-ellipticity or when the
    sampled range escapes the user's [lam_min, lam_max].
    """
    limit = max(1, int(refinement_limit))

    if p.dimension <= GRID_DIMENSION_CAP:
        maxfreq = max(
            [_max_abs_frequency(p.c)]
            + [_max_abs_frequency(e) for row in p.a_entries for e in row]
        )
        n = max(3, 2 * maxfreq + 1)
        est = _extrema_at(p, _dense_grid(p.dimension, n))
        for _ in range(limit - 1):
            n *= 2
            refined = _extrema_at(p, _dense_grid(p.dimension, n))
            done = _stable(est, refined)
            est = refined  # doubled grid contains the previous one
            if done:
                break
    else:
        rng = np.random.default_rng(PROBE_SEED)
        batch = 4096
        est = _extrema_at(p, rng.uniform(0.0, TWO_PI, size=(batch, p.dimension)))
        for _ in range(limit - 1):
            batch *= 2
            more = _extrema_at(p, rng.uniform(0.0, TWO_PI, size=(batch, p.dimension)))
            refined = _merge_extrema(est, more)
            done = _stable(est, refined)
            est = refined
            if done:
                break

    a_min_est, a_max_est, c_min_est, c_max_est = est
    if a_min_est <= 0.0 or c_min_est <= 0.0:
        raise ProbeFailureError(
            f"non-elliptic coefficients: sampled a_min={a_min_est!r}, c_min={c_min_est!r}"
        )
    if p.lam_min > min(a_min_est, c_min_est):
        raise ProbeFailureError(
            f"lam_min={p.lam_min!r} exceeds sampled minimum "
            f"{min(a_min_est, c_min_est)!r}"
        )
    if p.lam_max < max(a_max_est, c_max_est):
        raise ProbeFailureError(
            f"lam_max={p.lam_max!r} below sampled maximum "
            f"{max(a_max_est, c_max_est)!r}"
        )
    return est
