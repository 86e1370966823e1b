"""Shared test oracles (independent scalar recomputations, no library shortcuts),
problems and fault injectors."""

import math

import numpy as np

from cospde.atoms import AtomSum


def scalar_eval(s: AtomSum, x) -> float:
    """Reference pointwise evaluation with plain math calls, atom by atom."""
    terms = []
    for atom in s.atoms:
        theta = math.fsum(w * xi for w, xi in zip(atom.frequency, x)) + atom.phase
        terms.append(atom.amplitude * math.cos(theta))
    return math.fsum(terms)


def bitwise_equal(s1: AtomSum, s2: AtomSum) -> bool:
    """Same amplitudes, frequencies and phases, bit for bit."""
    return all(x.tobytes() == y.tobytes() for x, y in (
        (s1.amplitudes, s2.amplitudes), (s1.frequencies, s2.frequencies), (s1.phases, s2.phases)))


def torus_grid(d: int, n: int) -> np.ndarray:
    """Uniform periodic grid on [0, 2*pi)^d, flattened to (n**d, d)."""
    axis = np.arange(n) * (2.0 * math.pi / n)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def h1_norm_quadrature(s: AtomSum, n: int | None = None) -> float:
    """H1 norm via trapezoidal quadrature of |u|^2 + |grad u|^2 on the torus.

    The periodic trapezoid rule is the plain grid mean; with n >= 4*maxfreq+1
    points per axis it integrates the degree-2 products exactly.  Values and
    gradients come from per-atom analytic formulas written out here, not from
    the library's derivative or norm operations.
    """
    d = s.dimension
    maxfreq = 0
    for atom in s.atoms:
        maxfreq = max(maxfreq, int(max(abs(f) for f in atom.frequency)))
    if n is None:
        n = 4 * maxfreq + 1
    pts = torus_grid(d, n)
    vals = np.zeros(len(pts))
    grads = np.zeros((len(pts), d))
    for atom in s.atoms:
        w = np.asarray(atom.frequency)
        theta = pts @ w + atom.phase
        vals += atom.amplitude * np.cos(theta)
        grads += (-atom.amplitude * np.sin(theta))[:, None] * w[None, :]
    integrand = vals**2 + (grads**2).sum(axis=1)
    return math.sqrt(float(integrand.mean()))


def random_sum(rng: np.random.Generator, d: int, n_atoms: int, max_freq: int = 3) -> AtomSum:
    """Random sum with integer frequencies and generic phases."""
    freqs = rng.integers(-max_freq, max_freq + 1, size=(n_atoms, d)).astype(float)
    amps = rng.uniform(-1.0, 1.0, size=n_atoms)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_atoms)
    return AtomSum(d, True, amps, freqs, phases)


def d1_benchmark():
    """A = 2 + cos x, c = 1, f = cos x; spectrum in [1, 3]."""
    from cospde.problem import EllipticProblem, constant_sum

    a = AtomSum.from_atoms([(2.0, (0.0,), 0.0), (1.0, (1.0,), 0.0)])
    c = constant_sum(1, 1.0)
    f = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
    return EllipticProblem(((a,),), c, f, 1.0, 3.0)


def d2_benchmark():
    """A = diag(2 + cos x1, 2 + cos x2), c = 1 + cos(x1+x2)/2, f = cos x1 + cos x2."""
    from cospde.problem import EllipticProblem, diagonal_coefficients

    a1 = AtomSum.from_atoms([(2.0, (0.0, 0.0), 0.0), (1.0, (1.0, 0.0), 0.0)])
    a2 = AtomSum.from_atoms([(2.0, (0.0, 0.0), 0.0), (1.0, (0.0, 1.0), 0.0)])
    c = AtomSum.from_atoms([(1.0, (0.0, 0.0), 0.0), (0.5, (1.0, 1.0), 0.0)])
    f = AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0), (1.0, (0.0, 1.0), 0.0)])
    return EllipticProblem(diagonal_coefficients([a1, a2]), c, f, 0.5, 3.0)


def identity_problem(d=2):
    """A = I, c = 1, f = cos x1; the operator is exactly I - Laplacian."""
    from cospde.problem import EllipticProblem, constant_sum, identity_coefficients

    f = AtomSum.from_atoms(
        [(1.0, tuple(1.0 if i == 0 else 0.0 for i in range(d)), 0.0)], dimension=d
    )
    return EllipticProblem(
        identity_coefficients(d), constant_sum(d, 1.0), f, 1.0, 1.0
    )


def collinear_problem():
    """A = 2I, c = 2 + cos(x1 + x2 + x3)/4, f = cos(x1 + x2 + x3): iterates
    grow along (1, 1, 1), where sqrt(75) rounds above sqrt(48) + sqrt(3)."""
    from cospde.problem import EllipticProblem, constant_sum, diagonal_coefficients

    d = 3
    c = AtomSum.from_atoms([(2.0, (0.0,) * d, 0.0), (0.25, (1.0,) * d, 0.0)])
    f = AtomSum.from_atoms([(1.0, (1.0,) * d, 0.0)])
    return EllipticProblem(diagonal_coefficients([constant_sum(d, 2.0)] * d), c, f, 1.75, 2.25)


def inflating_merge(merge):
    """_merge with its first output amplitude scaled by 1e3: a corrupt merge."""
    def inflated(rows, amps, phases):
        rows, merged, merged_phases = merge(rows, amps, phases)
        merged = merged.copy()
        merged[:1] *= 1e3
        return rows, merged, merged_phases
    return inflated
