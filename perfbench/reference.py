"""An independent spectral reference for checking solves, in plain numpy.

The checks must not trust the code they time, so nothing here calls into
`cospde`.  A trigonometric polynomial on the torus [0, 2*pi)^d is held as
its dense array of complex Fourier coefficients over the box of integer
frequencies [-K, K]^d; products with the coefficients go through an FFT grid
large enough that they are exact.  The operator is the one the package
solves,

    L u = -sum_ij d_i (A_ij d_j u) + c u,

and the norms are the torus norms under the normalized measure, so for
u = sum_k U_k exp(i <k, x>):  |u|_H1^2 = sum_k |U_k|^2 (1 + |k|^2).
"""

import numpy as np


def atoms_from_text(text):
    """(amplitudes, frequencies, phases) of an atom sum written by `to_text`."""
    lines = text.splitlines()
    d, _, count = (int(v) for v in lines[0].split())
    rows = np.array([[float(v) for v in line.split()] for line in lines[1:]], dtype=float)
    rows = rows.reshape(count, d + 2)
    return rows[:, 0], rows[:, 1:1 + d], rows[:, 1 + d]


def atoms_of(s):
    """(amplitudes, frequencies, phases) of a `cospde.AtomSum`, read as plain arrays."""
    return np.asarray(s.amplitudes), np.asarray(s.frequencies), np.asarray(s.phases)


def radius(atoms):
    """Largest |w_i| over the atoms' frequencies (0 for an empty sum)."""
    w = atoms[1]
    return int(np.abs(w).max()) if w.size else 0


class Operator:
    """L on the frequency box [-K, K]^d: the Galerkin operator of that box.

    `a_entries` is the d x d matrix and `c`, `f` the other coefficients, each
    an (amplitudes, frequencies, phases) triple.
    """

    def __init__(self, a_entries, c, f, K):
        self.d = len(a_entries)
        self.K = K
        coeff_radius = max(radius(s) for s in [c] + [e for row in a_entries for e in row])
        # a product of a box-K field with a coefficient has frequencies up to
        # K + coeff_radius; M grid points per axis hold them without aliasing
        self.M = 2 * (K + coeff_radius) + 1
        self._pos = np.arange(-K, K + 1) % self.M
        axis = np.arange(-K, K + 1, dtype=float)
        self.k = np.meshgrid(*([axis] * self.d), indexing="ij")
        self.wsq = sum(k * k for k in self.k)
        self.a_grid = [[self._to_grid(self.coefficients(e)) for e in row] for row in a_entries]
        self.c_grid = self._to_grid(self.coefficients(c))
        self.F = self.coefficients(f)

    def coefficients(self, atoms):
        """Fourier coefficients on the box of sum_j a_j cos(<w_j, x> + b_j)."""
        amps, freqs, phases = atoms
        out = np.zeros((2 * self.K + 1,) * self.d, dtype=complex)
        if not amps.size:
            return out
        idx = np.rint(freqs).astype(int)
        if not np.array_equal(idx, freqs) or np.abs(idx).max() > self.K:
            raise ValueError(f"frequencies must be integers within [-{self.K}, {self.K}]")
        half = 0.5 * amps * np.exp(1j * phases)
        np.add.at(out, tuple((idx + self.K).T), half)
        np.add.at(out, tuple((self.K - idx).T), half.conj())
        return out

    def _to_grid(self, U):
        full = np.zeros((self.M,) * self.d, dtype=complex)
        full[np.ix_(*([self._pos] * self.d))] = U
        return np.fft.ifftn(full) * full.size

    def _from_grid(self, g):
        return (np.fft.fftn(g) / g.size)[np.ix_(*([self._pos] * self.d))]

    def apply(self, U):
        """L U, cut to the box."""
        grads = [self._to_grid(1j * self.k[j] * U) for j in range(self.d)]
        out = self._from_grid(self.c_grid * self._to_grid(U))
        for i in range(self.d):
            flux = sum(self.a_grid[i][j] * grads[j] for j in range(self.d))
            out -= 1j * self.k[i] * self._from_grid(flux)
        return out

    def richardson(self, alpha, steps, U=None):
        """`steps` preconditioned steps U <- U - alpha (1 - Laplacian)^-1 (L U - F)."""
        U = np.zeros_like(self.F) if U is None else U
        for _ in range(steps):
            U = U - alpha * (self.apply(U) - self.F) / (1.0 + self.wsq)
        return U

    def h1(self, U):
        return float(np.sqrt(np.sum(np.abs(U) ** 2 * (1.0 + self.wsq))))

    def h_minus1(self, U):
        return float(np.sqrt(np.sum(np.abs(U) ** 2 / (1.0 + self.wsq))))
