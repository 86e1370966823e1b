"""Finite sums of cosine atoms a * cos(<w, x> + b) and their exact algebra.

An atom sum is the closed representation everything else in this package runs
on: coefficients, right-hand sides, iterates, and sampled networks are all
finite lists of atoms.  Sums are kept in a canonical form so that equality,
norm accounting, and merging are deterministic:

* the first nonzero frequency component of every atom is positive (cosine is
  even, so (w, b) and (-w, -b) describe the same atom);
* phases live in [0, 2*pi);
* a zero-frequency atom is a constant and is stored as (a*cos(b), 0, 0);
* no two atoms share a frequency (same-frequency atoms are merged), atoms are
  ordered lexicographically by frequency, and zero amplitudes are dropped.

In torus mode frequencies are integer vectors and the sum is a trigonometric
polynomial on [0, 2*pi)^d under the normalized (mean) measure; the Sobolev
norms below are exact finite formulas in that setting.  Plane mode (real
frequencies) supports the same algebra but no torus norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Phase comparison tolerance when merging same-frequency atoms.  Phases are
# accumulated in exact multiples of pi/2 plus input phases, so genuinely equal
# phases agree to well below this.
PHASE_TOL = 1e-12

_EVAL_CHUNK = 65536


@dataclass(frozen=True)
class Atom:
    """One cosine term amplitude * cos(<frequency, x> + phase)."""

    amplitude: float
    frequency: tuple[float, ...]
    phase: float


def _merge_group(amps: np.ndarray, phases: np.ndarray) -> tuple[float, float] | None:
    """Merge atoms sharing one frequency into a single (amplitude, phase).

    Exact paths first: phases equal within PHASE_TOL add amplitudes directly,
    phases opposite by pi subtract them, so the common cancellations are exact
    in floating point.  Genuinely different phases combine through the complex
    coefficient sum(a_j * exp(i b_j)).  Returns None when the group vanishes.
    """
    order = np.lexsort((amps, phases))
    amps = amps[order]
    phases = phases[order]
    clusters: list[list[float]] = []
    start = 0
    n = len(phases)
    for i in range(1, n + 1):
        if i == n or phases[i] - phases[i - 1] > PHASE_TOL:
            clusters.append([float(phases[start]), math.fsum(amps[start:i])])
            start = i
    if len(clusters) > 1 and (clusters[0][0] + TWO_PI) - clusters[-1][0] <= PHASE_TOL:
        clusters[0][1] = clusters[0][1] + clusters[-1][1]
        clusters.pop()
    folded: list[tuple[float, float]] = []
    used = [False] * len(clusters)
    for i, (p_i, a_i) in enumerate(clusters):
        if used[i]:
            continue
        for j in range(i + 1, len(clusters)):
            if not used[j] and abs(clusters[j][0] - p_i - math.pi) <= PHASE_TOL:
                a_i -= clusters[j][1]
                used[j] = True
        if a_i != 0.0:
            folded.append((p_i, a_i))
    if not folded:
        return None
    if len(folded) == 1:
        p, a = folded[0]
        return a, p
    z = 0.0 + 0.0j
    for p, a in folded:
        z += a * complex(math.cos(p), math.sin(p))
    if z == 0:
        return None
    return abs(z), math.atan2(z.imag, z.real) % TWO_PI


def _canonicalize_arrays(
    d: int, torus: bool, amps: np.ndarray, freqs: np.ndarray, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    amps = np.asarray(amps, dtype=np.float64).reshape(-1).copy()
    freqs = np.asarray(freqs, dtype=np.float64).reshape(-1, d if d else 1).copy()
    phases = np.asarray(phases, dtype=np.float64).reshape(-1).copy()
    if freqs.shape[0] != amps.shape[0] or phases.shape[0] != amps.shape[0]:
        raise ValueError("amplitude, frequency, and phase counts disagree")
    if freqs.shape[1] != d:
        raise ValueError(f"frequency vectors have length {freqs.shape[1]}, expected {d}")
    if not (np.all(np.isfinite(amps)) and np.all(np.isfinite(freqs)) and np.all(np.isfinite(phases))):
        raise ValueError("atom data must be finite")
    if torus and freqs.size and not np.array_equal(freqs, np.round(freqs)):
        raise ValueError("torus mode requires integer frequencies")

    keep = amps != 0.0
    amps, freqs, phases = amps[keep], freqs[keep], phases[keep]
    if amps.size == 0:
        return amps, freqs.reshape(0, d), phases

    nonzero = freqs != 0.0
    has_nz = nonzero.any(axis=1)
    first_idx = np.argmax(nonzero, axis=1)
    first_val = freqs[np.arange(len(freqs)), first_idx]
    flip = has_nz & (first_val < 0.0)
    freqs[flip] *= -1.0
    phases[flip] *= -1.0
    freqs[freqs == 0.0] = 0.0  # normalize -0.0 so row grouping is exact

    zero_row = ~has_nz
    if zero_row.any():
        amps[zero_row] = amps[zero_row] * np.cos(phases[zero_row])
        phases[zero_row] = 0.0
        keep = amps != 0.0
        amps, freqs, phases = amps[keep], freqs[keep], phases[keep]
        if amps.size == 0:
            return amps, freqs.reshape(0, d), phases

    phases = np.mod(phases, TWO_PI)
    phases[phases == TWO_PI] = 0.0

    order = np.lexsort(tuple(freqs[:, k] for k in range(d - 1, -1, -1)))
    sorted_freqs = freqs[order]
    change = np.any(sorted_freqs[1:] != sorted_freqs[:-1], axis=1) if len(order) > 1 else np.zeros(0, bool)
    boundaries = np.concatenate(([0], np.nonzero(change)[0] + 1, [len(order)]))
    out_amps: list[float] = []
    out_freqs: list[np.ndarray] = []
    out_phases: list[float] = []
    for g in range(len(boundaries) - 1):
        members = order[boundaries[g] : boundaries[g + 1]]
        if len(members) == 1:
            m = members[0]
            out_amps.append(float(amps[m]))
            out_phases.append(float(phases[m]))
        else:
            merged = _merge_group(amps[members], phases[members])
            if merged is None:
                continue
            out_amps.append(merged[0])
            out_phases.append(merged[1])
        out_freqs.append(sorted_freqs[boundaries[g]])
    if not out_amps:
        return np.zeros(0), np.zeros((0, d)), np.zeros(0)
    return (
        np.asarray(out_amps, dtype=np.float64),
        np.asarray(out_freqs, dtype=np.float64).reshape(-1, d),
        np.asarray(out_phases, dtype=np.float64),
    )


class AtomSum:
    """An immutable canonical finite sum of cosine atoms.

    Construct with :meth:`from_atoms` (canonicalizes arbitrary atom lists) or
    :meth:`zero`.  The empty sum is the zero function.  `tracked_norm` is the
    l1 mass sum(|a_i|) of the stored representation, an upper bound for the
    underlying function's atomic norm, never a claimed infimum.
    `support_radius` is the largest Euclidean frequency norm and
    `support_radius_sq` its square, exact for integer frequencies.
    """

    __slots__ = ("_d", "_torus", "_amps", "_freqs", "_phases", "_tracked", "_radius_sq", "_radius")

    def __init__(self, dimension: int, torus_mode: bool, amps, freqs, phases):
        d = int(dimension)
        if d < 1:
            raise ValueError("dimension must be a positive integer")
        a, w, b = _canonicalize_arrays(d, bool(torus_mode), amps, freqs, phases)
        self._finalize(d, bool(torus_mode), a, w, b)

    def _finalize(self, d: int, torus: bool, a: np.ndarray, w: np.ndarray, b: np.ndarray):
        for arr in (a, w, b):
            arr.setflags(write=False)
        self._d = d
        self._torus = torus
        self._amps = a
        self._freqs = w
        self._phases = b
        self._tracked = math.fsum(np.abs(a)) if a.size else 0.0
        self._radius_sq = float(np.max(np.einsum("ij,ij->i", w, w))) if a.size else 0.0
        self._radius = math.sqrt(self._radius_sq)

    @classmethod
    def _trusted(cls, d: int, torus: bool, amps: np.ndarray, freqs: np.ndarray, phases: np.ndarray) -> "AtomSum":
        """Internal: wrap arrays already known to be canonical."""
        obj = cls.__new__(cls)
        obj._finalize(d, torus, np.ascontiguousarray(amps, dtype=np.float64),
                      np.ascontiguousarray(freqs, dtype=np.float64),
                      np.ascontiguousarray(phases, dtype=np.float64))
        return obj

    @classmethod
    def zero(cls, dimension: int, torus_mode: bool = True) -> "AtomSum":
        return cls(dimension, torus_mode, np.zeros(0), np.zeros((0, dimension)), np.zeros(0))

    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[Atom | tuple | list],
        dimension: int | None = None,
        torus_mode: bool = True,
    ) -> "AtomSum":
        """Build a canonical sum from (amplitude, frequency, phase) triples."""
        triples = []
        for at in atoms:
            if isinstance(at, Atom):
                triples.append((at.amplitude, at.frequency, at.phase))
            else:
                a, w, b = at
                triples.append((float(a), tuple(np.atleast_1d(np.asarray(w, dtype=np.float64))), float(b)))
        if dimension is None:
            if not triples:
                raise ValueError("dimension is required for an empty atom list")
            dimension = len(triples[0][1])
        if not triples:
            return cls.zero(dimension, torus_mode)
        amps = np.array([t[0] for t in triples], dtype=np.float64)
        freqs = np.array([t[1] for t in triples], dtype=np.float64).reshape(len(triples), -1)
        phases = np.array([t[2] for t in triples], dtype=np.float64)
        return cls(dimension, torus_mode, amps, freqs, phases)

    # -- read-only views ---------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._d

    @property
    def torus_mode(self) -> bool:
        return self._torus

    @property
    def atom_count(self) -> int:
        return len(self._amps)

    @property
    def is_zero(self) -> bool:
        return len(self._amps) == 0

    @property
    def tracked_norm(self) -> float:
        return self._tracked

    @property
    def support_radius(self) -> float:
        return self._radius

    @property
    def support_radius_sq(self) -> float:
        return self._radius_sq

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def frequencies(self) -> np.ndarray:
        return self._freqs

    @property
    def phases(self) -> np.ndarray:
        return self._phases

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(
            Atom(float(a), tuple(float(x) for x in w), float(b))
            for a, w, b in zip(self._amps, self._freqs, self._phases)
        )

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomSum):
            return NotImplemented
        return (
            self._d == other._d
            and self._torus == other._torus
            and np.array_equal(self._amps, other._amps)
            and np.array_equal(self._freqs, other._freqs)
            and np.array_equal(self._phases, other._phases)
        )

    def __hash__(self):
        return hash((self._d, self._torus, self._amps.tobytes(), self._freqs.tobytes(), self._phases.tobytes()))

    def __repr__(self) -> str:
        mode = "torus" if self._torus else "plane"
        return f"AtomSum(d={self._d}, {mode}, atoms={self.atom_count}, tracked_norm={self._tracked:.6g})"


def canonicalize(s: AtomSum) -> AtomSum:
    """Return the canonical form of `s`.

    AtomSum values are canonical by construction, so this is the identity; it
    exists so canonicalization is an explicit, testable operation.
    """
    return s


def add(s1: AtomSum, s2: AtomSum) -> AtomSum:
    """Pointwise sum, canonicalized (same-frequency atoms merge, cancellations drop)."""
    return sum_many([s1, s2])


def sum_many(sums: Sequence[AtomSum]) -> AtomSum:
    """Sum of several atom sums with a single canonicalization pass."""
    if not sums:
        raise ValueError("sum_many needs at least one atom sum")
    d = sums[0].dimension
    torus = sums[0].torus_mode
    for s in sums[1:]:
        if s.dimension != d:
            raise ValueError("dimension mismatch")
        if s.torus_mode != torus:
            raise ValueError("torus/plane mode mismatch")
    parts = [s for s in sums if not s.is_zero]
    if not parts:
        return AtomSum.zero(d, torus)
    amps = np.concatenate([s.amplitudes for s in parts])
    freqs = np.concatenate([s.frequencies for s in parts])
    phases = np.concatenate([s.phases for s in parts])
    return AtomSum(d, torus, amps, freqs, phases)


def scale(s: AtomSum, factor: float) -> AtomSum:
    """Scalar multiple.  factor = 0 gives the zero sum; otherwise atom-wise."""
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError("scale factor must be finite")
    if factor == 0.0 or s.is_zero:
        return AtomSum.zero(s.dimension, s.torus_mode)
    return AtomSum._trusted(s.dimension, s.torus_mode, s.amplitudes * factor, s.frequencies, s.phases)


def prune(s: AtomSum, threshold: float) -> tuple[AtomSum, float]:
    """Drop atoms with |amplitude| < threshold.

    Returns (pruned sum, dropped mass).  The dropped mass is exactly the sum
    of removed |amplitudes|; on the torus the induced H1 error is at most
    dropped_mass * sqrt(1 + support_radius**2) since each unit of mass at
    frequency w carries H1 norm sqrt((1 + |w|^2)/2).
    """
    threshold = float(threshold)
    if not (threshold >= 0.0):
        raise ValueError("prune threshold must be nonnegative")
    if s.is_zero or threshold == 0.0:
        return s, 0.0
    keep = np.abs(s.amplitudes) >= threshold
    if keep.all():
        return s, 0.0
    dropped = math.fsum(np.abs(s.amplitudes[~keep]))
    return (
        AtomSum._trusted(s.dimension, s.torus_mode, s.amplitudes[keep], s.frequencies[keep], s.phases[keep]),
        dropped,
    )


def evaluate(s: AtomSum, points) -> np.ndarray | float:
    """Evaluate the sum at one point (shape (d,)) or many (shape (m, d))."""
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != s.dimension:
        raise ValueError(f"points must have shape (m, {s.dimension})")
    out = np.zeros(len(pts))
    if not s.is_zero:
        wt = s.frequencies.T
        for lo in range(0, len(pts), _EVAL_CHUNK):
            block = pts[lo : lo + _EVAL_CHUNK]
            out[lo : lo + _EVAL_CHUNK] = np.cos(block @ wt + s.phases) @ s.amplitudes
    return float(out[0]) if single else out


def _torus_weights(s: AtomSum) -> tuple[np.ndarray, np.ndarray]:
    """Mean-measure mode weights mu_w and exact squared frequency norms."""
    if not s.torus_mode:
        raise ValueError("torus norms are defined in torus mode only")
    wsq = np.einsum("ij,ij->i", s.frequencies, s.frequencies)
    mu = np.where(wsq == 0.0, 1.0, 0.5)
    return mu, wsq


def h1_norm_torus(s: AtomSum) -> float:
    """Exact H1 norm on [0, 2*pi)^d under the normalized measure.

    |a cos(<w,x>+b)|_{L2}^2 = a^2/2 for w != 0 (a^2 for the constant), and the
    gradient contributes the extra |w|^2 factor, so
    |s|_{H1}^2 = sum_w mu_w * a_w^2 * (1 + |w|^2) with mu_0 = 1, mu_w = 1/2.
    """
    if s.is_zero:
        return 0.0
    mu, wsq = _torus_weights(s)
    return math.sqrt(math.fsum(mu * s.amplitudes**2 * (1.0 + wsq)))


def h_minus1_norm_torus(s: AtomSum) -> float:
    """Exact H^-1 norm on the torus: sqrt(sum_w mu_w * a_w^2 / (1 + |w|^2))."""
    if s.is_zero:
        return 0.0
    mu, wsq = _torus_weights(s)
    return math.sqrt(math.fsum(mu * s.amplitudes**2 / (1.0 + wsq)))


def l2_norm_torus(s: AtomSum) -> float:
    """Exact L2 norm on the torus under the normalized measure."""
    if s.is_zero:
        return 0.0
    mu, _ = _torus_weights(s)
    return math.sqrt(math.fsum(mu * s.amplitudes**2))


def to_text(s: AtomSum) -> str:
    """Serialize: header `d torus_flag atom_count`, then one `a w_1 .. w_d b` per line.

    Floats are written with full round-trip precision (repr).
    """
    lines = [f"{s.dimension} {int(s.torus_mode)} {s.atom_count}"]
    for a, w, b in zip(s.amplitudes, s.frequencies, s.phases):
        fields = [repr(float(a))] + [repr(float(x)) for x in w] + [repr(float(b))]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> AtomSum:
    """Parse the `to_text` format back into a canonical AtomSum."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty atom sum text")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("header must be `d torus_flag atom_count`")
    d, torus_flag, count = int(header[0]), int(header[1]), int(header[2])
    if torus_flag not in (0, 1):
        raise ValueError("torus flag must be 0 or 1")
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"expected {count} atom lines, found {len(body)}")
    triples = []
    for ln in body:
        fields = ln.split()
        if len(fields) != d + 2:
            raise ValueError(f"atom line needs {d + 2} fields: {ln!r}")
        vals = [float(x) for x in fields]
        triples.append((vals[0], tuple(vals[1 : 1 + d]), vals[1 + d]))
    return AtomSum.from_atoms(triples, dimension=d, torus_mode=bool(torus_flag))
