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

Merging is one vectorised pass over all terms (`_merge`), with no Python loop
over frequencies.  Within one frequency:

* phases that agree within PHASE_TOL form a cluster whose amplitudes add
  directly, and phases a half-turn apart subtract, so b and b + pi cancel to
  an exact zero; clusters near 0 and near 2*pi are the same cluster;
* a cluster keeps the phase of its member with the smallest phase;
* when several clusters with distinct phases remain, they combine into the
  single atom hypot(C, S) cos(<w, x> + atan2(S, C)), with C = sum a cos b
  and S = sum a sin b over the clusters.

Terms are sorted on every value they carry before anything is added, so the
result does not depend on the input order, and a frequency with a single term
keeps that term bit for bit, which makes canonicalization idempotent.

Frequencies are integer vectors, so every sum is a trigonometric polynomial on
the torus [0, 2*pi)^d under the normalized (mean) measure, and the Sobolev
norms below are exact finite formulas.
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


def _reduce_phases(phases: np.ndarray) -> np.ndarray:
    """Phases reduced into [0, 2*pi); a value that rounds up to 2*pi maps to 0."""
    reduced = np.mod(phases, TWO_PI)
    reduced[reduced == TWO_PI] = 0.0
    return reduced


def _frequency_keys(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign of the first nonzero component of each frequency row (0 for a zero
    row) and an int64 rank of the row times its sign: rows equal up to sign
    share a key, and keys order the sign-normalized rows lexicographically.
    """
    sign = np.sign(freqs[np.arange(len(freqs)), (freqs != 0.0).argmax(axis=1)])
    normalized = freqs * sign[:, None]
    order = np.lexsort(normalized.T[::-1])
    ranked = normalized[order]
    keys = np.empty(len(order), dtype=np.int64)
    keys[order[0]] = 0
    keys[order[1:]] = (ranked[1:] != ranked[:-1]).any(axis=1).cumsum()
    return sign, keys


def _merge(keys: np.ndarray, amps: np.ndarray, phases: np.ndarray):
    """Merge atoms that share a frequency key, for phases in [0, 2*pi).

    Returns (rows, amplitudes, phases) of the merged atoms in key order, where
    `rows` indexes one member of each, which supplies its frequency.  The
    rules are in the module docstring; the steps are:

    1. fold each phase into [0, pi) (a cos(y + b) equals -a cos(y + b - pi))
       and sort once by (key, folded phase, side of pi, amplitude);
    2. cut the sorted terms into frequency groups, each group into phase
       clusters wherever consecutive folded phases differ by more than
       PHASE_TOL, and each cluster into runs on one side of pi;
    3. sum each run, then each cluster's runs with the sign of their side, so
       equal amplitudes at b and b + pi give equal run sums that cancel
       exactly; a group's last cluster within PHASE_TOL of its first
       cluster's phase + pi wraps around the folded circle and joins the
       first cluster with its sign flipped;
    4. combine the clusters left in a group through C = sum a cos b and
       S = sum a sin b into one atom hypot(C, S) at phase atan2(S, C).
    """
    n = len(amps)
    upper = phases >= math.pi
    folded = phases - math.pi * upper
    order = np.lexsort((amps, upper, folded, keys))
    sorted_keys = keys[order]
    # boundary flags with a sentinel at n, so flag positions are both the
    # starts of the runs and the ends of the runs before them
    new_group = np.empty(n + 1, dtype=bool)
    new_group[0] = new_group[n] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:n])
    if new_group.all():  # no frequency repeats: nothing to merge
        order = order[amps[order] != 0.0]  # a constant a*cos(b) can round to 0
        return order, amps[order], phases[order]
    sorted_folded = folded[order]
    sorted_upper = upper[order]
    new_cluster = new_group.copy()
    new_cluster[1:n] |= sorted_folded[1:] - sorted_folded[:-1] > PHASE_TOL
    new_run = new_cluster.copy()
    new_run[1:n] |= sorted_upper[1:] != sorted_upper[:-1]

    run_bounds = new_run.nonzero()[0]
    run_first = run_bounds[:-1]
    run_sum = np.add.reduceat(amps[order], run_first)
    run_upper = sorted_upper[run_first]
    run_phase = phases[order[run_first]]

    # A cluster is represented by its member with the smallest phase.  Its
    # level (how many half-turns separate its phase from the folded phase)
    # says whether the folded sum carries its sign or the opposite one.
    cluster_at = new_cluster[run_bounds].nonzero()[0]
    first = cluster_at[:-1]
    total = np.add.reduceat(np.where(run_upper, -run_sum, run_sum), first)
    rep_phase = np.minimum.reduceat(run_phase, first)
    rep_level = np.minimum.reduceat(run_upper, first).astype(np.int8)
    cluster_bounds = run_bounds[cluster_at]
    heads = new_group[cluster_bounds].nonzero()[0]
    head, tail = heads[:-1], heads[1:] - 1
    group_first = sorted_folded[cluster_bounds[head]]
    group_last = sorted_folded[cluster_bounds[tail + 1] - 1]
    wrap = (tail > head) & (group_first + math.pi - group_last <= PHASE_TOL)
    if wrap.any():
        h, t = head[wrap], tail[wrap]
        from_tail = rep_phase[t] < rep_phase[h]
        rep_level[h] = np.where(from_tail, rep_level[t] + 1, rep_level[h])
        rep_phase[h] = np.minimum(rep_phase[h], rep_phase[t])
        total[h] -= total[t]
        total[t] = 0.0
    cluster_amp = np.where(rep_level == 1, -total, total)
    live = cluster_amp != 0.0
    if not live.any():
        return order[:0], total[:0], total[:0]
    group_of = new_group[cluster_bounds[:-1]].cumsum()[live]
    cluster_amp, rep_phase = cluster_amp[live], rep_phase[live]
    cluster_first = cluster_bounds[:-1][live]

    # the clusters left in a group have distinct phases: combine them
    # through C = sum a cos b, S = sum a sin b
    m = len(group_of)
    new_out = np.empty(m + 1, dtype=bool)
    new_out[0] = new_out[m] = True
    np.not_equal(group_of[1:], group_of[:-1], out=new_out[1:m])
    out_bounds = new_out.nonzero()[0]
    starts = out_bounds[:-1]
    out_amp = cluster_amp[starts]
    out_phase = rep_phase[starts]
    counts = out_bounds[1:] - starts
    multi = counts > 1
    if multi.any():
        member = np.repeat(multi, counts)
        a, b = cluster_amp[member], rep_phase[member]
        segments = counts[multi].cumsum() - counts[multi]
        cos_sum = np.add.reduceat(a * np.cos(b), segments)
        sin_sum = np.add.reduceat(a * np.sin(b), segments)
        out_amp[multi] = np.hypot(cos_sum, sin_sum)
        out_phase[multi] = _reduce_phases(np.arctan2(sin_sum, cos_sum))
    keep = out_amp != 0.0
    return order[cluster_first[starts[keep]]], out_amp[keep], out_phase[keep]


def _canonicalize_arrays(
    d: int, amps: np.ndarray, freqs: np.ndarray, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    amps = np.asarray(amps, dtype=np.float64).reshape(-1)
    freqs = np.asarray(freqs, dtype=np.float64).reshape(-1, d)
    phases = np.asarray(phases, dtype=np.float64).reshape(-1)
    if freqs.shape[0] != amps.shape[0] or phases.shape[0] != amps.shape[0]:
        raise ValueError("amplitude, frequency, and phase counts disagree")
    if not (np.isfinite(amps).all() and np.isfinite(freqs).all() and np.isfinite(phases).all()):
        raise ValueError("atom data must be finite")
    if not (freqs == np.round(freqs)).all():
        raise ValueError("frequencies must be integer vectors")

    keep = amps != 0.0
    amps, freqs, phases = amps[keep], freqs[keep], phases[keep]
    if amps.size == 0:
        return amps, freqs, phases

    # cosine is even: (w, b) and (-w, -b) are one atom, and a zero-frequency
    # atom is the constant a cos(b)
    sign, keys = _frequency_keys(freqs)
    constant = sign == 0.0
    if constant.any():
        amps = np.where(constant, amps * np.cos(phases), amps)
    phases = _reduce_phases(phases * sign)

    rows, amps, phases = _merge(keys, amps, phases)
    return amps, freqs[rows] * sign[rows, None] + 0.0, phases  # + 0.0 turns -0.0 into 0.0


class AtomSum:
    """An immutable canonical finite sum of cosine atoms.

    Construct with :meth:`from_atoms` (canonicalizes arbitrary atom lists) or
    :meth:`zero`.  The empty sum is the zero function.  `tracked_norm` is the
    l1 mass sum(|a_i|) of the stored representation, an upper bound for the
    underlying function's atomic norm, never a claimed infimum.
    `support_radius` is the largest Euclidean frequency norm and
    `support_radius_sq` its square, exact for integer frequencies.
    """

    __slots__ = ("_d", "_amps", "_freqs", "_phases", "_tracked", "_radius_sq", "_radius")

    def __init__(self, dimension: int, torus_mode: bool, amps, freqs, phases):
        # The torus is the only space.  The flag stays as the second of five
        # positional parameters because the benchmark's span tracer
        # (perfbench/spans.py) wraps this constructor by position; it
        # accepts only True.
        if torus_mode is not True:
            raise ValueError("atom sums live on the torus: torus_mode must be True")
        d = int(dimension)
        if d < 1:
            raise ValueError("dimension must be a positive integer")
        self._finalize(d, *_canonicalize_arrays(d, amps, freqs, phases))

    def _finalize(self, d: int, a: np.ndarray, w: np.ndarray, b: np.ndarray):
        for arr in (a, w, b):
            arr.setflags(write=False)
        self._d = d
        self._amps = a
        self._freqs = w
        self._phases = b
        self._tracked = math.fsum(np.abs(a).tolist()) if a.size else 0.0
        self._radius_sq = float(np.max(np.einsum("ij,ij->i", w, w))) if a.size else 0.0
        self._radius = math.sqrt(self._radius_sq)

    @classmethod
    def _trusted(cls, d: int, amps: np.ndarray, freqs: np.ndarray, phases: np.ndarray) -> "AtomSum":
        """Internal: wrap arrays already known to be canonical."""
        obj = cls.__new__(cls)
        obj._finalize(d, np.ascontiguousarray(amps, dtype=np.float64),
                      np.ascontiguousarray(freqs, dtype=np.float64),
                      np.ascontiguousarray(phases, dtype=np.float64))
        return obj

    def _rephased(self, amps: np.ndarray, shift: float) -> "AtomSum":
        """Internal: this sum with new amplitudes and every phase moved by
        `shift`.  The frequency set is unchanged, so there is nothing to merge:
        the result is canonical once zero amplitudes are dropped and phases
        are reduced into [0, 2*pi)."""
        if not np.isfinite(amps).all():
            raise ValueError("atom data must be finite")
        keep = amps != 0.0
        return AtomSum._trusted(self._d, amps[keep], self._freqs[keep],
                                _reduce_phases(self._phases[keep] + shift))

    @classmethod
    def zero(cls, dimension: int) -> "AtomSum":
        return cls(dimension, True, np.zeros(0), np.zeros((0, dimension)), np.zeros(0))

    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[Atom | tuple | list],
        dimension: int | None = None,
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
            return cls.zero(dimension)
        amps = np.array([t[0] for t in triples], dtype=np.float64)
        freqs = np.array([t[1] for t in triples], dtype=np.float64).reshape(len(triples), -1)
        phases = np.array([t[2] for t in triples], dtype=np.float64)
        return cls(dimension, True, amps, freqs, phases)

    # -- read-only views ---------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._d

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
            and np.array_equal(self._amps, other._amps)
            and np.array_equal(self._freqs, other._freqs)
            and np.array_equal(self._phases, other._phases)
        )

    def __hash__(self):
        return hash((self._d, self._amps.tobytes(), self._freqs.tobytes(), self._phases.tobytes()))

    def __repr__(self) -> str:
        return f"AtomSum(d={self._d}, atoms={self.atom_count}, tracked_norm={self._tracked:.6g})"


def add(s1: AtomSum, s2: AtomSum) -> AtomSum:
    """Pointwise sum, canonicalized (same-frequency atoms merge, cancellations drop)."""
    return sum_many([s1, s2])


def sum_many(sums: Sequence[AtomSum]) -> AtomSum:
    """Sum of several atom sums with a single canonicalization pass."""
    if not sums:
        raise ValueError("sum_many needs at least one atom sum")
    d = sums[0].dimension
    if any(s.dimension != d for s in sums):
        raise ValueError("dimension mismatch")
    parts = [s for s in sums if not s.is_zero]
    if not parts:
        return AtomSum.zero(d)
    amps = np.concatenate([s.amplitudes for s in parts])
    freqs = np.concatenate([s.frequencies for s in parts])
    phases = np.concatenate([s.phases for s in parts])
    return AtomSum(d, True, amps, freqs, phases)


def scale(s: AtomSum, factor: float) -> AtomSum:
    """Scalar multiple.  factor = 0 gives the zero sum; otherwise atom-wise."""
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError("scale factor must be finite")
    if factor == 0.0 or s.is_zero:
        return AtomSum.zero(s.dimension)
    return AtomSum._trusted(s.dimension, s.amplitudes * factor, s.frequencies, s.phases)


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
        AtomSum._trusted(s.dimension, s.amplitudes[keep], s.frequencies[keep], s.phases[keep]),
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
    """Serialize: header `d 1 atom_count`, then one `a w_1 .. w_d b` per line.

    The 1 is the torus flag of the file format, the only value it takes.
    Floats are written with full round-trip precision (repr).
    """
    lines = [f"{s.dimension} 1 {s.atom_count}"]
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
    if torus_flag != 1:
        raise ValueError("torus flag must be 1: frequencies are integer torus frequencies")
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
    return AtomSum.from_atoms(triples, dimension=d)
