"""Monte Carlo two-layer cosine networks drawn from an atom sum.

A width-k network (1/k) sum_i a_i cos(w_i.x + b_i) is built by sampling
atom indices i.i.d. from the equal-mass rebalanced measure, so each
neuron carries outer weight +-ell and the network is an unbiased
estimator of the target at every point.  On the torus the H1 error of a
network is computed exactly through the atom algebra, which makes the
k^{-1/2} rate study free of quadrature noise.
"""

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atoms import AtomSum, add, from_text, h1_norm_torus, scale, to_text
from .calculus import rebalance


@dataclass(frozen=True)
class TwoLayerNet:
    dimension: int
    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray

    @property
    def width(self):
        return len(self.amplitudes)

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        theta = pts @ self.frequencies.T + self.phases
        values = (np.cos(theta) @ self.amplitudes) / self.width
        return float(values[0]) if np.asarray(points).ndim == 1 else values

    def to_atom_sum(self):
        """The network as an atom sum, merging repeated neurons exactly.

        Repeated draws of the same atom are counted first and emitted as
        amplitude sign * ell * count / width, so a zero-variance network
        reproduces its target bitwise.
        """
        if self.width == 0:
            return AtomSum.zero(self.dimension)
        rows = np.column_stack([self.frequencies, self.phases])
        order = np.lexsort(rows.T)
        rows = rows[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        starts = first.nonzero()[0]
        net = np.add.reduceat(np.copysign(1.0, self.amplitudes[order]), starts)
        live = net != 0.0
        ell = abs(float(self.amplitudes[0]))
        rows = rows[starts[live]]
        return AtomSum(
            self.dimension, True, ell * net[live] / self.width, rows[:, :-1], rows[:, -1]
        )


def sample_network(g, k, seed):
    """Draw a width-k network whose expectation at every point is g."""
    k = int(k)
    if k < 1:
        raise ValueError("width must be at least 1")
    measure = rebalance(g)  # rejects the zero function
    rng = np.random.Generator(np.random.Philox(int(seed)))
    cumulative = np.cumsum(measure.probabilities)
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, rng.random(k), side="right")
    return TwoLayerNet(
        dimension=g.dimension,
        amplitudes=np.asarray(measure.signs)[idx] * measure.total_mass,
        frequencies=np.asarray(measure.frequencies)[idx],
        phases=np.asarray(measure.phases)[idx],
    )


def h1_error_exact(net, g):
    """Exact H1 distance between the network and its target (no quadrature)."""
    if net.dimension != g.dimension:
        raise ValueError("dimension mismatch")
    return h1_norm_torus(add(net.to_atom_sum(), scale(g, -1.0)))


def rms_error_bound(g, k):
    """Root of the sampling variance bound 2 (1 + R^2) ell^2 / k."""
    ell = g.tracked_norm
    radius = g.support_radius
    return math.sqrt(2.0 * (1.0 + radius * radius) * ell * ell / k)


@dataclass
class RateStudyResult:
    rows: list  # (k, trial, h1_error)
    summary: list  # (k, rms_error, bound, ratio)
    slope: Optional[float]
    slope_stderr: Optional[float]
    mass: float
    radius: float

    @property
    def degenerate(self):
        return self.slope is None


def ols_fit(x, y):
    """Least-squares slope of y against x and its standard error.

    The slope is None when x has no spread; the standard error is None
    without a residual degree of freedom (fewer than three points).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        return None, None
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    if len(x) <= 2:
        return slope, None
    intercept = float(y.mean() - slope * x.mean())
    rss = float(np.sum((y - slope * x - intercept) ** 2))
    return slope, math.sqrt(rss / (len(x) - 2) / sxx)


def worker_count(requested, tasks):
    """Processes to start: never more than the tasks or the CPUs."""
    return max(1, min(int(requested), int(tasks), os.cpu_count() or 1))


def _width_errors(g_text, k, trials, seed):
    g = from_text(g_text)
    return [h1_error_exact(sample_network(g, k, seed + trial), g)
            for trial in range(trials)]


def rate_study(g, widths, trials, seed, workers=1):
    """Sampled H1 errors across widths, their RMS against the variance bound,
    and the fitted log-log decay slope.

    Trial t uses seed + t at every width, so widths share their random
    draws (paired comparisons); the result is deterministic in seed and
    independent of the worker count.
    """
    widths = [int(k) for k in widths]
    if not widths:
        raise ValueError("widths must be nonempty")
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly increasing")
    if min(widths) < 1:
        raise ValueError("widths must be positive")
    trials = int(trials)
    if trials < 30:
        raise ValueError("need at least 30 trials per width")

    g_text = to_text(g)
    workers = worker_count(workers, len(widths))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_width = list(
                pool.map(
                    _width_errors,
                    [g_text] * len(widths),
                    widths,
                    [trials] * len(widths),
                    [int(seed)] * len(widths),
                )
            )
    else:
        per_width = [_width_errors(g_text, k, trials, int(seed)) for k in widths]

    rows = []
    summary = []
    for k, errors in zip(widths, per_width):
        rows.extend((k, t, e) for t, e in enumerate(errors))
        rms = math.sqrt(math.fsum(e * e for e in errors) / trials)
        bound = rms_error_bound(g, k)
        summary.append((k, rms, bound, rms / bound))

    fit_points = [(math.log(k), math.log(rms)) for k, rms, _, _ in summary if rms > 0.0]
    slope = stderr = None
    if len(fit_points) >= 2:
        slope, stderr = ols_fit([p[0] for p in fit_points], [p[1] for p in fit_points])

    return RateStudyResult(
        rows=rows,
        summary=summary,
        slope=slope,
        slope_stderr=stderr,
        mass=g.tracked_norm,
        radius=g.support_radius,
    )
