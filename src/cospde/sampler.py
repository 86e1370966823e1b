"""Monte Carlo two-layer cosine networks drawn from an atom sum.

A width-k network (1/k) sum_j s_j ell cos(w_j.x + b_j) is built by drawing
k atoms i.i.d. from the target's normalised amplitude measure, atom i with
probability |a_i| / ell (Maurey's empirical method), so each neuron carries
outer weight +-ell and the network is an unbiased estimator of the target
at every point.  The network is fully described by how many times each
atom was drawn, and is returned as the atom sum of the drawn atoms.  On the
torus the H1 error of a network against its target is an exact finite sum
over the target's frequencies, computed without merging atoms, which makes
the k^{-1/2} rate study free of quadrature noise.  `expected_rms` gives the
exact root-mean-square error of a width-k network.
"""

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atoms import AtomSum, InputError, _distinct_rows, _h1_terms, from_text, to_text
from .oracle import h1_distance

# fewest trials per width for which a rate study reports an RMS error
MIN_TRIALS = 30

# largest width and most (width, trial) rows a rate study accepts: a trial
# draws `width` uniforms at once, and the rows table holds every row
MAX_WIDTH = 2**20
MAX_ROWS = 10**6


def sample_network(g, k, seed):
    """Draw a width-k network whose expectation at every point is g.

    An atom of g drawn n times carries amplitude ell * (sign(a) * n) / k.
    The drawn atoms are a subset of canonical g in g's order, with nonzero
    amplitudes, so the network is a canonical atom sum without a merge.
    """
    k = int(k)
    if k < 1:
        raise InputError("width must be at least 1")
    if g.is_zero:
        raise InputError("cannot sample a network from the zero function")
    ell = g.tracked_norm
    rng = np.random.Generator(np.random.Philox(int(seed)))
    cumulative = np.cumsum(np.abs(g.amplitudes) / ell)
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, rng.random(k), side="right")
    counts = np.bincount(idx, minlength=g.atom_count)
    drawn = counts.nonzero()[0]
    amps = ell * (np.sign(g.amplitudes[drawn]) * counts[drawn]) / k
    return AtomSum._trusted(g.dimension, amps, g.frequencies[drawn], g.phases[drawn])


def h1_error_exact(net, g):
    """Exact H1 distance between the network and its target (no quadrature).

    A network from `sample_network` holds some of canonical g's atoms, each
    at g's frequency and phase, so the error is
    sqrt(sum_i mu_i (1 + |w_i|^2) (c_i - a_i)^2), where c_i is the network's
    amplitude at w_i (0 where atom i was not drawn).  This is bit for bit
    the norm of the merged sum net - g: the merge puts exactly two terms, at
    one phase, on each drawn frequency, and adds them in an order that does
    not change a two-term float sum; it keeps an undrawn atom's -a_i as it
    is; an exact zero adds nothing to fsum; and fsum is correctly rounded
    in any order.  Any other network goes to `oracle.h1_distance`.
    """
    n = g.atom_count
    if net.dimension == g.dimension:
        distinct, index = _distinct_rows(np.concatenate([g.frequencies, net.frequencies]))
        # canonical g is sorted by frequency row, as the distinct rows are, so
        # when g holds every row, index[n:] places the network's atoms in g
        at = index[n:]
        if len(distinct) == n and np.array_equal(g.phases[at], net.phases):
            diff = np.zeros(n)
            diff[at] = net.amplitudes
            diff -= g.amplitudes
            return math.sqrt(math.fsum(_h1_terms(g.frequencies, diff**2)))
    return h1_distance(net, g)


def expected_rms(g, k):
    """Exact root-mean-square H1 error of a width-k network drawn from g.

    A neuron is ell sign(a_i) times atom i with probability |a_i| / ell, so
    E |neuron|^2 = ell sum_i |a_i| s_i^2 with s_i^2 = mu_i (1 + |w_i|^2), and
    the mean of k independent neurons has E |net - g|^2 =
    (ell sum_i |a_i| s_i^2 - |g|^2) / k (Maurey's lemma, with equality).
    Each term is taken as |a_i| (ell - |a_i|) s_i^2, which is never negative.
    """
    mass = np.abs(g.amplitudes)
    return math.sqrt(math.fsum(_h1_terms(g.frequencies, mass * (g.tracked_norm - mass))) / k)


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
    independent of the worker count.  Out-of-range widths, trials or seed,
    and a g whose variance bound overflows, raise InputError before the
    first draw.
    """
    widths = [int(k) for k in widths]
    if not widths or any(b <= a for a, b in zip(widths, widths[1:])):
        raise InputError(f"widths must be nonempty and strictly increasing, got {widths}")
    if not 1 <= widths[0] <= widths[-1] <= MAX_WIDTH:
        raise InputError(f"widths must lie in [1, {MAX_WIDTH}], got {widths[0]}..{widths[-1]}")
    trials = int(trials)
    if trials < MIN_TRIALS:
        raise InputError(f"need at least {MIN_TRIALS} trials per width, got {trials}")
    if trials * len(widths) > MAX_ROWS:
        raise InputError(f"{trials} trials at {len(widths)} widths exceed the cap of "
                         f"{MAX_ROWS} rows")
    seed = int(seed)
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    # the bound falls with k, so the first width's is the largest
    if not math.isfinite(rms_error_bound(g, widths[0])):
        raise InputError(f"the sampling bound of g (mass {g.tracked_norm!r}) is beyond "
                         "floating point; rescale g")

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
                    [seed] * len(widths),
                )
            )
    else:
        per_width = [_width_errors(g_text, k, trials, seed) for k in widths]

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
