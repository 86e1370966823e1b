"""Preconditioned Richardson iteration u <- u - alpha * (I-Lap)^-1 (Lu - f).

Besides the iteration itself this module plans the step count from the
spectral bounds, enforces the per-step amplitude/frequency growth ledger,
and converts an optional pruning budget into amplitude thresholds whose
accumulated H1 cost is accounted against the target accuracy.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .atoms import MAX_FREQUENCY, AtomSum, InputError, add, h1_norm_torus, prune, scale
from .calculus import apply_elliptic, precondition
from .oracle import (GalerkinReference, _max_abs_frequency, check_truncation,
                     default_truncation, ellipticity_probe, galerkin_solve, h1_distance)
from .problem import spectral_bounds


class LedgerViolationError(RuntimeError):
    """An iterate broke a bound the algebra guarantees; aborting is the only
    safe response since it means the computed representation is corrupt."""


class SizeLimitError(InputError):
    """The planned solve would exceed a size cap; refused before any step."""


# most steps a solve may plan; the shipped problems plan at most 24 and the
# tests at most 114, while lambda_min -> 0 sends the plan past 10^11
MAX_STEPS = 10**5


def optimal_step(lam_min, lam_max):
    """Step size minimizing the contraction factor, and that factor."""
    lam_min, lam_max = spectral_bounds(lam_min, lam_max)
    alpha = 2.0 / (lam_min + lam_max)
    factor = (lam_max - lam_min) / (lam_max + lam_min)
    return alpha, factor


def iteration_count_bound(lam_min, lam_max, initial_error, epsilon):
    """Smallest step count T with initial_error * factor^T <= epsilon."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    optimal_step(lam_min, lam_max)  # validates the bounds
    if initial_error <= epsilon:
        return 0
    if lam_min == lam_max:
        return 1
    rate = (lam_max + lam_min) / (lam_max - lam_min)
    return max(1, math.ceil(math.log(initial_error / epsilon) / math.log(rate)))


def growth_factor(p, alpha):
    """Per-step amplification of the tracked norm (the cosine recursion)."""
    d = p.dimension
    return 6.0 * alpha * p.ell_A * max(p.R_A**2, 1.0) * d * d + alpha * p.ell_c + 1.0


def cosine_ledger_bound(p, alpha, norm_t):
    """Upper bound on tracked_norm(u_{t+1}) given tracked_norm(u_t)."""
    return growth_factor(p, alpha) * norm_t + alpha * p.ell_f


def main_theorem_predictor(p, epsilon):
    """Planned (T, radius bound, tracked-norm bound) of a solve at epsilon,
    the plan solve() runs; epsilon must lie in (0, 1/2).

    T targets epsilon/2, leaving the other half for pruning.  The radius
    bound sqrt(R^2 T^2) is the square root of an exact integer, correctly
    rounded, so it orders like the exact radius ledger.  The norm bound
    iterates the growth recursion Y_{t+1} = q Y_t + alpha ell_f from
    Y_0 = 0, which telescopes to the closed geometric form
    alpha*ell_f*(q^T - 1)/(q - 1); the recursion is used so the prediction
    is the bitwise same value the ledger accumulates.  An initial error
    bound that overflows raises InputError, and a T above MAX_STEPS raises
    SizeLimitError, both before the recursion runs.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise InputError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    alpha, _ = optimal_step(p.lam_min, p.lam_max)
    with np.errstate(over="ignore"):  # refused just below
        initial_error = p.initial_error_bound()
    if not math.isfinite(initial_error):
        raise InputError("the initial error bound |f|_H^-1 / lambda_min overflows; rescale f")
    steps = iteration_count_bound(p.lam_min, p.lam_max, initial_error, 0.5 * epsilon)
    if steps > MAX_STEPS:
        raise SizeLimitError(
            f"the plan needs {steps} steps, above the cap of {MAX_STEPS}; "
            "raise lambda_min or loosen epsilon"
        )
    y = 0.0
    for _ in range(steps):
        y = cosine_ledger_bound(p, alpha, y)
    return steps, math.sqrt(p.coeff_radius_sq * steps * steps), y


@dataclass
class LedgerRecord:
    t: int
    atom_count: int
    tracked_norm: float
    support_radius: float
    support_radius_sq: float
    dropped_mass: float
    cosine_bound: float
    y_bound: float
    residual_estimate: Optional[float] = None
    h1_error: Optional[float] = None


@dataclass
class IterationState:
    t: int
    u: AtomSum
    ledger: list
    eps_budget_used: float


def initial_state(p):
    """The iteration's start u0 = 0 and its ledger row."""
    record = LedgerRecord(
        t=0,
        atom_count=0,
        tracked_norm=0.0,
        support_radius=0.0,
        support_radius_sq=0.0,
        dropped_mass=0.0,
        cosine_bound=0.0,
        y_bound=0.0,
    )
    return IterationState(t=0, u=AtomSum.zero(p.dimension), ledger=[record],
                          eps_budget_used=0.0)


def _radius_within(radius_sq, start_sq, shift_sq, steps):
    """Exact test of sqrt(radius_sq) <= sqrt(start_sq) + steps * sqrt(shift_sq).

    The squared norms are exact (integers on the torus), so the test runs in
    rational arithmetic instead of comparing rounded square roots, which
    misorders collinear frequencies (sqrt(75) rounds above sqrt(48) +
    sqrt(3)).  With gap = radius_sq - start_sq - steps^2 shift_sq the
    inequality holds iff gap <= 0 or gap^2 <= 4 start_sq steps^2 shift_sq.
    """
    a, b = Fraction(radius_sq), Fraction(start_sq)
    c = Fraction(shift_sq) * steps * steps
    gap = a - b - c
    return gap <= 0 or gap * gap <= 4 * b * c


def _budget_threshold(s, budget):
    """Amplitude cutoff dropping the largest prefix of small atoms whose
    H1 mass stays within budget.  Returns 0.0 when nothing fits."""
    if s.atom_count == 0 or budget <= 0.0:
        return 0.0
    unit = math.sqrt(1.0 + s.support_radius**2)
    allowance = budget / unit
    amps = np.sort(np.abs(s.amplitudes))
    count = int(np.searchsorted(np.cumsum(amps), allowance, side="right"))
    # np.cumsum rounds; re-verify the prefix sum exactly
    while count > 0 and math.fsum(amps[:count]) > allowance:
        count -= 1
    # a threshold can only separate distinct amplitudes
    while 0 < count < len(amps) and amps[count - 1] == amps[count]:
        count -= 1
    if count == 0:
        return 0.0
    if count == len(amps):
        return math.inf
    return float(amps[count])


def _preconditioned_residual(p, u):
    """(I - Lap)^-1 (L u - f): the step direction, whose H1 norm is the
    residual estimate of u's ledger row."""
    return precondition(apply_elliptic(p, u, p.f))


def step(p, state, alpha, prune_mass_budget=None):
    """Advance one iteration, appending a ledger row and asserting its bounds:
    the tracked norm before pruning against cosine_bound, and the radius
    exactly.  Y_t needs no check: it is the same recursion on Y_{t-1} >= the
    old norm, and rounding is monotone, so cosine_bound <= Y_t."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError("alpha must be finite and nonnegative")
    u = state.u
    direction = _preconditioned_residual(p, u)
    if state.ledger[-1].residual_estimate is None:
        state.ledger[-1].residual_estimate = h1_norm_torus(direction)

    u_next = add(u, scale(direction, -alpha))

    bound = cosine_ledger_bound(p, alpha, u.tracked_norm)
    if u_next.tracked_norm > bound:
        raise LedgerViolationError(
            f"step {state.t}: tracked norm {u_next.tracked_norm!r} exceeds "
            f"recursion bound {bound!r}"
        )

    threshold = 0.0 if prune_mass_budget is None else _budget_threshold(u_next, prune_mass_budget)
    dropped = 0.0
    if threshold > 0.0 and u_next.atom_count:
        pre_radius = u_next.support_radius
        u_next, dropped = prune(u_next, threshold)
        state.eps_budget_used += dropped * math.sqrt(1.0 + pre_radius**2)

    if not _radius_within(u_next.support_radius_sq, u.support_radius_sq, p.coeff_radius_sq, 1):
        raise LedgerViolationError(
            f"step {state.t}: support radius {u_next.support_radius!r} exceeds "
            f"{u.support_radius!r} + {p.coeff_radius!r}"
        )
    y_next = cosine_ledger_bound(p, alpha, state.ledger[-1].y_bound)

    state.t += 1
    state.u = u_next
    state.ledger.append(
        LedgerRecord(
            t=state.t,
            atom_count=u_next.atom_count,
            tracked_norm=u_next.tracked_norm,
            support_radius=u_next.support_radius,
            support_radius_sq=u_next.support_radius_sq,
            dropped_mass=dropped,
            cosine_bound=bound,
            y_bound=y_next,
        )
    )
    return state


@dataclass
class SolveResult:
    u: AtomSum
    state: IterationState
    steps_planned: int
    alpha: float
    contraction: float
    initial_error: float
    epsilon: float
    predicted_norm: float
    predicted_radius: float
    probe_estimates: tuple
    reference: Optional[GalerkinReference] = None
    final_h1_error: Optional[float] = None


# largest dimension at which solve() checks every step against a Galerkin
# reference by default; the reference's unknowns grow like (2K + 1)^d
ORACLE_DIMENSION_CAP = 3

# most unknowns (2K + 1)^d a Galerkin reference may have; the shipped and
# tested boxes stay below 10^4
ORACLE_MAX_UNKNOWNS = 10**6


def _check_size(p, steps, truncation):
    """Refuse a solve whose frequencies or reference box exceed their caps.

    Each step shifts a frequency component by at most the coefficients'
    largest one, so after T steps (and in the final residual L u_T - f) no
    component exceeds max|f| + T max(max|A|, max|c|).  The reference box
    |k|_inf <= K, when there is one, has (2K + 1)^d unknowns.
    """
    shift = max(_max_abs_frequency(s) for s in (p.c, *(e for row in p.a_entries for e in row)))
    reach = _max_abs_frequency(p.f) + steps * shift
    if reach > MAX_FREQUENCY:
        raise SizeLimitError(
            f"the {steps} planned steps can reach frequency component {reach}, beyond "
            f"the representable +-{MAX_FREQUENCY}; lower the coefficient frequencies "
            "or loosen epsilon"
        )
    if truncation is not None:
        unknowns = (2 * truncation + 1) ** p.dimension
        if unknowns > ORACLE_MAX_UNKNOWNS:
            raise SizeLimitError(
                f"the Galerkin reference box K={truncation} in dimension {p.dimension} has "
                f"{unknowns} unknowns, above the cap of {ORACLE_MAX_UNKNOWNS}; "
                "choose a smaller truncation with --oracle-K"
            )


def solve(p, epsilon, prune_enabled=True, compare_oracle=None, oracle_truncation=None):
    """Run the planned number of optimal-step iterations from u0 = 0.

    Half of epsilon is budgeted for the iteration count, half for
    pruning (spread evenly over the steps).  By default, up to dimension
    ORACLE_DIMENSION_CAP, every ledger row also records the exact H1
    distance to a Galerkin reference computed on a span containing every
    frequency the iteration can reach.  A plan of more than MAX_STEPS steps,
    or whose frequencies leave +-MAX_FREQUENCY, or whose reference exceeds
    ORACLE_MAX_UNKNOWNS, raises SizeLimitError, and an epsilon outside
    (0, 1/2), an f too large for its norms, or an oracle_truncation that
    cannot hold f raises InputError, all before the first step.  The plan's
    bounds need no final check: the last Y_t is predicted_norm bit for bit,
    and step's radius checks chained from 0 give predicted_radius's bound.
    """
    epsilon = float(epsilon)
    if oracle_truncation is not None:
        oracle_truncation = check_truncation(p, oracle_truncation)
    steps, predicted_radius, predicted_norm = main_theorem_predictor(p, epsilon)
    probe_estimates = ellipticity_probe(p)
    alpha, contraction = optimal_step(p.lam_min, p.lam_max)

    if compare_oracle is None:
        compare_oracle = p.dimension <= ORACLE_DIMENSION_CAP

    truncation = None
    if compare_oracle:
        truncation = oracle_truncation or default_truncation(p, steps)
    _check_size(p, steps, truncation)
    reference = None if truncation is None else galerkin_solve(p, truncation)

    state = initial_state(p)
    if reference is not None:
        state.ledger[0].h1_error = h1_distance(state.u, reference.u)

    total_budget = 0.5 * epsilon
    per_step_budget = None
    if prune_enabled and steps > 0 and total_budget > 0.0:
        per_step_budget = total_budget / steps

    for _ in range(steps):
        step(p, state, alpha, prune_mass_budget=per_step_budget)
        if reference is not None:
            state.ledger[-1].h1_error = h1_distance(state.u, reference.u)

    final = state.ledger[-1]
    final.residual_estimate = h1_norm_torus(_preconditioned_residual(p, state.u))

    return SolveResult(
        u=state.u,
        state=state,
        steps_planned=steps,
        alpha=alpha,
        contraction=contraction,
        initial_error=p.initial_error_bound(),
        epsilon=epsilon,
        predicted_norm=predicted_norm,
        predicted_radius=predicted_radius,
        probe_estimates=probe_estimates,
        reference=reference,
        final_h1_error=final.h1_error,
    )
