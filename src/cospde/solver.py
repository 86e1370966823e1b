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

from .atoms import AtomSum, add, h1_norm_torus, prune, scale
from .calculus import apply_elliptic, precondition
from .oracle import default_truncation, ellipticity_probe, galerkin_solve, h1_distance


class LedgerViolationError(RuntimeError):
    """An iterate broke a bound the algebra guarantees; aborting is the only
    safe response since it means the computed representation is corrupt."""


def optimal_step(lam_min, lam_max):
    """Step size minimizing the contraction factor, and that factor."""
    lam_min = float(lam_min)
    lam_max = float(lam_max)
    if not (math.isfinite(lam_min) and math.isfinite(lam_max)):
        raise ValueError("spectral bounds must be finite")
    if not 0.0 < lam_min <= lam_max:
        raise ValueError(f"need 0 < lam_min <= lam_max, got ({lam_min}, {lam_max})")
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
    """Planned (T, radius bound, tracked-norm bound) for a solve at epsilon.

    Mirrors solve(): T targets epsilon/2, leaving the other half for
    pruning.  The norm bound iterates the growth recursion Y_{t+1} =
    q Y_t + alpha ell_f from Y_0 = 0, which telescopes to the closed
    geometric form alpha*ell_f*(q^T - 1)/(q - 1); the recursion is used
    so the prediction is the bitwise same value the ledger accumulates.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    alpha, _ = optimal_step(p.lam_min, p.lam_max)
    steps = iteration_count_bound(
        p.lam_min, p.lam_max, p.initial_error_bound(), 0.5 * epsilon
    )
    q = growth_factor(p, alpha)
    y = 0.0
    for _ in range(steps):
        y = q * y + alpha * p.ell_f
    return steps, p.coeff_radius * steps, y


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
    y_bound: float


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
                          eps_budget_used=0.0, y_bound=0.0)


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


def step(p, state, alpha, prune_threshold=0.0, prune_mass_budget=None):
    """Advance one iteration, appending a ledger row and asserting its bounds."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError("alpha must be finite and nonnegative")
    u = state.u
    image = apply_elliptic(p, u)
    residual = add(image, scale(p.f, -1.0))
    direction = precondition(residual)
    if state.ledger[-1].residual_estimate is None:
        state.ledger[-1].residual_estimate = h1_norm_torus(direction)

    u_next = add(u, scale(direction, -alpha))

    bound = cosine_ledger_bound(p, alpha, u.tracked_norm)
    if u_next.tracked_norm > bound:
        raise LedgerViolationError(
            f"step {state.t}: tracked norm {u_next.tracked_norm!r} exceeds "
            f"recursion bound {bound!r}"
        )

    threshold = float(prune_threshold)
    if prune_mass_budget is not None:
        threshold = max(threshold, _budget_threshold(u_next, prune_mass_budget))
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
    y_next = growth_factor(p, alpha) * state.y_bound + alpha * p.ell_f
    if u_next.tracked_norm > y_next:
        raise LedgerViolationError(
            f"step {state.t}: tracked norm {u_next.tracked_norm!r} exceeds "
            f"accumulated bound {y_next!r}"
        )

    state.t += 1
    state.u = u_next
    state.y_bound = y_next
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


def _residual_norm(p, u):
    image = apply_elliptic(p, u)
    return h1_norm_torus(precondition(add(image, scale(p.f, -1.0))))


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
    reference: object = None
    final_h1_error: Optional[float] = None


def solve(p, epsilon, prune_enabled=True, prune_budget=None,
          compare_oracle=None, oracle_truncation=None):
    """Run the planned number of optimal-step iterations from u0 = 0.

    Half of epsilon is budgeted for the iteration count, half for
    pruning (spread evenly over the steps).  Up to dimension 3 every
    ledger row also records the exact H1 distance to a Galerkin
    reference computed on a span containing every frequency the
    iteration can reach.
    """
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    probe_estimates = ellipticity_probe(p)
    alpha, contraction = optimal_step(p.lam_min, p.lam_max)

    if compare_oracle is None:
        compare_oracle = p.dimension <= 3

    initial_error = p.initial_error_bound()
    steps = iteration_count_bound(p.lam_min, p.lam_max, initial_error, 0.5 * epsilon)
    reference = None
    if compare_oracle:
        truncation = (
            int(oracle_truncation)
            if oracle_truncation is not None
            else default_truncation(p, steps)
        )
        reference = galerkin_solve(p, truncation)

    state = initial_state(p)
    q = growth_factor(p, alpha)
    y = 0.0
    for _ in range(steps):
        y = q * y + alpha * p.ell_f
    predicted_norm = y
    predicted_radius = p.coeff_radius * steps
    if reference is not None:
        state.ledger[0].h1_error = h1_distance(state.u, reference)

    total_budget = 0.5 * epsilon if prune_budget is None else float(prune_budget)
    per_step_budget = None
    if prune_enabled and steps > 0 and total_budget > 0.0:
        per_step_budget = total_budget / steps

    for _ in range(steps):
        step(p, state, alpha, prune_mass_budget=per_step_budget)
        if reference is not None:
            state.ledger[-1].h1_error = h1_distance(state.u, reference)

    state.ledger[-1].residual_estimate = _residual_norm(p, state.u)

    final = state.ledger[-1]
    if final.tracked_norm > predicted_norm:
        raise LedgerViolationError(
            f"final tracked norm {final.tracked_norm!r} exceeds prediction "
            f"{predicted_norm!r}"
        )
    if not _radius_within(state.u.support_radius_sq, 0.0, p.coeff_radius_sq, steps):
        raise LedgerViolationError(
            f"final support radius {final.support_radius!r} exceeds prediction "
            f"{predicted_radius!r}"
        )

    return SolveResult(
        u=state.u,
        state=state,
        steps_planned=steps,
        alpha=alpha,
        contraction=contraction,
        initial_error=initial_error,
        epsilon=epsilon,
        predicted_norm=predicted_norm,
        predicted_radius=predicted_radius,
        probe_estimates=probe_estimates,
        reference=reference,
        final_h1_error=final.h1_error,
    )
