"""Iteration, step planning, and the growth ledger."""

import math
import tracemalloc

import numpy as np
import pytest

import cospde.atoms as atoms_module
import cospde.solver as solver_module
from cospde.atoms import AtomSum, InputError, add, h1_norm_torus, scale
from cospde.calculus import apply_elliptic
from cospde.oracle import _max_abs_frequency, default_truncation, galerkin_solve, h1_distance
from cospde.problem import EllipticProblem, constant_sum
from cospde.solver import (
    IterationState,
    LedgerViolationError,
    SizeLimitError,
    _budget_threshold,
    _radius_within,
    cosine_ledger_bound,
    growth_factor,
    initial_state,
    iteration_count_bound,
    main_theorem_predictor,
    optimal_step,
    solve,
    step,
)
from conftest import (collinear_problem, d1_benchmark, d2_benchmark, identity_problem,
                      inflating_merge)


def all_ones_problem():
    # ell_A = ell_c = ell_f = 1, R_A = 1, d = 1; not elliptic, but the
    # ledger arithmetic never looks at ellipticity
    a = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
    one = constant_sum(1, 1.0)
    f = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
    return EllipticProblem(((a,),), one, f, 1.0, 1.0)


class TestOptimalStep:
    def test_examples(self):
        assert optimal_step(1.0, 3.0) == (0.5, 0.5)
        assert optimal_step(1.0, 1.0) == (1.0, 0.0)
        alpha, factor = optimal_step(0.5, 2.5)
        assert alpha == 2.0 / 3.0
        assert factor == 2.0 / 3.0

    def test_invalid_bounds(self):
        for lam in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                optimal_step(*lam)


class TestIterationCountBound:
    def test_log_ratio_example(self):
        assert iteration_count_bound(1.0, 3.0, 1.0, 1e-3) == 10

    def test_already_converged(self):
        assert iteration_count_bound(1.0, 3.0, 1e-4, 1e-3) == 0
        assert iteration_count_bound(1.0, 3.0, 1e-3, 1e-3) == 0

    def test_equal_bounds_single_step(self):
        assert iteration_count_bound(2.0, 2.0, 10.0, 1e-9) == 1

    def test_matches_simulated_geometric_decay(self):
        lam_min, lam_max, initial, eps = 1.0, 2.0, 5.0, 0.05
        t_bound = iteration_count_bound(lam_min, lam_max, initial, eps)
        assert t_bound == 5
        factor = (lam_max - lam_min) / (lam_max + lam_min)
        err = initial
        steps = 0
        while err > eps:
            err *= factor
            steps += 1
        assert t_bound == steps

    def test_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            iteration_count_bound(1.0, 2.0, 1.0, 0.0)


class TestCosineLedgerBound:
    def test_all_ones_value(self):
        p = all_ones_problem()
        assert cosine_ledger_bound(p, 1.0, 1.0) == 9.0

    def test_zero_norm_gives_forcing_term(self):
        p = all_ones_problem()
        assert cosine_ledger_bound(p, 0.7, 0.0) == 0.7

    def test_d_squared_scaling(self):
        p2 = identity_problem(2)  # ell_A = 1, R_A = 0, ell_c = 1
        # 6*alpha*1*max(0,1)*4 + alpha + 1 with alpha = 1
        assert growth_factor(p2, 1.0) == 26.0


class TestMainTheoremPredictor:
    def test_zero_steps_zero_norm(self):
        p = identity_problem(1)
        tiny_f = AtomSum.from_atoms([(0.01, (1.0,), 0.0)])
        q = EllipticProblem(p.a_entries, p.c, tiny_f, 1.0, 1.0)
        steps, radius, norm = main_theorem_predictor(q, 0.4)
        assert steps == 0 and radius == 0.0 and norm == 0.0

    def test_single_step_is_forcing_term(self):
        p = identity_problem(1)
        steps, radius, norm = main_theorem_predictor(p, 0.4)
        assert steps == 1
        assert norm == 1.0 * p.ell_f  # alpha = 1
        assert radius == p.coeff_radius

    def test_recursion_matches_closed_form(self):
        p = d1_benchmark()
        steps, _, norm = main_theorem_predictor(p, 1e-3)
        assert steps == 10
        alpha, _ = optimal_step(p.lam_min, p.lam_max)
        denom = 6.0 * alpha * p.ell_A * max(p.R_A**2, 1.0) + alpha * p.ell_c
        closed = alpha * p.ell_f * ((denom + 1.0) ** steps - 1.0) / denom
        assert math.isclose(norm, closed, rel_tol=1e-12)

    def test_epsilon_range_enforced(self):
        p = d1_benchmark()
        for eps in (0.0, 0.5, 1.0, -0.1):
            with pytest.raises(ValueError):
                main_theorem_predictor(p, eps)

    def test_solve_and_predictor_share_the_epsilon_rule(self):
        p = identity_problem(1)
        for eps in (0.0, 0.5, 0.9, -0.1, math.nan, math.inf):
            with pytest.raises(InputError, match=r"\(0, 1/2\)"):
                main_theorem_predictor(p, eps)
            with pytest.raises(InputError, match=r"\(0, 1/2\)"):
                solve(p, eps)

    def test_oracle_truncation_checked_without_a_reference(self):
        # d = 4 runs no reference, yet a truncation that cannot hold f is refused
        p = identity_problem(4)
        with pytest.raises(InputError, match="--oracle-K must be at least 1"):
            solve(p, 1e-2, oracle_truncation=0)
        assert solve(p, 1e-2, oracle_truncation=1).reference is None

    def test_bad_bounds_are_input_errors(self):
        with pytest.raises(InputError):
            optimal_step(1.0, 0.5)

    @pytest.mark.parametrize("amplitude", [1e160, 1e200])
    def test_overflowing_initial_error_refused(self, amplitude):
        # |f|_H^-1 squares the amplitude, so both overflow to inf
        p = d1_benchmark()
        huge = EllipticProblem(p.a_entries, p.c, scale(p.f, amplitude), p.lam_min, p.lam_max)
        with np.errstate(over="ignore"):
            assert huge.initial_error_bound() == math.inf
        with pytest.raises(InputError, match="initial error bound"):
            main_theorem_predictor(huge, 1e-3)
        with pytest.raises(InputError, match="initial error bound"):
            solve(huge, 1e-3)


class TestStep:
    def test_identity_problem_one_step_exact(self):
        p = identity_problem(2)
        state = step(p, initial_state(p), alpha=1.0)
        assert [(a.amplitude, a.frequency, a.phase) for a in state.u.atoms] == [
            (0.5, (1.0, 0.0), 0.0)
        ]

    def test_zero_alpha_keeps_iterate(self):
        p = d1_benchmark()
        state = initial_state(p)
        step(p, state, alpha=0.5)
        u1 = state.u
        step(p, state, alpha=0.0)
        assert state.u == u1

    def test_ledger_rows_satisfy_recorded_bounds(self):
        for p in (d2_benchmark(), collinear_problem()):
            alpha, _ = optimal_step(p.lam_min, p.lam_max)
            state = initial_state(p)
            for _ in range(6):
                step(p, state, alpha)
            prev = state.ledger[0]
            for row in state.ledger[1:]:
                assert row.tracked_norm <= row.cosine_bound
                # the implication that lets step leave Y_t unchecked
                assert row.cosine_bound <= row.y_bound
                assert row.tracked_norm <= row.y_bound
                assert _radius_within(row.support_radius_sq, prev.support_radius_sq, p.coeff_radius_sq, 1)
                assert row.cosine_bound == cosine_ledger_bound(p, alpha, prev.tracked_norm)
                prev = row
            assert prev.support_radius_sq == state.u.support_radius_sq

    def test_residual_estimates_backfilled(self):
        p = d1_benchmark()
        state = initial_state(p)
        step(p, state, 0.5)
        step(p, state, 0.5)
        assert state.ledger[0].residual_estimate is not None
        assert state.ledger[1].residual_estimate is not None
        assert state.ledger[2].residual_estimate is None  # no step left from row 2

    def test_per_step_error_ratio_below_contraction_factor(self):
        p = d1_benchmark()
        ref = galerkin_solve(p, truncation=48).u
        alpha, factor = optimal_step(p.lam_min, p.lam_max)
        state = initial_state(p)
        errors = [h1_distance(state.u, ref)]
        for _ in range(10):
            step(p, state, alpha)
            errors.append(h1_distance(state.u, ref))
        for before, after in zip(errors, errors[1:]):
            assert after <= (factor + 1e-9) * before

    def test_radius_check_catches_one_lattice_step_beyond(self, monkeypatch):
        p = collinear_problem()
        alpha, _ = optimal_step(p.lam_min, p.lam_max)
        state = initial_state(p)
        for _ in range(4):
            step(p, state, alpha)
        assert state.u.support_radius_sq == 48.0  # reaches 4 * (1, 1, 1)
        # the next step may reach |5 * (1, 1, 1)|^2 = 75; (6, 6, 2) has 76
        stray = AtomSum.from_atoms([(1e-12, (6.0, 6.0, 2.0), 0.0)])
        real = solver_module.precondition
        monkeypatch.setattr(solver_module, "precondition", lambda s: add(real(s), stray))
        with pytest.raises(LedgerViolationError, match="support radius"):
            step(p, state, alpha)

    def test_mass_check_catches_an_inflating_merge(self, monkeypatch):
        p = d1_benchmark()
        alpha, _ = optimal_step(p.lam_min, p.lam_max)
        state = initial_state(p)
        step(p, state, alpha)
        step(p, state, alpha)
        monkeypatch.setattr(atoms_module, "_merge", inflating_merge(atoms_module._merge))
        with pytest.raises(LedgerViolationError, match="recursion bound"):
            step(p, state, alpha)

    def test_dimension_mismatch_rejected(self):
        p = d1_benchmark()
        state = initial_state(identity_problem(2))
        with pytest.raises(ValueError):
            step(p, state, 0.5)


class TestRadiusWithin:
    def test_exact_on_collinear_lattice_points(self):
        assert math.sqrt(75) > math.sqrt(48) + math.sqrt(3)  # the float test errs
        assert _radius_within(75.0, 48.0, 3.0, 1)
        assert not _radius_within(76.0, 48.0, 3.0, 1)
        assert _radius_within(27.0 * 25, 0.0, 27.0, 5)
        assert not _radius_within(27.0 * 25 + 1, 0.0, 27.0, 5)
        assert _radius_within(0.0, 0.0, 0.0, 3)

    def test_per_step_checks_imply_the_final_check(self):
        # the implication that lets solve leave the final radius unchecked: a
        # chain of integer squares from 0 passing every one-step check passes
        # the T-step check
        rng = np.random.default_rng(41)
        chains = 0
        for _ in range(2000):
            shift_sq = int(rng.integers(0, 30))
            steps = int(rng.integers(1, 9))
            if rng.random() < 0.5:
                # collinear lattice points k^2 * shift_sq, where bounds hold with equality
                ks = np.cumsum(rng.integers(0, 2, size=steps))
                chain = [0] + [int(k * k) * shift_sq for k in ks]
            else:
                chain = [0]
                for _ in range(steps):
                    reach = math.isqrt(chain[-1]) + math.isqrt(shift_sq) + 2
                    chain.append(int(rng.integers(0, reach * reach)))
            if all(_radius_within(b, a, shift_sq, 1) for a, b in zip(chain, chain[1:])):
                chains += 1
                assert _radius_within(chain[-1], 0, shift_sq, steps), (chain, shift_sq)
        assert chains > 1000


class TestBudgetThreshold:
    def sum_with_amps(self, amps):
        atoms = [(a, (float(i + 1),), 0.0) for i, a in enumerate(amps)]
        return AtomSum.from_atoms(atoms, dimension=1)

    def test_prefix_within_allowance(self):
        s = self.sum_with_amps([0.001, 0.01, 0.1, 1.0])
        unit = math.sqrt(1.0 + s.support_radius**2)
        thr = _budget_threshold(s, 0.02 * unit)
        # 0.001 + 0.01 fits, adding 0.1 does not; cutoff is the next amplitude
        assert thr == 0.1

    def test_nothing_fits(self):
        s = self.sum_with_amps([0.5, 1.0])
        assert _budget_threshold(s, 1e-6) == 0.0

    def test_everything_fits(self):
        s = self.sum_with_amps([0.5, 1.0])
        assert _budget_threshold(s, 100.0) == math.inf

    def test_equal_amplitudes_never_split(self):
        s = self.sum_with_amps([0.1, 0.1, 0.1, 0.1, 0.1])
        unit = math.sqrt(1.0 + s.support_radius**2)
        # allowance covers three of the five equal atoms: no valid cutoff
        assert _budget_threshold(s, 0.3 * unit) == 0.0

    def test_budget_accounting_in_step(self):
        p = d1_benchmark()
        state = initial_state(p)
        for _ in range(6):
            step(p, state, 0.5)
        # by now the high-frequency tail is far below the budget scale
        pre = state.eps_budget_used
        step(p, state, 0.5, prune_mass_budget=1e-4)
        row = state.ledger[-1]
        assert row.dropped_mass > 0.0
        assert state.eps_budget_used - pre <= 1e-4 * (1.0 + 1e-12)
        assert state.eps_budget_used - pre >= row.dropped_mass  # charged at unit >= 1


class TestSolve:
    def test_identity_problem_exact_in_one_step(self):
        result = solve(identity_problem(2), epsilon=1e-6)
        assert result.steps_planned == 1
        assert result.contraction == 0.0
        assert [(a.amplitude, a.frequency, a.phase) for a in result.u.atoms] == [
            (0.5, (1.0, 0.0), 0.0)
        ]
        assert result.final_h1_error <= 1e-14

    def test_d1_benchmark_meets_epsilon(self):
        result = solve(d1_benchmark(), epsilon=1e-4)
        assert result.final_h1_error <= 1e-4
        assert len(result.state.ledger) == result.steps_planned + 1
        assert result.state.eps_budget_used <= 0.5e-4 * (1.0 + 1e-12)

    def test_d2_benchmark_meets_epsilon(self):
        p = d2_benchmark()
        result = solve(p, epsilon=1e-3)
        assert result.final_h1_error <= 1e-3
        final = result.state.ledger[-1]
        assert final.tracked_norm <= result.predicted_norm
        assert _radius_within(final.support_radius_sq, result.state.ledger[0].support_radius_sq,
                              p.coeff_radius_sq, result.steps_planned)

    def test_collinear_frequencies_pass_the_radius_ledger(self):
        p = collinear_problem()
        result = solve(p, 1e-8, prune_enabled=False)
        assert result.steps_planned >= 5
        assert result.final_h1_error <= 1e-8
        final = result.state.ledger[-1]
        assert final.support_radius_sq == 3.0 * result.steps_planned**2
        assert final.tracked_norm <= result.predicted_norm
        # sqrt(75) rounds above sqrt(48) + sqrt(3) here, so float radii would
        # misorder: the radius ledger is checked on exact squared norms
        assert _radius_within(final.support_radius_sq, result.state.ledger[0].support_radius_sq,
                              p.coeff_radius_sq, result.steps_planned)

    def test_predictor_agrees_with_solve_plan(self):
        p = d1_benchmark()
        steps, radius, norm = main_theorem_predictor(p, 1e-3)
        result = solve(p, epsilon=1e-3)
        assert result.steps_planned == steps
        assert result.predicted_norm == norm
        assert result.predicted_radius == radius

    def test_deterministic_rerun(self):
        a = solve(d1_benchmark(), epsilon=1e-3)
        b = solve(d1_benchmark(), epsilon=1e-3)
        assert a.u == b.u
        for ra, rb in zip(a.state.ledger, b.state.ledger):
            assert (ra.tracked_norm, ra.support_radius, ra.dropped_mass) == (
                rb.tracked_norm,
                rb.support_radius,
                rb.dropped_mass,
            )
            assert ra.h1_error == rb.h1_error

    def test_pruning_error_within_accounted_budget(self):
        p = d1_benchmark()
        pruned = solve(p, epsilon=1e-3, prune_enabled=True)
        plain = solve(p, epsilon=1e-3, prune_enabled=False)
        assert plain.state.eps_budget_used == 0.0
        gap = pruned.final_h1_error - plain.final_h1_error
        assert gap <= pruned.state.eps_budget_used

    def test_pruning_reduces_atom_count(self):
        p = d2_benchmark()
        pruned = solve(p, epsilon=1e-2, prune_enabled=True)
        plain = solve(p, epsilon=1e-2, prune_enabled=False)
        assert pruned.u.atom_count <= plain.u.atom_count

    def test_probe_failure_propagates(self):
        a = AtomSum.from_atoms([(1.0, (0.0,), 0.0), (2.0, (1.0,), 0.0)])
        one = constant_sum(1, 1.0)
        bad = EllipticProblem(((a,),), one, one, 0.1, 3.0)
        from cospde.oracle import ProbeFailureError

        with pytest.raises(ProbeFailureError):
            solve(bad, epsilon=1e-2)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            solve(d1_benchmark(), epsilon=0.0)


def high_frequency_problem():
    """d=1, A = 1 + cos(2^23 x)/4: 11 steps at 1e-3 carry frequencies far past 2^24."""
    a = AtomSum.from_atoms([(1.0, (0.0,), 0.0), (0.25, (2.0**23,), 0.0)])
    f = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
    return EllipticProblem(((a,),), constant_sum(1, 1.0), f, 0.5, 1.5)


def steep_d3_problem():
    """d=3, A_ii = 2 + cos(100 x_i): the default reference box is K = 1003."""
    zero = AtomSum.zero(3)
    axes = np.eye(3)
    diag = [AtomSum.from_atoms([(2.0, (0.0,) * 3, 0.0), (1.0, tuple(100.0 * axes[i]), 0.0)])
            for i in range(3)]
    a = tuple(tuple(diag[i] if i == j else zero for j in range(3)) for i in range(3))
    f = AtomSum.from_atoms([(1.0, (1.0, 0.0, 0.0), 0.0)])
    return EllipticProblem(a, constant_sum(3, 1.0), f, 1.0, 3.0)


def tiny_lambda_min_problem():
    """A = c = 1, f = cos x with lambda_min 1e-10: at 1e-3 the plan is
    149,668,018,676 steps."""
    one = constant_sum(1, 1.0)
    f = AtomSum.from_atoms([(1.0, (1.0,), 0.0)])
    return EllipticProblem(((one,),), one, f, 1e-10, 1.0)


class TestSizeLimits:
    def test_step_count_over_cap_refused_before_the_recursion(self):
        p = tiny_lambda_min_problem()
        assert iteration_count_bound(p.lam_min, p.lam_max, p.initial_error_bound(),
                                     0.5e-3) == 149668018676
        for run in (lambda: main_theorem_predictor(p, 1e-3), lambda: solve(p, 1e-3)):
            with pytest.raises(SizeLimitError, match="149668018676 steps"):
                run()

    def test_step_cap_is_inclusive(self, monkeypatch):
        p = d1_benchmark()
        steps = main_theorem_predictor(p, 1e-3)[0]
        monkeypatch.setattr(solver_module, "MAX_STEPS", steps)
        assert solve(p, 1e-3, compare_oracle=False).steps_planned == steps
        monkeypatch.setattr(solver_module, "MAX_STEPS", steps - 1)
        with pytest.raises(SizeLimitError, match=f"needs {steps} steps"):
            solve(p, 1e-3, compare_oracle=False)

    @pytest.mark.parametrize("compare_oracle", [True, False])
    def test_unreachable_frequency_growth_refused(self, compare_oracle):
        p = high_frequency_problem()
        assert main_theorem_predictor(p, 1e-3)[0] == 11
        with pytest.raises(SizeLimitError, match="frequency component 92274689"):
            solve(p, 1e-3, compare_oracle=compare_oracle)

    def test_reach_is_the_largest_frequency_the_solve_computes(self, monkeypatch):
        # unpruned, the final residual L u_T - f attains max|f| + T max|A| exactly
        p = d1_benchmark()
        result = solve(p, 1e-3, prune_enabled=False, compare_oracle=False)
        reach = 1 + result.steps_planned
        residual = add(apply_elliptic(p, result.u), scale(p.f, -1.0))
        assert _max_abs_frequency(residual) == reach
        monkeypatch.setattr(solver_module, "MAX_FREQUENCY", reach)
        solve(p, 1e-3, prune_enabled=False, compare_oracle=False)
        monkeypatch.setattr(solver_module, "MAX_FREQUENCY", reach - 1)
        with pytest.raises(SizeLimitError):
            solve(p, 1e-3, prune_enabled=False, compare_oracle=False)

    def test_oracle_box_over_cap_refused_before_assembly(self, monkeypatch):
        p = steep_d3_problem()
        assert default_truncation(p, main_theorem_predictor(p, 1e-3)[0]) == 1003

        def unexpected(*args):
            raise AssertionError("the reference was assembled")

        monkeypatch.setattr(solver_module, "galerkin_solve", unexpected)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="8084294343 unknowns"):
                solve(p, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_oracle_cap_counts_the_whole_box(self, monkeypatch):
        # identity_problem(2) at 1e-6: T = 1, K = 3, so 7^2 = 49 unknowns
        p = identity_problem(2)
        monkeypatch.setattr(solver_module, "ORACLE_MAX_UNKNOWNS", 49)
        assert solve(p, 1e-6).reference is not None
        monkeypatch.setattr(solver_module, "ORACLE_MAX_UNKNOWNS", 48)
        with pytest.raises(SizeLimitError, match="49 unknowns"):
            solve(p, 1e-6)
        assert solve(p, 1e-6, compare_oracle=False).reference is None
