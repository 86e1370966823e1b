"""Named self-checks behind the `validate` CLI command.

Each check is a small deterministic exercise of one part of the library
against an independent computation (finite differences, FFT grids,
quadrature, brute-force evaluation).  A check returns a one-line detail
string on success and raises on failure; the report is one PASS/FAIL
line per check and is byte-identical across runs.
"""

import math

import numpy as np

from .atoms import AtomSum, evaluate, from_text, to_text
from .calculus import partial_derivative, product
from .oracle import (
    ellipticity_probe,
    fft_precondition_check,
    galerkin_solve,
    green1d_check,
)
from .problem import EllipticProblem, constant_sum, identity_coefficients
from .sampler import h1_error_exact, rate_study, sample_network
from .solver import solve


def _random_sum(rng, dimension, count, max_freq=3):
    freqs = rng.integers(-max_freq, max_freq + 1, size=(count, dimension))
    amps = rng.uniform(-2.0, 2.0, size=count)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return AtomSum.from_atoms(
        [(amps[i], tuple(float(v) for v in freqs[i]), phases[i]) for i in range(count)],
        dimension=dimension,
    )


def _d1_benchmark():
    a = AtomSum.from_atoms([(2.0, (0.0,), 0.0), (1.0, (1.0,), 0.0)], dimension=1)
    c = constant_sum(1, 1.0)
    f = AtomSum.from_atoms([(1.0, (1.0,), 0.0)], dimension=1)
    return EllipticProblem(((a,),), c, f, 1.0, 3.0)


def check_atom_merge():
    # cos(t) + cos(t + pi/2) collapses to sqrt(2) cos(t + pi/4)
    s = AtomSum.from_atoms([(1.0, (1.0,), 0.0), (1.0, (1.0,), math.pi / 2)])
    if s.atom_count != 1:
        raise AssertionError(f"merged into {s.atom_count} atoms, expected 1")
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    err = np.max(
        np.abs(evaluate(s, t[:, None]) - math.sqrt(2.0) * np.cos(t + math.pi / 4))
    )
    if err > 1e-12:
        raise AssertionError(f"pointwise error {err!r}")
    # the same amplitudes at b and b + pi, shuffled together, cancel exactly
    rng = np.random.default_rng(17)
    amps = rng.uniform(-1.0, 1.0, 200)
    cancel = AtomSum(
        2,
        True,
        np.concatenate([amps, rng.permutation(amps)]),
        np.tile([1.0, -2.0], (400, 1)),
        np.repeat([2.5, 2.5 + math.pi], 200),
    )
    if not cancel.is_zero:
        raise AssertionError(f"b and b + pi left {cancel.atom_count} atoms, expected none")
    # phases just above 0 and just below 2 pi are one phase
    wrap = AtomSum.from_atoms([(1.0, (1.0,), 1e-13), (2.0, (1.0,), 2.0 * math.pi - 1e-13)])
    if [(a.amplitude, a.phase) for a in wrap.atoms] != [(3.0, 1e-13)]:
        raise AssertionError(f"wrap-around merge gave {wrap.atoms!r}")
    return f"1 atom, max pointwise error {err!r}; b/b+pi cancel exactly; 2pi wrap merges"


def check_canonical_idempotence():
    rng = np.random.default_rng(11)
    s = _random_sum(rng, 3, 30)
    if AtomSum(s.dimension, True, s.amplitudes, s.frequencies, s.phases) != s:
        raise AssertionError("second canonicalization changed the sum")
    return f"{s.atom_count} atoms stable under re-canonicalization"


def check_serialization_round_trip():
    rng = np.random.default_rng(12)
    s = _random_sum(rng, 2, 25)
    if from_text(to_text(s)) != s:
        raise AssertionError("text round trip changed the sum")
    return f"{s.atom_count} atoms round-trip bitwise"


def check_product_pointwise():
    rng = np.random.default_rng(13)
    s1 = _random_sum(rng, 2, 8)
    s2 = _random_sum(rng, 2, 7)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(400, 2))
    err = np.max(
        np.abs(evaluate(product(s1, s2), pts) - evaluate(s1, pts) * evaluate(s2, pts))
    )
    if err > 1e-12:
        raise AssertionError(f"pointwise error {err!r}")
    return f"max pointwise error {err!r}"


def check_derivative_finite_difference():
    rng = np.random.default_rng(14)
    s = _random_sum(rng, 2, 10)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(200, 2))
    h = 1e-5
    worst = 0.0
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        fd = (evaluate(s, pts + shift) - evaluate(s, pts - shift)) / (2.0 * h)
        exact = evaluate(partial_derivative(s, axis), pts)
        scale_ref = np.max(np.abs(exact)) or 1.0
        worst = max(worst, float(np.max(np.abs(fd - exact)) / scale_ref))
    if worst > 1e-6:
        raise AssertionError(f"relative error {worst!r}")
    return f"max relative error {worst!r}"


def check_precondition_fft():
    rng = np.random.default_rng(15)
    s = _random_sum(rng, 2, 20)
    err = fft_precondition_check(s, 32)
    if err > 1e-11:
        raise AssertionError(f"grid discrepancy {err!r}")
    return f"max grid discrepancy {err!r}"


def check_green_function_1d():
    worst = 0.0
    for w in (0.0, 1.0, 2.0, 5.0, 10.0):
        worst = max(worst, green1d_check(w, 60.0, 4096))
    if worst > 1e-6:
        raise AssertionError(f"quadrature discrepancy {worst!r}")
    return f"max discrepancy over w in {{0,1,2,5,10}}: {worst!r}"


def check_ellipticity_probe():
    a_min, a_max, c_min, c_max = ellipticity_probe(_d1_benchmark())
    if not (0.99 <= a_min <= 1.0 and 2.99 <= a_max <= 3.0):
        raise AssertionError(f"A range ({a_min!r}, {a_max!r}) off target")
    if not (c_min == 1.0 and c_max == 1.0):
        raise AssertionError(f"c range ({c_min!r}, {c_max!r}) off target")
    return f"A in [{a_min!r}, {a_max!r}], c constant 1"


def check_galerkin_identity():
    # -Lap u + u = cos(x1) has the closed form u = cos(x1)/2
    p = EllipticProblem(
        identity_coefficients(2),
        constant_sum(2, 1.0),
        AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)], dimension=2),
        1.0,
        1.0,
    )
    field = galerkin_solve(p, 4)
    u = field.to_atom_sum()
    expected = AtomSum.from_atoms([(0.5, (1.0, 0.0), 0.0)], dimension=2)
    if u != expected:
        raise AssertionError(f"got {u!r}")
    return "recovers cos(x1)/2 exactly"


def check_one_step_solve():
    p = EllipticProblem(
        identity_coefficients(2),
        constant_sum(2, 1.0),
        AtomSum.from_atoms([(1.0, (1.0, 0.0), 0.0)], dimension=2),
        1.0,
        1.0,
    )
    result = solve(p, 1e-3, prune_enabled=False)
    if result.steps_planned != 1:
        raise AssertionError(f"planned {result.steps_planned} steps, expected 1")
    if not result.final_h1_error <= 1e-14:
        raise AssertionError(f"final error {result.final_h1_error!r}")
    return f"T=1, final error {result.final_h1_error!r}"


def check_ledger_solve_1d():
    result = solve(_d1_benchmark(), 1e-2)
    final = result.state.ledger[-1]
    if not result.final_h1_error <= 1e-2:
        raise AssertionError(f"final error {result.final_h1_error!r} above 1e-2")
    if final.tracked_norm > result.predicted_norm:
        raise AssertionError("tracked norm above prediction")
    return (
        f"T={result.steps_planned}, final error {result.final_h1_error!r}, "
        f"tracked {final.tracked_norm!r} <= bound {result.state.y_bound!r}"
    )


def check_sampler_round_trip():
    g = AtomSum.from_atoms([(1.5, (2.0, -1.0), 0.7)], dimension=2)
    net = sample_network(g, 64, seed=3)
    err = h1_error_exact(net, g)
    if err != 0.0:
        raise AssertionError(f"single-atom target reproduced with error {err!r}")
    again = sample_network(g, 64, seed=3)
    if not (
        np.array_equal(net.amplitudes, again.amplitudes)
        and np.array_equal(net.frequencies, again.frequencies)
        and np.array_equal(net.phases, again.phases)
    ):
        raise AssertionError("same seed produced a different network")
    return "exact single-atom reproduction, seed-stable"


def check_sampler_rate():
    rng = np.random.default_rng(16)
    g = _random_sum(rng, 2, 6)
    study = rate_study(g, [8, 32, 128], trials=30, seed=5)
    bad = [row for row in study.summary if row[1] > row[2]]
    if bad:
        raise AssertionError(f"RMS above bound at widths {[r[0] for r in bad]}")
    return f"RMS under bound at all widths, slope {study.slope!r}"


CHECKS = (
    ("atom-merge", check_atom_merge),
    ("canonical-idempotence", check_canonical_idempotence),
    ("serialization-round-trip", check_serialization_round_trip),
    ("product-pointwise", check_product_pointwise),
    ("derivative-finite-difference", check_derivative_finite_difference),
    ("precondition-fft", check_precondition_fft),
    ("green-function-1d", check_green_function_1d),
    ("ellipticity-probe", check_ellipticity_probe),
    ("galerkin-identity", check_galerkin_identity),
    ("one-step-solve", check_one_step_solve),
    ("ledger-solve-1d", check_ledger_solve_1d),
    ("sampler-round-trip", check_sampler_round_trip),
    ("sampler-rate", check_sampler_rate),
)


def run_validation():
    """Run every check; returns (report lines, all passed)."""
    lines = []
    ok = True
    for name, fn in CHECKS:
        try:
            detail = fn()
            lines.append(f"PASS {name}: {detail}")
        except Exception as exc:
            ok = False
            lines.append(f"FAIL {name}: {exc}")
    lines.append(f"{sum(1 for l in lines if l.startswith('PASS'))}/{len(CHECKS)} checks passed")
    return lines, ok
