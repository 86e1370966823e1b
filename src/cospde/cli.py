"""Command line front end.

Subcommands:
    solve           run the iteration on a problem file, writing ledger.csv,
                    solution.atoms, summary.txt and (up to dimension 3)
                    reference.atoms
    rate-study      Monte Carlo width sweep against the file's g block, or
                    against a fresh solve when no g is given
    scaling-report  solve the built-in diagonal cosine family over a list of
                    dimensions and fit the norm growth exponent
    validate        run the named self-check battery

All numeric output is written with repr so reruns are byte identical;
the only exception is the wall-time column of scaling.csv.  Exit codes:
0 success, 1 failure, 2 problem-file or usage error, 3 ellipticity probe
failure, 4 ledger violation.  Any failure after output begins leaves a
FAILED marker file in the output directory.
"""

import argparse
import math
import os
import sys
import time
from pathlib import Path

from .atoms import to_text
from .oracle import ProbeFailureError
from .problem import diagonal_cosine_family
from .problemfile import ParseError, build_problem, parse_problem_file
from .sampler import ols_fit, rate_study
from .solver import LedgerViolationError, solve
from .validate import run_validation

LEDGER_HEADER = (
    "t",
    "atom_count",
    "tracked_norm",
    "support_radius",
    "dropped_mass",
    "h1_error_vs_oracle",
    "cosine_bound",
    "Y_t",
)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in lines:
            handle.write(line + "\n")


def _write_csv(path, header, rows, trailer=()):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(",".join(_fmt(v) for v in row) for row in trailer)
    _write_lines(path, lines)


def _parse_int_list(text, flag):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParseError(0, f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise ParseError(0, f"{flag} is empty")
    return values


def _workers():
    raw = os.environ.get("COSPDE_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(0, f"COSPDE_WORKERS must be an integer, got {raw!r}")
    return max(1, value)


def _solve_problem(args, data):
    problem = build_problem(data)
    epsilon = args.epsilon if args.epsilon is not None else data.epsilon
    if epsilon is None:
        raise ParseError(0, "epsilon missing: set it in the file or pass --epsilon")
    return problem, solve(
        problem,
        epsilon,
        prune_enabled=not args.no_prune,
        prune_budget=data.prune_budget,
        oracle_truncation=args.oracle_K,
    )


def cmd_solve(args, out):
    data = parse_problem_file(args.problem)
    problem, result = _solve_problem(args, data)

    rows = [
        (
            rec.t,
            rec.atom_count,
            rec.tracked_norm,
            rec.support_radius,
            rec.dropped_mass,
            rec.h1_error,
            rec.cosine_bound,
            rec.y_bound,
        )
        for rec in result.state.ledger
    ]
    _write_csv(out / "ledger.csv", LEDGER_HEADER, rows)
    _write_lines(out / "solution.atoms", to_text(result.u).splitlines())
    reference = result.reference
    if reference is not None:
        _write_lines(out / "reference.atoms", to_text(reference.to_atom_sum()).splitlines())

    final = result.state.ledger[-1]
    a_min, a_max, c_min, c_max = result.probe_estimates
    summary = [
        f"dimension {problem.dimension}",
        f"epsilon {result.epsilon!r}",
        f"alpha {result.alpha!r}",
        f"contraction_factor {result.contraction!r}",
        f"initial_error {result.initial_error!r}",
        f"steps_planned {result.steps_planned}",
        f"steps_run {final.t}",
        f"final_atom_count {final.atom_count}",
        f"final_tracked_norm {final.tracked_norm!r}",
        f"predicted_norm {result.predicted_norm!r}",
        f"final_support_radius {final.support_radius!r}",
        f"predicted_radius {result.predicted_radius!r}",
        f"final_h1_error {_fmt(result.final_h1_error)}",
        f"oracle_cg_iterations {'none' if reference is None else reference.cg_iterations}",
        f"oracle_residual {'none' if reference is None else repr(reference.residual)}",
        f"residual_estimate {_fmt(final.residual_estimate)}",
        f"pruned_mass_accounted {result.state.eps_budget_used!r}",
        f"probe_a_range ({a_min!r}, {a_max!r})",
        f"probe_c_range ({c_min!r}, {c_max!r})",
    ]
    _write_lines(out / "summary.txt", summary)
    return 0


def cmd_rate_study(args, out):
    data = parse_problem_file(args.problem)
    target = data.g
    if target is None:
        _, result = _solve_problem(args, data)
        target = result.u
    seed = args.seed if args.seed is not None else (data.seed or 0)
    widths = _parse_int_list(args.widths, "--widths")
    study = rate_study(target, widths, trials=args.trials, seed=seed,
                       workers=_workers())

    _write_csv(out / "trials.csv", ("k", "trial", "h1_error"), study.rows)
    if study.slope is None:
        trailer = (("slope", "degenerate", "stderr", "degenerate"),)
    else:
        trailer = (("slope", study.slope, "stderr", study.slope_stderr),)
    _write_csv(
        out / "summary.csv",
        ("k", "rms_error", "bound", "ratio"),
        study.summary,
        trailer,
    )
    return 0


def cmd_scaling_report(args, out):
    dims = _parse_int_list(args.dims, "--dims")
    if sorted(set(dims)) != dims:
        raise ParseError(0, "--dims must be strictly increasing")
    rows = []
    for d in dims:
        problem = diagonal_cosine_family(d)
        start = time.perf_counter()
        result = solve(
            problem,
            args.epsilon,
            prune_enabled=not args.no_prune,
            compare_oracle=False,
        )
        elapsed = time.perf_counter() - start
        final = result.state.ledger[-1]
        rows.append(
            (
                d,
                result.steps_planned,
                final.tracked_norm,
                final.y_bound,
                final.atom_count,
                elapsed,
            )
        )
    trailer = []
    if len(dims) >= 2:
        ln_d = [math.log(r[0]) for r in rows]
        fitted, _ = ols_fit(ln_d, [math.log(r[2]) for r in rows])
        predictor, _ = ols_fit(ln_d, [math.log(r[3]) for r in rows])
        trailer = [("fitted_exponent", fitted), ("predictor_exponent", predictor)]
    _write_csv(
        out / "scaling.csv",
        ("d", "T", "final_tracked_norm", "Y_T", "atom_count", "wall_time_s"),
        rows,
        trailer,
    )
    return 0


def cmd_validate(args, out):
    lines, ok = run_validation()
    _write_lines(out / "validation.txt", lines)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cospde",
        description="Elliptic PDE solves in a closed algebra of cosine atoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the iteration on a problem file")
    p_solve.add_argument("problem", help="path to a problem file")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--epsilon", type=float, default=None,
                         help="target accuracy (overrides the file)")
    p_solve.add_argument("--no-prune", action="store_true",
                         help="disable amplitude pruning")
    p_solve.add_argument("--oracle-K", type=int, default=None,
                         help="frequency truncation for the reference solve")

    p_rate = sub.add_parser("rate-study", help="Monte Carlo sampling width sweep")
    p_rate.add_argument("problem", help="path to a problem file")
    p_rate.add_argument("--out", required=True, help="output directory")
    p_rate.add_argument("--widths", default="16,32,64,128,256",
                        help="comma-separated network widths")
    p_rate.add_argument("--trials", type=int, default=50,
                        help="independent samples per width")
    p_rate.add_argument("--seed", type=int, default=None,
                        help="base seed (overrides the file)")
    p_rate.add_argument("--epsilon", type=float, default=None,
                        help="accuracy for the implicit solve when no g block is given")
    p_rate.add_argument("--no-prune", action="store_true",
                        help="disable pruning in the implicit solve")
    p_rate.add_argument("--oracle-K", type=int, default=None,
                        help="reference truncation for the implicit solve")

    p_scale = sub.add_parser("scaling-report",
                             help="dimension sweep on the built-in cosine family")
    p_scale.add_argument("--out", required=True, help="output directory")
    p_scale.add_argument("--dims", default="1,2,4,8,16",
                         help="comma-separated dimensions, strictly increasing")
    p_scale.add_argument("--epsilon", type=float, default=1e-2,
                         help="target accuracy for every solve")
    p_scale.add_argument("--no-prune", action="store_true",
                         help="disable amplitude pruning")

    p_val = sub.add_parser("validate", help="run the self-check battery")
    p_val.add_argument("--out", required=True, help="output directory")

    p_solve.set_defaults(handler=cmd_solve)
    p_rate.set_defaults(handler=cmd_rate_study)
    p_scale.set_defaults(handler=cmd_scaling_report)
    p_val.set_defaults(handler=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "FAILED"
    try:
        code = args.handler(args, out)
    except (ParseError, FileNotFoundError) as exc:
        _write_lines(marker, [f"parse error: {exc}"])
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProbeFailureError as exc:
        _write_lines(marker, [f"probe failure: {exc}"])
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LedgerViolationError as exc:
        _write_lines(marker, [f"ledger violation: {exc}"])
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        _write_lines(marker, [f"{type(exc).__name__}: {exc}"])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 0 and marker.exists():
        marker.unlink()
    elif code != 0 and not marker.exists():
        _write_lines(marker, [f"command exited with status {code}"])
    return code


if __name__ == "__main__":
    sys.exit(main())
