"""The four benchmark workloads: inputs from a seed, operations, output checks.

Each workload builds its inputs from the workload seed, and then offers one
*pass*: the list of operations that the run repeats until its time is up.
An operation is timed around its call into `cospde` only; reading and
checking its outputs happens afterwards, outside the timed region.

Checks that need a reference value get it from `reference.py`, which
shares no code with `cospde`, or from a table committed in this directory.
A failed operation fails the checks unless the workload lists it as a known
failure.

The module imports `cospde` from the checkout's `src/`, so `run.py` must put
that directory on `sys.path` first.  Public `cospde` functions are always
looked up as module attributes at call time (`cospde.solve`, `cli.main`), so
the traced run can rebind them.
"""

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cospde
import reference
from cospde import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBLEMS = ROOT / "problems"
D1_FILE = PROBLEMS / "d1_benchmark.txt"
D2_FILE = PROBLEMS / "d2_benchmark.txt"
SAMPLING_FILE = PROBLEMS / "sampling_target.txt"

RATE_WIDTHS = ",".join(str(2**e) for e in range(4, 13))  # 16 .. 4096
RATE_TRIALS = 100
RATE_SLOPE_RANGE = (-0.6, -0.4)
SCALING_DIMS = ",".join(str(d) for d in range(1, 17))
SCALING_EPSILON = "1e-2"
# scaling.csv of the current code without its wall-time column; T and atom
# counts must match exactly, the floats to SCALING_RTOL
SCALING_EXPECTED = HERE / "scaling_expected.csv"
SCALING_RTOL = 1e-9

# solve-d2 is checked against a Galerkin solution of its own: the reference
# operator's box [-K, K]^2, iterated until the step no longer changes it
D2_REFERENCE_K = 40
D2_REFERENCE_STEPS = 120
# the H1 error the solve reports must agree with the independent one
D2_ERROR_RTOL = 1e-6

# dense-d3: the frequency pattern and amplitude magnitudes of problem i come
# from structure seed i (0 .. DENSE_FAMILY-1); the workload seed draws the
# amplitude signs, the phases and a signed permutation of the axes.  Those
# are symmetries of the frequency lattice, so every seed has the same atom
# counts, step counts and false radius violations, and run-to-run changes in
# solve time measure the code, not the draw.
DENSE_FAMILY = 24
DENSE_EPSILON = 1e-3
DENSE_C_AMPLITUDE = 0.25
DENSE_F_AMPLITUDE = 1.0
DENSE_ATOMS = 4
# structures whose solve ends in the false radius violation on every seed
DENSE_KNOWN_FAILURES = frozenset({1, 2, 5, 6, 15, 16, 19, 22})
# an unpruned solve must equal the reference's own iterate to this share of
# its H1 norm
DENSE_ITERATE_RTOL = 1e-11


@dataclass
class Outcome:
    """What one operation produced.

    `fingerprint` hashes the output bytes (or the error text of a failed
    operation); it must repeat exactly across passes and between the traced
    and untraced runs.  `error` is None on success.  `problems` lists failed
    correctness checks.
    """

    fingerprint: str
    error: str | None = None
    problems: list = field(default_factory=list)


@dataclass
class Operation:
    label: str
    call: object   # timed: () -> raw result
    check: object  # untimed: raw result -> Outcome


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def _failed(error, expected=False):
    """Outcome of an operation that raised or exited non-zero."""
    problems = [] if expected else [f"unexpected failure: {error}"]
    return Outcome(_digest(error), error, problems)


def _reference_operator(problem, K):
    a = [[reference.atoms_of(e) for e in row] for row in problem.a_entries]
    return reference.Operator(a, reference.atoms_of(problem.c), reference.atoms_of(problem.f), K)


def _cli_call(argv):
    def call():
        return cli.main(argv)
    return call


def _read_outputs(out, code, files):
    """Bytes of the named output files, or the failure text of the command."""
    try:
        if code != 0:
            marker = out / "FAILED"
            text = marker.read_text().strip() if marker.exists() else ""
            return None, f"exit {code}: {text}"
        return {name: (out / name).read_bytes() for name in files}, None
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _keyed_lines(text):
    return dict(line.split(" ", 1) for line in text.splitlines())


# -- solve-d2 -----------------------------------------------------------------

class SolveD2:
    name = "solve-d2"
    alias = "solve_s"
    op_kind = "certified `cospde solve` of problems/d2_benchmark.txt"

    def build(self, seed):
        # the shipped file is the input; the seed has nothing to vary
        data = cospde.parse_problem_file(D2_FILE)
        return data, cospde.build_problem(data)

    def warmup(self, inputs, scratch):
        cli.main(["solve", str(D1_FILE), "--out", str(scratch / "warmup")])
        shutil.rmtree(scratch / "warmup", ignore_errors=True)

    def operations(self, inputs, scratch):
        data, problem = inputs
        out = scratch / self.name
        files = ("ledger.csv", "reference.atoms", "solution.atoms", "summary.txt")
        galerkin = {}  # the reference operator and solution, made at the first check

        def independent_error(u_text):
            if not galerkin:
                op = _reference_operator(problem, D2_REFERENCE_K)
                alpha = 2.0 / (problem.lam_min + problem.lam_max)
                galerkin.update(op=op, u=op.richardson(alpha, D2_REFERENCE_STEPS))
            op = galerkin["op"]
            try:
                u = op.coefficients(reference.atoms_from_text(u_text))
            except ValueError:  # frequencies beyond the reference box
                return math.inf
            return op.h1(u - galerkin["u"])

        def check(code):
            outputs, error = _read_outputs(out, code, files)
            if error is not None:
                return _failed(error)
            summary = _keyed_lines(outputs["summary.txt"].decode())
            problems = []
            if float(summary["epsilon"]) != data.epsilon:
                problems.append(f"solve ran at epsilon {summary['epsilon']}, file says {data.epsilon!r}")
            h1 = float(summary["final_h1_error"])
            err = independent_error(outputs["solution.atoms"].decode())
            if not err <= data.epsilon:
                problems.append(f"H1 error {err!r} against the reference > epsilon {data.epsilon!r}")
            if not math.isclose(h1, err, rel_tol=D2_ERROR_RTOL):
                problems.append(f"final_h1_error {h1!r} differs from the reference's {err!r}")
            return Outcome(_digest(*(outputs[n] for n in files)), None, problems)

        return [Operation("d2", _cli_call(["solve", str(D2_FILE), "--out", str(out)]), check)]


# -- dense-d3 -----------------------------------------------------------------

def dense_problem(structure_seed, rng):
    """One unpruned dense d=3 problem: A = 2 I, c = 2 + 4 atoms, f = 4 atoms.

    Structure seed `structure_seed` draws each atom's frequency in
    {-1, 0, 1}^3 and amplitude magnitude, c's atoms first; `rng` (the
    workload seed) draws the signed axis permutation, the amplitude signs and
    the phases.
    """
    d = 3
    shape = np.random.default_rng(structure_seed)
    c_draws = [(shape.integers(-1, 2, size=d), shape.uniform(0.0, DENSE_C_AMPLITUDE))
               for _ in range(DENSE_ATOMS)]
    f_draws = [(shape.integers(-1, 2, size=d), shape.uniform(0.0, DENSE_F_AMPLITUDE))
               for _ in range(DENSE_ATOMS)]
    perm = rng.permutation(d)
    flips = rng.choice([-1, 1], size=d)

    def atoms(draws):
        out = []
        for w, mag in draws:
            w = (w[perm] * flips).astype(float)
            sign = float(rng.choice([-1.0, 1.0]))
            # a constant atom keeps phase 0, so its value (and the spectral
            # bounds) depend on the structure seed only
            phase = float(rng.uniform(0.0, 2.0 * math.pi)) if w.any() else 0.0
            out.append((sign * float(mag), tuple(w), phase))
        return out

    c = cospde.AtomSum.from_atoms([(2.0, (0.0,) * d, 0.0)] + atoms(c_draws), dimension=d)
    f = cospde.AtomSum.from_atoms(atoms(f_draws), dimension=d)
    two = cospde.constant_sum(d, 2.0)
    # A's eigenvalues are 2 and c lies in [2 - 4/4, 2 + 4/4]
    return cospde.EllipticProblem(cospde.diagonal_coefficients([two] * d), c, f, 1.0, 3.0)


def _dense_ledger_text(result):
    return "\n".join(
        f"{r.t} {r.atom_count} {r.tracked_norm!r} {r.support_radius!r} {r.y_bound!r}"
        for r in result.state.ledger
    )


class DenseD3:
    name = "dense-d3"
    alias = "solve_s"
    op_kind = "unpruned d=3 `cospde.solve` with the oracle off"

    def build(self, seed):
        rng = np.random.default_rng(seed)
        return [dense_problem(i, rng) for i in range(DENSE_FAMILY)]

    def warmup(self, inputs, scratch):
        cospde.solve(cospde.diagonal_cosine_family(3), 1e-2, compare_oracle=False)

    def operations(self, inputs, scratch):
        return [self._operation(i, p) for i, p in enumerate(inputs)]

    @staticmethod
    def _operation(index, problem):
        verdicts = {}  # output digest -> problems; equal outputs are checked once

        def call():
            try:
                return cospde.solve(
                    problem, DENSE_EPSILON, prune_enabled=False, compare_oracle=False
                )
            except (cospde.LedgerViolationError, cospde.ProbeFailureError) as exc:
                return exc

        def check(result):
            if isinstance(result, Exception):
                error = f"{type(result).__name__}: {result}"
                known = (index in DENSE_KNOWN_FAILURES
                         and isinstance(result, cospde.LedgerViolationError)
                         and "support radius" in error)
                return _failed(error, expected=known)
            fingerprint = _digest(cospde.to_text(result.u), _dense_ledger_text(result))
            if fingerprint not in verdicts:
                verdicts[fingerprint] = [f"problem {index}: {p}"
                                         for p in dense_problems(problem, result)]
            return Outcome(fingerprint, None, verdicts[fingerprint])

        return Operation(f"p{index:02d}", call, check)


def dense_problems(problem, result):
    """Check an unpruned solve against the reference.

    Its iterate must be the reference's own T-step iterate, and the
    residual must certify the H1 error: |u - u*|_H1 <= |L u - f|_H-1 / lam_min.
    """
    steps = result.steps_planned
    R = max(reference.radius(reference.atoms_of(s))
            for s in [problem.c, problem.f] + [e for row in problem.a_entries for e in row])
    # the iterate after t steps lives in the box of radius t R, its residual in (t + 1) R
    op = _reference_operator(problem, (steps + 1) * R)
    try:
        u = op.coefficients(reference.atoms_of(result.u))
    except ValueError as exc:
        return [f"solution outside the reachable box: {exc}"]
    problems = []
    expected = op.richardson(2.0 / (problem.lam_min + problem.lam_max), steps)
    gap = op.h1(u - expected)
    if not gap <= DENSE_ITERATE_RTOL * op.h1(expected):
        problems.append(f"H1 distance {gap!r} to the reference iterate")
    bound = op.h_minus1(op.apply(u) - op.F) / problem.lam_min
    if not bound <= DENSE_EPSILON:
        problems.append(f"residual bound {bound!r} on the H1 error > epsilon {DENSE_EPSILON!r}")
    return problems


# -- rate-study ---------------------------------------------------------------

class RateStudy:
    name = "rate-study"
    alias = "trials_per_s"
    op_kind = f"`cospde rate-study` of problems/sampling_target.txt, {RATE_TRIALS} trials x widths {RATE_WIDTHS}"
    trials = RATE_TRIALS * len(RATE_WIDTHS.split(","))

    def build(self, seed):
        data = cospde.parse_problem_file(SAMPLING_FILE)
        return data, seed

    def warmup(self, inputs, scratch):
        out = scratch / "warmup"
        cli.main(["rate-study", str(SAMPLING_FILE), "--out", str(out),
                  "--widths", "16,32", "--trials", "30", "--seed", "0"])
        shutil.rmtree(out, ignore_errors=True)

    def operations(self, inputs, scratch):
        _, seed = inputs
        out = scratch / self.name
        files = ("summary.csv", "trials.csv")
        argv = ["rate-study", str(SAMPLING_FILE), "--out", str(out), "--widths", RATE_WIDTHS,
                "--trials", str(RATE_TRIALS), "--seed", str(seed)]

        def check(code):
            outputs, error = _read_outputs(out, code, files)
            if error is not None:
                return _failed(error)
            problems = []
            lines = outputs["summary.csv"].decode().splitlines()
            rows = [line.split(",") for line in lines[1:-1]]
            if [r[0] for r in rows] != RATE_WIDTHS.split(","):
                problems.append(f"summary widths {[r[0] for r in rows]} differ from the sweep")
            for k, rms, bound, _ in rows:
                if not float(rms) <= float(bound):
                    problems.append(f"width {k}: rms {rms} > bound {bound}")
            trailer = lines[-1].split(",")
            lo, hi = RATE_SLOPE_RANGE
            if trailer[0] != "slope" or not lo <= float(trailer[1]) <= hi:
                problems.append(f"slope line {lines[-1]!r} outside [{lo}, {hi}]")
            return Outcome(_digest(*(outputs[n] for n in files)), None, problems)

        return [Operation("rate", _cli_call(argv), check)]


# -- scaling-family -----------------------------------------------------------

class ScalingFamily:
    name = "scaling-family"
    alias = "report_s"
    op_kind = f"`cospde scaling-report` over dims {SCALING_DIMS} at epsilon {SCALING_EPSILON}"

    def build(self, seed):
        # the built-in family is fixed; the seed has nothing to vary
        return [cospde.diagonal_cosine_family(d) for d in range(1, 17)]

    def warmup(self, inputs, scratch):
        out = scratch / "warmup"
        cli.main(["scaling-report", "--out", str(out), "--dims", "1,2", "--epsilon", SCALING_EPSILON])
        shutil.rmtree(out, ignore_errors=True)

    def operations(self, inputs, scratch):
        out = scratch / self.name
        argv = ["scaling-report", "--out", str(out), "--dims", SCALING_DIMS,
                "--epsilon", SCALING_EPSILON]

        def check(code):
            outputs, error = _read_outputs(out, code, ("scaling.csv",))
            if error is not None:
                return _failed(error)
            # the wall-time column is the one documented non-deterministic output
            lines = [line.rsplit(",", 1)[0] if line[0].isdigit() or line.startswith("d,") else line
                     for line in outputs["scaling.csv"].decode().splitlines()]
            return Outcome(_digest("\n".join(lines)), None, scaling_problems(lines))

        return [Operation("report", _cli_call(argv), check)]


def scaling_problems(lines):
    """Compare scaling.csv (without wall times) with the committed table.

    Every dimension's T and atom count must match exactly; the norms, the
    bound Y_T and the fitted exponents to SCALING_RTOL.
    """
    expected = SCALING_EXPECTED.read_text().splitlines()
    if len(lines) != len(expected) or lines[0] != expected[0]:
        return [f"scaling.csv has {len(lines)} lines headed {lines[0]!r}, expected "
                f"{len(expected)} headed {expected[0]!r}"]
    problems = []
    for got, want in zip(lines[1:], expected[1:]):
        for g, w in zip(got.split(","), want.split(",")):
            same = g == w
            if not same and not w.isdigit():
                try:
                    same = math.isclose(float(g), float(w), rel_tol=SCALING_RTOL)
                except ValueError:
                    pass
            if not same:
                problems.append(f"scaling.csv line {got!r} differs from the expected {want!r}")
                break
    return problems


WORKLOADS = {w.name: w for w in (SolveD2(), DenseD3(), RateStudy(), ScalingFamily())}
