#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports `cospde` from its `src/`.
With `--trace 0` it times whole operations and prints the end-to-end
metrics; with `--trace 1` it also wraps the package's public functions in
spans and prints the per-layer metrics.  Every output is checked; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REQUIRED = (SRC / "cospde" / "__init__.py", ROOT / "problems" / "d2_benchmark.txt",
            ROOT / "problems" / "sampling_target.txt")
# the workloads and the metrics with their units are declared there
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPEATS = 5
# the calibration kernel's size, and its time at the reference host speed
CALIBRATION_ROUNDS = 200
CALIBRATION_REF_S = 0.085
MIN_PASSES = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics in unit COUNT must repeat exactly across traced passes;
# the others are medians over them
COUNT = "count"
# metric name -> key in the per-pass span totals, where they differ
SPAN_KEY = {"sampler.trials": "sampler.h1_error_exact.calls",
            "problemfile.parse_s": "problemfile.parse.self_s"}

# span names each workload must produce; a missing one means a wrapper
# missed a rebinding, which would otherwise read as a zero
COMMON_SOLVE_SPANS = ("solver.solve", "solver.step", "calculus.apply_elliptic",
                      "calculus.product", "calculus.precondition", "atoms.canonicalize",
                      "oracle.ellipticity_probe")
EXPECTED_SPANS = {
    "solve-d2": COMMON_SOLVE_SPANS + ("problemfile.parse", "atoms.prune", "atoms.to_text",
                                      "oracle.galerkin_solve", "oracle.linear_solve",
                                      "oracle.h1_distance"),
    "dense-d3": COMMON_SOLVE_SPANS,
    "scaling-family": COMMON_SOLVE_SPANS + ("atoms.prune",),
    "rate-study": ("problemfile.parse", "sampler.sample_network", "sampler.h1_error_exact",
                   "atoms.canonicalize", "atoms.to_text"),
}


def cap_blas_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use; returns (nproc, cap)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        raw = os.environ.get(var, "")
        n = int(raw) if raw.isdigit() and int(raw) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc, int(os.environ[BLAS_VARS[0]])


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_s():
    """Time one run of a fixed kernel that does not touch `cospde`.

    It merges random frequency lists the way the package's canonical form
    does: a lexsort, group boundaries, and a Python loop over the groups.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(CALIBRATION_ROUNDS):
        freqs = rng.integers(-3, 4, size=(200, 3)).astype(float)
        amps = rng.standard_normal(200)
        order = np.lexsort(freqs.T[::-1])
        ordered = freqs[order]
        change = np.any(ordered[1:] != ordered[:-1], axis=1)
        bounds = np.concatenate(([0], np.nonzero(change)[0] + 1, [len(order)]))
        merged = [float(amps[order[lo:hi]].sum()) for lo, hi in zip(bounds[:-1], bounds[1:])]
    del merged
    return time.perf_counter() - start


def host_factor(before, after):
    """Scale that takes a time measured between two calibrations to reference speed.

    A shared host's speed drifts by a factor of up to two over tens of
    seconds, and the calibration kernel slows down with it; dividing by its
    time, taken just before and just after, cancels much of that drift.
    """
    return CALIBRATION_REF_S / (0.5 * (before + after))


class SetupTimer:
    """Times a fresh interpreter importing cospde and building the workload's inputs.

    The samples are spread over the measured run (`sample_due` runs between
    operations), because the host's speed drifts over seconds and samples
    taken back to back would all see the same moment.
    """

    def __init__(self, name, seed, seconds):
        code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
                f"workloads.WORKLOADS[{name!r}].build({seed})")
        self.argv = [sys.executable, "-c", code]
        self.interval = seconds / SETUP_REPEATS
        self.times = []
        subprocess.run(self.argv, cwd=ROOT, check=True)  # untimed: fills the bytecode cache

    def sample(self):
        before = calibration_s()
        start = time.perf_counter()
        subprocess.run(self.argv, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed * host_factor(before, calibration_s()))

    def sample_due(self, measured_s):
        while len(self.times) < SETUP_REPEATS and len(self.times) * self.interval <= measured_s:
            self.sample()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def run_passes(ops, seconds, min_passes, tracer=None, between=None):
    """Repeat the pass until starting another would overrun `seconds`.

    Returns the passes, each a list of (label, call seconds, Outcome), and
    the measured time.  With a tracer, each call runs under a root span and
    checks run paused.  `between(measured_s)` runs before each operation;
    its time is not part of the measured time.
    """
    passes = []
    excluded = 0.0
    start = time.perf_counter()
    last = 0.0

    def measured():
        return time.perf_counter() - start - excluded

    while len(passes) < min_passes or measured() + last <= seconds:
        pass_start = measured()
        records = []
        for op in ops:
            if between is not None:
                t0 = time.perf_counter()
                between(measured())
                excluded += time.perf_counter() - t0
            t0 = time.perf_counter()
            with tracer.root(op.label) if tracer is not None else contextlib.nullcontext():
                raw = op.call()
            elapsed = time.perf_counter() - t0
            with tracer.pause() if tracer is not None else contextlib.nullcontext():
                outcome = op.check(raw)
            records.append((op.label, elapsed, outcome))
        passes.append(records)
        last = measured() - pass_start
    return passes, measured()


def consistency_problems(passes, what):
    """Each operation's outputs must repeat exactly across the given passes."""
    seen = {}
    problems = []
    for records in passes:
        for label, _, outcome in records:
            first = seen.setdefault(label, outcome.fingerprint)
            if first != outcome.fingerprint:
                problems.append(f"{label}: outputs differ between {what}")
    return sorted(set(problems))


def summarize(passes):
    records = [r for records in passes for r in records]
    failures = Counter(f"{label}: {o.error}" for label, _, o in records if o.error)
    problems = sorted({p for _, _, o in records for p in o.problems})
    return records, failures, problems


def op_seconds(records, factors, measured_s):
    """Median call time, each scaled by its factor; a failed operation never finishes.

    If at least half failed the median is unbounded; it is then reported as
    the measured length of the run, the longest any operation could have
    been watched.
    """
    times = sorted(math.inf if o.error else t * k for (_, t, o), k in zip(records, factors))
    value = statistics.median(times)
    return measured_s * statistics.median(factors) if math.isinf(value) else value


def per_layer_metrics(totals_by_pass, overhead_ratio):
    """Per-layer values of one traced pass; counts must repeat exactly across passes."""
    problems = []
    metrics = {}
    passes = [totals_by_pass[k] for k in sorted(totals_by_pass)]
    for metric in SPEC["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        key = SPAN_KEY.get(name, name)
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name == "atoms.canonicalize.merge_ratio":
            terms = passes[0]["atoms.canonicalize.terms_in"]
            value = passes[0]["atoms.canonicalize.atoms_out"] / terms if terms else 0.0
        elif unit == COUNT:
            values = {p[key] for p in passes}
            if len(values) != 1:
                problems.append(f"count {name} differs between traced passes: {sorted(values)}")
            value = passes[0][key]
        else:
            value = float(statistics.median(p[key] for p in passes))
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a cospde checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    nproc, blas_threads = cap_blas_threads()
    os.environ.pop("COSPDE_WORKERS", None)  # rate-study runs in this process

    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy

    import workloads

    env = {"git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": nproc, "blas_threads": blas_threads}
    workload = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result, lines = traced_run(workload, args, scratch)
        else:
            result, lines = untraced_run(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def _failure_lines(failures, attempted):
    failed = sum(failures.values())
    lines = [f"failed_share {failed}/{attempted} = {failed / attempted:.4f}"]
    lines.extend(f"  failed x{n}: {text}" for text, n in sorted(failures.items()))
    return lines


def _check_lines(problems):
    if not problems:
        return ["checks PASS"]
    return [f"check FAIL: {p}" for p in problems]


def untraced_run(workload, args, scratch):
    setup = SetupTimer(workload.name, args.seed, args.seconds)
    inputs = workload.build(args.seed)
    workload.warmup(inputs, scratch)
    calibrations = []  # kernel times before each operation and after the last

    def between(measured_s):
        setup.sample_due(measured_s)
        calibrations.append(calibration_s())

    passes, measured_s = run_passes(workload.operations(inputs, scratch), args.seconds,
                                    MIN_PASSES, between=between)
    calibrations.append(calibration_s())
    factors = [host_factor(b, a) for b, a in zip(calibrations, calibrations[1:])]
    setup_s = setup.median()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, failures, problems = summarize(passes)
    problems += consistency_problems(passes, "repeats")
    op_s = op_seconds(records, factors, measured_s)
    values = {"op_s": op_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["end_to_end"]}

    lines = [f"{name:<12} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    alias = f"{workload.alias} = {op_s:.6g} s"
    if workload.alias == "trials_per_s":
        alias = f"trials_per_s = {workload.trials / op_s:.6g} 1/s"
    lines.append(f"  op = {workload.op_kind}; {alias}; median of {len(records)} "
                 f"operations in {len(passes)} passes over {measured_s:.1f} s")
    lines.append(f"  times at reference host speed: host factor median "
                 f"{statistics.median(factors):.4f}; unscaled op_s "
                 f"{op_seconds(records, [1.0] * len(records), measured_s):.6g} s")
    lines.append(f"  setup_s: median of {SETUP_REPEATS} fresh interpreters spread over the run")
    lines += _failure_lines(failures, len(records))
    lines += _check_lines(problems)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    return result, lines


def traced_run(workload, args, scratch):
    import spans
    import workloads

    inputs = workload.build(args.seed)
    workload.warmup(inputs, scratch)
    ops = workload.operations(inputs, scratch)
    plain, plain_s = run_passes(ops, args.seconds / 3, 1)
    tracer = spans.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        traced, _ = run_passes(ops, args.seconds - plain_s, MIN_PASSES, tracer)
    finally:
        tracer.uninstall()

    records, failures, problems = summarize(plain + traced)
    problems += consistency_problems(plain + traced, "traced and untraced passes")

    roots = tracer.roots()
    ops_per_pass = len(ops)
    pass_of_root = {idx: n // ops_per_pass for n, idx in enumerate(roots)}
    totals = spans.pass_totals(tracer, pass_of_root)
    span_problems, solves_checked = spans.completeness_problems(
        tracer, EXPECTED_SPANS[workload.name])
    if len(roots) != ops_per_pass * len(traced):
        span_problems.append(f"{len(roots)} root spans for {len(traced)} passes of {ops_per_pass}")
    problems += span_problems

    def median_pass_s(passes):
        return statistics.median(sum(t for _, t, _ in p) for p in passes)
    overhead = median_pass_s(traced) / median_pass_s(plain)
    metrics, count_problems = per_layer_metrics(totals, overhead)
    problems += count_problems

    trace_file = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
    tracer.write(trace_file)

    lines = [f"{name:<34} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  per traced pass ({ops_per_pass} operations); {len(traced)} traced passes, "
                 f"{len(plain)} untraced; {len(tracer)} spans written to "
                 f"{trace_file.relative_to(ROOT)}")
    lines.append(f"  span completeness: {solves_checked} finished solves checked, "
                 f"{len(span_problems)} problems")
    lines += _failure_lines(failures, len(records))
    lines += _check_lines(problems)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    return result, lines


if __name__ == "__main__":
    sys.exit(main())
