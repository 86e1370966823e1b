"""Contract between the package and the benchmark's span tracer.

`perfbench/spans.py` wraps public functions by name and the `AtomSum`
constructor by position.  These tests run one traced solve and one traced
rate study through it, so a change to those names or to the constructor's
parameters fails here and not only in a traced benchmark run.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import cospde

ROOT = Path(__file__).resolve().parent.parent
D1 = ROOT / "problems" / "d1_benchmark.txt"
TARGET = ROOT / "problems" / "sampling_target.txt"

# every span perfbench's COMMON_SOLVE_SPANS requires of a solve, and the oracle's
SOLVE_SPANS = (
    "solver.solve",
    "solver.step",
    "calculus.apply_elliptic",
    "calculus.product",
    "calculus.precondition",
    "atoms.canonicalize",
    "oracle.ellipticity_probe",
    "oracle.linear_solve",
)
RATE_STUDY_SPANS = (
    "sampler.sample_network",
    "sampler.h1_error_exact",
    "atoms.canonicalize",
    "atoms.to_text",
)


def _spans_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return spans


@pytest.fixture(scope="module")
def traced_d1_solve():
    """perfbench's span module, its tracer after one traced d1 solve, and the
    solve's result."""
    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root("d1"):
            problem = cospde.build_problem(cospde.parse_problem_file(D1))
            result = cospde.solve(problem, 1e-3)
    finally:
        tracer.uninstall()
    return spans, tracer, result


def test_traced_d1_solve_records_every_layer(traced_d1_solve):
    spans, tracer, result = traced_d1_solve
    assert result.final_h1_error <= 1e-3
    recorded = {tracer.span_name(i) for i in range(len(tracer))}
    assert set(SOLVE_SPANS) <= recorded
    assert not any(tracer.failed)
    problems, solves = spans.completeness_problems(tracer, SOLVE_SPANS)
    assert problems == []
    assert solves == 1


def test_each_operator_application_records_one_product_span(traced_d1_solve):
    # the benchmark requires a calculus.product span in every solve; L u
    # takes c u through `product`, once per application
    _, tracer, _ = traced_d1_solve
    names = Counter(tracer.span_name(i) for i in range(len(tracer)))
    assert names["calculus.apply_elliptic"] > 0
    assert names["calculus.product"] == names["calculus.apply_elliptic"]


def test_traced_rate_study_records_every_layer():
    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root("rate"):
            g = cospde.parse_problem_file(TARGET).g
            result = cospde.rate_study(g, [8, 16], trials=30, seed=0)
    finally:
        tracer.uninstall()

    assert len(result.rows) == 60
    recorded = {tracer.span_name(i) for i in range(len(tracer))}
    assert set(RATE_STUDY_SPANS) <= recorded
    assert not any(tracer.failed)
    problems, _ = spans.completeness_problems(tracer, RATE_STUDY_SPANS)
    assert problems == []
    trials = sum(tracer.span_name(i) == "sampler.h1_error_exact" for i in range(len(tracer)))
    assert trials == 60
