"""Contract between the package and the benchmark's span tracer.

`perfbench/spans.py` wraps public functions by name and the `AtomSum`
constructor by position.  This test runs one traced solve through it, so a
change to those names or to the constructor's parameters fails here and not
only in a traced benchmark run.
"""

import sys
from pathlib import Path

import cospde

ROOT = Path(__file__).resolve().parent.parent
D1 = ROOT / "problems" / "d1_benchmark.txt"

SOLVE_SPANS = (
    "atoms.canonicalize",
    "solver.step",
    "calculus.apply_elliptic",
    "oracle.linear_solve",
)


def _spans_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return spans


def test_traced_d1_solve_records_every_layer():
    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root("d1"):
            problem = cospde.build_problem(cospde.parse_problem_file(D1))
            result = cospde.solve(problem, 1e-3)
    finally:
        tracer.uninstall()

    assert result.final_h1_error <= 1e-3
    recorded = {tracer.span_name(i) for i in range(len(tracer))}
    assert set(SOLVE_SPANS) <= recorded
    assert not any(tracer.failed)
    problems, solves = spans.completeness_problems(tracer, SOLVE_SPANS)
    assert problems == []
    assert solves == 1
