"""Golden outputs: the CLI reproduces the committed files byte for byte.

Each case runs one command on the shipped problems, in process, and compares
every file it writes with the copy under tests/golden/<case>/.  scaling.csv
is compared without its wall-time column, the one output that is not
deterministic.  After a deliberate change to the numerics, regenerate the
copies from the root of the checkout and say in the change why they moved:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import sys
import tempfile
from pathlib import Path

import pytest

import cospde.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PROBLEMS = ROOT / "problems"

CASES = {
    "solve_d1_benchmark": ["solve", str(PROBLEMS / "d1_benchmark.txt")],
    "solve_d2_benchmark": ["solve", str(PROBLEMS / "d2_benchmark.txt")],
    "solve_identity_2d": ["solve", str(PROBLEMS / "identity_2d.txt")],
    "rate_study": ["rate-study", str(PROBLEMS / "sampling_target.txt")],
    # no g block: the study samples the solve of the file's problem
    "rate_study_implicit_d1": ["rate-study", str(PROBLEMS / "d1_benchmark.txt")],
    "scaling_report": ["scaling-report", "--dims", ",".join(str(d) for d in range(1, 17))],
    "validate": ["validate"],
}

# scaling.csv keeps its columns before wall_time_s, the last one
SCALING_KEPT_COLUMNS = 5


def run_case(name, out):
    """Run one case into the directory `out`; {file name: bytes as compared}."""
    code = cli.main(CASES[name] + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name} exited {code}")
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "scaling.csv":
            data = b"".join(b",".join(line.split(b",")[:SCALING_KEPT_COLUMNS]) + b"\n"
                            for line in data.splitlines())
        files[path.name] = data
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reproduces_golden_outputs(name, tmp_path):
    got = run_case(name, tmp_path)
    golden = {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(golden)
    for file_name, data in golden.items():
        assert got[file_name] == data, f"{name}/{file_name} differs from its golden copy"


def regenerate():
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, Path(tmp))
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        for file_name, data in files.items():
            (target / file_name).write_bytes(data)
        print(f"wrote {target.relative_to(ROOT)}: {', '.join(files)}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
