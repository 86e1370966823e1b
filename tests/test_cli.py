"""Command line behavior: outputs, exit codes, FAILED markers, determinism."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cospde.atoms as atoms
import cospde.cli as cli
import cospde.solver as solver
import cospde.validate as validate
from cospde.atoms import AtomSum, from_text
from cospde.solver import LedgerViolationError
from conftest import inflating_merge

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS_DIR = ROOT / "problems"
IDENTITY = str(PROBLEMS_DIR / "identity_2d.txt")
D1 = str(PROBLEMS_DIR / "d1_benchmark.txt")
TARGET = str(PROBLEMS_DIR / "sampling_target.txt")

NEGATIVE_SEED = "dim 1\nseed -3\ng\n1 1 0\nend\n"
# rate-study inputs with nothing to sample: an empty g block, and an implicit
# solve of f = 0, whose solution is 0
ZERO_G = "dim 1\ng\nend\n"
ZERO_F = "dim 1\nlambda_min 1\nlambda_max 1\nepsilon 1e-2\nc\n1 0 0\nend\nf\nend\n"
# amplitudes whose norms overflow: the d1 benchmark with f scaled up, and a g
HUGE_F = ("dim 1\nlambda_min 1\nlambda_max 3\nepsilon 1e-3\nA 1 1\n2 0 0\n1 1 0\nend\n"
          "c\n1 0 0\nend\nf\n{} 1 0\nend\n")
HUGE_G = "dim 1\ng\n1e200 1 0\n2e200 2 0\nend\n"


def read(path):
    return Path(path).read_bytes()


class TestSolve:
    def test_identity_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["solve", IDENTITY, "--out", str(out)]) == 0
        assert not (out / "FAILED").exists()

        ledger = (out / "ledger.csv").read_text().splitlines()
        assert ledger[0] == ",".join(cli.LEDGER_HEADER)
        assert len(ledger) == 3  # header + rows t=0 and t=1
        assert all(len(line.split(",")) == 8 for line in ledger)

        u = from_text((out / "solution.atoms").read_text())
        assert u == AtomSum.from_atoms([(0.5, (1.0, 0.0), 0.0)], dimension=2)
        ref = from_text((out / "reference.atoms").read_text())
        assert ref == u

        summary = (out / "summary.txt").read_text()
        assert "steps_planned 1" in summary
        assert "final_h1_error 0.0" in summary

    def test_epsilon_flag_overrides_file(self, tmp_path):
        loose = tmp_path / "loose"
        tight = tmp_path / "tight"
        assert cli.main(["solve", D1, "--out", str(loose), "--epsilon", "0.1"]) == 0
        assert cli.main(["solve", D1, "--out", str(tight)]) == 0
        t_loose = len((loose / "ledger.csv").read_text().splitlines()) - 2
        t_tight = len((tight / "ledger.csv").read_text().splitlines()) - 2
        assert t_loose < t_tight

    def test_no_prune_zeroes_dropped_mass(self, tmp_path):
        out = tmp_path / "np"
        assert cli.main(["solve", D1, "--out", str(out), "--no-prune"]) == 0
        rows = (out / "ledger.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[4] == "0.0" for row in rows)

    def test_oracle_k_flag(self, tmp_path):
        out = tmp_path / "k"
        code = cli.main(
            ["solve", D1, "--out", str(out), "--epsilon", "0.01", "--oracle-K", "24"]
        )
        assert code == 0
        assert (out / "reference.atoms").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["solve", D1, "--out", str(a)]) == 0
        assert cli.main(["solve", D1, "--out", str(b)]) == 0
        for name in ("ledger.csv", "solution.atoms", "reference.atoms", "summary.txt"):
            assert read(a / name) == read(b / name), name

    def test_summary_reports_oracle_statistics(self, tmp_path):
        out = tmp_path / "d1"
        assert cli.main(["solve", D1, "--out", str(out)]) == 0
        summary = dict(
            line.split(" ", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert int(summary["oracle_cg_iterations"]) >= 1
        assert float(summary["oracle_residual"]) <= 1e-10

    def test_summary_oracle_statistics_read_none_without_oracle(self, tmp_path):
        problem = tmp_path / "d4.txt"
        problem.write_text(
            "dim 4\nlambda_min 1\nlambda_max 1\nepsilon 1e-2\n"
            "c\n1 0 0 0 0 0\nend\nf\n1 1 0 0 0 0\nend\n"
        )
        out = tmp_path / "out"
        assert cli.main(["solve", str(problem), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert "oracle_cg_iterations none" in summary
        assert "oracle_residual none" in summary
        assert not (out / "reference.atoms").exists()


    def test_collinear_final_radius_prints_within_prediction(self, tmp_path):
        # A = 2I, c = 2 + cos(x1 + x2 + x3)/4, f = cos(x1 + x2 + x3): the
        # final radius is exactly the predicted one, sqrt(3) * T, and the
        # printed values must order the same way
        problem = tmp_path / "collinear.txt"
        problem.write_text(
            "dim 3\nlambda_min 1.75\nlambda_max 2.25\nepsilon 1e-8\n"
            "A 1 1\n2 0 0 0 0\nend\nA 2 2\n2 0 0 0 0\nend\nA 3 3\n2 0 0 0 0\nend\n"
            "c\n2 0 0 0 0\n0.25 1 1 1 0\nend\nf\n1 1 1 1 0\nend\n"
        )
        out = tmp_path / "out"
        assert cli.main(["solve", str(problem), "--out", str(out), "--no-prune"]) == 0
        summary = dict(
            line.split(" ", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert int(summary["steps_run"]) >= 5
        assert float(summary["final_support_radius"]) <= float(summary["predicted_radius"])


class TestFailures:
    def test_parse_error_exit_2_and_marker(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("dim 1\nf\n1 0\nend\n")
        out = tmp_path / "out"
        assert cli.main(["solve", str(bad), "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert "parse error" in marker
        assert "line 3" in marker

    def test_torus_directive_exit_2(self, tmp_path):
        lines = Path(D1).read_text().splitlines()
        plane = tmp_path / "plane.txt"
        plane.write_text("\n".join(lines[:1] + ["torus 0"] + lines[1:]) + "\n")
        out = tmp_path / "out"
        assert cli.main(["solve", str(plane), "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert "parse error" in marker
        assert "line 2" in marker

    def test_prune_budget_directive_exit_2(self, tmp_path):
        lines = Path(D1).read_text().splitlines()
        budget = tmp_path / "budget.txt"
        budget.write_text("\n".join(lines[:1] + ["prune_budget 0.05"] + lines[1:]) + "\n")
        out = tmp_path / "out"
        assert cli.main(["solve", str(budget), "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert "unknown directive" in marker
        assert "line 2" in marker

    def test_oracle_k_below_f_frequencies_exit_2(self, tmp_path):
        # f = cos 3x needs a reference box of at least |k| <= 3
        cos3 = tmp_path / "cos3.txt"
        cos3.write_text("dim 1\nlambda_min 1\nlambda_max 1\nepsilon 1e-3\n"
                        "c\n1 0 0\nend\nf\n1 3 0\nend\n")
        out = tmp_path / "out"
        assert cli.main(["solve", str(cos3), "--oracle-K", "2", "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert "parse error" in marker
        assert "--oracle-K must be at least 3" in marker
        assert cli.main(["solve", str(cos3), "--oracle-K", "3", "--out", str(out)]) == 0

    def test_oracle_box_over_cap_exit_2(self, tmp_path):
        # A_ii = 2 + cos(100 x_i) at 1e-3 plans K = 1003: 8.1e9 unknowns
        text = "dim 3\nlambda_min 1\nlambda_max 3\nepsilon 1e-3\n"
        for i in range(3):
            axis = " ".join("100" if j == i else "0" for j in range(3))
            text += f"A {i + 1} {i + 1}\n2 0 0 0 0\n1 {axis} 0\nend\n"
        text += "c\n1 0 0 0 0\nend\nf\n1 1 0 0 0\nend\n"
        steep = tmp_path / "steep.txt"
        steep.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["solve", str(steep), "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert "size limit" in marker
        assert "8084294343 unknowns" in marker
        assert "--oracle-K" in marker

    def test_unreachable_frequency_growth_exit_2(self, tmp_path):
        # A = 1 + cos(2^23 x)/4: 11 steps reach 1 + 11 * 2^23 > 2^24
        high = tmp_path / "high.txt"
        high.write_text("dim 1\nlambda_min 0.5\nlambda_max 1.5\nepsilon 1e-3\n"
                        "A 1 1\n1 0 0\n0.25 8388608 0\nend\n"
                        "c\n1 0 0\nend\nf\n1 1 0\nend\n")
        out = tmp_path / "out"
        assert cli.main(["solve", str(high), "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert "size limit" in marker
        assert "frequency component 92274689" in marker

    def test_step_count_over_cap_exit_2_within_a_second(self, tmp_path):
        # lambda_min 1e-10 plans 149,668,018,676 steps
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("dim 1\nlambda_min 1e-10\nlambda_max 1\nepsilon 1e-3\n"
                        "c\n1 0 0\nend\nf\n1 1 0\nend\n")
        out = tmp_path / "out"
        start = time.perf_counter()
        assert cli.main(["solve", str(tiny), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        marker = (out / "FAILED").read_text()
        assert "size limit" in marker
        assert "149668018676 steps" in marker

    def test_dimension_over_cap_exit_2(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("dim 129\nlambda_min 1\nlambda_max 1\nepsilon 1e-3\n")
        out = tmp_path / "out"
        assert cli.main(["solve", str(big), "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert "parse error" in marker
        assert "line 1: dimension must lie in [1, 128], got 129" in marker

    def test_missing_file_exit_2(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["solve", str(tmp_path / "nope.txt"), "--out", str(out)]) == 2
        assert (out / "FAILED").exists()

    def test_probe_failure_exit_3(self, tmp_path):
        lying = tmp_path / "lying.txt"
        lying.write_text(
            # claims lam_min 1.5 but A = 2 + cos dips to 1
            "dim 1\nlambda_min 1.5\nlambda_max 3\nepsilon 1e-2\n"
            "A 1 1\n2 0 0\n1 1 0\nend\n"
            "c\n1 0 0\nend\nf\n1 1 0\nend\n"
        )
        out = tmp_path / "out"
        assert cli.main(["solve", str(lying), "--out", str(out)]) == 3
        assert "probe failure" in (out / "FAILED").read_text()

    def test_bound_inside_true_range_exit_3(self, tmp_path):
        # the d=5 diagonal cosine family, A = I + diag(cos x_i)/2, reaches
        # exactly 1/2: a lambda_min 1e-10 above it cannot be certified
        d = 5
        axis = [" ".join("1" if j == i else "0" for j in range(d)) for i in range(d)]
        zero = " ".join("0" * d)
        text = "dim 5\nlambda_min 0.5000000001\nlambda_max 1.5\nepsilon 1e-2\n"
        for i in range(d):
            text += f"A {i + 1} {i + 1}\n1 {zero} 0\n0.5 {axis[i]} 0\nend\n"
        text += f"c\n1 {zero} 0\nend\nf\n" + "".join(f"0.2 {w} 0\n" for w in axis) + "end\n"
        tight = tmp_path / "tight.txt"
        tight.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["solve", str(tight), "--out", str(out)]) == 3
        assert "certified lower bound 0.5" in (out / "FAILED").read_text()

    def test_printed_probe_bound_is_accepted(self, tmp_path):
        # c = 3 + 0.3 cos x reaches exactly 3 - float(0.3), which lies below
        # float(2.7): the refusal names the bound rounded down, and that
        # bound, passed back, is accepted
        text = ("dim 1\nlambda_min {}\nlambda_max 10\nepsilon 1e-2\nA 1 1\n10 0 0\nend\n"
                "c\n3 0 0\n0.3 1 0\nend\nf\n1 1 0\nend\n")
        problem = tmp_path / "problem.txt"
        problem.write_text(text.format("2.7"))
        out = tmp_path / "out"
        assert cli.main(["solve", str(problem), "--out", str(out)]) == 3
        bound = math.nextafter(2.7, 0.0)
        assert f"certified lower bound {bound!r}:" in (out / "FAILED").read_text()
        problem.write_text(text.format(repr(bound)))
        assert cli.main(["solve", str(problem), "--out", str(out)]) == 0
        assert not (out / "FAILED").exists()
        assert f"probe_c_range ({bound!r}, " in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("bounds", ["lambda_min 0\nlambda_max 3",
                                        "lambda_min 3\nlambda_max 1",
                                        "lambda_min nan\nlambda_max 3"])
    def test_bad_spectral_bounds_exit_2(self, tmp_path, bounds):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"dim 1\n{bounds}\nepsilon 1e-2\nc\n1 0 0\nend\nf\n1 1 0\nend\n")
        out = tmp_path / "out"
        assert cli.main(["solve", str(bad), "--out", str(out)]) == 2
        assert "parse error" in (out / "FAILED").read_text()

    @pytest.mark.parametrize("argv", [
        ["solve", D1, "--epsilon", "0"],
        ["solve", D1, "--epsilon", "nan"],
        ["solve", D1, "--oracle-K", "0"],
        ["rate-study", TARGET, "--trials", "5"],
        ["rate-study", TARGET, "--widths", "16,0"],
        ["scaling-report", "--epsilon", "0"],
        ["scaling-report", "--dims", "0,1"],
        ["solve", D1, "--epsilon", "0.5"],
        ["scaling-report", "--epsilon", "0.5"],
        ["rate-study", TARGET, "--seed", "-1"],
        ["rate-study", NEGATIVE_SEED],
        ["rate-study", TARGET, "--widths", "16,4294967296"],
        ["rate-study", TARGET, "--widths", "16,32", "--trials", "500001"],
        ["rate-study", ZERO_G],
        ["rate-study", ZERO_F],
        ["solve", HUGE_F.format("1e160")],
        ["solve", HUGE_F.format("1e200")],
        ["rate-study", HUGE_G],
    ])
    def test_bad_flag_values_exit_2(self, tmp_path, argv):
        if "\n" in argv[1]:  # a problem text: run it from a file
            problem = tmp_path / "problem.txt"
            problem.write_text(argv[1])
            argv = [argv[0], str(problem), *argv[2:]]
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert "parse error" in (out / "FAILED").read_text()

    def test_ledger_violation_exit_4(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise LedgerViolationError("synthetic")

        monkeypatch.setattr(cli, "solve", boom)
        out = tmp_path / "out"
        assert cli.main(["solve", D1, "--out", str(out)]) == 4
        assert "ledger violation" in (out / "FAILED").read_text()

    def test_oracle_error_above_epsilon_exit_4(self, tmp_path):
        # f = 1e20 cos x: the planned steps run, and the reference shows an
        # H1 error far above epsilon
        problem = tmp_path / "problem.txt"
        problem.write_text(HUGE_F.format("1e20"))
        out = tmp_path / "out"
        assert cli.main(["solve", str(problem), "--out", str(out)]) == 4
        summary = (out / "summary.txt").read_text()
        error = float(summary.split("final_h1_error ")[1].split()[0])
        assert error > 1e3 and (out / "ledger.csv").exists()
        assert (out / "FAILED").read_text() == (
            f"accuracy failure: the oracle's H1 error {error!r} exceeds epsilon 0.001\n")

    def test_inflating_merge_exit_4(self, tmp_path, monkeypatch):
        # the merge turns corrupt after two steps; the per-step mass check fires
        merge, real_step = atoms._merge, solver.step
        steps = []

        def counting_step(*args, **kwargs):
            if len(steps) == 2:
                monkeypatch.setattr(atoms, "_merge", inflating_merge(merge))
            steps.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(solver, "step", counting_step)
        out = tmp_path / "out"
        assert cli.main(["solve", D1, "--out", str(out)]) == 4
        marker = (out / "FAILED").read_text()
        assert marker.startswith("ledger violation: step 2:")
        assert "recursion bound" in marker

    def test_marker_cleared_on_successful_rerun(self, tmp_path):
        out = tmp_path / "out"
        bad = tmp_path / "bad.txt"
        bad.write_text("dim 1\nf\n")
        assert cli.main(["solve", str(bad), "--out", str(out)]) == 2
        assert (out / "FAILED").exists()
        assert cli.main(["solve", D1, "--out", str(out)]) == 0
        assert not (out / "FAILED").exists()


class TestRateStudy:
    def test_target_file_outputs(self, tmp_path):
        out = tmp_path / "rs"
        code = cli.main(
            ["rate-study", TARGET, "--out", str(out),
             "--widths", "8,16,32", "--trials", "30"]
        )
        assert code == 0
        trials = (out / "trials.csv").read_text().splitlines()
        assert trials[0] == "k,trial,h1_error"
        assert len(trials) == 1 + 3 * 30
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "k,rms_error,bound,ratio"
        assert len(summary) == 1 + 3 + 1
        assert summary[-1].startswith("slope,")
        # every width stays under the variance bound
        for line in summary[1:-1]:
            _, rms, bound, ratio = line.split(",")
            assert float(rms) <= float(bound)
            assert math.isclose(float(ratio), float(rms) / float(bound))

    def test_deterministic_and_seed_sensitive(self, tmp_path):
        args = ["rate-study", TARGET, "--widths", "8,16", "--trials", "30"]
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert cli.main(args + ["--out", str(c), "--seed", "99"]) == 0
        assert read(a / "trials.csv") == read(b / "trials.csv")
        assert read(a / "summary.csv") == read(b / "summary.csv")
        assert read(a / "trials.csv") != read(c / "trials.csv")

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        args = ["rate-study", TARGET, "--widths", "8,16", "--trials", "30"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(a)]) == 0
        monkeypatch.setenv("COSPDE_WORKERS", "2")
        assert cli.main(args + ["--out", str(b)]) == 0
        assert read(a / "trials.csv") == read(b / "trials.csv")
        assert read(a / "summary.csv") == read(b / "summary.csv")

    def test_solves_when_no_target_block(self, tmp_path):
        out = tmp_path / "rs"
        code = cli.main(
            ["rate-study", IDENTITY, "--out", str(out),
             "--widths", "8,16", "--trials", "30"]
        )
        assert code == 0
        assert (out / "trials.csv").exists()
        # the implicit solve hits cos(x1)/2 exactly, and a width-k network
        # reproduces a single atom exactly as well
        rows = (out / "trials.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "0.0" for row in rows)


class TestScalingReport:
    def test_report_and_exponents(self, tmp_path):
        out = tmp_path / "scale"
        code = cli.main(
            ["scaling-report", "--out", str(out), "--dims", "1,2,4", "--epsilon", "0.01"]
        )
        assert code == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0] == "d,T,final_tracked_norm,Y_T,atom_count,wall_time_s"
        assert len(lines) == 1 + 3 + 2
        assert lines[-2].startswith("fitted_exponent,")
        assert lines[-1].startswith("predictor_exponent,")
        for line in lines[1:4]:
            fields = line.split(",")
            assert float(fields[2]) <= float(fields[3])  # tracked <= Y_T

    def test_rows_deterministic_up_to_wall_time(self, tmp_path):
        def strip_time(path):
            lines = Path(path).read_text().splitlines()
            return [",".join(l.split(",")[:5]) for l in lines]

        a, b = tmp_path / "a", tmp_path / "b"
        args = ["scaling-report", "--dims", "1,2", "--epsilon", "0.01"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert strip_time(a / "scaling.csv") == strip_time(b / "scaling.csv")

    def test_fit_skips_rows_without_steps(self, tmp_path):
        # at d = 64 the initial error 1/8 is below epsilon/2, so T = 0 and the
        # row's norm and Y_T are 0: the exponents are fitted over d = 1, 2
        def trailer(dims):
            out = tmp_path / dims
            assert cli.main(["scaling-report", "--out", str(out), "--dims", dims,
                             "--epsilon", "0.4"]) == 0
            lines = (out / "scaling.csv").read_text().splitlines()
            assert not (out / "FAILED").exists()
            return lines[-2:]

        assert trailer("1,2,64") == trailer("1,2")
        assert trailer("1,64") == ["fitted_exponent,degenerate",
                                   "predictor_exponent,degenerate"]

    def test_dims_must_increase(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["scaling-report", "--out", str(out), "--dims", "2,1"])
        assert code == 2
        assert (out / "FAILED").exists()

    def test_dimension_over_cap_exit_2_before_any_solve(self, tmp_path, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli, "solve", unexpected)
        out = tmp_path / "out"
        code = cli.main(["scaling-report", "--out", str(out), "--dims", "1,2,129"])
        assert code == 2
        assert "dimension must lie in [1, 128], got 129" in (out / "FAILED").read_text()
        assert not (out / "scaling.csv").exists()


class TestValidate:
    def test_all_checks_pass_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["validate", "--out", str(a)]) == 0
        assert cli.main(["validate", "--out", str(b)]) == 0
        report = (a / "validation.txt").read_text().splitlines()
        assert all(line.startswith("PASS") for line in report[:-1])
        assert report[-1].endswith("checks passed")
        assert read(a / "validation.txt") == read(b / "validation.txt")

    def test_idempotence_check_catches_a_non_idempotent_merge(self, monkeypatch):
        merge = atoms._merge

        def drifting_merge(keys, amps, phases):
            rows, merged, merged_phases = merge(keys, amps, phases)
            return rows, 1.5 * merged, merged_phases

        monkeypatch.setattr(atoms, "_merge", drifting_merge)
        with pytest.raises(AssertionError, match="changed the sum"):
            validate.check_canonical_idempotence()


def test_scipy_is_loaded_only_by_the_oracle(tmp_path):
    # a fresh interpreter: the test session itself has long imported scipy
    script = f"""
import sys
import cospde, cospde.cli as cli
out = {str(tmp_path)!r}
assert cli.main(["scaling-report", "--dims", "1,2", "--out", out + "/scale"]) == 0
assert cli.main(["rate-study", {TARGET!r}, "--widths", "16,32", "--trials", "30",
                 "--out", out + "/rate"]) == 0
print("scipy" in sys.modules)
# no g block: the study solves the d=1 problem, but builds no reference
assert cli.main(["rate-study", {D1!r}, "--widths", "16,32", "--trials", "30",
                 "--out", out + "/implicit"]) == 0
print("scipy" in sys.modules)
assert cli.main(["solve", {D1!r}, "--out", out + "/solve"]) == 0
print("scipy.sparse.linalg" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["False", "False", "True"]
