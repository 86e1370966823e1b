"""Command line behavior: outputs, exit codes, FAILED markers, determinism."""

import math
from pathlib import Path

import pytest

import cospde.atoms as atoms
import cospde.cli as cli
import cospde.validate as validate
from cospde.atoms import AtomSum, from_text
from cospde.solver import LedgerViolationError

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
IDENTITY = str(PROBLEMS_DIR / "identity_2d.txt")
D1 = str(PROBLEMS_DIR / "d1_benchmark.txt")
TARGET = str(PROBLEMS_DIR / "sampling_target.txt")


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

    def test_ledger_violation_exit_4(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise LedgerViolationError("synthetic")

        monkeypatch.setattr(cli, "solve", boom)
        out = tmp_path / "out"
        assert cli.main(["solve", D1, "--out", str(out)]) == 4
        assert "ledger violation" in (out / "FAILED").read_text()

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

    def test_dims_must_increase(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["scaling-report", "--out", str(out), "--dims", "2,1"])
        assert code == 2
        assert (out / "FAILED").exists()


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
