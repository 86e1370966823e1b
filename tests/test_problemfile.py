"""Problem file parsing: happy paths, defaults, and error line numbers."""

import math
from pathlib import Path

import pytest

from conftest import d1_benchmark, d2_benchmark
from cospde.atoms import AtomSum
from cospde.problem import constant_sum
from cospde.problemfile import (
    ParseError,
    build_problem,
    parse_problem_file,
    parse_problem_text,
)

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"

D1_TEXT = """\
# 1d benchmark
dim 1
lambda_min 1
lambda_max 3
epsilon 1e-3

A 1 1
2 0 0
1 1 0
end

c
1 0 0
end

f
1 1 0
end
"""


class TestParsing:
    def test_d1_round_trip(self):
        data = parse_problem_text(D1_TEXT)
        assert data.dimension == 1
        assert data.epsilon == 1e-3
        p = build_problem(data)
        ref = d1_benchmark()
        assert p.a_entries == ref.a_entries
        assert p.c == ref.c
        assert p.f == ref.f
        assert (p.lam_min, p.lam_max) == (1.0, 3.0)

    def test_inline_comments_and_blank_lines(self):
        text = D1_TEXT.replace("dim 1", "dim 1   # the dimension")
        text = text.replace("2 0 0", "2 0 0  # constant part\n\n")
        p = build_problem(parse_problem_text(text))
        assert p.a_entries == d1_benchmark().a_entries

    def test_missing_a_defaults_to_identity(self):
        text = (
            "dim 2\nlambda_min 1\nlambda_max 1\n"
            "c\n1 0 0 0\nend\n"
            "f\n1 1 0 0\nend\n"
        )
        p = build_problem(parse_problem_text(text))
        assert p.a_entries[0][0] == constant_sum(2, 1.0)
        assert p.a_entries[1][1] == constant_sum(2, 1.0)
        assert p.a_entries[0][1].is_zero
        assert p.a_entries[1][0].is_zero

    def test_partial_a_fills_remaining_entries(self):
        text = (
            "dim 2\nlambda_min 0.5\nlambda_max 3\n"
            "A 1 2\n0.25 1 1 0\nend\n"
            "c\n1 0 0 0\nend\n"
            "f\n1 1 0 0\nend\n"
        )
        p = build_problem(parse_problem_text(text))
        assert p.a_entries[0][0] == constant_sum(2, 1.0)
        # the single off-diagonal block is mirrored
        assert p.a_entries[0][1] == p.a_entries[1][0]
        assert p.a_entries[0][1].atom_count == 1

    def test_fourier_block_matches_atom_form(self):
        fourier = (
            "dim 2\nlambda_min 1\nlambda_max 1\n"
            "c\n1 0 0 0\nend\n"
            "f_fourier\n1 0 0.5 0\nend\n"
        )
        atoms = (
            "dim 2\nlambda_min 1\nlambda_max 1\n"
            "c\n1 0 0 0\nend\n"
            "f\n1 1 0 0\nend\n"
        )
        assert (
            build_problem(parse_problem_text(fourier)).f
            == build_problem(parse_problem_text(atoms)).f
        )

    def test_g_block_and_directives(self):
        text = (
            "dim 2\nseed 7\nprune_budget 1e-4\n"
            "g\n1 1 0 0\n0.5 0 1 0.25\nend\n"
        )
        data = parse_problem_text(text)
        assert data.seed == 7
        assert data.prune_budget == 1e-4
        assert data.g.atom_count == 2
        assert data.g.tracked_norm == 1.5

    def test_d2_benchmark_text_matches_reference(self):
        p = build_problem(parse_problem_file(PROBLEMS_DIR / "d2_benchmark.txt"))
        ref = d2_benchmark()
        assert p.a_entries == ref.a_entries
        assert p.c == ref.c
        assert p.f == ref.f
        assert (p.lam_min, p.lam_max) == (0.5, 3.0)

    def test_shipped_files_parse(self):
        for name in (
            "d1_benchmark.txt",
            "d2_benchmark.txt",
            "identity_2d.txt",
            "sampling_target.txt",
        ):
            data = parse_problem_file(PROBLEMS_DIR / name)
            if name != "sampling_target.txt":
                build_problem(data)
            else:
                assert data.g is not None


class TestParseErrors:
    def expect(self, text, line, fragment):
        with pytest.raises(ParseError) as err:
            build_problem(parse_problem_text(text))
        assert err.value.line_number == line
        assert fragment in str(err.value)
        assert f"line {line}" in str(err.value)

    def test_unknown_directive(self):
        self.expect("dim 1\nwibble 3\n", 2, "unknown")

    def test_wrong_field_count_reports_atom_line(self):
        text = "dim 2\nc\n1 0 0 0\n1 0 0\nend\n"
        self.expect(text, 4, "fields")

    def test_non_numeric_amplitude(self):
        self.expect("dim 1\nf\nabc 0 0\nend\n", 3, "could not convert")

    def test_a_indices_must_be_upper_triangle(self):
        self.expect("dim 2\nA 2 1\n1 0 0 0\nend\n", 2, "1 <= i <= j")

    def test_a_index_out_of_range(self):
        self.expect("dim 2\nA 1 3\n1 0 0 0\nend\n", 2, "1 <= i <= j")

    def test_unclosed_block(self):
        self.expect("dim 1\nf\n1 1 0\n", 2, "not closed")

    def test_duplicate_directive(self):
        self.expect("dim 1\ndim 2\n", 2, "duplicate")

    def test_duplicate_block(self):
        self.expect("dim 1\nc\n1 0 0\nend\nc\n1 0 0\nend\n", 5, "duplicate")

    def test_f_and_f_fourier_conflict(self):
        text = "dim 1\nf\n1 1 0\nend\nf_fourier\n1 1 0\nend\n"
        self.expect(text, 5, "duplicate")

    def test_block_before_dim(self):
        self.expect("c\n1 0 0\nend\ndim 1\n", 1, "dim must be set")

    def test_missing_dim(self):
        self.expect("lambda_min 1\n", 1, "dim")

    def test_bad_directive_value(self):
        self.expect("dim one\n", 1, "bad value")

    def test_missing_c_at_build(self):
        self.expect("dim 1\nlambda_min 1\nlambda_max 1\nf\n1 1 0\nend\n", 1, "c")

    def test_missing_f_at_build(self):
        self.expect("dim 1\nlambda_min 1\nlambda_max 1\nc\n1 0 0\nend\n", 1, "f")

    def test_missing_bounds_at_build(self):
        self.expect("dim 1\nc\n1 0 0\nend\nf\n1 1 0\nend\n", 1, "lambda")

    def test_duplicate_fourier_frequency(self):
        text = "dim 1\nf_fourier\n1 0.5 0\n1 0.25 0\nend\n"
        self.expect(text, 2, "f_fourier")

    def test_directive_arity(self):
        self.expect("dim 1 2\n", 1, "one value")

    @pytest.mark.parametrize("flag", ["0", "1"])
    def test_torus_directive_rejected(self, flag):
        self.expect(f"dim 1\ntorus {flag}\nc\n1 0 0\nend\n", 2, "torus")


class TestBuildDetails:
    def test_phase_and_negative_frequency_survive(self):
        text = "dim 2\ng\n0.75 -1 2 0.5\nend\n"
        g = parse_problem_text(text).g
        expected = AtomSum.from_atoms([(0.75, (-1.0, 2.0), 0.5)], dimension=2)
        # canonical form flips the leading frequency sign
        assert g == expected
        assert math.isclose(g.tracked_norm, 0.75)
