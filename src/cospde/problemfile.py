"""Text format for problem definitions.

A file is a sequence of `key value` directives and atom blocks:

    # comments and blank lines are ignored
    dim 2
    lambda_min 0.5
    lambda_max 3
    epsilon 1e-3

    A 1 1            # matrix entry, 1-based, upper triangle only
    2 0 0 0          # amplitude, d frequency components, phase
    1 1 0 0
    end

    c
    1 0 0 0
    end

    f                # or f_fourier with lines k_1..k_d re im
    1 1 0 0
    end

Frequencies are integer vectors: every problem lives on the torus
[0, 2*pi)^d.  Unspecified A entries default to the constant 1 on the
diagonal and 0 off it.  An optional `g` block names a sampling target for
rate studies.  Directives: dim (at most problem.MAX_DIMENSION), lambda_min,
lambda_max, epsilon, seed.
"""

from dataclasses import dataclass, field
from typing import Optional

from .atoms import AtomSum, InputError
from .calculus import from_fourier_data
from .problem import EllipticProblem, check_dimension, constant_sum

_DIRECTIVES = {
    "dim": check_dimension,
    "lambda_min": float,
    "lambda_max": float,
    "epsilon": float,
    "seed": int,
}


class ParseError(InputError):
    """Bad problem-file or flag syntax at a line (0 for a flag)."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class ProblemFileData:
    dimension: int
    lambda_min: Optional[float] = None
    lambda_max: Optional[float] = None
    epsilon: Optional[float] = None
    seed: Optional[int] = None
    a_blocks: dict = field(default_factory=dict)
    c: Optional[AtomSum] = None
    f: Optional[AtomSum] = None
    g: Optional[AtomSum] = None


def _strip(line):
    return line.split("#", 1)[0].strip()


def _parse_atom_lines(lines, dimension, block_name, start_line):
    atoms = []
    for number, text in lines:
        parts = text.split()
        if len(parts) != dimension + 2:
            raise ParseError(
                number,
                f"{block_name}: expected amplitude, {dimension} frequency "
                f"components and a phase ({dimension + 2} fields), got {len(parts)}",
            )
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(number, f"{block_name}: {exc}") from None
        atoms.append((values[0], tuple(values[1 : dimension + 1]), values[-1]))
    try:
        return AtomSum.from_atoms(atoms, dimension=dimension)
    except ValueError as exc:
        raise ParseError(start_line, f"{block_name}: {exc}") from None


def _parse_fourier_lines(lines, dimension, start_line):
    coefficients = []
    for number, text in lines:
        parts = text.split()
        if len(parts) != dimension + 2:
            raise ParseError(
                number,
                f"f_fourier: expected {dimension} integer frequencies, "
                f"a real and an imaginary part, got {len(parts)} fields",
            )
        try:
            freq = tuple(int(p) for p in parts[:dimension])
            value = complex(float(parts[-2]), float(parts[-1]))
        except ValueError as exc:
            raise ParseError(number, f"f_fourier: {exc}") from None
        coefficients.append((freq, value))
    try:
        return from_fourier_data(coefficients, dimension=dimension)
    except ValueError as exc:
        raise ParseError(start_line, f"f_fourier: {exc}") from None


def parse_problem_text(text):
    lines = text.splitlines()
    data = None
    directives = {}
    blocks = {}
    i = 0
    while i < len(lines):
        stripped = _strip(lines[i])
        number = i + 1
        i += 1
        if not stripped:
            continue
        parts = stripped.split()
        head = parts[0]
        if head in _DIRECTIVES:
            if len(parts) != 2:
                raise ParseError(number, f"directive {head} takes one value")
            if head in directives:
                raise ParseError(number, f"duplicate directive {head}")
            try:
                directives[head] = _DIRECTIVES[head](parts[1])
            except InputError as exc:
                raise ParseError(number, str(exc)) from None
            except ValueError:
                raise ParseError(number, f"bad value for {head}: {parts[1]}") from None
            continue
        if head in ("A", "c", "f", "f_fourier", "g"):
            if "dim" not in directives:
                raise ParseError(number, "dim must be set before any block")
            if head == "A":
                if len(parts) != 3:
                    raise ParseError(number, "A blocks start with: A i j")
                try:
                    row, col = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ParseError(number, "A indices must be integers") from None
                d = directives["dim"]
                if not (1 <= row <= col <= d):
                    raise ParseError(
                        number, f"A indices must satisfy 1 <= i <= j <= {d}"
                    )
                key = ("A", row, col)
            else:
                if len(parts) != 1:
                    raise ParseError(number, f"{head} block header takes no arguments")
                key = (head,)
            if key in blocks or (head == "f" and ("f_fourier",) in blocks) or (
                head == "f_fourier" and ("f",) in blocks
            ):
                raise ParseError(number, f"duplicate block {' '.join(map(str, key))}")
            body = []
            start = number
            while True:
                if i >= len(lines):
                    raise ParseError(start, f"block {head} not closed with 'end'")
                inner = _strip(lines[i])
                inner_number = i + 1
                i += 1
                if not inner:
                    continue
                if inner == "end":
                    break
                body.append((inner_number, inner))
            blocks[key] = (start, body)
            continue
        raise ParseError(number, f"unknown directive or block: {head}")

    if "dim" not in directives:
        raise ParseError(len(lines) or 1, "missing required directive: dim")
    dimension = directives["dim"]

    data = ProblemFileData(dimension=dimension)
    data.lambda_min = directives.get("lambda_min")
    data.lambda_max = directives.get("lambda_max")
    data.epsilon = directives.get("epsilon")
    data.seed = directives.get("seed")

    for key, (start, body) in blocks.items():
        if key[0] == "A":
            data.a_blocks[(key[1], key[2])] = _parse_atom_lines(
                body, dimension, f"A {key[1]} {key[2]}", start
            )
        elif key[0] == "f_fourier":
            data.f = _parse_fourier_lines(body, dimension, start)
        else:
            parsed = _parse_atom_lines(body, dimension, key[0], start)
            setattr(data, key[0], parsed)
    return data


def parse_problem_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem_text(handle.read())


def build_problem(data):
    """Assemble the elliptic problem, applying the identity default for A."""
    if data.c is None:
        raise ParseError(1, "missing block: c")
    if data.f is None:
        raise ParseError(1, "missing block: f (or f_fourier)")
    if data.lambda_min is None or data.lambda_max is None:
        raise ParseError(1, "missing directive: lambda_min / lambda_max")
    d = data.dimension
    one = constant_sum(d, 1.0)
    zero = AtomSum.zero(d)
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            lo, hi = min(i, j) + 1, max(i, j) + 1
            entry = data.a_blocks.get((lo, hi))
            if entry is None:
                entry = one if i == j else zero
            rows[i][j] = entry
    return EllipticProblem(rows, data.c, data.f, data.lambda_min, data.lambda_max)
