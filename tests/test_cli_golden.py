"""Replay of seeded CLI runs against tests/golden/cli_reports.txt.gz.

Each command runs in process through `cli.main`, and the file records its
argument list, exit code, stdout and stderr, one block per command:

    $ check-function x1 --dim 2 --seed 0 --trials 100
    exit 1
    out: verdict: not_objective
    ...
    err: ...

The commands cover `check-function`, `profile`, `check-quadratic` and
`make-rotation` at m in {1, 2, 3, 5}: radial, coordinate-dependent and
failing expressions; random, isotropic, extreme-scale and subnormal
matrices; canonical, random, antipodal and non-unit vector pairs. Matrix
files are written to a temporary directory and passed by a relative
name, so no report depends on where the suite runs.

To regenerate after an intended change of a report:

    PYTHONPATH=src python tests/test_cli_golden.py

It prints how many blocks differ from the committed file, and the command
of each, before writing.
"""

import contextlib
import gzip
import io
import os
import tempfile
from pathlib import Path

import numpy as np

from rotinv.cli import main

GOLDEN_FILE = Path(__file__).parent / "golden" / "cli_reports.txt.gz"
DIMS = (1, 2, 3, 5)
SEEDS = (0, 1, 42)

FUNCTIONS = (
    "norm(x)^2 + sin(norm(x))",
    "exp(-dot(x,x))",
    "3*sqrt(dot(x,x))",
    "x1",
    "x1*x2",
    "x1^2 + 2*x2^2",
    "log(x1)",
    "1/(x1-x1)",
    "x1 +",
)
# Radius ranges beyond the default [0.1, 10]: large enough that x.x
# overflows, and small enough that it underflows.
EXTREME_RANGES = (("1e200", "1e201"), ("1e-300", "1e-299"))
PROFILES = ("norm(x)^2", "exp(-dot(x,x))", "x1*x1", "log(norm(x))", "dot(x,x)")
PROFILE_GRIDS = ("0,0.5,1,2.5", "1e200", "1e-300,3e-310")


def _vector_text(v) -> str:
    return " ".join(repr(float(a)) for a in v)


def _matrix_text(h: np.ndarray) -> str:
    return "\n".join([str(len(h))] + [_vector_text(row) for row in h]) + "\n"


def function_commands() -> list[list[str]]:
    commands = []
    for source in FUNCTIONS:
        for m in DIMS:
            for seed in SEEDS:
                base = ["check-function", source, "--dim", str(m), "--seed", str(seed), "--trials", "100"]
                commands += [base, base + ["--json"]]
        for m in (2, 3):
            for lo, hi in EXTREME_RANGES:
                commands.append(["check-function", source, "--dim", str(m), "--trials", "100",
                                 "--radius-min", lo, "--radius-max", hi, "--json"])
    return commands


def profile_commands() -> list[list[str]]:
    return [["profile", source, "--dim", str(m), "--radii", grid]
            for source in PROFILES for m in DIMS for grid in PROFILE_GRIDS]


def quadratic_matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(606)
    matrices = []
    for m in DIMS:
        eye = np.eye(m)
        antisymmetric = np.triu(rng.integers(-3, 4, (m, m)), 1).astype(float)
        antisymmetric -= antisymmetric.T
        integers = rng.integers(-8, 9, (m, m)).astype(float)
        matrices += [
            rng.standard_normal((m, m)),
            integers,
            np.diag(np.arange(1.0, m + 1)),
            2.5 * eye,
            -eye + antisymmetric,
            np.zeros((m, m)),
            1e200 * integers,
            1e300 * rng.standard_normal((m, m)),
            1e-300 * integers,
            5e-324 * integers,
            1.7e308 * eye,
            np.full((m, m), 1e308),
        ]
    return matrices


def rotation_pairs() -> list[tuple[str, str]]:
    rng = np.random.default_rng(707)
    pairs = []
    for m in DIMS:
        eye = np.eye(m)
        for i in range(m):
            for j in range(m):
                pairs.append((eye[i], eye[j]))
        pairs.append((eye[0], -eye[0]))
        pairs.append((-eye[m - 1], eye[0]))
        for _ in range(3):
            u, v = rng.standard_normal((2, m))
            pairs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        pairs.append((u, -u))
        pairs.append((u, u))
        pairs.append((1e200 * eye[0], eye[0]))
        pairs.append((2.0 * eye[0], eye[0]))
    return [(_vector_text(u), _vector_text(v)) for u, v in pairs]


def _run(argv: list[str]) -> list[str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (
        [f"$ {' '.join(argv)}", f"exit {code}"]
        + [f"out: {line}" for line in out.getvalue().splitlines()]
        + [f"err: {line}" for line in err.getvalue().splitlines()]
    )


def golden_blocks() -> list[list[str]]:
    blocks = [_run(argv) for argv in function_commands() + profile_commands()]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for k, h in enumerate(quadratic_matrices()):
                name = f"h{k:03d}.txt"
                Path(name).write_text(_matrix_text(h))
                blocks += [_run(["check-quadratic", name]), _run(["check-quadratic", name, "--json"])]
        finally:
            os.chdir(cwd)
    blocks += [_run(["make-rotation", u, v]) for u, v in rotation_pairs()]
    return blocks


def _split(lines: list[str]) -> list[list[str]]:
    blocks: list[list[str]] = []
    for line in lines:
        if line.startswith("$ "):
            blocks.append([])
        blocks[-1].append(line)
    return blocks


def test_cli_reports_match_golden_file():
    expected = _split(gzip.decompress(GOLDEN_FILE.read_bytes()).decode().splitlines())
    observed = golden_blocks()
    assert len(observed) == len(expected)
    for got, want in zip(observed, expected):
        assert got == want, "\n".join(got + ["!="] + want)


if __name__ == "__main__":
    blocks = golden_blocks()
    old = _split(gzip.decompress(GOLDEN_FILE.read_bytes()).decode().splitlines()) if GOLDEN_FILE.exists() else []
    changed = [block[0] for k, block in enumerate(blocks) if k >= len(old) or old[k] != block]
    print(f"{len(changed)} of {len(blocks)} blocks differ from the committed file ({len(old)} blocks)")
    print("\n".join(changed))
    text = "\n".join(line for block in blocks for line in block) + "\n"
    GOLDEN_FILE.write_bytes(gzip.compress(text.encode(), compresslevel=9, mtime=0))
