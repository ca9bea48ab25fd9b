"""Command-line surface.

Subcommands: make-rotation, check-quadratic, check-function, profile,
sample-rotation. Reports go to stdout, diagnostics to stderr. Exit
codes are a total contract:

    0   objective / success
    1   not objective
    2   usage or input error
    3   inconclusive (Monte-Carlo budget exhausted without a violation)

Matrix files are plain text: a first line with the order m, then m
lines of m whitespace-separated decimal numbers (dot decimal separator,
hand-writable). JSON reports mirror ObjectivityReport and round-trip
exactly; all randomized commands echo their effective seed so a rerun
reproduces the report bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

import numpy as np

from . import __version__
from .expr import (
    EvalContext,
    EvaluationError,
    ExpressionError,
    evaluate,
    parse as parse_expression,
    references_radius,
    variable_indices,
)
from .linalg import SquareMatrix, Vector
from .objectivity import (
    DEFAULT_FUNCTION_TOL,
    DEFAULT_QUADRATIC_TOL,
    Method,
    NonFiniteValueError,
    ObjectivityReport,
    ProfileEvaluationError,
    QuadraticForm,
    RadialSet,
    Verdict,
    Witness,
    extract_profile,
    quadratic_objectivity,
    radial_sampler,
    test_function_objectivity,
)
from .rotation import (
    NoProperRotationError,
    haar_sample,
    rotation_mapping,
    validate_rotation,
)

__all__ = [
    "MatrixFileError",
    "format_matrix_file",
    "parse_matrix_file",
    "report_to_document",
    "report_from_document",
    "main",
    "entry_point",
]

EXIT_OK = 0
EXIT_NOT_OBJECTIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# Largest --dim accepted: sample-rotation allocates m^2 doubles, so an
# unbounded value could exhaust memory instead of exiting 2.
MAX_DIM = 1000

# Vectors this close to unit norm are silently normalized; anything
# farther off is rejected as a usage error.
_NORMALIZE_SLACK = 1e-6


class MatrixFileError(ValueError):
    """A matrix file failed to parse."""


def _fmt(value: float) -> str:
    # Shortest decimal that round-trips the exact double.
    return repr(float(value))


def format_matrix_file(matrix: SquareMatrix) -> str:
    lines = [str(matrix.order)]
    for row in matrix.tolist():
        lines.append(" ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix_file(text: str) -> SquareMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFileError("empty matrix file")
    try:
        m = int(lines[0].strip())
    except ValueError:
        raise MatrixFileError(f"first line must be the matrix order, got {lines[0]!r}") from None
    if m < 1:
        raise MatrixFileError(f"matrix order must be >= 1, got {m}")
    if len(lines) != 1 + m:
        raise MatrixFileError(f"expected {m} rows after the order line, found {len(lines) - 1}")
    rows: list[list[float]] = []
    for k, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != m:
            raise MatrixFileError(f"row {k} has {len(parts)} numbers, expected {m}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise MatrixFileError(f"row {k}: {exc}") from None
    try:
        return SquareMatrix(rows)
    except ValueError as exc:
        raise MatrixFileError(str(exc)) from None


def report_to_document(report: ObjectivityReport, seed: int | None) -> dict:
    doc: dict = {
        "verdict": report.verdict.value,
        "method": report.method.value,
        "trials": report.trials,
        "tolerance": report.tolerance,
        "seed": seed,
        "version": __version__,
    }
    if report.alpha is not None:
        doc["alpha"] = report.alpha
    if report.witness is not None:
        doc["witness"] = {
            "x": report.witness.x.tolist(),
            "q": report.witness.q.matrix.tolist(),
            "f_x": report.witness.f_x,
            "f_qx": report.witness.f_qx,
        }
    return doc


def report_from_document(doc: dict) -> tuple[ObjectivityReport, int | None]:
    witness = None
    if "witness" in doc:
        w = doc["witness"]
        witness = Witness(
            x=Vector(w["x"]),
            q=validate_rotation(SquareMatrix(w["q"])),
            f_x=float(w["f_x"]),
            f_qx=float(w["f_qx"]),
        )
    report = ObjectivityReport(
        verdict=Verdict(doc["verdict"]),
        method=Method(doc["method"]),
        trials=int(doc["trials"]),
        tolerance=float(doc["tolerance"]),
        alpha=doc.get("alpha"),
        witness=witness,
    )
    return report, doc["seed"]


def _emit_report(report: ObjectivityReport, seed: int | None, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report_to_document(report, seed)))
        return
    print(f"verdict: {report.verdict.value}")
    print(f"method: {report.method.value}")
    if report.alpha is not None:
        print(f"alpha: {_fmt(report.alpha)}")
    print(f"trials: {report.trials}")
    print(f"tolerance: {_fmt(report.tolerance)}")
    if seed is not None:
        print(f"seed: {seed}")
    if report.witness is not None:
        w = report.witness
        print(f"witness x: {' '.join(_fmt(v) for v in w.x)}")
        print(f"witness f(x): {_fmt(w.f_x)}")
        print(f"witness f(Qx): {_fmt(w.f_qx)}")
        for row in w.q.matrix.tolist():
            print(f"witness Q row: {' '.join(_fmt(v) for v in row)}")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_unit_vector(text: str, label: str) -> Vector:
    try:
        values = [float(p) for p in text.split()]
    except ValueError:
        raise ValueError(f"{label} must be a whitespace-separated list of numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{label} is empty")
    v = Vector(values)
    norm = v.norm()
    if abs(norm - 1.0) > _NORMALIZE_SLACK:
        raise ValueError(f"{label} must be within {_NORMALIZE_SLACK} of unit norm, got norm {norm!r}")
    return Vector(v.data / norm)


def _cmd_make_rotation(args: argparse.Namespace) -> int:
    try:
        u = _parse_unit_vector(args.u, "u")
        v = _parse_unit_vector(args.v, "v")
        if u.dim != v.dim:
            return _fail(f"u and v must have equal length, got {u.dim} and {v.dim}")
    except ValueError as exc:
        return _fail(str(exc))
    try:
        q = rotation_mapping(u, v)
    except NoProperRotationError as exc:
        # Inherent impossibility, not a usage error: in dimension one the
        # determinant-1 constraint leaves only the identity.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_OBJECTIVE
    _write_text(format_matrix_file(q.matrix), args.out)
    return EXIT_OK


def _cmd_check_quadratic(args: argparse.Namespace) -> int:
    try:
        with open(args.matrix) as fh:
            h = parse_matrix_file(fh.read())
    except OSError as exc:
        return _fail(f"cannot read {args.matrix}: {exc}")
    except MatrixFileError as exc:
        return _fail(f"{args.matrix}: {exc}")
    if args.tol <= 0.0:
        return _fail("--tol must be > 0")
    report = quadratic_objectivity(QuadraticForm(h), tol=args.tol)
    _emit_report(report, None, args.json)
    return EXIT_OK if report.verdict is Verdict.OBJECTIVE else EXIT_NOT_OBJECTIVE


def _compile_point_function(source: str, m: int):
    try:
        expr = parse_expression(source)
    except ExpressionError as exc:
        raise ValueError(f"cannot parse expression: {exc}") from None
    if references_radius(expr):
        raise ValueError("the profile argument t is not allowed here; use x1..xm, norm(x), dot(x,x)")
    indices = variable_indices(expr)
    if indices and max(indices) > m:
        raise ValueError(f"expression references x{max(indices)} but the dimension is {m}")

    def f(x: Vector) -> float:
        return evaluate(expr, EvalContext.at_point(x))

    return f


def _cmd_check_function(args: argparse.Namespace) -> int:
    if not 1 <= args.dim <= MAX_DIM:
        return _fail(f"--dim must be between 1 and {MAX_DIM}")
    if args.trials < 1:
        return _fail("--trials must be >= 1")
    if args.tol <= 0.0:
        return _fail("--tol must be > 0")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    if not (math.isfinite(args.radius_min) and math.isfinite(args.radius_max)):
        return _fail("--radius-min and --radius-max must be finite")
    try:
        f = _compile_point_function(args.expr, args.dim)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        gamma = RadialSet(args.dim, intervals=((args.radius_min, args.radius_max),))
    except ValueError as exc:
        return _fail(f"invalid radius range: {exc}")
    rng = np.random.default_rng(args.seed)
    try:
        report = test_function_objectivity(
            f, args.dim, radial_sampler(gamma), args.trials, args.tol, rng
        )
    except (EvaluationError, NonFiniteValueError) as exc:
        return _fail(f"function evaluation failed: {exc}")
    _emit_report(report, args.seed, args.json)
    if report.verdict is Verdict.OBJECTIVE:
        return EXIT_OK
    if report.verdict is Verdict.NOT_OBJECTIVE:
        return EXIT_NOT_OBJECTIVE
    return EXIT_INCONCLUSIVE


def _cmd_profile(args: argparse.Namespace) -> int:
    if not 1 <= args.dim <= MAX_DIM:
        return _fail(f"--dim must be between 1 and {MAX_DIM}")
    try:
        f = _compile_point_function(args.expr, args.dim)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        radii = [float(p) for p in args.radii.split(",") if p.strip()]
    except ValueError:
        return _fail(f"--radii must be a comma-separated list of numbers, got {args.radii!r}")
    if not radii:
        return _fail("--radii is empty")
    if not all(math.isfinite(t) for t in radii):
        return _fail("grid radii must be finite")
    if any(t < 0.0 for t in radii):
        return _fail("grid radii must be >= 0")
    gamma = RadialSet(args.dim, points=tuple(radii))
    e1 = np.zeros(args.dim)
    e1[0] = 1.0
    try:
        profile = extract_profile(f, gamma, Vector(e1), radii)
    except ProfileEvaluationError as exc:
        return _fail(str(exc))
    assert profile.samples is not None
    lines = ["t,phi"] + [f"{_fmt(t)},{_fmt(val)}" for t, val in profile.samples]
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_sample_rotation(args: argparse.Namespace) -> int:
    if not 1 <= args.dim <= MAX_DIM:
        return _fail(f"--dim must be between 1 and {MAX_DIM}")
    if args.count < 1:
        return _fail("--count must be >= 1")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        q = haar_sample(args.dim, rng)
        path = f"{args.out}{i:03d}.txt"
        try:
            with open(path, "w", newline="\n") as fh:
                fh.write(format_matrix_file(q.matrix))
        except OSError as exc:
            return _fail(f"cannot write {path}: {exc}")
    print(f"wrote {args.count} rotation(s) of order {args.dim} with seed {args.seed}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotinv",
        description="Construct and sample proper rotations; decide or test rotational invariance.",
    )
    parser.add_argument("--version", action="version", version=f"rotinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "make-rotation",
        help="construct a proper rotation mapping unit vector U to unit vector V",
    )
    p.add_argument("u", help="source vector, e.g. '1 0 0'")
    p.add_argument("v", help="target vector of the same length")
    p.add_argument("--out", help="write the matrix file here instead of stdout")
    p.set_defaults(func=_cmd_make_rotation)

    p = sub.add_parser(
        "check-quadratic",
        help="decide exactly whether x^T H x is rotation-invariant, for H from a matrix file",
    )
    p.add_argument("matrix", help="matrix file: order m, then m rows of m numbers")
    p.add_argument("--tol", type=float, default=DEFAULT_QUADRATIC_TOL,
                   help="decision tolerance (default %(default)s)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_check_quadratic)

    p = sub.add_parser(
        "check-function",
        help="Monte-Carlo invariance test for an expression in x1..xm, norm(x), dot(x,x)",
    )
    p.add_argument("expr", help="e.g. 'norm(x)^2 + sin(norm(x))'")
    p.add_argument("--dim", type=int, required=True, help=f"dimension m, at most {MAX_DIM}")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius-min", type=float, default=0.1, help="sampled radii start (default 0.1)")
    p.add_argument("--radius-max", type=float, default=10.0, help="sampled radii end (default 10)")
    p.add_argument("--tol", type=float, default=DEFAULT_FUNCTION_TOL,
                   help="relative violation tolerance (default %(default)s)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_check_function)

    p = sub.add_parser(
        "profile",
        help="extract the radial profile phi(t) = f(t*e1) over a grid of radii, as CSV",
    )
    p.add_argument("expr", help="expression defining f")
    p.add_argument("--dim", type=int, required=True, help=f"dimension m, at most {MAX_DIM}")
    p.add_argument("--radii", required=True, help="comma-separated grid, e.g. '0,1,2.5'")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "sample-rotation",
        help="write Haar-uniform random rotations as matrix files",
    )
    p.add_argument("--dim", type=int, required=True, help=f"dimension m, at most {MAX_DIM}")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix; files get 000.txt, 001.txt, ...")
    p.set_defaults(func=_cmd_sample_rotation)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already written its message; fold --help's 0 and
        # usage errors' 2 into the return-code contract.
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except Exception as exc:
        # Last resort for the exit-code contract: exit 1 means "not
        # objective", so no failure may surface as a traceback.
        return _fail(f"unexpected {type(exc).__name__}: {exc}")


def entry_point() -> None:
    raise SystemExit(main())
