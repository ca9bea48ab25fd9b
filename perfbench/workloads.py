"""Seeded inputs for the four workloads, as pools of rounds of operations.

Everything is generated from the workload seed; the library receives only
the generated inputs. A round holds one operation of every class of its
workload, in a fixed order, with fresh inputs, and expressions come from
fixed templates with seeded coefficients, so the cost of a class does not
depend on the seed beyond sampling noise.

- mc_budget: radial expressions (criterion-5 style) at m in {2, 3, 8, 32}
  and radial_set_closure_check on random radius sets at m in {2, 3, 4},
  each to a 10,000-trial budget. Verdicts: inconclusive / objective. This
  is the steady-state trial loop: Haar QR, rotate, three evaluations.
- mc_refute: coordinate-dependent expressions at m in 2..8, expected
  not_objective, refuted within the first trials. Two classes pin the
  identity rotation at a suspect point so the profile check refutes and
  the witness is built by rotation_mapping. This workload measures early
  exit and witness construction, not throughput.
- exact_dense: quadratic_objectivity at m in {3, 8, 32, 100} on
  anisotropic forms (eigensolver, then rotation_mapping for the witness)
  and on isotropic ones (alpha*I, alpha*I plus an antisymmetric part;
  residual check only), plus rotation_mapping and validate_rotation at
  m in {2, 3, 8, 32, 100}.
- cli_oneshot: sequential `python -m rotinv` commands over all five
  subcommands, expected exit codes 0/1/2/3. Each command pays interpreter
  start and `import rotinv.cli`; one seeded check-function --json command
  repeats every round and must print the same bytes each time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rotinv import expr, objectivity, rotation
from rotinv.expr import EvalContext, evaluate, parse
from rotinv.linalg import SquareMatrix, Vector
from rotinv.objectivity import QuadraticForm, RadialSet, Verdict, radial_sampler
from rotinv.rotation import RotationError, haar_sample, validate_rotation

from harness import Op

NAMES = ("mc_budget", "mc_refute", "exact_dense", "cli_oneshot")

BUDGET_TRIALS = 10_000
REFUTE_TRIALS = 1_000
CLI_INCONCLUSIVE_TRIALS = 200
FUNCTION_TOL = 1e-9
# Rounds generated per workload; a run cycles through them.
POOL_ROUNDS = {"mc_budget": 8, "mc_refute": 64, "exact_dense": 32, "cli_oneshot": 12}

RADIAL_TEMPLATES = (
    "{a}*norm(x)^2 + sin({b}*norm(x))",
    "exp(-{a}*norm(x)) + {b}*dot(x,x)",
    "{a}/(1 + norm(x)^2) + cos({b}*norm(x))",
    "sqrt({a} + norm(x))*log({b} + norm(x))",
)

COORD_TEMPLATES = (
    "{a}*x1 + norm(x)",
    "x1*x2 + {b}",
    "sin({a}*x1) + dot(x,x)",
    "exp({a}*x2/norm(x))",
    "x1^2 - {b}*x2^2",
    "dot(x,x) - {a}*x1",
)


def _identity(sampler):
    return sampler


class Api:
    """The library entry points that operations call.

    A traced run swaps these attributes for span-recording wrappers. The
    outcome checks use the module-level imports, which stay untouched.
    `sampler` is applied to every domain sampler handed to the Monte-Carlo
    test, and `evaluate` is called from the point-function callback, so
    neither needs the library's own names patched.
    """

    def __init__(self) -> None:
        self.test_function_objectivity = objectivity.test_function_objectivity
        self.radial_set_closure_check = objectivity.radial_set_closure_check
        self.quadratic_objectivity = objectivity.quadratic_objectivity
        self.rotation_mapping = rotation.rotation_mapping
        self.validate_rotation = rotation.validate_rotation
        self.evaluate = expr.evaluate
        self.sampler = _identity


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]
    sources: list[str]
    cli: "CliRunner | None" = None


def build(name: str, seed: int, workdir: Path, api: Api | None = None) -> Workload:
    """Generate the inputs of one workload; workdir holds any files it needs."""
    api = api or Api()
    if name == "mc_budget":
        return _mc_budget(api, seed)
    if name == "mc_refute":
        return _mc_refute(api, seed)
    if name == "exact_dense":
        return _exact_dense(api, seed)
    if name == "cli_oneshot":
        return _cli_oneshot(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _coefficients(rng: np.random.Generator) -> dict:
    a, b = rng.uniform(0.5, 2.0, size=2)
    return {"a": f"{a:.6f}", "b": f"{b:.6f}"}


def unit(m: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        u = rng.standard_normal(m)
        n = np.linalg.norm(u)
        if n > 1e-12:
            return u / n


def point_function(e):
    def f(x: Vector) -> float:
        return evaluate(e, EvalContext.at_point(x))

    return f


def _replay(fn, witness, tol: float, separation: float) -> str | None:
    """A witness replays when q is a proper rotation, f(x) gives f_x back
    exactly, f(qx) gives f_qx back within tol relative, and the replayed
    values still differ by more than the separation the report used."""
    try:
        validate_rotation(witness.q.matrix)
    except RotationError as exc:
        return f"witness rotation is invalid: {exc}"
    fx = fn(witness.x)
    if fx != witness.f_x:
        return f"f(x) replays as {fx!r}, witness says {witness.f_x!r}"
    fqx = fn(witness.q.apply(witness.x))
    if abs(fqx - witness.f_qx) > tol * max(1.0, abs(witness.f_qx)):
        return f"f(qx) replays as {fqx!r}, witness says {witness.f_qx!r}"
    if not abs(fx - fqx) > separation:
        return "replayed values do not separate beyond the tolerance"
    return None


def _verdict_mismatch(report, expected: Verdict) -> str | None:
    if report.verdict is not expected:
        return f"verdict {report.verdict.value}, expected {expected.value}"
    return None


def function_op(api: Api, label: str, source: str, m: int, gamma: RadialSet, trials: int,
                expected: Verdict, rng_key: list[int], pinned=()) -> Op:
    """A Monte-Carlo test of an expression; `expected` is the verdict its class must get."""
    e = parse(source)

    def f(x: Vector) -> float:
        return api.evaluate(e, EvalContext.at_point(x))

    reference = point_function(e)
    sampler = radial_sampler(gamma)

    def call(rng):
        return api.test_function_objectivity(
            f, m, api.sampler(sampler), trials, FUNCTION_TOL, rng, pinned=pinned
        )

    def check(report) -> str | None:
        wrong = _verdict_mismatch(report, expected)
        if wrong:
            return wrong
        if expected is Verdict.INCONCLUSIVE and report.trials != trials:
            return f"ran {report.trials} trials, budget was {trials}"
        if expected is Verdict.NOT_OBJECTIVE:
            if not 1 <= report.trials <= trials + len(pinned):
                return f"refuted at trial {report.trials}, budget was {trials}"
            w = report.witness
            return _replay(reference, w, FUNCTION_TOL, FUNCTION_TOL * max(1.0, abs(w.f_x)))
        return None

    return Op(label, call, lambda: (np.random.default_rng(rng_key),), check,
              outcome=lambda r: r.verdict.value, trials=lambda r: r.trials)


def _closure_op(api: Api, label: str, gamma: RadialSet, rng_key: list[int]) -> Op:
    def call(rng):
        return api.radial_set_closure_check(gamma, BUDGET_TRIALS, rng)

    def check(report) -> str | None:
        return _verdict_mismatch(report, Verdict.OBJECTIVE) or (
            None if report.trials == BUDGET_TRIALS else f"ran {report.trials} trials"
        )

    return Op(label, call, lambda: (np.random.default_rng(rng_key),), check,
              outcome=lambda r: r.verdict.value, trials=lambda r: r.trials)


def _random_radius_set(m: int, rng: np.random.Generator) -> RadialSet:
    """One interval and one isolated radius, both random in [0, 20]: random
    values in a fixed shape, so every round costs the same to sample."""
    lo, hi = sorted(rng.uniform(0.0, 20.0, size=2))
    return RadialSet(m, intervals=((float(lo), float(hi)),), points=(float(rng.uniform(0.0, 20.0)),))


def _mc_budget(api: Api, seed: int) -> Workload:
    # A run holds only three or four rounds, so every round gives a class the
    # same template and the same radius-set shape; only the values differ.
    rng = np.random.default_rng([seed, 1])
    rounds, sources = [], []
    for r in range(POOL_ROUNDS["mc_budget"]):
        ops = []
        for j, m in enumerate((2, 3, 8, 32)):
            source = RADIAL_TEMPLATES[j].format(**_coefficients(rng))
            lo, hi = rng.uniform(0.1, 1.0), rng.uniform(2.0, 10.0)
            gamma = RadialSet(m, intervals=((lo, hi),))
            ops.append(function_op(api, f"function.m{m}", source, m, gamma, BUDGET_TRIALS,
                                   Verdict.INCONCLUSIVE, [seed, r, j]))
            sources.append(source)
        for j, m in enumerate((2, 3, 4), start=4):
            ops.append(_closure_op(api, f"closure.m{m}", _random_radius_set(m, rng), [seed, r, j]))
        rounds.append(ops)
    return Workload("mc_budget", rounds, sources)


def _mc_refute(api: Api, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    identity = {m: validate_rotation(SquareMatrix(np.eye(m))) for m in (3, 8)}
    rounds, sources = [], []
    for r in range(POOL_ROUNDS["mc_refute"]):
        ops = []
        for j, m in enumerate(range(2, 9)):
            source = COORD_TEMPLATES[(r + j) % len(COORD_TEMPLATES)].format(**_coefficients(rng))
            gamma = RadialSet(m, intervals=((0.1, 10.0),))
            ops.append(function_op(api, f"refute.m{m}", source, m, gamma, REFUTE_TRIALS,
                                   Verdict.NOT_OBJECTIVE, [seed, r, j]))
            sources.append(source)
        # The identity passes the direct check exactly, so the profile
        # check refutes and rotation_mapping builds the witness.
        for j, m in enumerate((3, 8), start=7):
            source = COORD_TEMPLATES[(r + j) % len(COORD_TEMPLATES)].format(**_coefficients(rng))
            x0 = Vector(float(rng.uniform(0.5, 3.0)) * unit(m, rng))
            gamma = RadialSet(m, intervals=((0.1, 10.0),))
            ops.append(function_op(api, f"profile_witness.m{m}", source, m, gamma, REFUTE_TRIALS,
                                   Verdict.NOT_OBJECTIVE, [seed, r, j], pinned=((x0, identity[m]),)))
            sources.append(source)
        rounds.append(ops)
    return Workload("mc_refute", rounds, sources)


def _quadratic_op(api: Api, label: str, h: np.ndarray, alpha: float | None) -> Op:
    """alpha is None for an anisotropic form, else the isotropic coefficient."""
    qf = QuadraticForm(SquareMatrix(h))
    expected = Verdict.NOT_OBJECTIVE if alpha is None else Verdict.OBJECTIVE

    def check(report) -> str | None:
        wrong = _verdict_mismatch(report, expected)
        if wrong:
            return wrong
        if alpha is not None:
            if abs(report.alpha - alpha) > 1e-12 * max(1.0, abs(alpha)):
                return f"alpha {report.alpha!r}, expected {alpha!r}"
            return None
        return _replay(qf.value, report.witness, 1e-12, report.tolerance)

    return Op(label, api.quadratic_objectivity, lambda: (qf,), check,
              outcome=lambda r: r.verdict.value)


def _mapping_op(api: Api, label: str, u: np.ndarray, v: np.ndarray) -> Op:
    def check(q) -> str | None:
        validate_rotation(q.matrix)
        miss = float(np.max(np.abs(q.data @ u - v)))
        return None if miss <= 1e-10 else f"Qu misses v by {miss:.3e}"

    return Op(label, api.rotation_mapping, lambda: (Vector(u), Vector(v)), check,
              outcome=lambda q: "rotation")


def _validate_op(api: Api, label: str, q: SquareMatrix) -> Op:
    def check(result) -> str | None:
        return None if result.matrix is q else "validate_rotation did not wrap its input"

    return Op(label, api.validate_rotation, lambda: (q,), check, outcome=lambda r: "rotation")


def _exact_dense(api: Api, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    rounds = []
    for _ in range(POOL_ROUNDS["exact_dense"]):
        ops = []
        for m in (3, 8, 32, 100):
            ops.append(_quadratic_op(api, f"quadratic.aniso.m{m}", rng.uniform(-1.0, 1.0, (m, m)), None))
            alpha = float(rng.uniform(-3.0, 3.0))
            ops.append(_quadratic_op(api, f"quadratic.iso.m{m}", alpha * np.eye(m), alpha))
            alpha = float(rng.uniform(-3.0, 3.0))
            b = rng.uniform(-1.0, 1.0, (m, m))
            ops.append(_quadratic_op(api, f"quadratic.iso_anti.m{m}",
                                     alpha * np.eye(m) + 0.5 * (b - b.T), alpha))
        for m in (2, 3, 8, 32, 100):
            ops.append(_mapping_op(api, f"mapping.m{m}", unit(m, rng), unit(m, rng)))
        for m in (2, 3, 8, 32, 100):
            ops.append(_validate_op(api, f"validate.m{m}", haar_sample(m, rng).matrix))
        rounds.append(ops)
    return Workload("exact_dense", rounds, [])


@dataclass
class CliResult:
    code: int
    out: bytes
    err: bytes


class CliRunner:
    """Runs `python -m rotinv` one command at a time against the checkout's
    sources, and keeps the largest peak RSS any command reached."""

    def __init__(self, src: Path, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.workdir = workdir
        self.peak_rss_kb = 0

    def __call__(self, argv: list[str]) -> CliResult:
        proc = subprocess.Popen(
            [sys.executable, "-m", "rotinv", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=self.workdir,
        )
        # Outputs are small, so reading stdout to the end before stderr
        # cannot stall the child; wait4 gives this child's own peak RSS.
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out, err)


def _cli_op(runner: CliRunner, label: str, argv: list[str], code: int, check_output=None) -> Op:
    def check(result: CliResult) -> str | None:
        if result.code != code:
            return f"exit {result.code}, expected {code}: {result.err.decode(errors='replace')[-200:]}"
        if code == 2 and not result.err.startswith(b"error:"):
            return "usage error without an 'error:' line"
        return check_output(result.out) if check_output else None

    def trials(result: CliResult) -> int:
        if argv[0] == "check-function" and result.code in (1, 3):
            return int(json.loads(result.out)["trials"])
        return 0

    return Op(label, runner, lambda: (argv,), check,
              outcome=lambda r: f"exit {r.code}", trials=trials)


def _cli_oneshot(seed: int, workdir: Path) -> Workload:
    from rotinv.cli import format_matrix_file, parse_matrix_file, report_from_document

    src = Path(__file__).resolve().parent.parent / "src"
    runner = CliRunner(src, workdir)
    rng = np.random.default_rng([seed, 4])

    def fmt(vec) -> str:
        return " ".join(repr(float(c)) for c in vec)

    def expect_mapping(u, v):
        def check(out: bytes) -> str | None:
            q = validate_rotation(parse_matrix_file(out.decode()))
            miss = float(np.max(np.abs(q.data @ u - v)))
            return None if miss <= 1e-9 else f"Qu misses v by {miss:.3e}"
        return check

    def expect_document(verdict: Verdict, replay=None, trials=None, seed_echo=None):
        def check(out: bytes) -> str | None:
            doc = json.loads(out)
            report, echoed = report_from_document(doc)
            wrong = _verdict_mismatch(report, verdict)
            if wrong:
                return wrong
            if trials is not None and report.trials != trials:
                return f"ran {report.trials} trials, expected {trials}"
            if echoed != seed_echo:
                return f"echoed seed {echoed!r}, expected {seed_echo!r}"
            if replay is not None:
                fn, tol, separation = replay(report)
                return _replay(fn, report.witness, tol, separation)
            return None
        return check

    def function_replay(source: str):
        f = point_function(parse(source))
        return lambda report: (f, FUNCTION_TOL, FUNCTION_TOL * max(1.0, abs(report.witness.f_x)))

    def expect_profile(source: str, m: int, radii: list[float]):
        e = parse(source)

        def check(out: bytes) -> str | None:
            lines = out.decode().splitlines()
            if lines[0] != "t,phi" or len(lines) != len(radii) + 1:
                return f"unexpected profile table {lines[:3]!r}"
            for t, line in zip(radii, lines[1:]):
                ts, phis = line.split(",")
                x = np.zeros(m)
                x[0] = t
                if float(ts) != t or float(phis) != evaluate(e, EvalContext.at_point(Vector(x))):
                    return f"profile row {line!r} does not replay"
            return None
        return check

    def expect_samples(prefix: Path, m: int, count: int, sample_seed: int):
        def check(out: bytes) -> str | None:
            reference = np.random.default_rng(sample_seed)
            for i in range(count):
                text = Path(f"{prefix}{i:03d}.txt").read_text()
                if parse_matrix_file(text) != haar_sample(m, reference).matrix:
                    return f"sample {i} differs from haar_sample with seed {sample_seed}"
            return None
        return check

    def expect_same_bytes(inner):
        first: list[bytes] = []

        def check(out: bytes) -> str | None:
            if not first:
                first.append(out)
            elif out != first[0]:
                return "seeded rerun printed different bytes"
            return inner(out)
        return check

    fixed_source = COORD_TEMPLATES[1].format(**_coefficients(rng))
    fixed_seed = int(rng.integers(0, 2**31))
    fixed_check = expect_same_bytes(expect_document(
        Verdict.NOT_OBJECTIVE, replay=function_replay(fixed_source), seed_echo=fixed_seed))
    rounds, sources = [], [fixed_source]
    for r in range(POOL_ROUNDS["cli_oneshot"]):
        u, v = unit(3, rng), unit(3, rng)
        iso = workdir / f"iso{r}.txt"
        alpha = float(rng.uniform(-3.0, 3.0))
        b = rng.uniform(-1.0, 1.0, (3, 3))
        iso.write_text(format_matrix_file(SquareMatrix(alpha * np.eye(3) + 0.5 * (b - b.T))))
        aniso = workdir / f"aniso{r}.txt"
        h = rng.uniform(-1.0, 1.0, (3, 3))
        aniso.write_text(format_matrix_file(SquareMatrix(h)))
        qf = QuadraticForm(parse_matrix_file(aniso.read_text()))
        radial = RADIAL_TEMPLATES[r % len(RADIAL_TEMPLATES)].format(**_coefficients(rng))
        coord = COORD_TEMPLATES[r % len(COORD_TEMPLATES)].format(**_coefficients(rng))
        seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
        radii = [0.0, 0.5, 1.0, float(np.round(rng.uniform(1.5, 4.0), 3))]
        prefix = workdir / f"rot{r}-"
        sources += [radial, coord]
        rounds.append([
            _cli_op(runner, "make-rotation", ["make-rotation", fmt(u), fmt(v)], 0, expect_mapping(u, v)),
            _cli_op(runner, "make-rotation.impossible", ["make-rotation", "1", "-1"], 1),
            _cli_op(runner, "check-quadratic.iso", ["check-quadratic", str(iso), "--json"], 0,
                    expect_document(Verdict.OBJECTIVE)),
            _cli_op(runner, "check-quadratic.aniso", ["check-quadratic", str(aniso), "--json"], 1,
                    expect_document(Verdict.NOT_OBJECTIVE,
                                    replay=lambda rep, qf=qf: (qf.value, 1e-12, rep.tolerance))),
            _cli_op(runner, "check-function.radial",
                    ["check-function", radial, "--dim", "3", "--trials", str(CLI_INCONCLUSIVE_TRIALS),
                     "--seed", str(seeds[0]), "--json"], 3,
                    expect_document(Verdict.INCONCLUSIVE, trials=CLI_INCONCLUSIVE_TRIALS, seed_echo=seeds[0])),
            _cli_op(runner, "check-function.coord",
                    ["check-function", coord, "--dim", "4", "--seed", str(seeds[1]), "--json"], 1,
                    expect_document(Verdict.NOT_OBJECTIVE, replay=function_replay(coord), seed_echo=seeds[1])),
            _cli_op(runner, "profile",
                    ["profile", radial, "--dim", "3", "--radii", ",".join(repr(t) for t in radii)], 0,
                    expect_profile(radial, 3, radii)),
            _cli_op(runner, "sample-rotation",
                    ["sample-rotation", "--dim", "4", "--count", "2", "--seed", str(seeds[2]),
                     "--out", str(prefix)], 0,
                    expect_samples(prefix, 4, 2, seeds[2])),
            _cli_op(runner, "usage-error", ["check-function", "sin(", "--dim", "2"], 2),
            _cli_op(runner, "check-function.rerun",
                    ["check-function", fixed_source, "--dim", "3", "--seed", str(fixed_seed), "--json"], 1,
                    fixed_check),
        ])
    return Workload("cli_oneshot", rounds, sources, cli=runner)
