"""The traced run: span wrappers at each layer boundary, probes, and the
per-layer metrics derived from the spans.

Layers are the library modules linalg, rotation, expr, objectivity and
cli. Wrappers are installed from here, never inside the library:

- names a library module imported from another one are replaced where
  the caller binds them (for example `rotinv.objectivity.haar_sample`),
  so the caller's calls are recorded and nothing else changes;
- the benchmark's own calls go through `workloads.Api`, whose attributes
  are wrapped;
- `expr.evaluate` is timed at the point-function callback and the domain
  sampler at the callable handed to the Monte-Carlo test. Patching the
  module-global `evaluate` would record every AST node, because
  `evaluate` recurses through that name.

Per-layer latencies at sizes a workload does not reach come from probe
calls made after the measured loop, so every traced run reports every
metric. Counts and per-trial ratios come from the workload's operations
only.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from rotinv import linalg, objectivity, rotation
from rotinv.expr import EvalContext, parse
from rotinv.linalg import SquareMatrix, Vector
from rotinv.objectivity import RadialSet, radial_sampler, symmetric_part

import workloads
from harness import median

SIZES = (2, 3, 8, 32, 100)
EIGEN_SIZES = (3, 8, 32, 100)
GRAM_SCHMIDT_PROBE_SIZE = 8
# Fewest spans a size-indexed latency is taken from; probes make up the rest.
MIN_SPANS = 5
CLI_PROBES = 5


def _order(matrix, *rest, **kwargs) -> int:
    return matrix.order


def _size_m(m, rng) -> int:
    return m


def _completed_size(prefix, m) -> int:
    return m


# (module, attribute, span name, problem size from the call's arguments)
LIBRARY_NAMES = (
    (objectivity, "haar_sample", "rotation.haar_sample", _size_m),
    (objectivity, "rotation_mapping", "rotation.rotation_mapping", lambda u, v: u.dim),
    (objectivity, "symmetric_eigen_extremes", "linalg.symmetric_eigen_extremes", _order),
    (rotation, "gram_schmidt_complete", "linalg.gram_schmidt_complete", _completed_size),
    (rotation, "validate_rotation", "rotation.validate_rotation", _order),
)

API_NAMES = (
    ("test_function_objectivity", "objectivity.test_function_objectivity",
     lambda f, m, *rest, **kwargs: m),
    ("radial_set_closure_check", "objectivity.radial_set_closure_check",
     lambda a, *rest: a.dimension),
    ("quadratic_objectivity", "objectivity.quadratic_objectivity", lambda qf, *rest: qf.order),
    ("rotation_mapping", "rotation.rotation_mapping", lambda u, v: u.dim),
    ("validate_rotation", "rotation.validate_rotation", _order),
    ("evaluate", "expr.evaluate", None),
)


@contextmanager
def traced(api: workloads.Api, tracer):
    """Install the wrappers; yield the list of what was wrapped; restore on exit.

    A library name that no longer exists is skipped and listed as absent,
    so the traced run keeps working when a layer function is removed; its
    metrics then read 0.
    """
    saved = [(api, "sampler", api.sampler)]
    wrapped = []
    try:
        for module, attr, name, size in LIBRARY_NAMES:
            if not hasattr(module, attr):
                wrapped.append(f"absent: {module.__name__}.{attr}")
                continue
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), size))
            wrapped.append(f"{module.__name__}.{attr}")
        for attr, name, size in API_NAMES:
            saved.append((api, attr, getattr(api, attr)))
            setattr(api, attr, tracer.wrap(name, getattr(api, attr), size))
            wrapped.append(f"benchmark call site: {name}")
        api.sampler = lambda sampler: tracer.wrap("objectivity.sampler", sampler)
        wrapped.append("benchmark call site: objectivity.sampler")
        yield wrapped
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _probe(tracer, label: str, fn, *args) -> None:
    tracer.open_op("probe." + label)
    try:
        fn(*args)
    finally:
        tracer.close_op()


def _unit(m: int, rng: np.random.Generator) -> Vector:
    return Vector(workloads.unit(m, rng))


def run_probes(api: workloads.Api, tracer, seed: int, sources: list[str]) -> None:
    """Call each layer directly, under the installed wrappers, wherever the
    workload left fewer than MIN_SPANS spans of a name at a size."""
    rng = np.random.default_rng([seed, 99])

    def missing(name: str, size: int | None = None) -> int:
        return max(0, MIN_SPANS - len(tracer.durations(name, size)))

    def defining(module, attr: str, name: str, size):
        # The defining module's name, wrapped afresh: it exists even where
        # no caller binds it any more, and only a removed function is skipped.
        fn = getattr(module, attr, None)
        return tracer.wrap(name, fn, size) if fn is not None else None

    haar = defining(rotation, "haar_sample", "rotation.haar_sample", _size_m)
    for m in SIZES:
        for _ in range(missing("rotation.haar_sample", m)):
            _probe(tracer, "haar_sample", haar, m, rng)
        for _ in range(missing("rotation.rotation_mapping", m)):
            _probe(tracer, "rotation_mapping", api.rotation_mapping, _unit(m, rng), _unit(m, rng))
        for _ in range(missing("rotation.validate_rotation", m)):
            q = rotation.haar_sample(m, rng).matrix
            _probe(tracer, "validate_rotation", api.validate_rotation, q)
    eigen = defining(linalg, "symmetric_eigen_extremes", "linalg.symmetric_eigen_extremes", _order)
    for m in EIGEN_SIZES if eigen else ():
        for _ in range(missing("linalg.symmetric_eigen_extremes", m)):
            hs = symmetric_part(SquareMatrix(rng.uniform(-1.0, 1.0, (m, m))))
            _probe(tracer, "symmetric_eigen_extremes", eigen, hs)
    gram_schmidt = defining(linalg, "gram_schmidt_complete", "linalg.gram_schmidt_complete",
                            _completed_size)
    m = GRAM_SCHMIDT_PROBE_SIZE
    for _ in range(missing("linalg.gram_schmidt_complete") if gram_schmidt else 0):
        _probe(tracer, "gram_schmidt_complete", gram_schmidt, [_unit(m, rng)], m)
    sampler = api.sampler(radial_sampler(RadialSet(3, intervals=((0.1, 10.0),))))
    for _ in range(missing("objectivity.sampler")):
        _probe(tracer, "sampler", sampler, rng)
    probe_sources = sources or [t.format(a="1.5", b="0.75") for t in workloads.RADIAL_TEMPLATES]
    for _ in range(missing("expr.evaluate")):
        for source in probe_sources[:MIN_SPANS]:
            _probe(tracer, "evaluate", api.evaluate, parse(source),
                   EvalContext.at_point(Vector(rng.uniform(-2.0, 2.0, 3))))
    traced_parse = tracer.wrap("expr.parse", parse)
    for source in probe_sources[:64]:
        _probe(tracer, "parse", traced_parse, source)


def cli_probes(src: Path, cli_ops) -> dict:
    """Interpreter start, `import rotinv.cli` in a fresh process, and
    in-process `main(argv)` over one round of the CLI workload's commands."""
    env = dict(os.environ, PYTHONPATH=str(src))
    interpreter, imports = [], []
    for _ in range(CLI_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        interpreter.append(perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import rotinv.cli; print(time.perf_counter() - t)"],
            check=True, capture_output=True, env=env, text=True,
        ).stdout
        imports.append(float(out))
    from rotinv.cli import main

    mains = []
    for op in cli_ops:
        (argv,) = op.args()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            start = perf_counter()
            main(argv)
            mains.append(perf_counter() - start)
    return {
        "cli.interpreter_ms": 1e3 * median(interpreter),
        "cli.import_ms": 1e3 * median(imports),
        "cli.main_ms": 1e3 * median(mains),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, samples, probe_from: int) -> dict:
    """Per-layer figures from the spans; sample i is traced operation i and
    operations from `probe_from` on are probes."""
    out: dict[str, tuple[float, str]] = {}
    for name, sizes, unit, scale in (
        ("rotation.haar_sample", SIZES, "us", 1e6),
        ("rotation.rotation_mapping", SIZES, "us", 1e6),
        ("rotation.validate_rotation", SIZES, "us", 1e6),
        ("linalg.symmetric_eigen_extremes", EIGEN_SIZES, "ms", 1e3),
    ):
        for m in sizes:
            out[f"{name}.{unit}_p50.m{m}"] = (scale * median(tracer.durations(name, m)), unit)

    def workload_spans(name: str) -> list[int]:
        return [i for i in tracer.indices(name) if tracer.op[i] < probe_from]

    def under(name: str, parents: set[int]) -> list[int]:
        return [i for i in workload_spans(name) if tracer.parent[i] in parents]

    tests = workload_spans("objectivity.test_function_objectivity")
    test_set = set(tests)
    test_trials = sum(samples.trials[tracer.op[i]] for i in tests)
    closures = workload_spans("objectivity.radial_set_closure_check")
    closure_trials = sum(samples.trials[tracer.op[i]] for i in closures)
    self_time = tracer.self_times()
    refuted = [samples.trials[tracer.op[i]] for i in tests
               if samples.outcome(tracer.op[i]) == "not_objective"]
    evaluations = workload_spans("expr.evaluate")

    out["rotation.haar_sample.calls_per_trial"] = (
        _ratio(len(under("rotation.haar_sample", test_set)), test_trials), "calls/trial")
    out["rotation.haar_sample.calls_per_closure_trial"] = (
        _ratio(len(under("rotation.haar_sample", set(closures))), closure_trials), "calls/trial")
    out["linalg.symmetric_eigen_extremes.calls"] = (
        len(workload_spans("linalg.symmetric_eigen_extremes")), "count")
    out["linalg.gram_schmidt_complete.calls"] = (len(workload_spans("linalg.gram_schmidt_complete")), "count")
    out["linalg.gram_schmidt_complete.us_p50"] = (
        1e6 * median(tracer.durations("linalg.gram_schmidt_complete")), "us")
    out["expr.evaluate.us_p50"] = (1e6 * median(tracer.durations("expr.evaluate")), "us")
    out["expr.evaluate.calls_per_trial"] = (
        _ratio(len(under("expr.evaluate", test_set)), test_trials), "calls/trial")
    out["expr.evaluate.errors"] = (sum(tracer.error[i] for i in evaluations), "count")
    out["expr.parse.us_p50"] = (1e6 * median(tracer.durations("expr.parse")), "us")
    out["objectivity.test_function_objectivity.self_us_per_trial"] = (
        _ratio(1e6 * sum(self_time[i] for i in tests), test_trials), "us/trial")
    out["objectivity.radial_set_closure_check.us_per_trial"] = (
        _ratio(1e6 * sum(tracer.end[i] - tracer.start[i] for i in closures), closure_trials), "us/trial")
    out["objectivity.sampler.us_p50"] = (1e6 * median(tracer.durations("objectivity.sampler")), "us")
    out["objectivity.trials_per_refute"] = (_ratio(sum(refuted), len(refuted)), "trials/refute")
    outcomes = [samples.outcome(i) for i in range(len(samples))]
    for code in range(4):
        out[f"cli.exit_code.{code}"] = (outcomes.count(f"exit {code}"), "count")
    return out
