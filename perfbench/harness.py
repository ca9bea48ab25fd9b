"""Closed-loop measurement with one client, outcome accounting and statistics.

An operation is one call into the library or one CLI command. A
workload is a pool of rounds; every round holds one operation of each
class of the workload, so any whole number of rounds has the same mix.
"""

from __future__ import annotations

import math
import os
import platform
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Percentiles a tail may be reported at; the highest one with at least
# TAIL_BEYOND samples above it is used. The steps sit well away from the
# operation counts the workloads reach in a run (tens, hundreds, tens of
# thousands), so the percentile reported does not flip between runs.
LADDER = (50.0, 75.0, 95.0, 99.0)
TAIL_BEYOND = 10


@dataclass
class Op:
    """One operation: `call(*args())` is timed, `check` judges its result.

    `args` runs untimed, so per-operation preparation such as creating a
    seeded generator is not charged to the library. `check` returns why
    the outcome is wrong, or None. `outcome` names the result (a verdict
    or an exit code) and `trials` counts its Monte-Carlo trials.
    """

    label: str
    call: Callable
    args: Callable[[], tuple]
    check: Callable[[object], str | None]
    outcome: Callable[[object], str] = lambda result: ""
    trials: Callable[[object], int] = lambda result: 0


class Samples:
    """The results of a run's operations, one column per field.

    Columns of machine numbers keep the benchmark's own memory almost
    independent of how many operations it ran, so a faster library does
    not show up as a larger peak RSS.
    """

    def __init__(self) -> None:
        self.latency_s = array("d")
        self.trials = array("I")
        self._label = array("H")
        self._outcome = array("H")
        self._codes: dict[str, int] = {}
        self._texts: list[str] = []
        self.failures: list[str] = []

    def __len__(self) -> int:
        return len(self.latency_s)

    def _code(self, text: str) -> int:
        if text not in self._codes:
            self._codes[text] = len(self._texts)
            self._texts.append(text)
        return self._codes[text]

    def add(self, label: str, latency_s: float, outcome: str, trials: int, failure: str | None) -> None:
        self.latency_s.append(latency_s)
        self.trials.append(trials)
        self._label.append(self._code(label))
        self._outcome.append(self._code(outcome))
        if failure is not None:
            self.failures.append(f"{label}: {failure}")

    def label(self, i: int) -> str:
        return self._texts[self._label[i]]

    def outcome(self, i: int) -> str:
        return self._texts[self._outcome[i]]


def run_op(op: Op, samples: Samples, tracer=None) -> None:
    """Run one operation, judge it and record it. Any exception is a failure."""
    args = op.args()
    if tracer is not None:
        tracer.open_op(op.label)
    start = perf_counter()
    try:
        result = op.call(*args)
    except Exception as exc:
        latency = perf_counter() - start
        if tracer is not None:
            tracer.close_op(error=True)
        samples.add(op.label, latency, "error", 0, f"unexpected {type(exc).__name__}: {exc}")
        return
    latency = perf_counter() - start
    if tracer is not None:
        tracer.close_op()
    try:
        failure = op.check(result)
        outcome, trials = op.outcome(result), op.trials(result)
    except Exception as exc:
        failure, outcome, trials = f"check raised {type(exc).__name__}: {exc}", "error", 0
    samples.add(op.label, latency, outcome, trials, failure)


def measure(rounds: Sequence[Sequence[Op]], seconds: float, tracer=None) -> Samples:
    """Run whole rounds, cycling through the pool, until `seconds` have passed.

    Stopping only between rounds keeps the mix of operation classes the
    same whatever the run length, so medians and rates do not depend on
    where the clock ran out. At least one round always runs.
    """
    samples = Samples()
    start = perf_counter()
    k = 0
    while True:
        for op in rounds[k % len(rounds)]:
            run_op(op, samples, tracer)
        k += 1
        if perf_counter() - start >= seconds:
            return samples


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it; the median when none has."""
    s = sorted(values)
    n = len(s)
    chosen = LADDER[0]
    for p in LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            chosen = p
    return chosen, nearest_rank(s, chosen), n - math.ceil(chosen / 100.0 * n)


def summarize(samples: Samples) -> dict:
    """End-to-end figures of one measured run.

    Rates divide by busy time, the summed latency of the operations: with
    one closed-loop client that is the rate the system sustains, and the
    benchmark's own outcome checks between operations are left out.
    """
    n = len(samples)
    busy = sum(samples.latency_s)
    trials = sum(samples.trials)
    percentile, tail_value, beyond = tail(samples.latency_s)
    by_class: dict[str, list[float]] = {}
    for i, latency in enumerate(samples.latency_s):
        by_class.setdefault(samples.label(i), []).append(latency)
    return {
        "attempted": n,
        "failed": len(samples.failures),
        "failed_ratio": len(samples.failures) / n,
        "first_failures": samples.failures[:5],
        "busy_s": busy,
        "checks_per_s": n / busy,
        "trials": trials,
        "trials_per_s": trials / busy,
        "latency_p50_ms": 1e3 * median(samples.latency_s),
        "latency_tail_ms": 1e3 * tail_value,
        "latency_tail_percentile": percentile,
        "latency_tail_beyond": beyond,
        "latency_samples": n,
        "class_p50_ms": {label: 1e3 * median(v) for label, v in by_class.items()},
    }


def median(values: Sequence[float]) -> float:
    return nearest_rank(sorted(values), 50.0) if values else 0.0


def _blas_threads() -> int | None:
    # numpy wheels bundle OpenBLAS built with a symbol prefix; ask it directly.
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, src: Path) -> dict:
    """What a result depends on besides the code: interpreter, numpy, BLAS, cores."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "src_lines": source_lines(src),
    }


def source_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
