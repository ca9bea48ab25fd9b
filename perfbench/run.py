"""The rotinv benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports the library from `src/`
and starts the CLI as `python -m rotinv` with `src/` on PYTHONPATH.
Workloads: mc_budget, mc_refute, exact_dense, cli_oneshot (see
workloads.py for what each one exercises and why).

With --trace 0 it measures end to end: set-up time (the median of
several fresh interpreters, each importing the library and generating
the inputs), then whole rounds of operations until --seconds have
passed, every outcome checked. It prints a report line with everything
it measured and the environment, then a last line with the end-to-end
metrics of BENCHMARK.json.

With --trace 1 it spends a quarter of --seconds untraced and a quarter
traced with span wrappers at each layer (see layers.py), then probes the
layers and the CLI directly. The last line then holds the per-layer
metrics; the spans are written to perfbench/out/ when the run ends.

Any wrong verdict, exit code, output or witness counts as a failed
operation, and the run reports correct=false. Exit status is 0 when a
result was printed, 2 when the checkout has no sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

# One client runs one thread of BLAS: at m <= 100 a second thread is no
# faster, and waking it stalls the first large calls by ~0.1 s. Set before
# numpy loads; set-up and CLI children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("mc_budget", "mc_refute", "exact_dense", "cli_oneshot")
SETUP_REPEATS = 5
TRACE_PHASE_SHARE = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rotinv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh interpreters, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(SETUP_REPEATS):
        childdir = workdir / f"setup{k}"
        childdir.mkdir()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), str(childdir)],
            check=True, capture_output=True, env=env, text=True,
        ).stdout
        times.append(float(out))
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, setup: list[float]) -> tuple[dict, dict]:
    samples = harness.measure(workload.rounds, args.seconds)
    # Read the peak before summarizing, which builds lists of its own.
    if workload.cli is not None:
        peak_kb = workload.cli.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = harness.summarize(samples)
    summary["peak_rss_scope"] = "largest CLI child" if workload.cli is not None else "benchmark process"
    metrics = {
        "checks_per_s": metric(summary["checks_per_s"], "1/s"),
        "latency_p50_ms": metric(summary["latency_p50_ms"], "ms"),
        "latency_tail_ms": metric(summary["latency_tail_ms"], "ms"),
        "setup_s": metric(harness.median(setup), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    return summary, metrics


def traced_run(args, workload, api, workdir: Path) -> tuple[dict, dict]:
    import layers
    import workloads
    from spans import Tracer

    phase = args.seconds * TRACE_PHASE_SHARE
    untraced = harness.summarize(harness.measure(workload.rounds, phase))
    tracer = Tracer()
    with layers.traced(api, tracer) as wrapped:
        samples = harness.measure(workload.rounds, phase, tracer)
        probe_from = tracer.next_op
        layers.run_probes(api, tracer, args.seed, workload.sources)
    traced = harness.summarize(samples)
    per_layer = layers.layer_metrics(tracer, samples, probe_from)
    cli_round = (workload if workload.cli is not None
                 else workloads.build("cli_oneshot", args.seed, workdir)).rounds[0]
    for name, value in layers.cli_probes(SRC, cli_round).items():
        per_layer[name] = (value, "ms")
    per_layer["src.lines"] = (harness.source_lines(SRC), "lines")
    per_layer["trace.overhead_ratio"] = (untraced["checks_per_s"] / traced["checks_per_s"], "ratio")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.save(trace_file)
    summary = {
        "untraced": untraced,
        "traced": traced,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "spans": len(tracer),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "wrapped": wrapped,
    }
    return summary, {name: metric(v, unit) for name, (v, unit) in per_layer.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rotinv" / "__init__.py").is_file():
        print(f"error: no rotinv sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        setup = setup_seconds(args.workload, args.seed, workdir)
        import workloads

        api = workloads.Api()
        (workdir / "run").mkdir()
        workload = workloads.build(args.workload, args.seed, workdir / "run", api)
        if args.trace:
            (workdir / "cli").mkdir()
            summary, metrics = traced_run(args, workload, api, workdir / "cli")
        else:
            summary, metrics = end_to_end(args, workload, setup)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": harness.environment(args.seed, SRC),
        "setup_s_samples": setup,
        "summary": summary,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
