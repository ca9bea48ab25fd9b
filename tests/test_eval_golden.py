"""Replay of seeded evaluations against tests/golden/evaluate_random_asts.txt.gz.

The file pins `evaluate` bit for bit: every value as float.hex, every
error as its class name and message (which carries the offset). Each of
AST_COUNT seeded random ASTs is round-tripped through parse(unparse(e)),
so the nodes carry real source positions, and is evaluated at three
seeded points for each m in 1..5, in that order. The 30,000 lines take
1.1 MB as text, so the file is gzip-compressed.

To regenerate after an intended change of evaluation semantics:

    PYTHONPATH=src python tests/test_eval_golden.py

It prints how many lines differ from the committed file before writing.
"""

import gzip
from pathlib import Path

import numpy as np

from rotinv.expr import EvalContext, ExpressionError, evaluate, parse, unparse
from rotinv.linalg import Vector
from test_expr import random_ast

GOLDEN_FILE = Path(__file__).parent / "golden" / "evaluate_random_asts.txt.gz"
AST_COUNT = 2000
POINTS_PER_DIM = 3
DIMS = range(1, 6)


def _outcome(e, ctx: EvalContext) -> str:
    try:
        return float.hex(evaluate(e, ctx))
    except ExpressionError as exc:
        return f"{type(exc).__name__}|{exc}"


def golden_lines() -> list[str]:
    ast_rng = np.random.default_rng(2005)
    point_rng = np.random.default_rng(2006)
    lines = []
    for _ in range(AST_COUNT):
        e = parse(unparse(random_ast(ast_rng, depth=6)))
        for m in DIMS:
            for _ in range(POINTS_PER_DIM):
                point = Vector(point_rng.uniform(-2.0, 2.0, m))
                lines.append(_outcome(e, EvalContext.at_point(point)))
    return lines


def test_evaluations_match_golden_file():
    expected = gzip.decompress(GOLDEN_FILE.read_bytes()).decode().splitlines()
    observed = golden_lines()
    assert len(observed) == len(expected)
    per_ast = len(DIMS) * POINTS_PER_DIM
    for k, (got, want) in enumerate(zip(observed, expected)):
        assert got == want, f"AST {k // per_ast}, evaluation {k % per_ast}: {got!r} != {want!r}"


if __name__ == "__main__":
    lines = golden_lines()
    old = gzip.decompress(GOLDEN_FILE.read_bytes()).decode().splitlines() if GOLDEN_FILE.exists() else []
    changed = sum(k >= len(old) or old[k] != line for k, line in enumerate(lines))
    print(f"{changed} of {len(lines)} lines differ from the committed file ({len(old)} lines)")
    text = "\n".join(lines) + "\n"
    GOLDEN_FILE.write_bytes(gzip.compress(text.encode(), compresslevel=9, mtime=0))
