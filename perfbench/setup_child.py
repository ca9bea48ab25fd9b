"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Set-up is importing the library (and numpy with it) plus generating the
workload's inputs from the seed. Interpreter start is not included.

    python perfbench/setup_child.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
import workloads  # noqa: E402  (the import is what is being timed)

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(perf_counter() - start)
