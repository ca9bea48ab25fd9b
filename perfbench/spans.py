"""In-memory spans for the traced run.

A span records one call across a layer boundary: its name, start, end,
the span that was open when it began (its parent), the operation it
belongs to and the problem size it was called at. Spans are appended to
flat arrays while the run is going and are only read, or written to a
file, after it has ended.
"""

from __future__ import annotations

import functools
from array import array
from collections.abc import Callable
from time import perf_counter

NO_PARENT = -1
NO_OP = -1


class Tracer:
    """Collects spans. Calls made while no operation is open are not recorded,
    so the benchmark's own outcome checks never show up as layer work."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.size = array("i")
        self.error = array("b")
        self._stack = [NO_PARENT]
        self.current_op = NO_OP
        self.next_op = 0

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: float, end: float, parent: int = NO_PARENT,
            op: int = NO_OP, size: int = 0, error: bool = False) -> int:
        """Append a finished span and return its index."""
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        self.size.append(size)
        self.error.append(1 if error else 0)
        return index

    def wrap(self, name: str, fn: Callable, size: Callable[..., int] | None = None) -> Callable:
        """Return fn recording a span per call; size(*args) gives the problem size."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current_op == NO_OP:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.size.append(size(*args) if size is not None else 0)
            self.error.append(0)
            self._stack.append(index)
            begin = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[index] = 1
                raise
            finally:
                self.end[index] = perf_counter()
                self.start[index] = begin
                self._stack.pop()

        return traced

    def open_op(self, label: str) -> int:
        """Start the root span of the next operation; layer spans nest under it."""
        op = self.next_op
        self.next_op += 1
        self.current_op = op
        self._stack.append(self.add("op." + label, perf_counter(), 0.0, op=op))
        return op

    def close_op(self, error: bool = False) -> None:
        index = self._stack.pop()
        self.end[index] = perf_counter()
        self.error[index] = 1 if error else 0
        self.current_op = NO_OP

    def indices(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [i for i, n in enumerate(self.name) if n == nid]

    def durations(self, name: str, size: int | None = None) -> list[float]:
        return [self.end[i] - self.start[i] for i in self.indices(name)
                if size is None or self.size[i] == size]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its children cover."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                children.setdefault(p, []).append(i)
        out = [self.end[i] - self.start[i] for i in range(len(self.start))]
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            covered = 0.0
            reach = lo
            for k in sorted(kids, key=lambda k: self.start[k]):
                s, e = max(self.start[k], reach), min(self.end[k], hi)
                if e > s:
                    covered += e - s
                    reach = e
            out[p] -= covered
        return out

    def save(self, path) -> None:
        """Write every span to an .npz file: one array per field plus the names."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            size=np.frombuffer(self.size, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
        )
