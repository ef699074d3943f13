"""Spans of a traced run.

A span is one call into a public function of socsir, timed from the
benchmark's own code: name, start, end, parent span and op id.  Spans
stay in memory and are written out once, when the run ends.  A span is
``measured`` when the op made the call itself, or ``replayed`` when the
call happens inside the package and the traced run repeated it through
the same public function with the same inputs.
"""

from __future__ import annotations

from array import array
from time import perf_counter

MEASURED, REPLAYED = 0, 1
KINDS = ("measured", "replayed")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.kind = array("b")
        self.failed = array("b")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.current_span = -1
        self._index: dict[int, list[int]] | None = None

    def _add(self, name, kind, op, parent, start, end, failed=False) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(ident)
        self.kind.append(kind)
        self.failed.append(failed)
        self.op.append(op)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self._index = None
        return len(self.name) - 1

    def begin_op(self, op: int, name: str) -> None:
        """Open the span of op ``op``; calls made until end_op are its children."""
        self.current_op = op
        self.current_span = self._add(name, MEASURED, op, -1, perf_counter(), 0.0)

    def end_op(self) -> None:
        self.end[self.current_span] = perf_counter()
        self.current_span = -1

    def call(self, name, fn, *args):
        """Call fn inside the open op and record a measured span for it."""
        t0 = perf_counter()
        failed = True
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            self._add(name, MEASURED, self.current_op, self.current_span,
                      t0, perf_counter(), failed)

    def replay(self, parent: int, name, fn, *args):
        """Call fn after the op, on behalf of span ``parent``."""
        t0 = perf_counter()
        failed = True
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            self._add(name, REPLAYED, self.op[parent], parent, t0,
                      perf_counter(), failed)

    def spans(self, name: str, kind: int | None = None,
              parent: int | None = None) -> list[int]:
        if self._index is None:
            self._index = {}
            for i, ident in enumerate(self.name):
                self._index.setdefault(ident, []).append(i)
        ident = self._ids.get(name)
        return [
            i for i in self._index.get(ident, ())
            if (kind is None or self.kind[i] == kind)
            and (parent is None or self.parent[i] == parent)
        ]

    def durations(self, name: str, kind: int | None = None,
                  parent: int | None = None) -> list[float]:
        return [self.end[i] - self.start[i] for i in self.spans(name, kind, parent)]

    def by_op(self, name: str) -> dict[int, int]:
        """Measured span of that name, by op."""
        return {self.op[i]: i for i in self.spans(name, MEASURED)}

    def count_failed(self, name: str) -> int:
        return sum(self.failed[i] for i in self.spans(name))

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tkind\tfailed\top\tparent\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{KINDS[self.kind[i]]}\t"
                    f"{self.failed[i]}\t{self.op[i]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
