"""In-memory spans for the traced benchmark run.

Spans are opened by the benchmark around calls into the library's public
functions; nothing inside ``src/`` is instrumented.  A span's self time is
its duration minus the time covered by its direct children.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import eqtransfer as et


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Collects spans as ``[name, start, end, parent, op_id]`` records."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception:
            self.failed[layer_of(name)] += 1
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time in seconds per span name, over spans from ``first`` on."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[i]
            totals[name] += (end - start) - covered[i]
        return dict(totals)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]


class TimedOracle(et.WinLoseOracle):
    """Win-lose oracle that records a span around every query of another."""

    def __init__(self, inner: et.WinLoseOracle, tracer: Tracer,
                 winner_span: str, strategy_span: str):
        self.inner = inner
        self.tracer = tracer
        self.winner_span = winner_span
        self.strategy_span = strategy_span

    @property
    def n_outcomes(self) -> int:
        return self.inner.n_outcomes

    def winner(self, label):
        with self.tracer.span(self.winner_span):
            return self.inner.winner(label)

    def strategy(self, label):
        with self.tracer.span(self.strategy_span):
            return self.inner.strategy(label)


class CellCounter:
    """Stands in for a GameStructure and counts the cells read through it."""

    def __init__(self, structure: et.GameStructure):
        self._structure = structure
        self.reads = 0

    def outcome(self, profile) -> int:
        self.reads += 1
        return self._structure.outcome(profile)

    def __getattr__(self, name):
        return getattr(self._structure, name)
