"""In-memory spans around calls into logicforge's layers.

The tracer swaps a layer function for a timing wrapper at the module its
caller imported it into, records one span per call, and puts the original
back on exit. Spans carry a name, start, end, parent span and the id of the
task or puzzle being run; they stay in a list until the run writes them out.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

# (module, attribute, span name). The pipeline and the generator import the
# layer functions by name, so each is wrapped where it is looked up.
LAYER_SITES: tuple[tuple[str, str, str], ...] = (
    ("logicforge.agent.pipeline", "parse", "frontend.parse"),
    ("logicforge.agent.pipeline", "check", "frontend.check"),
    ("logicforge.agent.pipeline", "lower", "model.lower"),
    ("logicforge.agent.pipeline", "solve", "solver.solve"),
    ("logicforge.agent.pipeline", "find_second", "solver.find_second"),
    ("logicforge.agent.pipeline", "decode", "model.decode"),
    ("logicforge.agent.pipeline", "format_output", "agent.format"),
    ("logicforge.bench.puzzle", "parse", "frontend.parse"),
    ("logicforge.bench.puzzle", "check", "frontend.check"),
    ("logicforge.bench.puzzle", "lower", "model.lower"),
    ("logicforge.bench.puzzle", "solve", "solver.solve"),
    ("logicforge.bench.puzzle", "find_second", "solver.find_second"),
    ("logicforge.bench.render", "render_instance_dsl", "bench.render"),
    ("logicforge.bench.runner", "generate_puzzle", "bench.generate_puzzle"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "error")

    def __init__(self, name: str, start: float, parent: int, item: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.error = ""

    def to_json_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "item": self.item,
            "error": self.error,
        }


class Tracer:
    """Collects spans, plus counts taken from layer results, per item."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._open: list[int] = []
        self.item = ""

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, perf_counter(), open_[-1] if open_ else -1, self.item)
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                open_.pop()
            if observe is not None:
                observe(self.counts[self.item], result)
            return result

        return traced

    @contextmanager
    def item_span(self, name: str, item: str):
        """The root span of one task or puzzle."""
        self.item = item
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), -1, item))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()
            self.item = ""

    @contextmanager
    def installed(self):
        """Wrap every layer site for the duration of the block."""
        import importlib

        observers = {"solver.solve": _observe_solve, "model.lower": _observe_lower,
                     "bench.generate_puzzle": _observe_puzzle}
        originals = []
        try:
            for module_name, attr, name in LAYER_SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, observers.get(name)))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_totals(self, items: set[str] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls and self seconds, summed over
        the given items (all items when None)."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "failed": 0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            if items is not None and span.item not in items:
                continue
            t = totals[span.name]
            t["calls"] += 1
            t["failed"] += bool(span.error)
            t["self_s"] += own
        return totals

    def count_children(self, child: str, parent: str, items: set[str]) -> int:
        return sum(
            1
            for s in self.spans
            if s.name == child and s.item in items and s.parent >= 0
            and self.spans[s.parent].name == parent
        )

    def errors(self, error: str, items: set[str]) -> int:
        return sum(1 for s in self.spans if s.error == error and s.item in items)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_json_dict(index)) + "\n")


def _observe_solve(counts: Counter, outcome) -> None:
    counts["solver.decisions"] += outcome.stats.decisions
    counts["solver.propagations"] += outcome.stats.propagations
    counts["solver.unsat"] += not outcome.is_sat


def _observe_lower(counts: Counter, model) -> None:
    counts["model.ids"] += model.n_ids
    counts["model.constraints"] += len(model.constraints)


def _observe_puzzle(counts: Counter, instance) -> None:
    counts["bench.clues"] += len(instance.clues)
