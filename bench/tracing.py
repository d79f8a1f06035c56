"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent, -1 for none).  Spans are
kept in flat arrays, because a traced run makes about a million calls,
and are only summarised or written out after the run.

Each wrapped function gets exactly one wrapper, and every module that
binds the function under any name is pointed at that wrapper, so a call
is recorded once whichever binding the caller used.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterable, Optional

# measure(args, kwargs, result) -> amount added to the span name's counter.
Measure = Callable[[tuple, dict, object], int]


@dataclass
class SpanTotals:
    """Aggregate of the spans sharing one name.

    ``total_s`` counts only spans with no ancestor of the same name, so
    recursion is not counted twice; ``self_s`` is each span's duration
    minus the time its direct child spans cover.
    """

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def wrap(self, fn: Callable, name: str, measure: Optional[Measure] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        if hasattr(fn, "bench_span"):
            raise ValueError(f"{name}: {fn.bench_span} is already wrapped")
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        self.counters.setdefault(name, 0)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if measure is not None:
                counters[name] += measure(args, kwargs, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def patch_function(
        self,
        home: ModuleType,
        attr: str,
        modules: Iterable[ModuleType],
        measure: Optional[Measure] = None,
    ) -> Callable:
        """Wrap ``home.attr`` once and rebind it in every module that holds it."""
        original = getattr(home, attr)
        wrapper = self.wrap(original, f"{home.__name__.rsplit('.', 1)[-1]}.{attr}", measure)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)
        return wrapper

    def patch_method(
        self, cls: type, attr: str, name: str, measure: Optional[Measure] = None
    ) -> Callable:
        original = cls.__dict__[attr]
        wrapper = self.wrap(original, name, measure)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)
        return wrapper

    def restore(self) -> None:
        """Put every original binding back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summarize(self, lo: int = 0, hi: Optional[int] = None) -> dict[str, SpanTotals]:
        """Per-name totals over the spans with index in [lo, hi).

        Spans are indexed in the order their calls began, so the spans
        of one top-level call form a contiguous index range and a
        child's index is always larger than its parent's.
        """
        hi = len(self) if hi is None else hi
        durations = [self.end[i] - self.start[i] for i in range(lo, hi)]
        covered = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                covered[p - lo] += durations[i - lo]
        totals = {name: SpanTotals() for name in self.names}
        outer_end: dict[int, float] = {}
        for i in range(lo, hi):
            nid = self.name_id[i]
            agg = totals[self.names[nid]]
            dur = durations[i - lo]
            agg.calls += 1
            agg.self_s += dur - covered[i - lo]
            if self.start[i] >= outer_end.get(nid, float("-inf")):
                agg.total_s += dur
                outer_end[nid] = self.end[i]
        return totals

    def write_csv_gz(self, path, labels: list[tuple[str, int, int]]) -> None:
        """All spans as gzip CSV; ``labels`` names the command of each index range."""
        origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,command,name,start_s,end_s,parent\n")
            for label, lo, hi in labels:
                for i in range(lo, hi):
                    fh.write(
                        f"{i},{label},{self.names[self.name_id[i]]},"
                        f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f},"
                        f"{self.parent[i]}\n"
                    )
