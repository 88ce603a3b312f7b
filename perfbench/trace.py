"""Span recording from outside the program, and the arithmetic on spans.

A ``Tracer`` wraps functions so that each call records one span: a name, a
start and an end (``perf_counter_ns``, comparable across processes on one
machine), the index of the enclosing span and a run id. Spans stay in memory
until the run ends. In a forked worker the tracer starts empty and writes its
spans to a spill file whenever the worker's outermost span closes, which is
how pool workers hand their spans back to the parent.

A ``Patcher`` installs wrappers by rebinding attributes and puts back the
identical original objects afterwards. Nothing here draws random numbers.
"""
from __future__ import annotations

import functools
import json
import math
import os
import re
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# candidate percentiles for a latency tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return (len(name) <= 64 and METRIC_NAME.fullmatch(name) is not None
            and name[0].isalnum())


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked after the nearest-rank ``pct`` percentile of ``n``."""
    return n - math.ceil(n * pct / 100.0)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return float(ordered[rank - 1])


class Tracer:
    """In-memory span recorder; ``wrap`` returns a recording wrapper."""

    def __init__(self, run_id: str, spill_dir: Path | None = None):
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.forked = False
        self._stack: list[int] = []
        self._spills = 0
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _after_fork(ref))

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if on_result is not None:
                on_result(self, args, result)
            if self.forked and not stack:
                self.spill()
            return result

        return traced

    def spill(self) -> None:
        """Write and drop the spans of a forked worker's finished root span."""
        self._spills += 1
        path = self.spill_dir / f"spans-{os.getpid()}-{self._spills}.npz"
        save_spans(path, self.spans, self.counters)
        self.spans.clear()
        self.counters.clear()


def _after_fork(ref) -> None:
    tracer = ref()
    if tracer is None:
        return
    tracer.spans.clear()
    tracer.counters.clear()
    tracer._stack.clear()
    tracer.forked = True
    tracer.run_id = f"{tracer.run_id}/pid{os.getpid()}"


def save_spans(path: Path, spans, counters) -> None:
    names = sorted({s[0] for s in spans})
    run_ids = sorted({s[4] for s in spans})
    name_index = {n: i for i, n in enumerate(names)}
    run_index = {r: i for i, r in enumerate(run_ids)}
    meta = {"names": names, "run_ids": run_ids, "counters": dict(counters)}
    np.savez(path,
             meta=np.array(json.dumps(meta)),
             name=np.array([name_index[s[0]] for s in spans], dtype=np.int32),
             start=np.array([s[1] for s in spans], dtype=np.int64),
             end=np.array([s[2] for s in spans], dtype=np.int64),
             parent=np.array([s[3] for s in spans], dtype=np.int64),
             run=np.array([run_index[s[4]] for s in spans], dtype=np.int32))


def load_spans(path: Path):
    """Return (spans, counters) as written by ``save_spans``."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        names, run_ids = meta["names"], meta["run_ids"]
        spans = [(names[n], int(s), int(e), int(p), run_ids[r])
                 for n, s, e, p, r in zip(data["name"].tolist(),
                                          data["start"].tolist(),
                                          data["end"].tolist(),
                                          data["parent"].tolist(),
                                          data["run"].tolist())]
    return spans, Counter(meta["counters"])


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` is a sequence of (name, start, end, parent_index, ...) tuples
    whose parent indices point into the same sequence. Overlapping children
    are counted once, and any part of a child outside its parent is ignored.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0, start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


@dataclass
class Profile:
    """Per-name aggregates of a set of spans, mergeable across processes."""

    calls: Counter = field(default_factory=Counter)
    total_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    durations_ns: dict = field(default_factory=dict)
    edges: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    n_spans: int = 0

    def add(self, spans, counters) -> None:
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent = span[:4]
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += own
            self.durations_ns.setdefault(name, []).append(end - start)
            if parent >= 0:
                self.edges[(spans[parent][0], name)] += 1
        self.counters.update(counters)
        self.n_spans += len(spans)

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9


class Patcher:
    """Rebind attributes of modules or classes and restore the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that are not the identical original object.

        An attribute patched more than once is compared with the value it
        had before the first patch.
        """
        first: dict[tuple[int, str], tuple[object, str, object]] = {}
        for owner, attr, original in self._saved:
            first.setdefault((id(owner), attr), (owner, attr, original))
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in first.values()
                if vars(owner).get(attr) is not original]

    def __len__(self) -> int:
        return len(self._saved)
