"""Spans and counters recorded from outside the program.

`installed(tracer)` wraps the stage functions where
`pipeline.compile_program` looks them up, plus a few public `board`,
`scheduler` and `transpiler` names where their callers look them up, and
restores every original on exit.  No file under `src/` is edited.

Every wrapped call is a span on one stack, so a span's self time is its
duration minus the time of the spans opened inside it.  Layer spans are
kept as records (name, job, parent, start, end, self time); the
high-frequency board calls are only aggregated per name, but their time
still counts as child time of the layer span that made them.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from lscompile import layout_search, pipeline, scheduler, transpiler
from lscompile.board import Board, NoPathError


class Tracer:
    def __init__(self):
        self.records: list = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.fails: Counter = Counter()
        self.job = None
        self._stack: list = []        # [name, start, child time, span id]
        self._next_id = 0

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def _exit(self, record):
        end = perf_counter()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if record:
            self.records.append({
                "id": sid, "parent": parent[3] if parent else None,
                "job": self.job, "name": name, "start": start, "end": end,
                "self_s": dur - child})

    def summary(self) -> dict:
        """The per-name aggregates, as plain dicts."""
        return {"total": dict(self.total), "calls": dict(self.calls),
                "self_time": dict(self.self_time), "fails": dict(self.fails)}

    @contextmanager
    def span(self, name, record=True):
        self._enter(name)
        try:
            yield
        finally:
            self._exit(record)

    def timed(self, name, fn, record=True, fail=None):
        """`fn` wrapped in a span; raising `fail` also counts a failure."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            except fail or ():
                self.fails[name] += 1
                raise
            finally:
                self._exit(record)
        return wrapper

    def counted(self, name, fn):
        """`fn` wrapped in a call counter only, for the hottest calls."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _patches(tr: Tracer) -> list:
    """(owner, attribute, replacement) for every wrapped lookup site."""
    scheds = {k: tr.timed("scheduler", fn)
              for k, fn in pipeline.SCHEDULERS.items()}
    return [
        (pipeline, "transpile", tr.timed("transpiler", pipeline.transpile)),
        (pipeline, "build_pdag", tr.timed("pdag", pipeline.build_pdag)),
        (pipeline, "make_board",
         tr.timed("layout_search", pipeline.make_board)),
        (pipeline, "builtin_layout",
         tr.counted("layout_search.boards", pipeline.builtin_layout)),
        (layout_search, "design_layout",
         tr.counted("layout_search.boards", layout_search.design_layout)),
        (layout_search, "layout_score",
         tr.counted("layout_search.scored", layout_search.layout_score)),
        (pipeline, "build_mapping", tr.timed("mapping", pipeline.build_mapping)),
        (pipeline, "access_map", tr.timed("mapping", pipeline.access_map)),
        (pipeline, "apply_y_strategy",
         tr.timed("ysynth", pipeline.apply_y_strategy)),
        (pipeline, "insert_corrections",
         tr.timed("pipeline.corrections", pipeline.insert_corrections)),
        (pipeline, "SCHEDULERS", scheds),
        (pipeline, "validate_schedule",
         tr.timed("scheduler.validate", pipeline.validate_schedule)),
        (Board, "a_component",
         tr.timed("board.a_component", Board.a_component, record=False)),
        (scheduler, "bus_patches",
         tr.timed("board.bus_patches", scheduler.bus_patches, record=False,
                  fail=NoPathError)),
        (Board, "copy", tr.counted("board.copy", Board.copy)),
        (Board, "move_patch", tr.counted("board.mutations", Board.move_patch)),
        (Board, "rotate_patch",
         tr.counted("board.mutations", Board.rotate_patch)),
        (transpiler, "conjugate_past",
         tr.counted("pauli.conjugate_past", transpiler.conjugate_past)),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap the lookup sites for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

