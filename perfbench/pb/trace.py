"""Spans recorded from outside the program, and per-layer self time.

:class:`Recorder` keeps spans ``(id, name, start, end, parent, trace)``
in memory and writes them out when the run ends.  :class:`Patcher`
replaces public entry points of the program's layers with timing
wrappers (and restores them afterwards); each wrapper opens a span named
after the layer row it feeds.  A span's self time is its duration minus
the time covered by its child spans; child spans never overlap within
one thread, so the covered time is the sum of the children's durations.

A wrapper can also inject a fixed busy-wait per call (``delays``), the
mechanism of the injected-slowdown self-test.  Injection works with or
without span recording, so untraced runs see the same slowdown.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

perf = time.perf_counter


def _spin(seconds: float) -> None:
    end = perf() + seconds
    while perf() < end:
        pass


def parse_delays(specs) -> Dict[str, float]:
    """``["span.name=SECONDS", ...]`` -> ``{"span.name": SECONDS}``."""
    delays = {}
    for spec in specs:
        name, _, value = spec.partition("=")
        delays[name] = float(value)
    return delays


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "child", "trace")

    def __init__(self, sid, name, start, parent, trace):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.child = 0.0
        self.trace = trace

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.trace]


class Recorder:
    """In-memory span store with one nesting stack per thread."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Cleared while the benchmark runs its own checks, so program
        #: calls made by an oracle are not charged to a layer.
        self.on = True
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def active(self, name: str) -> bool:
        return any(span.name == name for span in self._stack())

    def begin(self, name: str, trace: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        span = Span(next(self._ids), name, perf(),
                    parent.sid if parent is not None else 0, trace)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = perf()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.end - span.start
        self.spans.append(span)

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_list()) + "\n")


def load_spans(path) -> List[Span]:
    spans = []
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        for line in handle:
            sid, name, start, end, parent, trace = json.loads(line)
            span = Span(sid, name, start, parent, trace)
            span.end = end
            spans.append(span)
    by_id = {s.sid: s for s in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:  # a parent cut off at exit is never dumped
            parent.child += span.duration
    return spans


def uncovered(windows, intervals) -> float:
    """Seconds inside ``windows`` that none of ``intervals`` covers.

    ``windows`` are the benchmark's own timings of the measured work
    (disjoint ``(start, end)`` pairs); ``intervals`` are the root spans
    recorded inside them.  This is worked out from the clock alone, not
    from span self times, so the layer identity checked by ``run.py``
    (self times + uncovered = summed windows) fails when root spans
    overlap (time counted twice) or fall outside the windows.
    """
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    first = 0
    for start, end in sorted(windows):
        while first < len(merged) and merged[first][1] <= start:
            first += 1
        covered = 0.0
        for lo, hi in itertools.islice(merged, first, None):
            if lo >= end:
                break
            covered += min(end, hi) - max(start, lo)
        total += (end - start) - covered
    return total


def layer_table(spans: List[Span], windows) -> Tuple[Dict[str, float], float,
                                                     int]:
    """Self seconds per span name, the unattributed seconds of
    ``windows`` (see :func:`uncovered`), and how many spans have a
    negative self time (children overlapping, or outlasting their
    parent)."""
    table: Dict[str, float] = {}
    for span in spans:
        table[span.name] = table.get(span.name, 0.0) + span.self_time
    recorded = {span.sid for span in spans}
    roots = [(s.start, s.end) for s in spans if s.parent not in recorded]
    bad = sum(1 for s in spans if s.self_time < -1e-9)
    return table, uncovered(windows, roots), bad


# ----------------------------------------------------------------------
# Wrappers

class Patcher:
    """Installs timing (and optional delay) wrappers; ``restore`` undoes.

    ``mode``:
      - ``"call"``: one span per call;
      - ``"outer"``: recursive entry points, span the outermost call only;
      - ``"gen"``: generator functions, one span per resumption, so time
        spent by the consumer between items is not charged to the layer.
    """

    def __init__(self, recorder: Recorder,
                 delays: Optional[Dict[str, float]] = None) -> None:
        self.recorder = recorder
        self.delays = dict(delays or {})
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             mode: str = "call",
             trace_of: Optional[Callable[..., Optional[str]]] = None) -> None:
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else getattr(owner, attr)
        if not self.recorder.enabled and name not in self.delays:
            return
        delay = self.delays.get(name, 0.0)
        wrapper = self._make(fn, name, mode, delay, trace_of)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def _make(self, fn, name, mode, delay, trace_of):
        rec = self.recorder
        if not rec.enabled:
            @functools.wraps(fn)
            def delayed(*args, **kwargs):
                _spin(delay)
                return fn(*args, **kwargs)
            if mode == "outer":
                # Recursion would multiply the delay; delay outermost only.
                local = threading.local()

                @functools.wraps(fn)
                def delayed_outer(*args, **kwargs):
                    if getattr(local, "depth", 0):
                        return fn(*args, **kwargs)
                    local.depth = 1
                    try:
                        _spin(delay)
                        return fn(*args, **kwargs)
                    finally:
                        local.depth = 0
                return delayed_outer
            return delayed

        if mode == "gen":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not rec.on:
                    return (yield from inner)
                while True:
                    span = rec.begin(name)
                    try:
                        if delay:
                            _spin(delay)
                        item = next(inner)
                    except StopIteration:
                        rec.finish(span)
                        return
                    except BaseException:
                        rec.finish(span)
                        raise
                    rec.finish(span)
                    yield item
            return gen_wrapper

        outer = mode == "outer"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on or (outer and rec.active(name)):
                return fn(*args, **kwargs)
            trace = trace_of(*args, **kwargs) if trace_of else None
            span = rec.begin(name, trace)
            try:
                if delay:
                    _spin(delay)
                return fn(*args, **kwargs)
            finally:
                rec.finish(span)
        return wrapper

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# The layer map: which public entry point feeds which span name.

def install_layers(patcher: Patcher) -> None:
    """Wrap the entry points of every layer: AME, pipeline, synthesis,
    reporting and enforcement.  Every workload installs all of them, so
    an injected delay reaches any call a workload really makes."""
    import repro.core.separ as separ_mod
    import repro.core.serialize as serialize_mod
    import repro.pipeline.cache as cache_mod
    import repro.pipeline.executor as executor_mod
    import repro.service.session as session_mod
    from repro.core.app_to_spec import BundleSpec
    from repro.core.detector import SeparDetector
    from repro.enforcement.audit import AuditLog
    from repro.enforcement.hooks import HookManager
    from repro.enforcement.pdp import PolicyDecisionPoint
    from repro.enforcement.runtime import AndroidRuntime
    from repro.relational.problem import RelationalProblem
    from repro.relational.sigs import Module
    from repro.relational.translate import Translator
    from repro.sat.fastsolver import FastSolver
    from repro.sat.solver import Solver
    from repro.sat.tseitin import TseitinEncoder
    from repro.statics.callgraph import CallGraph
    from repro.statics.constprop import ValueAnalysis
    from repro.statics.intent_extraction import IntentExtraction
    from repro.statics.permission_extraction import PermissionExtraction
    from repro.statics.taint import TaintAnalysis

    w = patcher.wrap
    # statics (AME)
    w(CallGraph, "__init__", "statics.callgraph")
    w(ValueAnalysis, "__init__", "statics.constprop")
    w(TaintAnalysis, "run", "statics.taint")
    w(IntentExtraction, "run", "statics.intents")
    w(PermissionExtraction, "run", "statics.permissions")
    # pipeline: cache keys at the names their callers resolve
    w(executor_mod, "content_hash", "pipeline.key_hash")
    w(session_mod, "content_hash", "pipeline.key_hash")
    w(cache_mod.PipelineCache, "get", "pipeline.cache_read")
    w(cache_mod.PipelineCache, "put", "pipeline.cache_write")
    w(cache_mod.MemoryCache, "get", "pipeline.cache_read")
    w(cache_mod.MemoryCache, "put", "pipeline.cache_write")
    w(serialize_mod, "app_to_dict", "pipeline.serialize")
    w(serialize_mod, "app_from_dict", "pipeline.deserialize")
    # synthesis: spec, bounds, translation, Tseitin, clause feed, solve
    w(BundleSpec, "__init__", "core.spec")
    w(Module, "build", "relational.bounds")
    w(Translator, "assert_formula", "relational.translate")
    w(Translator, "assert_formula_gated", "relational.translate")
    w(TseitinEncoder, "assert_node", "sat.tseitin", mode="outer")
    w(TseitinEncoder, "assert_node_gated", "sat.tseitin", mode="outer")
    for solver in (FastSolver, Solver):
        w(solver, "add_clauses", "sat.feed")
        w(solver, "solve", "sat.solve")
    w(RelationalProblem, "minimal_solution", "relational.minimize")
    w(RelationalProblem, "minimal_solutions", "relational.minimize",
      mode="gen")
    w(RelationalProblem, "block", "relational.block")
    # reporting
    w(separ_mod.Separ, "assemble_report", "core.assemble")
    w(separ_mod, "derive_policies", "core.policy_derive")
    w(SeparDetector, "detect", "core.detect")
    # enforcement
    w(AndroidRuntime, "start_component", "runtime.dispatch")
    w(HookManager, "run_before", "enforcement.hook")
    w(AndroidRuntime, "resolve_icc", "enforcement.resolve")
    w(PolicyDecisionPoint, "decide", "enforcement.pdp_decide")
    w(AuditLog, "append", "enforcement.audit")


class _Counter:
    """Counts gathered by wrapping program calls.  With ``log`` set, every
    update appends ``(time, *counts)`` so a window's counts can be taken
    as a difference (used inside the daemon, whose set-up traffic falls
    outside the measured window)."""

    FIELDS: Tuple[str, ...] = ()

    def __init__(self, log: bool = False) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)
        self.log: Optional[list] = [] if log else None
        self._saved: List[Tuple[Any, str, Any]] = []

    def _logged(self) -> None:
        if self.log is not None:
            self.log.append([perf()] + [getattr(self, n) for n in self.FIELDS])

    def _patch(self, owner, attr, fn) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def window_counts(log: list, fields, start: float, end: float) -> Dict[str, int]:
    """Counts accumulated between ``start`` and ``end`` from a counter log."""
    before = [0] * len(fields)
    after = [0] * len(fields)
    for entry in log:
        if entry[0] <= start:
            before = entry[1:]
        if entry[0] <= end:
            after = entry[1:]
    return {name: a - b for name, a, b in zip(fields, after, before)}


class SolveCounter(_Counter):
    """Sums CDCL work from the results of observed solve calls.

    Never read from ``run_report.solver``: a warm run replays cached
    counters there, which is work reused, not performed.  Install it
    before the :class:`Patcher`, so its bookkeeping lands inside the
    ``sat.*`` spans rather than in their callers' self time.
    """

    FIELDS = ("calls", "conflicts", "propagations", "vars", "clauses")

    def install(self) -> None:
        from repro.sat.fastsolver import FastSolver
        from repro.sat.solver import BudgetExhausted, Solver

        counter = self
        for cls in (FastSolver, Solver):
            solve0, feed0, grow0 = cls.solve, cls.add_clauses, cls.ensure_var

            def solve(self, *args, __f=solve0, **kwargs):
                try:
                    result = __f(self, *args, **kwargs)
                except BudgetExhausted as exc:
                    counter.calls += 1
                    counter.conflicts += exc.conflicts
                    counter.propagations += exc.propagations
                    counter._logged()
                    raise
                counter.calls += 1
                counter.conflicts += result.conflicts
                counter.propagations += result.propagations
                counter._logged()
                return result

            def add_clauses(self, clauses, __f=feed0):
                counter.clauses += len(clauses)
                counter._logged()
                return __f(self, clauses)

            def ensure_var(self, var, __f=grow0):
                before = self.num_vars
                __f(self, var)
                counter.vars += max(0, self.num_vars - before)

            self._patch(cls, "solve", solve)
            self._patch(cls, "add_clauses", add_clauses)
            self._patch(cls, "ensure_var", ensure_var)


class CacheCounter(_Counter):
    """Cache lookups and hits (from ``get`` results), and the scenarios
    synthesis actually produced (engine runs happen on misses only)."""

    FIELDS = ("lookups", "hits", "scenarios")

    def install(self) -> None:
        from repro.core.synthesis import AnalysisAndSynthesisEngine
        from repro.pipeline.cache import MemoryCache, PipelineCache

        counter = self
        for cls in (PipelineCache, MemoryCache):
            def get(self, namespace, key, __f=cls.get):
                value = __f(self, namespace, key)
                counter.lookups += 1
                counter.hits += value is not None
                counter._logged()
                return value

            self._patch(cls, "get", get)
        for attr in ("run_shared", "run_signature"):
            def run(self, *args, __f=getattr(AnalysisAndSynthesisEngine, attr),
                    **kwargs):
                result = __f(self, *args, **kwargs)
                counter.scenarios += len(result.scenarios)
                counter._logged()
                return result

            self._patch(AnalysisAndSynthesisEngine, attr, run)
