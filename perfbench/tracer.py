"""Spans around the calls into each dickepair layer, patched in from outside.

Every wrapped function is replaced where its callers look it up (the
importing module's namespace, or the class for ``_SteadyTables`` methods), so
``src/`` stays untouched. A span records its name, start, end, parent span
and the query it belongs to; spans stay in memory and are written out when
the unit ends. Span times come from the clock passed in, which in the
worker leaves out the calibration bursts. ``math.fsum`` is counted through the ``logcomplex`` module's
own ``math`` name, which is how the exact (Shewchuk) accumulator is reached.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
import types
from array import array
from collections import defaultdict

from workloads import SINGLE_POINT

# layers whose per-call durations are tabulated per ensemble size and precision
PER_N_SPANS = {
    "steady.tables_build": "steady.tables_build_ms",
    "steady.pair_entries": "steady.pair_entries_ms",
    "steady.moment": "steady.moment_ms",
    "pairwise.concurrence": "pairwise.concurrence_ms",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self._stack = [-1]
        self.current_query = -1
        self.logsum_terms = 0
        self.exact_sums = 0
        self.fsum_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        perf = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.query.append(self.current_query)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the layer boundaries of an imported dickepair package."""
        # the package re-exports a function named ``sweep`` over the module
        cli, logcomplex, steady, sweep_mod = (
            importlib.import_module(f"dickepair.{m}")
            for m in ("cli", "logcomplex", "steady", "sweep"))

        def span(owner, attr, name):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

        span(cli, "run", "cli.run")
        span(cli, "sweep", "sweep.sweep")
        span(sweep_mod, "evaluate_point", "sweep.evaluate_point")
        for owner in (cli, sweep_mod):
            span(owner, "steady_pair_density", "pairwise.steady_pair_density")
            span(owner, "concurrence", "pairwise.concurrence")
        span(sweep_mod, "expectation", "steady.expectation")
        span(cli, "expectation_set", "steady.expectation_set")
        span(steady._SteadyTables, "__init__", "steady.tables_build")
        span(steady._SteadyTables, "pair_entries", "steady.pair_entries")
        span(steady._SteadyTables, "moment", "steady.moment")
        span(cli, "build_liouvillian", "oracle.build_liouvillian")
        span(cli, "steady_state_null_space", "oracle.steady_state_null_space")

        real_fsum = math.fsum

        def counting_fsum(values):
            self.fsum_calls += 1
            return real_fsum(values)

        math_view = types.SimpleNamespace(**vars(math))
        math_view.fsum = counting_fsum
        self._patch(logcomplex, "math", math_view)

        logsum = self.wrap("logcomplex.logsum_complex", steady.logsum_complex)

        def counting_logsum(log_mags, *args, **kwargs):
            before = self.fsum_calls
            self.logsum_terms += len(log_mags)
            try:
                return logsum(log_mags, *args, **kwargs)
            finally:
                if self.fsum_calls != before:
                    self.exact_sums += 1
        self._patch(steady, "logsum_complex", counting_logsum)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self, calls: list[dict]) -> dict:
        """Per-span-name totals and self times, counters and per-N durations.

        Self time is a span's duration minus the durations of its children;
        spans nest strictly because the workload runs on one thread.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        per_n = defaultdict(list)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            agg = spans[name]
            agg["calls"] += 1
            agg["total_s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
            q = self.query[i]
            if name in PER_N_SPANS and q >= 0 and calls[q]["kind"] in SINGLE_POINT:
                key = f"{PER_N_SPANS[name]}.n{calls[q]['n']}.{calls[q]['precision']}"
                per_n[key].append(dur[i] * 1e3)
        return {
            "spans": dict(spans),
            "per_n_ms": dict(per_n),
            "logsum_terms": self.logsum_terms,
            "exact_sums": self.exact_sums,
        }

    def write_spans(self, path) -> None:
        """Tab-separated spans: index, name, start, end, parent, query."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tquery\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{i}\t{self.names[nid]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\t{self.query[i]}\n")
