"""Outside-in tracer: times pruw's layers without editing the package.

`Tracer.install()` replaces public functions of the pruw modules with timing
wrappers in the current process only, and rebinds every module-level name
that was imported by value (``harness.reconstruct_plain``,
``basic.solve_decode``, ``audit.combine_update`` ...) so each call site goes
through the wrapper.  `uninstall()` puts the originals back.

Spans sit at the session, setup, iteration and per-phase calls and are kept
as records (name, start, end, parent, run id).  Hot or many-times-called
functions are leaves: they add to a count and a total time under the
enclosing span instead of producing a record, which keeps memory flat even
at 800k noise calls per setup.  A call's self time is its duration minus
the time of the wrapped calls nested in it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

SPAN = "span"
LEAF = "leaf"

NOISE = "field.CounterNoise.symbol"
REVERSING = "topr.PermutationSetup.reversing_matrix"

# (module, attribute, kind); the traced name is "module.attribute"
TARGETS = (
    ("field", "CounterNoise.symbol", LEAF),
    ("storage", "init_basic", SPAN),
    ("storage", "init_topr", SPAN),
    ("storage", "init_random_sparse", SPAN),
    ("storage", "reconstruct_plain", SPAN),
    ("poly", "lagrange_interpolate", LEAF),
    ("poly", "solve_decode", LEAF),
    ("poly", "combine_update", LEAF),
    ("basic", "build_read_query", LEAF),
    ("basic", "answer_read", LEAF),
    ("basic", "decode_answers", LEAF),
    ("basic", "write_round", SPAN),
    ("topr", "coordinator_setup", LEAF),
    ("topr", "build_query_case1", LEAF),
    ("topr", "build_query_case2", LEAF),
    ("topr", "read_sparse", SPAN),
    ("topr", "answer_sparse", LEAF),
    ("topr", "decode_sparse", LEAF),
    ("topr", "write_sparse", SPAN),
    ("topr", "apply_sparse_write", LEAF),
    ("topr", "PermutationSetup.reversing_matrix", SPAN),
    ("random_sparse", "init_region_states", SPAN),
    ("random_sparse", "build_read_queries", LEAF),
    ("random_sparse", "build_write_queries", LEAF),
    ("random_sparse", "region_read", SPAN),
    ("random_sparse", "region_write", SPAN),
    ("wire", "FrameLog.record", LEAF),
    ("harness", "Session.__init__", SPAN),
    ("harness", "Session.run_iteration", SPAN),
    ("audit", "default_audit_suite", SPAN),
    ("audit", "audit_query", SPAN),
    ("audit", "audit_update", SPAN),
    ("audit", "audit_positions", SPAN),
)


def _cells(states) -> int:
    return sum(st.subpackets * st.layout.width * st.m_count for st in states)


# counters read off a span's return value: traced name -> (counter, function)
COUNTERS = {
    "storage.init_basic": ("storage.cells", _cells),
    "storage.init_topr": ("storage.cells", _cells),
    "storage.init_random_sparse": ("storage.cells", _cells),
    # each audit draws its sample count once per hypothesis
    "audit.audit_query": ("audit.samples", lambda r: 2 * r.samples),
    "audit.audit_update": ("audit.samples", lambda r: 2 * r.samples),
    "audit.audit_positions": ("audit.samples", lambda r: 2 * r.samples),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list[float]] = []  # [start, nested wrapped time]
        root = {"id": 0, "name": "process", "parent": None, "leaves": {}}
        self.open_spans = [root]
        self.spans = [root]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _finish(self, name: str, frame: list[float]) -> float:
        dur = self.clock() - frame[0]
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        return dur

    def _leaf(self, name: str, fn):
        clock, stack, open_spans, finish = self.clock, self.stack, self.open_spans, self._finish

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = finish(name, frame)
                agg = open_spans[-1]["leaves"].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dur

        return leaf

    def _span(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.counters[counter[0]] += counter[1](result)
                return result

        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span; also used for the child's own root spans."""
        record = {
            "id": len(self.spans), "name": name, "parent": self.open_spans[-1]["id"],
            "run": self.run_id, "start": self.clock() - self.origin, "leaves": {},
        }
        self.spans.append(record)
        self.open_spans.append(record)
        frame = [self.clock(), 0.0]
        self.stack.append(frame)
        try:
            yield record
        finally:
            dur = self._finish(name, frame)
            record["end"] = record["start"] + dur
            record["self_s"] = dur - frame[1]
            self.open_spans.pop()

    def install(self) -> None:
        by_id = {}
        for module_name, attr, kind in TARGETS:
            module = importlib.import_module(f"pruw.{module_name}")
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = vars(holder)[fname]
            name = f"{module_name}.{attr}"
            wrapped = (self._span if kind == SPAN else self._leaf)(name, original)
            if owner:
                setattr(holder, fname, wrapped)
                self._restore.append((holder, fname, original))
            else:
                by_id[id(original)] = (original, wrapped)
        # rebind the defining module's name and every by-value import of it
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pruw" and not mod_name.startswith("pruw."):
                continue
            for key, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._restore.append((module, key, value))

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over everything traced in this process."""
        c, t, s = self.calls, self.total, self.self_time
        builds = [sp["leaves"][NOISE][0] for sp in self.spans
                  if sp["name"] == REVERSING and NOISE in sp["leaves"]]
        return {
            "field.noise_calls": c[NOISE],
            "field.noise_s": t[NOISE],
            "storage.init_self_s": sum(s[f"storage.{f}"] for f in
                                       ("init_basic", "init_topr", "init_random_sparse")),
            "storage.cells": self.counters["storage.cells"],
            "storage.oracle_calls": c["storage.reconstruct_plain"],
            "storage.oracle_s": t["storage.reconstruct_plain"],
            "poly.interpolate_calls": c["poly.lagrange_interpolate"],
            "poly.interpolate_s": t["poly.lagrange_interpolate"],
            "poly.solve_calls": c["poly.solve_decode"],
            "poly.solve_s": t["poly.solve_decode"],
            "poly.combine_calls": c["poly.combine_update"],
            "poly.combine_s": t["poly.combine_update"],
            "basic.query_calls": c["basic.build_read_query"],
            "basic.answer_s": t["basic.answer_read"],
            "basic.decode_s": t["basic.decode_answers"],
            "basic.write_s": t["basic.write_round"],
            "topr.reversing_builds": len(builds),
            "topr.reversing_noise_symbols": sum(builds),
            "topr.reversing_s": t[REVERSING],
            "topr.answer_s": s["topr.answer_sparse"],
            "topr.fold_s": s["topr.apply_sparse_write"],
            "topr.decode_s": t["topr.decode_sparse"],
            "topr.setup_calls": c["topr.coordinator_setup"],
            "topr.query_calls": c["topr.build_query_case1"] + c["topr.build_query_case2"],
            "random_sparse.init_s": t["random_sparse.init_region_states"],
            "random_sparse.read_s": t["random_sparse.region_read"],
            "random_sparse.write_s": t["random_sparse.region_write"],
            "random_sparse.query_calls": (c["random_sparse.build_read_queries"]
                                          + c["random_sparse.build_write_queries"]),
            "wire.frames": c["wire.FrameLog.record"],
            "wire.record_s": t["wire.FrameLog.record"],
            "harness.iteration_self_s": s["harness.Session.run_iteration"],
            "audit.query_s": t["audit.audit_query"],
            "audit.update_s": t["audit.audit_update"],
            "audit.positions_s": t["audit.audit_positions"],
            "audit.samples": self.counters["audit.samples"],
        }
