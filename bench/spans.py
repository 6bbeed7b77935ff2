"""In-memory span tracer that wraps coopt's module-level names from outside.

The solvers call their collaborators through module globals (``coopt.coot``
calls ``exact_ot``, ``contract`` and so on by name), so swapping those names
for timing wrappers traces every layer boundary without editing the package.
:func:`install` does the swap and returns the function that undoes it.

Each span records its name, start, end, parent span and thread, plus a few
counts taken from the wrapped call's arguments and result. Spans stay in
memory; :meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

LAYERS = ("ot", "tensorcost", "coot", "gw", "apps", "fileio", "cli")


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: List[Span] = []

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``counts(result, args, kwargs)`` adds counts."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1].sid
            elif self._main_stack:
                # a restart worker thread: the span that fanned out is the
                # innermost one open on the main thread, which waits in it
                parent = self._main_stack[-1].sid
            else:
                parent = None
            with self._lock:
                span = Span(len(self.spans), name, parent, threading.get_ident(),
                            time.perf_counter())
                self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(result, args, kwargs)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "parent": s.parent,
                                     "thread": s.thread, "start": s.start, "end": s.end,
                                     "counts": s.counts}) + "\n")


def _sinkhorn_counts(res, args, kwargs):
    return {"sweeps": res.iterations, "capped": int(not res.converged),
            "residual": res.marginal_error, "cells": res.coupling.plan.size}


def _size_of(index):
    return lambda res, args, kwargs: {"bytes": os.path.getsize(args[index])}


def _iters(res, args, kwargs):
    return {"iters": res.iterations}


def _jobs(res, args, kwargs):
    return {"jobs": kwargs.get("jobs", args[3] if len(args) > 3 else 1)}


def _targets():
    """(module, attribute, span name, counts) for every wrapped name; a callee
    reached through several modules keeps one span name."""
    targets = [
        ("ot", "linprog", "ot.linprog", lambda r, a, k: {"nit": r.nit}),
        ("ot", "linear_sum_assignment", "ot.hungarian", None),
        ("coot", "_solve_single", "coot.solve_single", _iters),
        ("apps", "_solve_single", "coot.solve_single", _iters),
        ("coot", "solve_coot", "coot.solve_coot", _jobs),
        ("apps", "solve_coot", "coot.solve_coot", _jobs),
        ("cli", "solve_coot", "coot.solve_coot", _jobs),
        ("gw", "_dc_single", "gw.dc_single", _iters),
        ("gw", "gw_objective", "gw.gw_objective", None),
        ("gw", "solve_gw_dc", "gw.solve_gw_dc", None),
        ("cli", "solve_gw_dc", "gw.solve_gw_dc", None),
        ("apps", "coot_objective", "tensorcost.coot_objective", None),
        ("apps", "cocluster", "apps.cocluster",
         lambda r, a, k: {"rounds": len(r.objective_trace)}),
        ("apps", "election_solution", "apps.election_solution", None),
        ("apps", "hda_pipeline", "apps.hda_pipeline", None),
        ("fileio", "read_matrix_csv", "fileio.read", None),
        ("fileio", "read_labels_csv", "fileio.read", None),
        ("fileio", "write_matrix_csv", "fileio.write", _size_of(0)),
        ("fileio", "write_labels_csv", "fileio.write", _size_of(0)),
        ("fileio", "export_heatmap", "fileio.write", _size_of(1)),
        # report.json holds the run's wall time, so its size is not a count
        ("fileio", "RunReport.write", "fileio.write", None),
        ("cli", "main", "cli.main", lambda code, a, k: {"exit": code}),
    ]
    for module in ("coot", "gw"):
        targets += [
            (module, "exact_ot", "ot.exact_ot", None),
            (module, "sinkhorn", "ot.sinkhorn", _sinkhorn_counts),
            (module, "contract", "tensorcost.contract", None),
            (module, "coot_objective", "tensorcost.coot_objective", None),
        ]
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Swap every target for its traced wrapper; return the undo function."""
    undo = []
    for module, attr, name, counts in _targets():
        owner = importlib.import_module(f"coopt.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        setattr(owner, leaf, tracer.wrap(name, original, counts))
        undo.append((owner, leaf, original))

    def restore():
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return restore


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: List[Span], wall: float) -> Dict[str, float]:
    """Per-layer counts and times of one pass whose spans are ``spans``.

    A span's self time is its duration minus the part of it that its child
    spans cover; restart workers overlap, so children are merged as a union.
    Shares divide a layer's self time by the pass wall time; with parallel
    restarts they measure thread time and may sum to more than one.
    """
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    own = {s.sid: s.duration - _covered([(c.start, c.end) for c in children[s.sid]],
                                        s.start, s.end) for s in spans}
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    count = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        self_s[s.name] += own[s.sid]
        for key, value in s.counts.items():
            count[f"{s.name}.{key}"] += value

    sink = [s for s in spans if s.name == "ot.sinkhorn"]
    sink_cells = sum(s.counts["sweeps"] * s.counts["cells"] for s in sink)
    fanout = [s for s in spans if s.name == "coot.solve_coot"]
    fan_capacity = sum(s.duration * s.counts["jobs"] for s in fanout)
    fan_busy = sum(c.duration for s in fanout for c in children[s.sid])
    top = [s for s in spans if s.parent not in by_id]

    m = {
        "ot.exact_ot.calls": calls["ot.exact_ot"],
        "ot.exact_ot.self_s": self_s["ot.exact_ot"],
        "ot.linprog.calls": calls["ot.linprog"],
        "ot.linprog.s": total["ot.linprog"],
        "ot.linprog.nit": count["ot.linprog.nit"],
        "ot.hungarian.calls": calls["ot.hungarian"],
        "ot.hungarian.s": total["ot.hungarian"],
        "ot.sinkhorn.calls": calls["ot.sinkhorn"],
        "ot.sinkhorn.s": total["ot.sinkhorn"],
        "ot.sinkhorn.sweeps": count["ot.sinkhorn.sweeps"],
        "ot.sinkhorn.ns_per_cell_sweep":
            1e9 * total["ot.sinkhorn"] / sink_cells if sink_cells else 0.0,
        "ot.sinkhorn.capped": count["ot.sinkhorn.capped"],
        "ot.sinkhorn.converged_ratio":
            1.0 - count["ot.sinkhorn.capped"] / len(sink) if sink else 0.0,
        "ot.sinkhorn.max_residual": max((s.counts["residual"] for s in sink), default=0.0),
        "tensorcost.contract.calls": calls["tensorcost.contract"],
        "tensorcost.contract.s": total["tensorcost.contract"],
        "tensorcost.coot_objective.calls": calls["tensorcost.coot_objective"],
        "tensorcost.coot_objective.s": total["tensorcost.coot_objective"],
        "coot.solve_coot.calls": calls["coot.solve_coot"],
        "coot.solve_coot.s": total["coot.solve_coot"],
        "coot.outer_iters": count["coot.solve_single.iters"],
        "coot.restarts": sum(len(children[s.sid]) for s in fanout),
        "coot.fanout.util": fan_busy / fan_capacity if fan_capacity else 0.0,
        "gw.solve_gw_dc.s": total["gw.solve_gw_dc"],
        "gw.outer_iters": count["gw.dc_single.iters"],
        "gw.gw_objective.s": total["gw.gw_objective"],
        "apps.cocluster.s": total["apps.cocluster"],
        "apps.cocluster.self_s": self_s["apps.cocluster"],
        "apps.cocluster.outer_rounds": count["apps.cocluster.rounds"],
        "apps.election_solution.s": total["apps.election_solution"],
        "apps.hda_pipeline.s": total["apps.hda_pipeline"],
        "fileio.read.calls": calls["fileio.read"],
        "fileio.read.s": total["fileio.read"],
        "fileio.write.calls": calls["fileio.write"],
        "fileio.write.s": total["fileio.write"],
        "fileio.bytes_written": count["fileio.write.bytes"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.s": total["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.exit4": sum(1 for s in spans if s.name == "cli.main" and s.counts["exit"] == 4),
        "trace.coverage": sum(s.duration for s in top) / wall,
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = sum(v for k, v in self_s.items()
                                  if k.split(".")[0] == layer) / wall
    for name in ("linprog", "hungarian", "sinkhorn"):
        m[f"share.ot.{name}"] = self_s[f"ot.{name}"] / wall
    return m


# metrics that count work: they must repeat exactly from pass to pass
COUNT_METRICS = tuple(
    k for k in layer_metrics([], 1.0)
    if k.endswith((".calls", ".nit", ".sweeps", ".capped", ".outer_iters", ".restarts",
                   ".outer_rounds", ".bytes_written", ".exit4"))
)
