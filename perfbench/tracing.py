"""Spans and counts recorded around the program's public functions.

The tracer replaces a function on every module that binds it, so calls
from the CLI and calls between library modules are both caught: for
example ``solve_lp`` is bound in ``ns_meta`` and in ``divergences``. A span
holds its name, start and end in ns, the enclosing span and the job id.
Counts are computed from each call's arguments and result after the span
has closed, so their cost lands in the tracing overhead, not in the layer.
Everything stays in memory until the run ends.
"""

from __future__ import annotations

import math
import os
import time
import tracemalloc

import numpy as np

from channelsim import (asymptotics, broadcast, cli, divergences, ns_meta,
                        protocols)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index, job]
        self.counts = []     # (span index, key, value)
        self.job = None
        self.measure_alloc = False
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, counter=None, alloc=False):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, 0, 0, parent, self.job]
            self.spans.append(span)
            self._stack.append(index)
            tracking = alloc and self.measure_alloc
            if tracking:
                tracemalloc.start()
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                if tracking:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counts.append((index, "peak_alloc_mb", peak / 2**20))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts.append((index, key, value))
            return result
        return traced

    def install(self):
        """Patch every binding listed in BINDINGS."""
        wrapped = {}
        for name, modules, counter, alloc in BINDINGS:
            attr = name.rsplit(".", 1)[1]
            for module in modules:
                original = getattr(module, attr)
                if name not in wrapped:
                    wrapped[name] = self.wrap(name, original, counter, alloc)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped[name])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def _lp_counts(args, kwargs, sol):
    problem = args[0]
    out = {"pivots": sol.iterations,
           "cells": problem.num_rows * problem.num_vars}
    if sol.x is not None:
        resid = problem.a @ sol.x - problem.b
        senses = np.array(problem.senses)
        viol = np.where(senses == "<=", np.maximum(resid, 0.0),
                        np.where(senses == ">=", np.maximum(-resid, 0.0),
                                 np.abs(resid)))
        out["max_residual"] = float(viol.max()) if viol.size else 0.0
    return out


def blahut_gap(rows: np.ndarray, p: np.ndarray) -> float:
    """max_x D(W_x || pW) - I(p), the a-posteriori capacity gap in bits."""
    q = p @ rows
    with np.errstate(divide="ignore"):
        logs = np.where(rows > 0.0, np.log2(np.where(rows > 0.0, rows, 1.0))
                        - np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
    d = (rows * logs).sum(axis=1)
    return float(d.max() - p @ d)


def _ba_counts(args, kwargs, trace):
    rows = np.asarray(getattr(args[0], "rows", args[0]), dtype=np.float64)
    return {"iterations": len(trace.iterates),
            "gap_bits": blahut_gap(rows, trace.final_input.probs)}


def _iterations(args, kwargs, trace):
    return {"iterations": len(trace.iterates)}


def _rejection_counts(args, kwargs, run):
    plan = args[0]
    acc = np.asarray(run.accept_counts)
    rounds = int((acc * np.arange(1, acc.size + 1)).sum()) + plan.m * run.rejects
    return {"trials": run.trials, "rounds": rounds}


def _broadcast_counts(args, kwargs, run):
    trials = kwargs["trials"] if "trials" in kwargs else args[6]
    return {"trials": trials}


def _cli_counts(args, kwargs, code):
    argv = args[0] if args else kwargs["argv"]
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    size = os.path.getsize(path) if path and os.path.exists(path) else 0
    return {"out_bytes": size}


# (span name, modules binding the function, counter, track allocations)
BINDINGS = (
    ("lp.solve_lp", (ns_meta, divergences), _lp_counts, False),
    ("ns_meta.bsc_ns_cost", (ns_meta,), None, False),
    ("ns_meta.bsc_ns_eps", (ns_meta,), None, False),
    ("ns_meta.i_max_smooth", (ns_meta, protocols), None, False),
    ("ns_meta.ns_eps_for_cost", (ns_meta,), None, False),
    ("divergences.d_max_smooth", (divergences, ns_meta), None, False),
    ("asymptotics.dispersion", (asymptotics,), None, True),
    ("asymptotics.capacity_ba", (asymptotics,), _ba_counts, False),
    ("broadcast.rate_region", (broadcast,), None, False),
    ("broadcast.tilde_c_ba", (broadcast,), _iterations, False),
    ("protocols.rejection_sample_run", (protocols,), _rejection_counts, False),
    ("protocols.broadcast_protocol_run", (protocols,), _broadcast_counts,
     False),
    ("protocols.induced_channel_scatter", (protocols,), None, False),
    ("protocols.convex_split_check", (protocols,), None, False),
    ("cli.main", (cli,), _cli_counts, False),
)

# Per-layer metrics, in BENCHMARK.json order, with their units.
LAYER_METRICS = (
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.busy_ms", "ms"),
    ("lp.solve_lp.pivots", "count"),
    ("lp.solve_lp.cells", "count"),
    ("lp.solve_lp.max_residual", "1"),
    ("ns_meta.bsc_ns_cost.busy_ms", "ms"),
    ("ns_meta.bsc_ns_cost.self_ms", "ms"),
    ("ns_meta.bsc_ns_eps.busy_ms", "ms"),
    ("ns_meta.bsc_ns_eps.self_ms", "ms"),
    ("ns_meta.i_max_smooth.busy_ms", "ms"),
    ("ns_meta.i_max_smooth.self_ms", "ms"),
    ("ns_meta.ns_eps_for_cost.busy_ms", "ms"),
    ("ns_meta.ns_eps_for_cost.self_ms", "ms"),
    ("divergences.d_max_smooth.busy_ms", "ms"),
    ("asymptotics.dispersion.calls", "count"),
    ("asymptotics.dispersion.busy_ms", "ms"),
    ("asymptotics.dispersion.peak_alloc_mb", "MiB"),
    ("asymptotics.capacity_ba.busy_ms", "ms"),
    ("asymptotics.capacity_ba.iterations", "count"),
    ("asymptotics.capacity_ba.gap_bits", "bits"),
    ("broadcast.rate_region.busy_ms", "ms"),
    ("broadcast.tilde_c_ba.iterations", "count"),
    ("protocols.rejection_sample_run.busy_ms", "ms"),
    ("protocols.rejection_sample_run.trials", "count"),
    ("protocols.rejection_sample_run.rounds", "count"),
    ("protocols.rejection_sample_run.us_per_trial", "us"),
    ("protocols.broadcast_protocol_run.busy_ms", "ms"),
    ("protocols.broadcast_protocol_run.trials", "count"),
    ("protocols.broadcast_protocol_run.us_per_trial", "us"),
    ("protocols.induced_channel_scatter.busy_ms", "ms"),
    ("protocols.convex_split_check.busy_ms", "ms"),
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("cli.out_bytes", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)

# Counts reported as the worst call of a pass rather than the pass total.
_MAX_COUNTS = {"max_residual", "gap_bits", "peak_alloc_mb"}


def pass_metrics(spans, counts) -> dict:
    """Per-layer totals of one pass: calls, busy and self ms, counts."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".busy_ms"] = out.get(name + ".busy_ms", 0.0) \
            + (end - start) / 1e6
        out[name + ".self_ms"] = out.get(name + ".self_ms", 0.0) \
            + (end - start - child_ns[index]) / 1e6
    for index, key, value in counts:
        name = spans[index][0]
        full = ("cli." + key) if name == "cli.main" else f"{name}.{key}"
        if key in _MAX_COUNTS:
            out[full] = max(out.get(full, -math.inf), value)
        else:
            out[full] = out.get(full, 0) + value
    trials = out.get("protocols.rejection_sample_run.trials")
    if trials:
        out["protocols.rejection_sample_run.us_per_trial"] = \
            out["protocols.rejection_sample_run.busy_ms"] * 1e3 / trials
    trials = out.get("protocols.broadcast_protocol_run.trials")
    if trials:
        # Self time: the exact-channel scatter is its own span.
        out["protocols.broadcast_protocol_run.us_per_trial"] = \
            out["protocols.broadcast_protocol_run.self_ms"] * 1e3 / trials
    return out
