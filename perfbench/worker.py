"""Run one workload's job list in passes and record times and outputs.

Usage: python3 perfbench/worker.py WORKDIR SECONDS TRACE

Reads WORKDIR/jobs.json, runs one warm-up pass, then whole passes until
SECONDS of measured passes have elapsed. Every pass's output bytes must
equal the warm-up pass's; the warm-up outputs are left in WORKDIR/out for
the checker. With TRACE=1 an extra pass measures allocation peaks, then
untraced and traced passes alternate so that the tracing overhead is
measured in the same process. Writes WORKDIR/worker.json.

The process imports channelsim, numpy and this directory's modules only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from channelsim import cli, ns_meta, prob, protocols


def _dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _broadcast_protocol_run(args, workdir):
    with open(os.path.join(workdir, args["channel"]), encoding="utf-8") as fh:
        w = prob.channel_from_json(json.load(fh))
    run = protocols.broadcast_protocol_run(
        w, prob.Pmf(args["q"]), prob.Pmf(args["r"]), args["m"], args["n"],
        stream=protocols.RngStream(args["seed"]), trials=args["trials"])
    counts = np.rint(run.empirical.rows * args["trials"]).astype(np.int64)
    return {"counts": counts.tolist(), "exact": run.exact.rows.tolist(),
            "worst_tvd": run.worst_tvd}


def _bsc_ns_eps(args, workdir):
    return {"eps": ns_meta.bsc_ns_eps(args["n"], args["delta"], args["c"])}


_LIB = {"bsc_ns_eps": _bsc_ns_eps,
        "broadcast_protocol_run": _broadcast_protocol_run}


def _resolve(job, workdir):
    """Job with its input and output paths made absolute."""
    if job["kind"] != "cli":
        return job
    argv = list(job["argv"])
    for flag in ("--channel", "--out"):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = os.path.join(workdir, argv[i])
    return dict(job, argv=argv, out=os.path.join(workdir, job["out"]))


def run_pass(jobs, workdir, tracer=None):
    """Run every job once; returns (seconds, per-job results)."""
    results = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(sink):
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            if job["kind"] == "cli":
                results.append(cli.main(job["argv"]))
            else:
                try:
                    results.append(_LIB[job["call"]](job["args"], workdir))
                except (ArithmeticError, RuntimeError, ValueError) as exc:
                    results.append(exc)
    return time.perf_counter() - start, results


def outputs(jobs, results):
    """(output bytes, failed) per job, read after the pass has ended."""
    out = []
    for job, result in zip(jobs, results):
        if job["kind"] == "cli":
            if result != 0:
                out.append((f"exit {result}\n".encode(), True))
                continue
            with open(job["out"], "rb") as fh:
                out.append((fh.read(), False))
                os.remove(job["out"])
        elif isinstance(result, Exception):
            out.append((f"{type(result).__name__}: {result}\n".encode(), True))
        else:
            out.append((_dumps(result), False))
    return out


def main(argv) -> int:
    workdir, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = [_resolve(job, workdir) for job in json.load(fh)]

    _, results = run_pass(jobs, workdir)
    reference = outputs(jobs, results)
    for job, (data, failed) in zip(jobs, reference):
        name = os.path.join(workdir, "out", job["id"])
        with open(name, "wb") as fh:
            fh.write(data)

    tracer = None
    layer_passes = []
    if trace:
        from tracing import Tracer, pass_metrics
        tracer = Tracer()
        tracer.install()
        tracer.measure_alloc = True
        run_pass(jobs, workdir, tracer)
        alloc = pass_metrics(tracer.spans, tracer.counts)
        tracer.measure_alloc = False
        tracer.uninstall()

    times = {False: [], True: []}
    attempted = failed = 0
    mismatched = set()
    spans_out = []
    began = time.perf_counter()
    while True:
        traced = trace and len(times[False]) > len(times[True])
        if traced:
            tracer.reset()
            tracer.install()
        seconds_taken, results = run_pass(jobs, workdir,
                                          tracer if traced else None)
        if traced:
            tracer.uninstall()
            layer_passes.append(pass_metrics(tracer.spans, tracer.counts))
            spans_out.append(list(tracer.spans))
        times[traced].append(seconds_taken)
        for job, now, ref in zip(jobs, outputs(jobs, results), reference):
            attempted += 1
            failed += now[1]
            if now != ref:
                mismatched.add(job["id"])
        enough = time.perf_counter() - began >= seconds
        if enough and (not trace or len(times[True]) == len(times[False])):
            break

    report = {
        "attempted": attempted,
        "failed": failed,
        "failed_jobs": [job["id"] for job, (_, bad) in zip(jobs, reference)
                        if bad],
        "nondeterministic_jobs": sorted(mismatched),
        "pass_s": times[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if trace:
        report["traced_pass_s"] = times[True]
        report["layers"] = _layer_summary(layer_passes, alloc,
                                          times[False], times[True])
        with open(os.path.join(workdir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"jobs": [job["id"] for job in jobs],
                       "passes": spans_out}, fh)
    with open(os.path.join(workdir, "worker.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def _layer_summary(layer_passes, alloc, untraced, traced) -> dict:
    """Median over traced passes of each per-layer figure."""
    from tracing import LAYER_METRICS
    values = {name: statistics.median(p.get(name, 0) for p in layer_passes)
              for name, _ in LAYER_METRICS}
    key = "asymptotics.dispersion.peak_alloc_mb"
    values[key] = alloc.get(key, 0.0)
    base = statistics.median(untraced)
    values["trace.overhead_s"] = statistics.median(traced) - base
    values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / base
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
