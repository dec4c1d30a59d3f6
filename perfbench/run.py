"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Steps, each in its own process:

1. ``setup_s``: several fresh interpreters each import ``channelsim``;
   the median of their wall times is reported.
2. Inputs and the job list are generated from the seed (workloads.py).
3. The worker runs the jobs in passes (worker.py) with BLAS pinned to one
   thread and ``CHANNELSIM_THREADS`` unset.
4. The checker compares the warm-up pass's outputs with independent
   computations (check.py); it may use scipy and mpmath.

The last line of standard output is the result object. Results and, for a
traced run, the recorded spans are kept under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, make_jobs  # noqa: E402

SETUP_SAMPLES = 9
# CPU-second caps; with set-up they keep a run inside 180 s.
WORKER_CPU_S = 110
CHECK_CPU_S = 45


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("CHANNELSIM_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=SRC)
    return env


def run_child(argv, env, cpu_seconds):
    """Run a child to completion under a CPU-time cap.

    A wall-clock timeout would make subprocess poll for the exit every
    50 ms, which quantizes the set-up timings.
    """
    def cap():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))
    subprocess.run(argv, env=env, check=True, preexec_fn=cap)


def setup_seconds(env) -> float:
    """Median wall time of a fresh interpreter importing channelsim."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "import channelsim"], env, 30)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "channelsim", "__init__.py")):
        print(f"run.py: no channelsim sources under {SRC}", file=sys.stderr)
        return 2
    env = pinned_env()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup = None if args.trace else setup_seconds(env)
        jobs = make_jobs(args.workload, args.seed, workdir)
        with open(os.path.join(workdir, "jobs.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(jobs, fh)
        run_child([sys.executable, os.path.join(HERE, "worker.py"), workdir,
                   str(args.seconds), str(args.trace)], env, WORKER_CPU_S)
        run_child([sys.executable, os.path.join(HERE, "check.py"), workdir],
                  None, CHECK_CPU_S)
        with open(os.path.join(workdir, "worker.json"),
                  encoding="utf-8") as fh:
            work = json.load(fh)
        with open(os.path.join(workdir, "check.json"), encoding="utf-8") as fh:
            problems = json.load(fh)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(OUT, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    for job in work["nondeterministic_jobs"]:
        print(f"check: {job}: output bytes differ between passes",
              file=sys.stderr)
    if args.trace:
        metrics = work["layers"]
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "pass_s": {"value": statistics.median(work["pass_s"]),
                       "unit": "s"},
            "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MiB"},
        }
    result = {
        "correct": not problems and not work["nondeterministic_jobs"],
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": metrics,
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(json.dumps({"passes": len(work["pass_s"]),
                      "pass_s": work["pass_s"],
                      "failed_jobs": work["failed_jobs"]}))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
