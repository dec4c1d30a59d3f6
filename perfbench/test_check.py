"""The checkers accept today's outputs and reject perturbed copies.

    PYTHONPATH=src python -m pytest -q perfbench/test_check.py

Each workload's jobs run once in-process (about 15 s in all); every
perturbation below must make check.check_outputs report its job.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: (jobs, outputs of the jobs that succeeded, workdir)."""
    out = {}
    for name in workloads.WORKLOADS:
        workdir = str(tmp_path_factory.mktemp(name))
        jobs = [worker._resolve(job, workdir)
                for job in workloads.make_jobs(name, SEED, workdir)]
        _, results = worker.run_pass(jobs, workdir)
        outputs = {job["id"]: data for job, (data, failed)
                   in zip(jobs, worker.outputs(jobs, results)) if not failed}
        out[name] = (jobs, outputs, workdir)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_todays_outputs_pass(runs, name):
    jobs, outputs, workdir = runs[name]
    assert check.check_outputs(jobs, outputs, workdir) == []


def _json(edit):
    def apply(data: bytes) -> bytes:
        obj = json.loads(data)
        edit(obj)
        return json.dumps(obj).encode()
    return apply


def _csv(edit):
    """Edit the data rows of a CSV as lists of floats, keeping the header."""
    def apply(data: bytes) -> bytes:
        lines = data.decode().splitlines()
        start = next(i for i, line in enumerate(lines)
                     if not line.startswith("#")) + 1
        rows = [[float(v) for v in line.split(",")] for line in lines[start:]]
        edit(rows)
        body = [",".join(format(v, ".17g") if v != int(v) else str(int(v))
                         for v in row) for row in rows]
        return ("\n".join(lines[:start] + body) + "\n").encode()
    return apply


def _shift_curve(rows):
    # Shift one cost by 1e-5 bits and keep the per-n column consistent.
    row = rows[49]
    row[1] += 1e-5
    row[2] = row[1] / row[0]


def _swap_estimates(rows):
    rows[5][1], rows[6][1] = rows[6][1], rows[5][1]


def _swap_rounds(obj):
    acc = obj["accept_counts"]
    acc[0], acc[1] = acc[1], acc[0]


def _move_count_between_rows(obj):
    counts = obj["counts"]
    counts[0][0] -= 1
    counts[1][0] += 1


def _nudge_exact(obj):
    obj["exact"][0][0] += 1e-9
    obj["exact"][0][1] -= 1e-9


def _lower_singleton(obj):
    obj["constraints"][0]["bits"] -= 1e-4


def _add(key, amount):
    def edit(obj):
        obj[key] += amount
    return edit


def _row_add(key, amount):
    def edit(obj):
        obj["rows"][3][key] += amount
    return edit


def _scale(key, factor):
    def edit(obj):
        obj[key] *= factor
    return edit


PERTURBATIONS = [
    ("oneshot", "bsc-curve", _csv(_shift_curve)),
    ("oneshot", "bsc-curve", _csv(lambda rows: rows[9].__setitem__(
        5, rows[9][5] - 1e-4))),
    ("oneshot", "bsc-ns-eps-200", _json(_add("eps", 1e-6))),
    ("oneshot", "bsc-ns-eps-300", _json(_add("eps", -1e-6))),
    ("oneshot", "ns-cost-r10", _json(_add("i_max_eps", 1e-5))),
    ("oneshot", "ns-cost-bsc3", _json(_add("cost", 1))),
    ("oneshot", "ns-eps-r12", _json(_add("eps", 1e-6))),
    ("oneshot", "imax-bsc3", _json(_add("bits", 1e-5))),
    ("oneshot", "dmax-smooth-30", _json(_add("bits", 1e-5))),
    ("asymptotic-mc", "capacity-r8", _json(_add("capacity_bits", -1e-4))),
    ("asymptotic-mc", "capacity-cyclic5", _json(_add("capacity_bits", 1e-9))),
    ("asymptotic-mc", "capacity-sym4", _json(_add("capacity_bits", -1e-4))),
    ("asymptotic-mc", "ba-trace-r32", _csv(_swap_estimates)),
    ("asymptotic-mc", "dispersion-three", _json(_scale("v_max", 1 + 1e-4))),
    ("asymptotic-mc", "second-order-three",
     _json(_row_add("simulation_bits", 1e-4))),
    ("asymptotic-mc", "moderate-three", _json(_row_add("coding_at_eps", 1e-4))),
    ("asymptotic-mc", "broadcast-region-bc3", _json(_lower_singleton)),
    ("asymptotic-mc", "broadcast-region-bc2",
     _json(lambda obj: obj["corners"][0].__setitem__(1, 0.0))),
    ("asymptotic-mc", "reject-sim-m3", _json(_swap_rounds)),
    ("asymptotic-mc", "reject-sim-m8", _json(_add("tvd_exact", 1e-9))),
    ("asymptotic-mc", "reject-sim-m8",
     _json(_add("empirical_tvd_to_exact", 0.05))),
    ("asymptotic-mc", "broadcast-run-4x4", _json(_move_count_between_rows)),
    ("asymptotic-mc", "broadcast-run-2x2", _json(_nudge_exact)),
    ("asymptotic-mc", "convex-split", _json(_add("tvd_exact", 1e-9))),
    ("asymptotic-mc", "convex-split",
     _json(lambda obj: obj.__setitem__("holds", not obj["holds"]))),
]


@pytest.mark.parametrize("name,job_id,perturb", PERTURBATIONS,
                         ids=[f"{j}-{i}" for i, (_, j, _) in
                              enumerate(PERTURBATIONS)])
def test_perturbed_output_is_rejected(runs, name, job_id, perturb):
    jobs, outputs, workdir = runs[name]
    changed = dict(outputs, **{job_id: perturb(outputs[job_id])})
    assert changed[job_id] != outputs[job_id]
    problems = check.check_outputs(jobs, changed, workdir)
    assert any(p.startswith(job_id + ":") for p in problems), problems


def test_direction_mismatch_is_rejected(runs):
    # A deviation above eps at a cost above the reported cost.
    jobs, outputs, workdir = runs["oneshot"]
    cost = json.loads(outputs["ns-cost-r8"])
    job = next(j for j in jobs if j["id"] == "ns-eps-r8")
    eps = float(check._flag(next(j for j in jobs if j["id"] == "ns-cost-r8")
                            ["argv"], "--eps"))
    c = int(check._flag(job["argv"], "--n"))
    value = eps + 0.01 if c > 2.0 ** cost["i_max_eps"] else eps - 0.01
    changed = dict(outputs, **{"ns-eps-r8": json.dumps({"eps": value})
                               .encode()})
    problems = check.check_directions(jobs, changed)
    assert any(p.startswith("ns-eps-r8:") for p in problems), problems


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        listed = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert listed == list(tracing.LAYER_METRICS)
