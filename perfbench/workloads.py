"""Workload inputs and job lists, generated from the benchmark seed.

A job is a JSON-able dict. ``{"kind": "cli", "argv": [...]}`` runs
``channelsim.cli.main(argv)`` in-process; its output is the file named by
``--out``. ``{"kind": "lib", "call": name, "args": {...}}`` calls one
public library function that has no subcommand; its output is a canonical
JSON rendering of the result. Paths inside a job are relative to the run's
work directory and are resolved by the worker.

Only numpy and the standard library are used here: the generator runs
before the program is imported and never calls it.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

BSC_DELTA = 0.11
BSC_EPS = 0.05
BSC_CURVE_N = 200
BSC_EPS_BLOCKLENGTHS = (100, 200, 300)
# bsc_ns_cost's class weights overflow in np.exp past n of about 1000.
BSC_OVERFLOW_N = 1030

REJECT_LAMBDA = 0.35


def _write_json(workdir: str, name: str, obj) -> str:
    rel = os.path.join("in", name)
    with open(os.path.join(workdir, rel), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return rel


def _channel_json(rows: np.ndarray, output_sizes=None) -> dict:
    rows = rows / rows.sum(axis=1, keepdims=True)
    sizes = list(output_sizes) if output_sizes else [rows.shape[1]]
    return {"input_size": int(rows.shape[0]), "output_sizes": sizes,
            "rows": rows.tolist()}


def _pmf(rng, size: int, floor: float = 0.0) -> np.ndarray:
    v = rng.dirichlet(np.ones(size)) + floor
    return v / v.sum()


def _cli(job_id: str, argv: list, out: str) -> dict:
    return {"id": job_id, "kind": "cli", "argv": argv + ["--out", out],
            "out": out}


def bsc_matrix(n: int, delta: float) -> np.ndarray:
    """Dense BSC(delta)^n, big-endian in the first symbol."""
    one = np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])
    rows = one
    for _ in range(n - 1):
        rows = np.kron(rows, one)
    return rows


def bsc_log2_cost(n: int, delta: float, eps: float) -> float:
    """Float approximation of n + log2 s* used only to place test costs.

    s* is where G(s) = sum_k C(n,k) min(w_k, s) first reaches 1 - eps;
    the checker recomputes it exactly in multiprecision.
    """
    k = np.arange(n + 1)
    log_c = np.array([math.lgamma(n + 1) - math.lgamma(j + 1)
                      - math.lgamma(n - j + 1) for j in k])
    log_w = (n - k) * math.log(1.0 - delta) + k * math.log(delta)
    c, w = np.exp(log_c), np.exp(log_w)
    # w decreases in k: the bins k < t are capped at s, the rest are whole.
    tail = np.concatenate([np.cumsum((c * w)[::-1])[::-1], [0.0]])
    count = np.concatenate([[0.0], np.cumsum(c)])
    target = 1.0 - eps
    for t in range(1, n + 2):
        s = (target - tail[t]) / count[t]
        if t == n + 1 or s >= w[t]:
            return n + math.log2(s)
    raise AssertionError("unreachable")


def _bsc_figure(rng, workdir: str) -> list:
    common = ["--delta", repr(BSC_DELTA), "--eps", repr(BSC_EPS)]
    jobs = [_cli("bsc-curve", ["bsc-curve"] + common
                 + ["--n", f"1..{BSC_CURVE_N}"], "bsc-curve.csv")]
    for n in BSC_EPS_BLOCKLENGTHS:
        # Costs within half a bit of the optimum at BSC_EPS, so the
        # deviation lands on either side of BSC_EPS.
        log2_c = bsc_log2_cost(n, BSC_DELTA, BSC_EPS) + rng.uniform(-0.5, 0.5)
        jobs.append({"id": f"bsc-ns-eps-{n}", "kind": "lib",
                     "call": "bsc_ns_eps",
                     "args": {"n": n, "delta": BSC_DELTA,
                              "c": int(math.floor(2.0 ** log2_c))}})
    jobs.append(_cli(f"bsc-curve-{BSC_OVERFLOW_N}", ["bsc-curve"] + common
                     + ["--n", f"{BSC_OVERFLOW_N}..{BSC_OVERFLOW_N}"],
                     f"bsc-curve-{BSC_OVERFLOW_N}.csv"))
    return jobs


def _oneshot_lp(rng, workdir: str) -> list:
    channels = {
        "bsc3": bsc_matrix(3, BSC_DELTA),
        "r8": rng.dirichlet(np.ones(8), size=8),
        "r10": rng.dirichlet(np.ones(10), size=10),
        "r12": rng.dirichlet(np.ones(12), size=12),
    }
    jobs = []
    for name, rows in channels.items():
        path = _write_json(workdir, f"{name}.json", _channel_json(rows))
        k = rows.shape[0]
        eps_cost, eps_imax = rng.uniform(0.03, 0.15, size=2)
        cost = int(rng.integers(2, k))
        jobs += [
            _cli(f"ns-cost-{name}", ["ns-cost", "--channel", path,
                                     "--eps", repr(float(eps_cost))],
                 f"ns-cost-{name}.json"),
            _cli(f"ns-eps-{name}", ["ns-eps", "--channel", path,
                                    "--n", str(cost)],
                 f"ns-eps-{name}.json"),
            _cli(f"imax-{name}", ["imax", "--channel", path,
                                  "--eps", repr(float(eps_imax))],
                 f"imax-{name}.json"),
        ]
    # The 16x16 cost program dominates the pass; it runs once, at the
    # figure's eps, because its pivot count moves 15% with eps.
    path = _write_json(workdir, "bsc4.json",
                       _channel_json(bsc_matrix(4, BSC_DELTA)))
    jobs.append(_cli("ns-cost-bsc4", ["ns-cost", "--channel", path, "--eps",
                                      repr(BSC_EPS)], "ns-cost-bsc4.json"))
    pair = _write_json(workdir, "pair30.json",
                       {"p": _pmf(rng, 30).tolist(),
                        "q": _pmf(rng, 30, floor=0.01).tolist()})
    jobs.append(_cli("dmax-smooth-30", ["divergence", "dmax-smooth",
                                        "--channel", pair, "--eps",
                                        repr(float(rng.uniform(0.03, 0.15)))],
                     "dmax-smooth-30.json"))
    return jobs


def symmetric_matrix(size: int, diagonal: float) -> np.ndarray:
    off = (1.0 - diagonal) / (size - 1)
    return np.full((size, size), off) + np.eye(size) * (diagonal - off)


def _asymptotic(rng, workdir: str) -> list:
    jobs = []
    for k in (2, 4, 8, 16, 32):
        # Near a diagonal-heavy channel: plain Dirichlet rows make the
        # Blahut-Arimoto iteration count swing tenfold between seeds.
        rows = 0.7 * symmetric_matrix(k, 0.6 + 0.4 / k) \
            + 0.3 * rng.dirichlet(np.ones(k), size=k)
        path = _write_json(workdir, f"r{k}.json", _channel_json(rows))
        jobs.append(_cli(f"capacity-r{k}", ["capacity", "--channel", path],
                         f"capacity-r{k}.json"))
        if k in (2, 32):
            jobs.append(_cli(f"ba-trace-r{k}", ["ba-trace", "--channel", path],
                             f"ba-trace-r{k}.csv"))
    delta = float(rng.uniform(0.02, 0.3))
    bsc = np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])
    # Cyclic shifts of one pmf: a symmetric channel with a closed form.
    base = _pmf(rng, 5, floor=0.02)
    cyclic = np.array([np.roll(base, i) for i in range(5)])
    sym4 = _write_json(workdir, "sym4.json",
                       _channel_json(symmetric_matrix(4, 0.7)))
    for name, rows in (("bsc", bsc), ("cyclic5", cyclic)):
        path = _write_json(workdir, f"{name}.json", _channel_json(rows))
        jobs.append(_cli(f"capacity-{name}", ["capacity", "--channel", path],
                         f"capacity-{name}.json"))
    jobs.append(_cli("capacity-sym4", ["capacity", "--channel", sym4],
                     "capacity-sym4.json"))
    # A 3-input channel near a fixed well-conditioned one, so the grid
    # search does comparable work on every seed.
    anchor = np.array([[0.6, 0.2, 0.1, 0.1], [0.1, 0.6, 0.2, 0.1],
                       [0.1, 0.1, 0.2, 0.6]])
    rows3 = 0.7 * anchor + 0.3 * rng.dirichlet(np.ones(4), size=3)
    path = _write_json(workdir, "three.json", _channel_json(rows3))
    eps = float(rng.uniform(0.02, 0.2))
    n_lo = int(rng.integers(50, 150))
    jobs += [
        _cli("dispersion-three", ["dispersion", "--channel", path],
             "dispersion-three.json"),
        _cli("second-order-three", ["second-order", "--channel", path,
                                    "--eps", repr(eps),
                                    "--n", f"{n_lo}..{n_lo + 20}"],
             "second-order-three.json"),
        _cli("moderate-three", ["moderate", "--channel", path,
                                "--n", f"{n_lo}..{n_lo + 20}"],
             "moderate-three.json"),
    ]
    # Two inputs: with three, a binary receiver's optimum sits on the
    # boundary and the ascent's run time varies tenfold between seeds.
    for name, sizes in (("bc2", (2, 3)), ("bc3", (2, 2, 2))):
        rows = rng.dirichlet(np.ones(int(np.prod(sizes))), size=2)
        path = _write_json(workdir, f"{name}.json", _channel_json(rows, sizes))
        jobs.append(_cli(f"broadcast-region-{name}",
                         ["broadcast-region", "--channel", path],
                         f"broadcast-region-{name}.json"))
    # Every 4-input channel trips the 2M-point cap of the dispersion grid.
    jobs.append(_cli("dispersion-sym4", ["dispersion", "--channel", sym4],
                     "dispersion-sym4.json"))
    return jobs


def _monte_carlo(rng, workdir: str) -> list:
    # q = lam p + (1 - lam) v with v empty at one letter fixes
    # D_max(p || q) = -log2 lam, so every seed asks for the same number of
    # rounds per trial.
    p = _pmf(rng, 8, floor=0.02)
    v = _pmf(rng, 8, floor=0.02)
    v[int(rng.integers(8))] = 0.0
    v /= v.sum()
    q = REJECT_LAMBDA * p + (1.0 - REJECT_LAMBDA) * v
    jobs = []
    for m in (3, 8):
        path = _write_json(workdir, f"reject-m{m}.json",
                           {"p": p.tolist(), "q": q.tolist(), "m": m})
        jobs.append(_cli(f"reject-sim-m{m}",
                         ["reject-sim", "--channel", path, "--n", "100000",
                          "--seed", str(int(rng.integers(2 ** 63)))],
                         f"reject-sim-m{m}.json"))
    rows = 0.5 * rng.dirichlet(np.ones(4), size=2) + 0.125
    path = _write_json(workdir, "bc22.json", _channel_json(rows, (2, 2)))
    for lists in (2, 4):
        jobs.append({"id": f"broadcast-run-{lists}x{lists}", "kind": "lib",
                     "call": "broadcast_protocol_run",
                     "args": {"channel": path,
                              "q": _pmf(rng, 2, floor=0.2).tolist(),
                              "r": _pmf(rng, 2, floor=0.2).tolist(),
                              "m": lists, "n": lists, "trials": 10000,
                              "seed": int(rng.integers(2 ** 63))}})
    joint = _pmf(rng, 8, floor=0.02)
    cube = joint.reshape(2, 2, 2)
    path = _write_json(workdir, "convex-split.json", {
        "joint": joint.tolist(), "factor_sizes": [2, 2, 2],
        "q": cube.sum(axis=(0, 2)).tolist(), "r": cube.sum(axis=(0, 1)).tolist(),
        "m": 3, "n": 3,
        "eps_params": [0.05, 0.05, 0.05, 0.1, 0.1, 0.1]})
    jobs.append(_cli("convex-split", ["convex-split-check", "--channel", path],
                     "convex-split.json"))
    return jobs


# Each workload joins two job groups. On a shared 2-vCPU host the speed of
# pure-Python code drifts by up to 2x over tens of seconds, so the run time
# goes to fewer, longer runs: four workloads of 15 s runs, one group each,
# spread by up to 32% between runs.
WORKLOADS = {
    # The BSC path of ns_meta and dense LPs: lp, ns_meta, divergences.
    "oneshot": (_bsc_figure, _oneshot_lp),
    # Blahut-Arimoto in three uses and the protocols: no LP at all.
    "asymptotic-mc": (_asymptotic, _monte_carlo),
}


def make_jobs(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files under workdir/in and return its jobs."""
    os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    jobs = []
    for group, build in enumerate(WORKLOADS[workload]):
        jobs += build(np.random.default_rng([seed, group]), workdir)
    return jobs
