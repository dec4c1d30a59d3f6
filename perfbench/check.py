"""Check a pass's outputs against computations made apart from the program.

Usage: python3 perfbench/check.py WORKDIR

Reads WORKDIR/jobs.json, the inputs under WORKDIR/in and the outputs under
WORKDIR/out, and writes WORKDIR/check.json: a list of problems, empty when
every output passed. Jobs that failed are not checked; the worker counts
them. This process never imports channelsim. It uses numpy, scipy (HiGHS
and the normal quantile) and mpmath.

Tolerances are set from the error today's program shows against each
reference, with margin, and sit far below the perturbations the tests in
test_check.py apply.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys

import mpmath
import numpy as np
from scipy import optimize, sparse, special

# Statistical bands: each job's Monte Carlo checks together raise a false
# alarm with probability at most this.
FALSE_ALARM = 1e-9
# Worst capacity shortfall today is 6.4e-7 bits (BA stops on the increment).
CAPACITY_TOL = 1e-5


# ---------------------------------------------------------------- parsing

def parse_csv(data: bytes) -> list:
    """The data rows of a channelsim CSV as dicts of floats."""
    body = [line for line in data.decode().splitlines()
            if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO("\n".join(body)))]


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _n_range(raw: str) -> list:
    lo, _, hi = raw.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def _close(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what} {got!r} differs from {want!r} "
                        f"by {abs(got - want):.3g} > {tol:g}")


# ------------------------------------------------------ independent maths

def entropy(p) -> float:
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def row_divergences(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(W_x || q) in bits for every row."""
    pos = rows > 0.0
    ratio = np.where(pos, rows, 1.0) / np.where(pos, q[None, :], 1.0)
    return np.where(pos, rows * np.log2(ratio), 0.0).sum(axis=1)


_CAPACITIES = {}


def reference_capacity(rows: np.ndarray):
    """(lower, upper, p): the capacity lies in [lower, upper].

    lower = I(p) and upper = max_x D(W_x || pW) (Blahut's bracket). Two
    inputs are solved by bisection on D(W_0||q) - D(W_1||q), which is exact
    even for near-useless channels where the ascent crawls; more inputs run
    Blahut-Arimoto until the bracket is below 1e-12 or 100,000 steps.
    """
    key = (rows.shape, rows.tobytes())
    if key not in _CAPACITIES:
        p = _two_input_optimum(rows) if rows.shape[0] == 2 else \
            _blahut_arimoto(rows)
        d = row_divergences(rows, p @ rows)
        _CAPACITIES[key] = (float(p @ d), float(d.max()), p)
    return _CAPACITIES[key]


def _two_input_optimum(rows):
    def slope(a):
        d = row_divergences(rows, np.array([a, 1.0 - a]) @ rows)
        return d[0] - d[1]
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.array([lo, 1.0 - lo])


def _blahut_arimoto(rows, gap=1e-12, max_iter=100_000):
    p = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for _ in range(max_iter):
        d = row_divergences(rows, p @ rows)
        if d.max() - p @ d < gap:
            break
        p = p * np.exp2(d - d.max())
        p /= p.sum()
    return p


def information_variance(rows: np.ndarray, p: np.ndarray, cap: float):
    """sum_x p_x sum_y W(y|x) (log2 W(y|x)/q(y) - C)^2 at the optimum."""
    q = p @ rows
    pos = rows > 0.0
    logs = np.log2(np.where(pos, rows, 1.0) / np.where(pos, q[None, :], 1.0))
    return float((p[:, None] * np.where(pos, rows * (logs - cap) ** 2,
                                        0.0)).sum())


def spectrum_divergence(eps: float, p, q) -> float:
    """inf{a >= 0 : P_p[log2 p/q > a] < eps} by a scan of the atoms."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    on = p > 0.0
    null = float(p[on & (q == 0.0)].sum())
    if null >= eps:
        return math.inf
    both = on & (q > 0.0)
    logs = np.log2(p[both] / q[both])
    for a in sorted({0.0} | {float(v) for v in logs if v > 0.0}):
        if null + float(p[both][logs > a].sum()) < eps:
            return a
    raise AssertionError("unreachable: the largest atom always qualifies")


def bsc_classes(n: int, delta: float):
    """Class sizes C(n,k) and per-string masses w_k as mpf lists."""
    d = mpmath.mpf(delta)
    return ([mpmath.mpf(math.comb(n, k)) for k in range(n + 1)],
            [(1 - d) ** (n - k) * d ** k for k in range(n + 1)])


def bsc_log2_cost(n: int, delta: float, eps: float):
    """n + log2 s*, s* = min{s : sum_k C_k min(w_k, s) >= 1 - eps}."""
    with mpmath.workdps(40):
        counts, w = bsc_classes(n, delta)
        target = 1 - mpmath.mpf(eps)
        tail = [mpmath.mpf(0)] * (n + 2)
        for k in range(n, -1, -1):
            tail[k] = tail[k + 1] + counts[k] * w[k]
        capped = mpmath.mpf(0)
        # w_k falls with k, so the bins k < t are the capped ones.
        for t in range(1, n + 2):
            capped += counts[t - 1]
            s = (target - tail[t]) / capped
            if t == n + 1 or s >= w[t]:
                return float(n + mpmath.log(s, 2))


def bsc_deviation(n: int, delta: float, c: int) -> float:
    """max(0, 1 - G(c 2^-n)) with G(s) = sum_k C_k min(w_k, s)."""
    with mpmath.workdps(40):
        counts, w = bsc_classes(n, delta)
        s = mpmath.mpf(c) * mpmath.mpf(2) ** (-n)
        g = mpmath.fsum(ck * min(wk, s) for ck, wk in zip(counts, w))
        return float(max(mpmath.mpf(0), 1 - g))


def _highs(c, a_ub, b_ub, bounds, a_eq=None, b_eq=None) -> float:
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                           bounds=bounds, method="highs-ds",
                           options={"primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def _cap_rows(k: int, m: int):
    """Rows t_xy - zeta_y <= 0 and -sum_y t_xy <= ... over (t, zeta)."""
    cap = sparse.hstack([sparse.eye(k * m),
                         -sparse.kron(np.ones((k, 1)), sparse.eye(m))])
    mass = sparse.hstack([-sparse.kron(sparse.eye(k), np.ones((1, m))),
                          sparse.csr_matrix((k, m))])
    return cap, mass


def smooth_max_information(rows: np.ndarray, eps: float) -> float:
    """log2 min sum zeta s.t. t <= W, t <= zeta, sum_y t_xy >= 1 - eps.

    The reduced program: a row keeps t_xy = min(W, zeta) and refills the
    rest under zeta, so the W~ and TVD-slack blocks are not needed.
    """
    k, m = rows.shape
    cap, mass = _cap_rows(k, m)
    value = _highs(np.r_[np.zeros(k * m), np.ones(m)],
                   sparse.vstack([cap, mass]).tocsr(),
                   np.r_[np.zeros(k * m), np.full(k, eps - 1.0)],
                   [(0.0, w) for w in rows.ravel()] + [(0.0, None)] * m)
    return math.log2(value)


def best_deviation(rows: np.ndarray, cost: int) -> float:
    """min gamma s.t. t <= W, t <= zeta, sum zeta = c, sum_y t_xy >= 1-gamma."""
    k, m = rows.shape
    cap, mass = _cap_rows(k, m)
    a_ub = sparse.vstack([
        sparse.hstack([cap, sparse.csr_matrix((k * m, 1))]),
        sparse.hstack([mass, -np.ones((k, 1))])]).tocsr()
    a_eq = np.r_[np.zeros(k * m), np.ones(m), 0.0][None, :]
    value = _highs(np.r_[np.zeros(k * m + m), 1.0], a_ub,
                   np.r_[np.zeros(k * m), np.full(k, -1.0)],
                   [(0.0, w) for w in rows.ravel()] + [(0.0, None)] * m
                   + [(None, None)], a_eq, [float(cost)])
    return max(value, 0.0)


def smooth_max_divergence(eps: float, p, q) -> float:
    """log2 of max(1, min{m : sum_y min(p_y, m q_y) >= 1 - eps})."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    order = np.argsort(-(p / q))
    ratio, p, q = (p / q)[order], p[order], q[order]
    target = 1.0 - eps
    # With the t largest ratios capped at m: m sum(q[:t]) + sum(p[t:]).
    for t in range(1, p.size + 1):
        m = (target - p[t:].sum()) / q[:t].sum()
        if t == p.size or m >= ratio[t]:
            return math.log2(max(m, 1.0))
    raise AssertionError("unreachable")


def induced_channel(rows: np.ndarray, sizes, q, r, m: int, n: int):
    """Output law of the two-receiver index protocol, by enumeration.

    Shared lists Y_1..Y_m ~ q and Z_1..Z_n ~ r; for input x the index pair
    (j, k) is drawn with weight W(Y_j, Z_k | x) / (q(Y_j) r(Z_k)), or
    uniformly when every weight is zero, and (Y_j, Z_k) is the output.
    """
    sy, sz = sizes
    cube = rows.reshape(-1, sy, sz)
    out = np.zeros((cube.shape[0], sy * sz))
    for ys in itertools.product(range(sy), repeat=m):
        for zs in itertools.product(range(sz), repeat=n):
            prob = np.prod(q[list(ys)]) * np.prod(r[list(zs)])
            for x in range(cube.shape[0]):
                weights = np.array([[cube[x, y, z] / (q[y] * r[z])
                                     for z in zs] for y in ys])
                total = weights.sum()
                post = weights / total if total > 0.0 else \
                    np.full((m, n), 1.0 / (m * n))
                for j, k in itertools.product(range(m), range(n)):
                    out[x, ys[j] * sz + zs[k]] += prob * post[j, k]
    return out


def binomial_band(trials: int, prob: float, alpha: float) -> float:
    """Bernstein: |X - N p| exceeds this with probability at most alpha."""
    log_term = math.log(2.0 / alpha)
    var = trials * prob * (1.0 - prob)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2
                                      + 2.0 * var * log_term)


def tvd_band(trials: int, letters: int, alpha: float) -> float:
    """Empirical-vs-true TVD exceeds this with probability at most alpha.

    Weissman et al. (2003): P(||P_hat - P||_1 >= e) <= (2^K - 2) exp(-N e^2/2).
    """
    log_terms = math.log(2.0 ** letters - 2.0) + math.log(1.0 / alpha)
    return 0.5 * math.sqrt(2.0 * log_terms / trials)


# ------------------------------------------------------------ per-job checks

class Inputs:
    def __init__(self, workdir: str):
        self.workdir = workdir

    def json(self, rel: str):
        with open(os.path.join(self.workdir, rel), encoding="utf-8") as fh:
            return json.load(fh)

    def rows(self, rel: str) -> np.ndarray:
        return np.asarray(self.json(rel)["rows"], dtype=np.float64)


def check_bsc_curve(job, data, inputs):
    problems = []
    argv = job["argv"]
    delta, eps = float(_flag(argv, "--delta")), float(_flag(argv, "--eps"))
    rows = parse_csv(data)
    ns = _n_range(_flag(argv, "--n"))
    if [int(r["n"]) for r in rows] != ns:
        return ["rows do not cover --n in order"]
    cap = 1.0 - entropy([delta, 1.0 - delta])
    v = delta * (1.0 - delta) * math.log2((1.0 - delta) / delta) ** 2
    for row in rows:
        n = int(row["n"])
        # _TAIL_PIN in the program costs up to about 3e-7 bits today.
        _close(problems, f"n={n} log2_ns_cost", row["log2_ns_cost"],
               bsc_log2_cost(n, delta, eps), 2e-6)
        _close(problems, f"n={n} log2_ns_cost_per_n",
               row["log2_ns_cost_per_n"], row["log2_ns_cost"] / n, 1e-15)
        _close(problems, f"n={n} capacity", row["capacity"], cap, 1e-9)
        _close(problems, f"n={n} simulation_second_order_per_n",
               row["simulation_second_order_per_n"],
               cap + math.sqrt(v / n) * special.ndtri(1.0 - eps), 1e-8)
        _close(problems, f"n={n} coding_second_order_per_n",
               row["coding_second_order_per_n"],
               cap + math.sqrt(v / n) * special.ndtri(eps), 1e-8)
    return problems


def check_bsc_ns_eps(job, data, inputs):
    a = job["args"]
    problems = []
    _close(problems, "eps", json.loads(data)["eps"],
           bsc_deviation(a["n"], a["delta"], a["c"]), 1e-9)
    return problems


def _check_cost(problems, rows, eps, i_max_eps, cost):
    _close(problems, "i_max_eps", i_max_eps,
           smooth_max_information(rows, eps), 1e-7)
    # The program snaps 2^i_max_eps to an integer within 1e-9 first.
    value = 2.0 ** i_max_eps
    if not value - 1e-9 <= cost < value + 1.0 - 1e-9:
        problems.append(f"cost {cost} is not ceil(2^{i_max_eps!r})")
    reached = best_deviation(rows, cost)
    if reached > eps + 1e-9:
        problems.append(f"deviation {reached!r} at cost {cost} exceeds {eps}")


def check_ns_cost(job, data, inputs):
    out = json.loads(data)
    problems = []
    _check_cost(problems, inputs.rows(_flag(job["argv"], "--channel")),
                float(_flag(job["argv"], "--eps")), out["i_max_eps"],
                out["cost"])
    return problems


def check_ns_eps(job, data, inputs):
    problems = []
    rows = inputs.rows(_flag(job["argv"], "--channel"))
    _close(problems, "eps", json.loads(data)["eps"],
           best_deviation(rows, int(_flag(job["argv"], "--n"))), 1e-9)
    return problems


def check_imax(job, data, inputs):
    problems = []
    rows = inputs.rows(_flag(job["argv"], "--channel"))
    _close(problems, "bits", json.loads(data)["bits"],
           smooth_max_information(rows, float(_flag(job["argv"], "--eps"))),
           1e-7)
    return problems


def check_divergence(job, data, inputs):
    problems = []
    pair = inputs.json(_flag(job["argv"], "--channel"))
    _close(problems, "bits", json.loads(data)["bits"],
           smooth_max_divergence(float(_flag(job["argv"], "--eps")),
                                 pair["p"], pair["q"]), 1e-9)
    return problems


def _closed_form_capacity(rows: np.ndarray):
    """log2|Y| - H(row) when every row and column is a permutation of one."""
    first = np.sort(rows[0])
    same = all(np.array_equal(np.sort(r), first) for r in rows) and all(
        np.array_equal(np.sort(c), np.sort(rows[:, 0])) for c in rows.T)
    if rows.shape[0] == rows.shape[1] and same:
        return math.log2(rows.shape[1]) - entropy(rows[0])
    return None


def _check_capacity_value(problems, what, got, rows, below):
    """got must lie in [C* - below, C*] and within CAPACITY_TOL of C*."""
    lower, upper, _ = reference_capacity(rows)
    width = upper - lower
    closed = _closed_form_capacity(rows)
    if closed is not None:
        _close(problems, "reference capacity vs closed form", lower, closed,
               width + 1e-11)
    if not lower - below - 1e-12 <= got <= upper + 1e-12:
        problems.append(f"{what} {got!r} outside "
                        f"[{lower - below!r}, {upper!r}]")
    _close(problems, what, got, lower, CAPACITY_TOL + width)


def check_capacity(job, data, inputs):
    out = json.loads(data)
    problems = []
    rows = inputs.rows(_flag(job["argv"], "--channel"))
    _check_capacity_value(problems, "capacity_bits", out["capacity_bits"],
                          rows, out["final_bound"])
    _close(problems, "final_bound", out["final_bound"],
           math.log2(rows.shape[0]) / out["iterations"], 1e-15)
    return problems


def check_ba_trace(job, data, inputs):
    problems = []
    rows = inputs.rows(_flag(job["argv"], "--channel"))
    trace = parse_csv(data)
    steps = [int(r["iteration"]) for r in trace]
    if steps != list(range(1, len(trace) + 1)):
        return ["iterations are not 1, 2, ..."]
    est = np.array([r["estimate"] for r in trace])
    if np.any(np.diff(est) < -1e-15):
        problems.append("estimates decrease")
    for r in trace:
        _close(problems, f"bound at {int(r['iteration'])}", r["bound"],
               math.log2(rows.shape[0]) / r["iteration"], 1e-15)
    _check_capacity_value(problems, "final estimate", float(est[-1]), rows,
                          trace[-1]["bound"])
    return problems


def _dispersion_reference(rows):
    cap, _, p = reference_capacity(rows)
    return cap, p, information_variance(rows, p, cap)


def check_dispersion(job, data, inputs):
    out = json.loads(data)
    problems = []
    rows = inputs.rows(_flag(job["argv"], "--channel"))
    cap, p, v = _dispersion_reference(rows)
    _close(problems, "capacity_bits", out["capacity_bits"], cap, 1e-9)
    for key in ("v_min", "v_max"):
        _close(problems, key, out[key], v, 1e-6 * max(1.0, v))
    for got in out["capacity_achieving_inputs"]:
        _close(problems, "capacity-achieving input",
               float(np.abs(np.asarray(got) - p).max()), 0.0, 1e-4)
    return problems


def check_second_order(job, data, inputs):
    out = json.loads(data)
    problems = []
    argv = job["argv"]
    eps = float(_flag(argv, "--eps"))
    cap, _, v = _dispersion_reference(inputs.rows(_flag(argv, "--channel")))
    _close(problems, "capacity_bits", out["capacity_bits"], cap, 1e-9)
    if [r["n"] for r in out["rows"]] != _n_range(_flag(argv, "--n")):
        problems.append("rows do not cover --n in order")
    for r in out["rows"]:
        n = r["n"]
        spread = math.sqrt(n * v)
        tol = 1e-8 * n + 1e-6 * spread
        _close(problems, f"n={n} simulation_bits", r["simulation_bits"],
               n * cap + spread * special.ndtri(1.0 - eps), tol)
        _close(problems, f"n={n} coding_bits", r["coding_bits"],
               n * cap + spread * special.ndtri(eps), tol)
    return problems


def check_moderate(job, data, inputs):
    out = json.loads(data)
    problems = []
    argv = job["argv"]
    cap, _, v = _dispersion_reference(inputs.rows(_flag(argv, "--channel")))
    if [r["n"] for r in out["rows"]] != _n_range(_flag(argv, "--n")):
        problems.append("rows do not cover --n in order")
    for r in out["rows"]:
        n = r["n"]
        a_n = n ** (-1.0 / 3.0)
        shift = math.sqrt(2.0 * v) * a_n
        want = {"a_n": a_n, "eps_n": 2.0 ** (-n * a_n * a_n),
                "simulation_at_eps": cap + shift,
                "simulation_at_complement": cap - shift,
                "coding_at_eps": cap - shift,
                "coding_at_complement": cap + shift}
        for key, value in want.items():
            _close(problems, f"n={n} {key}", r[key], value, 1e-8)
    return problems


def _marginal_rows(rows, sizes, keep):
    cube = rows.reshape((rows.shape[0],) + tuple(sizes))
    drop = tuple(1 + i for i in range(len(sizes)) if i not in keep)
    return cube.sum(axis=drop).reshape(rows.shape[0], -1)


def _multipartite_information(rows, sizes, keep, p):
    """H(X) + sum_i H(Y_i) - H(X, Y_J) under input p."""
    joint = p[:, None] * _marginal_rows(rows, sizes, keep)
    outs = sum(entropy(p @ _marginal_rows(rows, sizes, (i,))) for i in keep)
    return entropy(p) + outs - entropy(joint.ravel())


def check_broadcast_region(job, data, inputs):
    out = json.loads(data)
    problems = []
    channel = inputs.json(_flag(job["argv"], "--channel"))
    rows, sizes = np.asarray(channel["rows"], float), channel["output_sizes"]
    k = len(sizes)
    got = {tuple(c["subset"]): c["bits"] for c in out["constraints"]}
    subsets = [tuple(s) for size in range(1, k + 1)
               for s in itertools.combinations(range(1, k + 1), size)]
    if out["num_receivers"] != k or sorted(got) != sorted(subsets):
        return ["constraints do not cover every receiver subset"]
    uniform = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for subset, bits in got.items():
        keep = tuple(i - 1 for i in subset)
        if len(subset) == 1:
            _check_capacity_value(problems, f"c{subset}", bits,
                                  _marginal_rows(rows, sizes, keep), 1.0)
        at_uniform = _multipartite_information(rows, sizes, keep, uniform)
        if bits < at_uniform - 1e-12:
            problems.append(f"c{subset} {bits!r} is below its value "
                            f"{at_uniform!r} at the uniform input")
        for other, other_bits in got.items():
            if set(subset) < set(other) and other_bits < bits - 1e-6:
                problems.append(f"c{other} {other_bits!r} < c{subset} "
                                f"{bits!r}: not monotone in the subset")
    if k == 2:
        c1, c2, c12 = got[(1,)], got[(2,)], got[(1, 2)]
        want = [[c1, max(c2, c12 - c1)]]
        second = [max(c1, c12 - c2), c2]
        if max(abs(a - b) for a, b in zip(second, want[0])) > 1e-12:
            want.append(second)
        if out["corners"] != want:
            problems.append(f"corners {out['corners']} differ from {want}")
    return problems


def check_reject_sim(job, data, inputs):
    out = json.loads(data)
    problems = []
    inst = inputs.json(_flag(job["argv"], "--channel"))
    p, q, m = np.asarray(inst["p"]), np.asarray(inst["q"]), inst["m"]
    trials = int(_flag(job["argv"], "--n"))
    lam = float((q[p > 0] / p[p > 0]).min())
    rho = (1.0 - lam) ** m
    marginal = (1.0 - rho) * p + rho * (q - lam * p) / (1.0 - lam)
    _close(problems, "tvd_exact", out["tvd_exact"],
           0.5 * float(np.abs(marginal - p).sum()), 1e-12)
    _close(problems, "bound", out["bound"], rho, 1e-12)
    if out["tvd_exact"] > out["bound"] + 1e-15:
        problems.append("tvd_exact exceeds bound")
    if out["trials"] != trials or out["seed"] != int(_flag(job["argv"],
                                                          "--seed")):
        problems.append("trials or seed not echoed")
    acc = out["accept_counts"]
    if len(acc) != m or sum(acc) > trials or min(acc) < 0:
        return problems + [f"accept_counts {acc} malformed"]
    alpha = FALSE_ALARM / (m + 2)
    for j, count in enumerate(acc):
        prob = lam * (1.0 - lam) ** j
        if abs(count - trials * prob) > binomial_band(trials, prob, alpha):
            problems.append(f"round {j + 1} accepted {count} times, "
                            f"expected {trials * prob:.0f}")
    rejects = trials - sum(acc)
    if abs(rejects - trials * rho) > binomial_band(trials, rho, alpha):
        problems.append(f"{rejects} rejections, expected {trials * rho:.0f}")
    band = tvd_band(trials, p.size, alpha)
    if not 0.0 <= out["empirical_tvd_to_exact"] <= band:
        problems.append(f"empirical_tvd_to_exact "
                        f"{out['empirical_tvd_to_exact']!r} outside [0, {band:.4g}]")
    return problems


def check_broadcast_run(job, data, inputs):
    out = json.loads(data)
    problems = []
    a = job["args"]
    channel = inputs.json(a["channel"])
    rows = np.asarray(channel["rows"], float)
    q, r = np.asarray(a["q"]), np.asarray(a["r"])
    exact = induced_channel(rows, channel["output_sizes"], q, r, a["m"],
                            a["n"])
    got = np.asarray(out["exact"])
    _close(problems, "exact channel", float(np.abs(got - exact).max()), 0.0,
           1e-12)
    _close(problems, "worst_tvd", out["worst_tvd"],
           0.5 * float(np.abs(exact - rows).sum(axis=1).max()), 1e-12)
    counts = np.asarray(out["counts"])
    trials = a["trials"]
    if counts.shape != exact.shape or np.any(counts.sum(axis=1) != trials):
        return problems + ["each input row must hold exactly `trials` samples"]
    alpha = FALSE_ALARM / counts.size
    for (x, cell), count in np.ndenumerate(counts):
        prob = exact[x, cell]
        if abs(count - trials * prob) > binomial_band(trials, prob, alpha):
            problems.append(f"cell ({x}, {cell}) holds {count}, expected "
                            f"{trials * prob:.0f}")
    return problems


def check_convex_split(job, data, inputs):
    out = json.loads(data)
    problems = []
    inst = inputs.json(_flag(job["argv"], "--channel"))
    sizes = inst["factor_sizes"]
    cube = np.asarray(inst["joint"]).reshape(sizes)
    q, r, m, n = np.asarray(inst["q"]), np.asarray(inst["r"]), inst["m"], \
        inst["n"]
    e1, e2, e3, d1, d2, d3 = inst["eps_params"]
    p_x = cube.sum(axis=(1, 2))
    mix = 0.0
    for x in range(sizes[0]):
        for ys in itertools.product(range(sizes[1]), repeat=m):
            for zs in itertools.product(range(sizes[2]), repeat=n):
                qs, rs = q[list(ys)], r[list(zs)]
                product = p_x[x] * np.prod(qs) * np.prod(rs)
                planted = sum(cube[x, ys[j], zs[k]]
                              * np.prod(np.delete(qs, j))
                              * np.prod(np.delete(rs, k))
                              for j in range(m) for k in range(n)) / (m * n)
                mix += abs(planted - product)
    _close(problems, "tvd_exact", out["tvd_exact"], 0.5 * mix, 1e-12)
    bound = e1 + e2 + e3 + math.sqrt(d1 ** 2 + d2 ** 2 + d3 ** 2)
    _close(problems, "bound", out["bound"], bound, 1e-15)
    thresholds = (
        spectrum_divergence(e1, cube.sum(axis=2).ravel(),
                            np.outer(p_x, q).ravel()),
        spectrum_divergence(e2, cube.sum(axis=1).ravel(),
                            np.outer(p_x, r).ravel()),
        spectrum_divergence(e3, cube.ravel(),
                            np.einsum("a,b,c->abc", p_x, q, r).ravel()))
    for i, (got, want) in enumerate(zip(out["thresholds_bits"], thresholds)):
        _close(problems, f"threshold {i + 1}", got, want, 1e-12)
    holds = (all(0.0 < v < 1.0 for v in (e1, e2, e3, d1, d2, d3))
             and bound < 1.0
             and math.log2(m) >= thresholds[0] - 2 * math.log2(d1) - 1e-12
             and math.log2(n) >= thresholds[1] - 2 * math.log2(d2) - 1e-12
             and math.log2(m * n) >= thresholds[2] - 2 * math.log2(d3) - 1e-12)
    if out["holds"] != holds:
        problems.append(f"holds is {out['holds']}, hypotheses give {holds}")
    if holds and out["tvd_exact"] > bound:
        problems.append("the lemma's bound is violated")
    return problems


CHECKS = {
    "bsc-curve": check_bsc_curve,
    "bsc_ns_eps": check_bsc_ns_eps,
    "ns-cost": check_ns_cost,
    "ns-eps": check_ns_eps,
    "imax": check_imax,
    "divergence": check_divergence,
    "capacity": check_capacity,
    "ba-trace": check_ba_trace,
    "dispersion": check_dispersion,
    "second-order": check_second_order,
    "moderate": check_moderate,
    "broadcast-region": check_broadcast_region,
    "reject-sim": check_reject_sim,
    "broadcast_protocol_run": check_broadcast_run,
    "convex-split-check": check_convex_split,
}


def _command(job) -> str:
    return job["argv"][0] if job["kind"] == "cli" else job["call"]


# ------------------------------------------------------- cross-job checks

def check_directions(jobs, outputs) -> list:
    """The cost and deviation directions must agree on the same channel.

    For a deviation job at cost c and a cost job at eps on the same input,
    with log2 cost L before rounding up: c above 2^L gives a deviation of
    at most eps, and c below it gives more than eps.
    """
    problems = []
    costs = {}    # input -> list of (log2 cost, eps)
    for job in jobs:
        data = outputs.get(job["id"])
        if data is None:
            continue
        cmd = _command(job)
        if cmd == "bsc-curve":
            eps = float(_flag(job["argv"], "--eps"))
            for row in parse_csv(data):
                costs.setdefault(("bsc", int(row["n"])), []).append(
                    (row["log2_ns_cost"], eps))
        elif cmd == "ns-cost":
            costs.setdefault(_flag(job["argv"], "--channel"), []).append(
                (json.loads(data)["i_max_eps"],
                 float(_flag(job["argv"], "--eps"))))
    for job in jobs:
        data = outputs.get(job["id"])
        cmd = _command(job) if data is not None else None
        if cmd == "bsc_ns_eps":
            key, c = ("bsc", job["args"]["n"]), job["args"]["c"]
        elif cmd == "ns-eps":
            key, c = _flag(job["argv"], "--channel"), int(_flag(job["argv"],
                                                                "--n"))
        else:
            continue
        got = json.loads(data)["eps"]
        for log2_cost, eps in costs.get(key, ()):
            if math.log2(c) >= log2_cost + 1e-6 and got > eps + 1e-9:
                problems.append(f"{job['id']}: eps {got!r} at cost {c} above "
                                f"the cost 2^{log2_cost!r} for eps {eps}")
            if math.log2(c) <= log2_cost - 1e-6 and got <= eps - 1e-9:
                problems.append(f"{job['id']}: eps {got!r} at cost {c} below "
                                f"the cost 2^{log2_cost!r} for eps {eps}")
    return problems


def check_outputs(jobs, outputs, workdir) -> list:
    """All problems found in the outputs of one pass.

    outputs maps job id to output bytes; jobs that failed are left out.
    """
    inputs = Inputs(workdir)
    problems = []
    for job in jobs:
        if job["id"] in outputs:
            problems += [f"{job['id']}: {p}" for p in
                         CHECKS[_command(job)](job, outputs[job["id"]],
                                               inputs)]
    return problems + check_directions(jobs, outputs)


def main(argv) -> int:
    workdir = argv[0]
    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    with open(os.path.join(workdir, "worker.json"), encoding="utf-8") as fh:
        failed = set(json.load(fh)["failed_jobs"])
    outputs = {}
    for job in jobs:
        if job["id"] not in failed:
            with open(os.path.join(workdir, "out", job["id"]), "rb") as fh:
                outputs[job["id"]] = fh.read()
    with open(os.path.join(workdir, "check.json"), "w", encoding="utf-8") as fh:
        json.dump(check_outputs(jobs, outputs, workdir), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
