"""Self-contained property battery behind the `verify` subcommand.

Each check re-derives a handful of invariants on freshly drawn random
instances and returns (name, passed, detail) triples. The battery is a
smoke screen, not the full test suite: it runs in seconds and touches
every module once, so a broken install or a miscompiled dependency
surfaces immediately. The pytest suite is the authoritative gate.
"""

from __future__ import annotations

import math

import numpy as np

from . import (asymptotics, broadcast, divergences, lp, ns_meta, prob,
               protocols)

_SLACK = 1e-7


def _random_pmf(rng, size, floor=0.0):
    v = rng.random(size) + floor
    return v / v.sum()


def _random_channel(rng, k, m, floor=0.0):
    rows = rng.random((k, m)) + floor
    return prob.Dmc(rows=rows / rows.sum(axis=1, keepdims=True))


def check_rejection_marginal(seed):
    """Exact residual law: tvd(p, p~) <= (1 - lam)^M, plus the index law."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        size = int(rng.integers(2, 6))
        q = prob.Pmf(_random_pmf(rng, size, floor=0.05))
        p = prob.Pmf(_random_pmf(rng, size))
        m = int(rng.integers(1, 33))
        plan = protocols.RejectionPlan.build(p, q, m)
        marg, rho = protocols.rejection_exact_marginal(plan)
        if prob.tvd(marg, p) > (1.0 - plan.lam) ** m + 1e-12:
            return False, f"residual bound violated at M={m}"
        if abs(rho - (1.0 - plan.lam) ** m) > 1e-12:
            return False, "reject probability off the geometric law"
    return True, "30 random plans"


def check_rejection_sampler(seed):
    """Monte Carlo path agrees with the exact marginal within the DKW band."""
    rng = np.random.default_rng(seed)
    q = prob.Pmf(_random_pmf(rng, 4, floor=0.1))
    p = prob.Pmf(_random_pmf(rng, 4))
    plan = protocols.RejectionPlan.build(p, q, 8)
    marg, _ = protocols.rejection_exact_marginal(plan)
    trials = 20000
    run = protocols.rejection_sample_run(plan, protocols.RngStream(seed),
                                         trials)
    band = 3.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * trials))
    gap = prob.tvd(run.empirical, marg)
    if gap > band:
        return False, f"empirical law {gap:.4f} outside DKW band {band:.4f}"
    rerun = protocols.rejection_sample_run(plan, protocols.RngStream(seed),
                                           trials)
    if not np.array_equal(run.empirical.probs, rerun.empirical.probs):
        return False, "fixed seed did not reproduce"
    return True, f"gap {gap:.4f} within band {band:.4f}"


def check_divergence_sandwich(seed):
    """Quantile sandwich around the testing divergence on random pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        size = int(rng.integers(2, 7))
        p = _random_pmf(rng, size)
        q = _random_pmf(rng, size, floor=0.02)
        eps = float(rng.uniform(0.05, 0.6))
        delta = float(rng.uniform(0.02, min(0.3, 1.0 - eps - 0.02)))
        dh = divergences.d_h(eps, p, q)
        lo = divergences.d_s_plus(1.0 - eps, p, q)
        hi = (divergences.d_s_plus(1.0 - eps - delta, p, q)
              - math.log2(delta))
        if not (lo - _SLACK <= dh <= hi + _SLACK):
            return False, f"sandwich broken: {lo} <= {dh} <= {hi}"
    return True, "30 random pairs"


def check_smooth_dmax_vs_beta(seed):
    """Smoothed max divergence against the testing lower bound."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        size = int(rng.integers(2, 7))
        p = _random_pmf(rng, size)
        q = _random_pmf(rng, size, floor=0.02)
        eps = float(rng.uniform(0.05, 0.5))
        delta = float(rng.uniform(0.02, min(0.3, 1.0 - eps - 0.02)))
        lhs = divergences.d_max_smooth(eps, p, q)
        beta = divergences.beta_star(1.0 - eps - delta, p, q)
        rhs = -math.log2(beta) + math.log2(delta) if beta > 0 else -math.inf
        if lhs < rhs - _SLACK:
            return False, f"lower bound broken: {lhs} < {rhs}"
    return True, "30 random pairs"


def check_channel_smoothing(seed):
    """The channel divergences against a fixed reference q, and the
    explicit witness between them.

    The witness is feasible for the smoothed max-divergence, so it sits
    below log2(2^a + 1) with a the spectrum threshold at eps. And a row
    within eps of W(.|x) under 2^lam q keeps W(.|x) above 2^lam q / delta
    on mass at most eps / (1 - delta) < eps + delta, so
    D_s+^{eps+delta} + log2 delta is a lower end.
    """
    rng = np.random.default_rng(seed)
    for _ in range(30):
        w = _random_channel(rng, int(rng.integers(2, 7)),
                            int(rng.integers(2, 7)))
        q = _random_pmf(rng, w.rows.shape[1], floor=0.02)
        eps = float(rng.uniform(0.02, 0.6))
        delta = float(rng.uniform(0.02, min(0.3, 1.0 - eps - 0.02)))
        hat, a, eps_x = ns_meta.smoothing_witness(w, q, eps)
        moved = 0.5 * np.abs(hat - w.rows).sum(axis=1)
        if (np.abs(hat.sum(axis=1) - 1.0).max() > 1e-12
                or np.any(moved > eps_x + 1e-12) or eps_x.max() > eps + 1e-12
                or np.any(hat > (2.0 ** a + 1.0) * q + 1e-12)):
            return False, f"witness off at eps={eps}"
        got = ns_meta.channel_d_max_smooth(w, q, eps)
        lo = ns_meta.d_s_plus_channel(w, q, eps + delta) + math.log2(delta)
        hi = math.log2(2.0 ** ns_meta.d_s_plus_channel(w, q, eps) + 1.0)
        if not (lo - _SLACK <= got <= hi + _SLACK):
            return False, f"sandwich broken: {lo} <= {got} <= {hi}"
    return True, "30 random channels"


def check_ns_cost(seed):
    """LP cost equals the ceiling of the smoothed max-information."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        w = _random_channel(rng, int(rng.integers(2, 5)),
                            int(rng.integers(2, 5)))
        eps = float(rng.choice([0.01, 0.2]))
        got = ns_meta.ns_cost(w, eps)
        want = math.ceil(2.0 ** got.i_max_eps - 1e-9)
        if got.cost != max(want, 1):
            return False, f"cost {got.cost} vs ceil {want}"
        shift = prob.channel_tvd(prob.Dmc(rows=got.w_tilde), w)
        if shift > eps + 1e-8:
            return False, f"witness moved {shift} > eps {eps}"
        if np.any(got.w_tilde > got.zeta[None, :] + 1e-9):
            return False, "witness exceeds its cap"
    return True, "10 random channels"


def check_flat_ns(seed):
    """Flat closed form against the reduced LP on symmetric channels."""
    rng = np.random.default_rng(seed)
    for _ in range(4):
        m = int(rng.integers(3, 7))
        base = rng.dirichlet(np.ones(m))
        rows = np.array([np.roll(base, i) for i in range(m)])
        peak = rows.max(axis=0).sum()
        for eps in (0.02, 0.2):
            got = 2.0 ** ns_meta.i_max_smooth(rows, eps).value
            sol = lp.solve_lp(ns_meta._reduced_program(rows, eps=eps))
            # The LP maximizes sum s, the mass removed from sum M, so its
            # value is -sum s and sum zeta = sum M + value.
            want = peak + sol.value
            if sol.status != "optimal" or abs(got - want) > 1e-9:
                return False, f"cost {got} vs LP {want} at m={m}"
        cost = int(rng.integers(2, m + 1))
        got = ns_meta.ns_eps_for_cost(rows, cost).eps
        sol = lp.solve_lp(ns_meta._reduced_program(rows, cost=cost))
        if sol.status != "optimal" or abs(got - max(sol.value, 0.0)) > 1e-9:
            return False, f"deviation {got} vs LP {sol.value} at m={m}"
    return True, "4 random circulant channels"


def check_bsc_classes(seed):
    """BSC classes against the dense letters, the smoothed max-divergence
    kernel's two kinds of atom, and for n <= 3 against the LP."""
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        delta = float(rng.uniform(0.02, 0.5))
        w = ns_meta.bsc_channel(n, delta)
        for eps in (0.0, *rng.uniform([0.0, 0.5], [0.5, 0.95])):
            got = ns_meta.bsc_ns_cost(n, delta, eps).log2_cost
            wants = [ns_meta.i_max_smooth(w, eps).value]
            if n <= 3:
                wants.append(ns_meta._solve_reduced_lp(w.rows, "imax",
                                                       eps=eps)[0])
            if any(abs(got - want) > 1e-9 for want in wants):
                return False, f"classes {got} vs routes {wants} at n={n}"
    return True, "n <= 6 against the dense route, n <= 3 against the LP"


def check_capacity(_seed):
    """Iterative capacity against two closed forms."""
    got = asymptotics.capacity_ba(prob.Dmc.bsc(0.1)).value
    want = 1.0 + 0.1 * math.log2(0.1) + 0.9 * math.log2(0.9)
    if abs(got - want) > 1e-6:
        return False, f"bsc capacity {got} vs {want}"
    tern = prob.Dmc(rows=(np.ones((3, 3)) - np.eye(3)) / 2.0)
    got3 = asymptotics.capacity_ba(tern).value
    if abs(got3 - math.log2(3.0 / 2.0)) > 1e-6:
        return False, f"ternary capacity {got3}"
    return True, "bsc and ternary closed forms"


def check_quantile(_seed):
    """Normal quantile inverts the cdf across the working range.

    Checked on the smaller tail min(eps, 1 - eps), relative to it, so the
    deep-tail points test the quantile where an absolute bound sees nothing.
    Above 1/2 the tail is Phi(-x), so a quantile of the wrong sign fails.
    """
    points = (1e-100, 1e-12, 1e-6, 0.01, 0.05, 0.3, 0.5, 0.7, 0.95,
              1.0 - 1e-6, 1.0 - 1e-12)
    for eps in points:
        x = asymptotics.inv_normal_cdf(eps)
        tail = min(eps, 1.0 - eps)
        y = asymptotics.normal_cdf(x if eps <= 0.5 else -x)
        if abs(y - tail) > 1e-12 * tail:
            return False, f"round trip failed at {eps}"
    return True, f"{len(points)} quantile round trips"


def check_bracket(_seed):
    """Bracket endpoints stay ordered for every admissible slack."""
    for delta in np.linspace(1e-4, 0.5, 40):
        lo, hi = asymptotics.cs_cc_bracket(10.0, 10.0, float(delta))
        if lo > hi:
            return False, f"bracket inverted at delta={delta}"
    return True, "40 slack values"


def check_convex_split(seed):
    """Hypothesis-satisfying splits keep the exact TVD under the bound."""
    rng = np.random.default_rng(seed)
    done = 0
    for trial in range(20):
        mn = 3 + trial % 2
        px = _random_pmf(rng, 2, floor=0.3)
        qv = _random_pmf(rng, 2, floor=0.3)
        rv = _random_pmf(rng, 2, floor=0.3)
        cube = np.einsum("a,b,c->abc", px, qv, rv)
        cube = cube * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, cube.shape))
        cube /= cube.sum()
        joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 2, 2))
        p_x = cube.sum(axis=(1, 2))
        t1 = divergences.d_s_plus(0.02, cube.sum(axis=2).reshape(-1),
                                  np.outer(p_x, qv).reshape(-1))
        t2 = divergences.d_s_plus(0.02, cube.sum(axis=1).reshape(-1),
                                  np.outer(p_x, rv).reshape(-1))
        t3 = divergences.d_s_plus(
            0.02, cube.reshape(-1),
            np.einsum("a,b,c->abc", p_x, qv, rv).reshape(-1))
        pars = protocols.ConvexSplitParams(
            0.02, 0.02, 0.02,
            math.sqrt(2.0 ** t1 / mn) * 1.0005,
            math.sqrt(2.0 ** t2 / mn) * 1.0005,
            math.sqrt(2.0 ** t3 / (mn * mn)) * 1.0005)
        rep = protocols.convex_split_check(joint, prob.Pmf(qv), prob.Pmf(rv),
                                           mn, mn, pars)
        if not rep.hypotheses_hold:
            continue
        done += 1
        if rep.tvd > rep.bound + 1e-12:
            return False, f"tvd {rep.tvd} above bound {rep.bound}"
    if done < 10:
        return False, f"only {done} hypothesis-satisfying instances"
    return True, f"{done} instances"


def check_broadcast_routes(seed):
    """Type-sum and scatter induced-channel computations coincide."""
    rng = np.random.default_rng(seed)
    for trial in range(4):
        mn = 2 + trial % 2
        w = prob.BroadcastDmc(
            rows=_random_channel(rng, 2, 4).rows, output_sizes=(2, 2))
        q = prob.Pmf(_random_pmf(rng, 2, floor=0.2))
        r = prob.Pmf(_random_pmf(rng, 2, floor=0.2))
        a = protocols.induced_channel_types(w, q, r, mn, mn)
        b = protocols.induced_channel_scatter(w, q, r, mn, mn)
        gap = prob.channel_tvd(
            prob.BroadcastDmc(rows=a, output_sizes=(2, 2)),
            prob.BroadcastDmc(rows=b, output_sizes=(2, 2)))
        if gap > 1e-12:
            return False, f"routes disagree by {gap}"
    return True, "4 instances, types against scatter"


def _two_input_threshold(cube):
    """max_p I(X : Y_1; ..; Y_k) for a two-input channel cube W[x, y_1, ..].

    The objective is concave in p = (a, 1 - a) with slope D(W_0 || Q) -
    D(W_1 || Q), Q the product of the output marginals under p, so a
    bisection on the sign of that slope finds the maximizing a.
    """
    def divergences(a):
        out = a * cube[0] + (1.0 - a) * cube[1]
        ref = np.ones(())
        for axis in range(out.ndim):
            others = tuple(i for i in range(out.ndim) if i != axis)
            ref = np.multiply.outer(ref, out.sum(axis=others))
        return np.array([(row * np.log2(row / ref)).sum() for row in cube])

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d = divergences(mid)
        lo, hi = (mid, hi) if d[0] > d[1] else (lo, mid)
    a = 0.5 * (lo + hi)
    return float(np.array([a, 1.0 - a]) @ divergences(a))


def check_region(_seed):
    """Two-receiver region invariants on a degraded pair.

    Each constraint must match a bisection on D(W_0 || Q) - D(W_1 || Q)
    within 1e-10 bits.
    """
    inner = prob.Dmc.bsc(0.3)
    outer = prob.Dmc(rows=inner.rows @ inner.rows)
    cube = np.einsum("xy,xz->xyz", inner.rows, outer.rows)
    w = prob.BroadcastDmc(rows=cube.reshape(2, 4), output_sizes=(2, 2))
    region = broadcast.rate_region(w)
    for sub, got in region.constraints.items():
        drop = tuple(1 + i for i in range(2) if i not in sub)
        want = _two_input_threshold(cube.sum(axis=drop))
        if abs(got - want) > 1e-10:
            return False, f"constraint {sorted(sub)}: {got} vs {want}"
    sumc = region.constraints[frozenset({0, 1})]
    for sub in (frozenset({0}), frozenset({1})):
        if region.constraints[sub] > sumc + 1e-9:
            return False, "single-receiver cap above the joint cap"
    if broadcast.region_contains(region, (0.0, 0.0)):
        return False, "origin inside a positive-cost region"
    if not broadcast.region_contains(region, (sumc, sumc)):
        return False, "dominating point excluded"
    corners = broadcast.region_corners_k2(region)
    for c in corners:
        if not broadcast.region_contains(region, c):
            return False, f"corner {c} excluded"
    return True, (f"{len(region.constraints)} constraints match bisection, "
                  f"{len(corners)} corners inside")


def check_channel_roundtrip(seed):
    """JSON serialization reproduces channels bit for bit."""
    rng = np.random.default_rng(seed)
    w = _random_channel(rng, 3, 4)
    back = prob.channel_from_json(prob.channel_to_json(w))
    if not np.array_equal(back.rows, w.rows):
        return False, "point-to-point round trip not bit-identical"
    bw = prob.BroadcastDmc(rows=_random_channel(rng, 2, 6).rows,
                           output_sizes=(2, 3))
    back2 = prob.channel_from_json(prob.channel_to_json(bw))
    if (not np.array_equal(back2.rows, bw.rows)
            or back2.output_sizes != bw.output_sizes):
        return False, "broadcast round trip not bit-identical"
    return True, "both channel kinds"


_CHECKS = (
    ("rejection-marginal", check_rejection_marginal),
    ("rejection-sampler", check_rejection_sampler),
    ("divergence-sandwich", check_divergence_sandwich),
    ("smooth-dmax-bound", check_smooth_dmax_vs_beta),
    ("channel-smoothing", check_channel_smoothing),
    ("ns-cost-ceiling", check_ns_cost),
    ("ns-flat-vs-lp", check_flat_ns),
    ("bsc-classes-vs-dense", check_bsc_classes),
    ("capacity-closed-forms", check_capacity),
    ("normal-quantile", check_quantile),
    ("cs-cc-bracket", check_bracket),
    ("convex-split", check_convex_split),
    ("broadcast-routes", check_broadcast_routes),
    ("rate-region", check_region),
    ("channel-roundtrip", check_channel_roundtrip),
)


def run_all(seed: int = 0):
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in _CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
