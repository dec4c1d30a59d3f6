"""Release gates, one test per shipped guarantee.

Every test prints its own verdict line through ``capsys.disabled()``, so a
plain ``pytest tests/test_acceptance.py`` run doubles as the release
report even with capture on. Gate bodies recompute their expectations
from closed forms or independently coded arithmetic, not from the
functions under test.
"""

import math
import time

import numpy as np
import reference_protocols as ref

from channelsim import asymptotics as asy
from channelsim import broadcast, divergences as dv, ns_meta, prob, protocols


def _gate(capsys, label, body):
    """Run one gate and print a single PASS or FAIL line for it."""
    try:
        body()
    except BaseException as exc:
        with capsys.disabled():
            print(f"{label}: FAIL [{type(exc).__name__}]")
        raise
    with capsys.disabled():
        print(f"{label}: PASS")


def _h2(d):
    return -d * math.log2(d) - (1.0 - d) * math.log2(1.0 - d)


def _random_pmf(rng, size, floor=0.01):
    raw = rng.random(size) + floor
    return raw / raw.sum()


def _random_channel(rng, nx, ny, floor=0.02):
    rows = rng.random((nx, ny)) + floor
    return prob.Dmc(rows=rows / rows.sum(axis=1, keepdims=True))


# Uniform over the other two symbols; capacity log2(3) - 1.
_TERNARY = np.array([
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
])


def _near_product_split(rng, copies):
    """Draw a mildly tilted product triple and check it at `copies` copies.

    Deviation parameters sit a hair above the threshold floor sqrt(2^t / M),
    which is the smallest choice the gate inequalities accept, so the
    instance passes the hypotheses whenever the tilt left enough room
    under one.
    """
    px = _random_pmf(rng, 2, floor=0.3)
    qv = _random_pmf(rng, 2, floor=0.3)
    rv = _random_pmf(rng, 2, floor=0.3)
    cube = np.einsum("a,b,c->abc", px, qv, rv)
    cube = cube * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, cube.shape))
    cube /= cube.sum()
    p_x = cube.sum(axis=(1, 2))
    t1 = dv.d_s_plus(0.02, cube.sum(axis=2).reshape(-1),
                     np.outer(p_x, qv).reshape(-1))
    t2 = dv.d_s_plus(0.02, cube.sum(axis=1).reshape(-1),
                     np.outer(p_x, rv).reshape(-1))
    t3 = dv.d_s_plus(0.02, cube.reshape(-1),
                     np.einsum("a,b,c->abc", p_x, qv, rv).reshape(-1))
    pars = protocols.ConvexSplitParams(
        0.02, 0.02, 0.02,
        math.sqrt(2.0 ** t1 / copies) * 1.0005,
        math.sqrt(2.0 ** t2 / copies) * 1.0005,
        math.sqrt(2.0 ** t3 / (copies * copies)) * 1.0005)
    joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 2, 2))
    return protocols.convex_split_check(joint, prob.Pmf(qv), prob.Pmf(rv),
                                        copies, copies, pars)


def _lemma_sized_split(rng, delta):
    """A correlated (X, Y, Z) joint, checked at the smallest M, N the
    lemma's gates accept with every eps_i = 0.05 and delta_i = delta.

    The references are the joint's Y and Z marginals. M and N meet the
    pair gates log2 M >= t_1 - log2 delta^2 (and t_2 for N) and grow
    together until the joint gate holds: a hundred copies or more at
    delta = 0.1, four hundred or more at 0.05.
    """
    cube = 0.7 * rng.dirichlet(np.ones(8)).reshape(2, 2, 2) + 0.3 / 8
    qv, rv = cube.sum(axis=(0, 2)), cube.sum(axis=(0, 1))
    joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 2, 2))
    pars = protocols.ConvexSplitParams(0.05, 0.05, 0.05, delta, delta, delta)
    t1, t2, t3 = protocols.convex_split_check(
        joint, prob.Pmf(qv), prob.Pmf(rv), 1, 1, pars).thresholds
    floor = -math.log2(delta ** 2)
    m, n = math.ceil(2.0 ** (t1 + floor)), math.ceil(2.0 ** (t2 + floor))
    while math.log2(m) + math.log2(n) < t3 + floor:
        m, n = m + 1, n + 1
    return protocols.convex_split_check(joint, prob.Pmf(qv), prob.Pmf(rv),
                                        m, n, pars), m, n


def test_gate_01_capacity_closed_forms(capsys):
    def body():
        cases = ((prob.Dmc.bsc(0.1), 0.531004),
                 (prob.Dmc(rows=_TERNARY), 0.584963))
        for w, want in cases:
            start = time.perf_counter()
            trace = asy.capacity_ba(w)
            elapsed = time.perf_counter() - start
            assert abs(trace.value - want) <= 1e-6
            assert elapsed < 1.0
            # reaching 1e-6 certified needs at most log2|X| / 1e-6 steps
            assert trace.iterates[-1][0] <= 10 ** 6

    _gate(capsys, "gate 01 closed-form capacities", body)


def test_gate_02_skew_pair_capacities(capsys):
    def body():
        w = prob.BroadcastDmc(
            rows=np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]]),
            output_sizes=(2, 2))
        c_y = asy.capacity_ba(prob.reduce_broadcast(w, (0,))).value
        c_z = asy.capacity_ba(prob.reduce_broadcast(w, (1,))).value
        for single in (c_y, c_z):
            assert abs(single - 0.3219) <= 5e-4
        # the joint constraint never binds for this channel
        c_yz = broadcast.tilde_c_ba(w, (0, 1)).value
        assert c_yz <= c_y + c_z + 1e-6

    _gate(capsys, "gate 02 skew channel pair capacities", body)


def test_gate_03_degraded_region_certified(capsys):
    def body():
        hop = np.array([[0.7, 0.3], [0.3, 0.7]])
        rows = np.zeros((2, 4))
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    rows[x, 2 * y + z] += hop[x, y] * hop[y, z]
        w = prob.BroadcastDmc(rows=rows, output_sizes=(2, 2))
        region = broadcast.rate_region(w)
        closed = {
            (0,): 1.0 - _h2(0.3),
            (1,): 1.0 - _h2(0.42),
            (0, 1): 2.0 * (1.0 - _h2(0.3)),
        }
        quoted = {(0,): 0.118709, (1,): 0.018546, (0, 1): 0.237419}
        for subset, target in quoted.items():
            assert abs(region.constraints[frozenset(subset)] - target) <= 1e-4
        for subset, optimum in closed.items():
            trace = broadcast.tilde_c_ba(w, subset)
            estimates = [est for _, est in trace.iterates]
            assert all(a <= b + 1e-12
                       for a, b in zip(estimates, estimates[1:]))
            for step, est in trace.iterates:
                assert est <= optimum + 1e-9
                assert optimum <= est + trace.bound(step) + 1e-9

    _gate(capsys, "gate 03 degraded region with trace certificates", body)


def test_gate_04_product_curve_regeneration(capsys):
    def body():
        start = time.perf_counter()
        sweep = [ns_meta.bsc_ns_cost(n, 0.1, 0.05) for n in range(1, 501)]
        assert time.perf_counter() - start < 60.0
        for n in (1, 2, 3):
            general = ns_meta.ns_cost(ns_meta.bsc_channel(n, 0.1), 0.05)
            assert sweep[n - 1].cost == general.cost
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        z95 = asy.inv_normal_cdf(0.95)
        residuals = []
        for entry in sweep[49:]:
            rate = params.capacity + math.sqrt(params.v_min / entry.n) * z95
            residuals.append((entry.n, abs(entry.log2_cost / entry.n - rate)))
        # every tail residual must fit under (a + b log2 n) / n with both
        # coefficients below ten; scan the slope and take the tightest
        # intercept it leaves
        feasible = False
        for slope in np.linspace(0.0, 9.9, 100):
            intercept = max(n * r - slope * math.log2(n)
                            for n, r in residuals)
            if max(intercept, 0.0) < 10.0:
                feasible = True
                break
        assert feasible

    _gate(capsys, "gate 04 product curve regeneration", body)


def test_gate_05_cost_equals_smoothed_spectrum(capsys):
    def body():
        rng = np.random.default_rng(53)
        for i in range(50):
            w = _random_channel(rng, int(rng.integers(2, 5)),
                                int(rng.integers(2, 5)))
            eps = (0.01, 0.2)[i % 2]
            got = ns_meta.ns_cost(w, eps)
            smooth = ns_meta.i_max_smooth(w, eps)
            target = 2.0 ** smooth.value
            nearest = round(target)
            want = nearest if abs(target - nearest) <= 1e-9 \
                else math.ceil(target)
            assert got.cost == want
            assert abs(got.i_max_eps - smooth.value) <= 1e-9
            hat = got.w_tilde
            assert np.allclose(hat.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(hat >= -1e-12)
            assert np.all(hat <= got.zeta[None, :] + 1e-9)
            assert prob.channel_tvd(prob.Dmc(rows=hat), w) <= eps + 1e-8
            assert got.zeta.sum() <= 2.0 ** got.i_max_eps * (1.0 + 1e-9)

    _gate(capsys, "gate 05 one-shot cost equals smoothed spectrum", body)


def test_gate_06_rejection_sampling(capsys):
    def body():
        rng = np.random.default_rng(61)
        violations = 0
        for i in range(100):
            size = int(rng.integers(2, 7))
            raw = rng.random(size) + 0.01
            if i % 3 == 0 and size > 2:
                raw[int(rng.integers(size))] = 0.0
            p = prob.Pmf(raw / raw.sum())
            q = prob.Pmf(_random_pmf(rng, size, floor=0.05))
            plan = protocols.RejectionPlan.build(p, q,
                                                 int(rng.integers(1, 9)))
            marginal, _ = protocols.rejection_exact_marginal(plan)
            bound = (1.0 - plan.lam) ** plan.m
            if prob.tvd(marginal, p) > bound + 1e-12:
                violations += 1
        assert violations == 0

        plan = protocols.RejectionPlan.build(
            prob.Pmf(np.array([0.5, 0.25, 0.15, 0.1])),
            prob.Pmf(np.array([0.3, 0.3, 0.25, 0.15])), 5)
        marginal, _ = protocols.rejection_exact_marginal(plan)
        first = protocols.rejection_sample_run(
            plan, protocols.RngStream(606), 100000)
        band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * 100000))
        gap = np.max(np.abs(np.cumsum(first.empirical.probs)
                            - np.cumsum(marginal.probs)))
        assert gap <= band
        again = protocols.rejection_sample_run(
            plan, protocols.RngStream(606), 100000)
        assert np.array_equal(first.empirical.probs, again.empirical.probs)
        assert np.array_equal(first.accept_counts, again.accept_counts)
        moved = protocols.rejection_sample_run(
            plan, protocols.RngStream(607), 100000)
        assert not np.array_equal(first.empirical.probs,
                                  moved.empirical.probs)

    _gate(capsys, "gate 06 rejection sampling", body)


def test_gate_07_divergence_inequality_suites(capsys):
    def body():
        rng = np.random.default_rng(71)
        slack = 1e-7

        sandwich = 0
        for _ in range(200):
            size = int(rng.integers(2, 7))
            p = _random_pmf(rng, size)
            q = _random_pmf(rng, size)
            eps = float(rng.uniform(0.1, 0.9))
            delta = (1.0 - eps) * float(rng.uniform(0.1, 0.9))
            mid = dv.d_h(eps, p, q)
            low = dv.d_s_plus(1.0 - eps, p, q)
            high = dv.d_s_plus(1.0 - eps - delta, p, q) - math.log2(delta)
            if not low - slack <= mid <= high + slack:
                sandwich += 1

        testing = 0
        for _ in range(200):
            size = int(rng.integers(2, 7))
            p = _random_pmf(rng, size)
            q = _random_pmf(rng, size)
            eps = float(rng.uniform(0.02, 0.9))
            delta = (1.0 - eps) * float(rng.uniform(0.1, 0.9))
            lhs = dv.d_max_smooth(eps, p, q)
            rhs = -math.log2(dv.beta_star(1.0 - eps - delta, p, q)) \
                + math.log2(delta)
            if lhs < rhs - slack:
                testing += 1

        chain = 0
        for _ in range(200):
            w = _random_channel(rng, int(rng.integers(2, 5)),
                                int(rng.integers(2, 5)), floor=0.05)
            weights = prob.Pmf(_random_pmf(rng, w.input_size))
            q = weights.probs @ w.rows
            eps = float(rng.uniform(0.05, 0.45))
            delta = (1.0 - eps) * float(rng.uniform(0.1, 0.8))
            spectrum = ns_meta.d_s_plus_channel(w, q, eps)
            smoothed = ns_meta.channel_d_max_smooth(w, q, eps)
            hat, anchor, eps_x = ns_meta.smoothing_witness(w, q, eps)
            if smoothed > spectrum + 1.0 + slack:
                chain += 1
            if abs(anchor - spectrum) > slack:
                chain += 1
            for x in range(w.input_size):
                if prob.tvd(prob.Pmf(hat[x]),
                            prob.Pmf(w.rows[x])) > eps + slack:
                    chain += 1
                if dv.d_max(hat[x], q) \
                        > math.log2(2.0 ** anchor + eps_x[x]) + slack:
                    chain += 1
            reverse = ns_meta.d_s_plus_channel(w, q, eps + delta) \
                + math.log2(delta)
            if smoothed < reverse - slack:
                chain += 1

        assert (sandwich, testing, chain) == (0, 0, 0)

    _gate(capsys, "gate 07 divergence inequality suites", body)


def test_gate_08_convex_split_protocol(capsys):
    def body():
        # Two copies can never satisfy the gates: the pair deviations are
        # each at least sqrt(2^t / 2) >= sqrt(1/2) and the joint one at
        # least 1/2, so the deviation sum alone reaches sqrt(5/4) > 1.
        # Three and four copies are the smallest workable counts.
        rng = np.random.default_rng(83)
        confirmed = 0
        attempts = 0
        while confirmed < 50:
            attempts += 1
            assert attempts <= 400
            report = _near_product_split(rng, 3 + attempts % 2)
            if not report.hypotheses_hold:
                continue
            confirmed += 1
            assert report.bound < 1.0
            assert report.tvd <= report.bound + 1e-12

        rng = np.random.default_rng(89)
        for copies in (2, 3, 4):
            for _ in range(2):
                w = prob.BroadcastDmc(
                    rows=_random_channel(rng, 2, 4, floor=0.05).rows,
                    output_sizes=(2, 2))
                q = prob.Pmf(_random_pmf(rng, 2, floor=0.1))
                r = prob.Pmf(_random_pmf(rng, 2, floor=0.1))
                run = protocols.broadcast_protocol_run(
                    w, q, r, copies, copies,
                    protocols.RngStream(17), trials=64)
                mixture = ref.induced_channel_literal(
                    w, q, r, copies, copies)
                gap = prob.channel_tvd(
                    run.exact,
                    prob.BroadcastDmc(rows=mixture, output_sizes=(2, 2)))
                assert gap <= 1e-12

        # Correlated joints at the list sizes the lemma asks for, past
        # any string enumeration.
        rng = np.random.default_rng(97)
        for case in range(20):
            report, m, n = _lemma_sized_split(rng, (0.1, 0.05)[case % 2])
            assert min(m, n) >= 100
            assert report.hypotheses_hold
            assert report.bound < 1.0
            assert 0.0 < report.tvd <= report.bound

    _gate(capsys, "gate 08 convex split protocol", body)


def test_gate_09_second_order_engine(capsys):
    def body():
        assert abs(asy.inv_normal_cdf(0.05) + 1.644854) <= 1e-6
        skew = asy.dispersion(prob.Dmc.bsc(0.1))
        assert abs(skew.v_min - 0.904357) <= 1e-5
        tern = asy.dispersion(prob.Dmc(rows=_TERNARY))
        assert abs(tern.v_min) <= 1e-9
        assert abs(tern.v_max) <= 1e-9
        for n in (10, 100, 1000):
            sim = asy.second_order_simulation(tern, n, 0.05)
            cod = asy.second_order_coding(tern, n, 0.05)
            assert abs(sim - cod) <= 1e-6

    _gate(capsys, "gate 09 second-order engine", body)


def test_gate_10_bracket_substitution(capsys):
    def body():
        rng = np.random.default_rng(101)
        for _ in range(200):
            low = float(rng.normal(0.0, 30.0))
            high = low + abs(float(rng.normal(0.0, 30.0)))
            delta = float(rng.uniform(1e-4, 0.5))
            lo, hi = asy.cs_cc_bracket(low, high, delta)
            assert lo <= hi
        lo, hi = asy.cs_cc_bracket(0.0, 0.0, 0.5)
        assert lo == -1.0
        assert hi == 4.0
        lo, hi = asy.cs_cc_bracket(0.0, 0.0, 0.25)
        assert lo == -2.0
        assert hi == 3.0 + math.log2(math.log2(64.0))

    _gate(capsys, "gate 10 bracket substitution arithmetic", body)
