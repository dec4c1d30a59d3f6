"""Meta-converse LPs: exact values, witnesses, and the BSC fast paths."""

import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from channelsim import cli, lp, ns_meta, prob, selfcheck
from channelsim.divergences import d_max, d_max_smooth, d_s_plus
from channelsim.lp import LpProblem, solve_lp


def _random_channel(rng, k, m, floor=0.0):
    rows = rng.random((k, m)) + floor
    return prob.Dmc(rows=rows / rows.sum(axis=1, keepdims=True))


class TestImax:
    def test_identity(self):
        assert ns_meta.i_max(prob.Dmc.identity(4)) == pytest.approx(2.0)

    def test_bsc(self):
        assert ns_meta.i_max(prob.Dmc.bsc(0.1)) == pytest.approx(
            math.log2(1.8))

    def test_constant_channel_zero(self):
        w = prob.Dmc(rows=np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert ns_meta.i_max(w) == pytest.approx(0.0)


class TestImaxSmooth:
    def test_eps_zero_matches_plain(self):
        w = prob.Dmc.bsc(0.2)
        got = ns_meta.i_max_smooth(w, 0.0)
        assert got.value == pytest.approx(ns_meta.i_max(w), abs=1e-9)

    def test_bsc_point_one(self):
        got = ns_meta.i_max_smooth(prob.Dmc.bsc(0.1), 0.05)
        assert got.value == pytest.approx(0.765534746362977, abs=1e-9)
        assert got.zeta == pytest.approx([0.85, 0.85], abs=1e-9)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(3)
        w = _random_channel(rng, 3, 3)
        vals = [ns_meta.i_max_smooth(w, e).value
                for e in (0.0, 0.05, 0.1, 0.2, 0.4)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_witness_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            w = _random_channel(rng, int(rng.integers(2, 5)),
                                int(rng.integers(2, 5)))
            eps = float(rng.choice([0.01, 0.1, 0.3]))
            got = ns_meta.i_max_smooth(w, eps)
            assert np.allclose(got.w_tilde.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(got.w_tilde >= -1e-12)
            assert np.all(got.w_tilde <= got.zeta[None, :] + 1e-9)
            moved = prob.channel_tvd(prob.Dmc(rows=got.w_tilde), w)
            assert moved <= eps + 1e-8
            assert got.zeta.sum() == pytest.approx(2.0 ** got.value,
                                                   rel=1e-9)

    def test_reference_property(self):
        got = ns_meta.i_max_smooth(prob.Dmc.bsc(0.1), 0.05)
        assert got.reference.sum() == pytest.approx(1.0)


class TestNsCost:
    def test_identity_needs_full_alphabet(self):
        got = ns_meta.ns_cost(prob.Dmc.identity(3), 0.0)
        assert got.cost == 3

    def test_ceiling_snaps_near_integer(self):
        # eps = 0 on the identity gives exactly log2 k; the ceiling must
        # not round 2^(log2 k) = k up to k + 1 from float dust
        for k in (2, 3, 5, 8):
            got = ns_meta.ns_cost(prob.Dmc.identity(k), 0.0)
            assert got.cost == k

    def test_cost_one_when_nearly_constant(self):
        got = ns_meta.ns_cost(prob.Dmc.bsc(0.3), 0.2)
        assert got.cost == 1

    def test_matches_smooth_imax(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            w = _random_channel(rng, 3, 4)
            eps = float(rng.uniform(0.01, 0.3))
            got = ns_meta.ns_cost(w, eps)
            assert got.i_max_eps == pytest.approx(
                ns_meta.i_max_smooth(w, eps).value, abs=1e-12)


class TestNsEps:
    def test_requires_integer_cost_at_least_two(self):
        w = prob.Dmc.bsc(0.1)
        with pytest.raises(ValueError):
            ns_meta.ns_eps_for_cost(w, 1)
        with pytest.raises(ValueError):
            ns_meta.ns_eps_for_cost(w, 2.5)

    def test_identity_four_at_cost_two(self):
        got = ns_meta.ns_eps_for_cost(prob.Dmc.identity(4), 2)
        assert got.eps == pytest.approx(0.5, abs=1e-9)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            w = _random_channel(rng, 3, 3)
            c = int(rng.integers(2, 4))
            eps_star = ns_meta.ns_eps_for_cost(w, c).eps
            # at a slightly looser tolerance the cost direction must fit
            back = ns_meta.ns_cost(w, min(eps_star + 1e-9, 1.0))
            assert back.cost <= c

    def test_monotone_in_cost(self):
        rng = np.random.default_rng(29)
        w = _random_channel(rng, 4, 4)
        eps = [ns_meta.ns_eps_for_cost(w, c).eps for c in (2, 3, 4)]
        assert all(a >= b - 1e-9 for a, b in zip(eps, eps[1:]))


def _reference_program(rows, eps=0.0, cost=None):
    """The overlap program over t and zeta as first written, phase 1 and all.

    Kept as the reference for ``ns_meta._reduced_program``: minimize
    sum zeta s.t. 0 <= t <= W, t_xy <= zeta_y, sum_y t_xy >= 1 - eps and
    sum zeta >= 1; with a cost, minimize gamma s.t. the same caps,
    sum_y t_xy + gamma >= 1 and sum zeta = cost.
    """
    k, m = rows.shape
    km = k * m
    nv = km + m + (cost is not None)
    a = np.zeros((km + k + 1, nv))
    a[:km, :km] = np.eye(km)
    a[:km, km:km + m] = -np.tile(np.eye(m), (k, 1))
    a[km:km + k, :km] = np.kron(np.eye(k), np.ones(m))
    a[-1, km:km + m] = 1.0
    c = np.zeros(nv)
    upper = np.full(nv, np.inf)
    upper[:km] = rows.ravel()
    if cost is None:
        c[km:] = 1.0
        b = np.concatenate([np.zeros(km), np.full(k, 1.0 - eps), [1.0]])
        last = ">="
    else:
        a[km:km + k, -1] = 1.0
        c[-1] = 1.0
        b = np.concatenate([np.zeros(km), np.ones(k), [float(cost)]])
        last = "="
    return LpProblem(c=c, a=a, b=b, upper=upper,
                     senses=("<=",) * km + (">=",) * k + (last,))


def _differential_cases():
    rng = np.random.default_rng(4242)
    cases = []
    for i in range(120):
        k, m = (int(v) for v in rng.integers(2, 9, size=2))
        kind = ("dirichlet", "dead-column", "identical-rows", "sparse")[i % 4]
        if kind == "dead-column":
            rows = np.insert(rng.dirichlet(np.full(m - 1, 0.7), size=k),
                             int(rng.integers(0, m)), 0.0, axis=1)
        elif kind == "identical-rows":
            rows = np.tile(rng.dirichlet(np.ones(m)), (k, 1))
        else:
            alpha = 0.7 if kind == "dirichlet" else 0.2
            rows = rng.dirichlet(np.full(m, alpha), size=k)
        eps = float(rng.choice([0.0, 0.02, 0.1, 0.3, 0.6]))
        peak_sum = rows.max(axis=0).sum()
        cost = int(rng.integers(2, math.ceil(peak_sum) + 3))
        cases.append(pytest.param(rows, eps, cost, id=f"{kind}-{i}-{k}x{m}"))
    return cases


def _assert_witness(rows, w_tilde, zeta, eps):
    assert np.allclose(w_tilde.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(w_tilde >= 0.0)
    assert np.all(w_tilde <= zeta[None, :] + 1e-9)
    assert prob.channel_tvd(prob.Dmc(rows=w_tilde),
                            prob.Dmc(rows=rows)) <= eps + 1e-8


class TestReducedProgram:
    @pytest.mark.parametrize("rows,eps,cost", _differential_cases())
    def test_matches_overlap_program(self, rows, eps, cost):
        want = solve_lp(_reference_program(rows, eps=eps))
        got = ns_meta.i_max_smooth(rows, eps)
        assert want.status == "optimal"
        assert 2.0 ** got.value == pytest.approx(want.value, abs=1e-12)
        _assert_witness(rows, got.w_tilde, got.zeta, eps)

        want = solve_lp(_reference_program(rows, cost=cost))
        dev = ns_meta.ns_eps_for_cost(rows, cost)
        assert want.status == "optimal"
        assert dev.eps == pytest.approx(max(want.value, 0.0), abs=1e-12)
        _assert_witness(rows, dev.w_tilde, dev.zeta, dev.eps)
        assert dev.zeta.sum() == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize("rows", [
        ns_meta.bsc_channel(3, 0.11).rows,
        np.eye(4),
        # Identical rows: sum M is 1, and 0.7 + 0.2 + 0.1 rounds below it.
        np.tile([0.7, 0.2, 0.1], (3, 1)),
        np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]),
    ])
    def test_cost_direction_starts_feasible(self, rows, monkeypatch):
        program = ns_meta._reduced_program(rows, eps=0.05)
        assert set(program.senses) == {"<="}
        assert np.all(program.b >= 0.0)
        assert np.all(program.upper[np.isfinite(program.upper)] >= 0.0)
        # Without '>=' or '=' rows and with b >= 0, solve_lp adds no
        # artificial and runs the simplex once, in phase 2.
        runs = []
        run_simplex = lp._run_simplex

        def counting(*args):
            runs.append(args)
            return run_simplex(*args)

        monkeypatch.setattr(lp, "_run_simplex", counting)
        assert solve_lp(program).status == "optimal"
        assert len(runs) == 1

    def test_deviation_direction_has_one_ge_row(self):
        rows = ns_meta.bsc_channel(3, 0.11).rows
        for cost in (2, 5, 9):
            program = ns_meta._reduced_program(rows, cost=cost)
            assert program.senses.count(">=") == 1
            assert program.senses[-1] == ">="
            assert "=" not in program.senses

    def test_bsc4_pivot_budget(self):
        # The overlap program takes 518 pivots here, 513 of them in phase 1.
        program = ns_meta._reduced_program(
            ns_meta.bsc_channel(4, 0.11).rows, eps=0.05)
        sol = solve_lp(program)
        assert sol.status == "optimal"
        assert sol.iterations <= 64


def _circulant(base):
    return np.array([np.roll(base, i) for i in range(base.size)])


def _qary(q, diagonal):
    off = (1.0 - diagonal) / (q - 1)
    return np.full((q, q), off) + np.eye(q) * (diagonal - off)


def _symmetric_channels():
    """Channels whose rows, and whose columns, permute one another."""
    rng = np.random.default_rng(1818)
    cases = [pytest.param(ns_meta.bsc_channel(n, delta).rows,
                          id=f"bsc{delta}^{n}")
             for n in (1, 2, 3, 4) for delta in (0.11, 0.5)]
    cases += [pytest.param(_qary(q, d), id=f"qary{q}")
              for q, d in ((3, 0.6), (5, 0.8))]
    cases += [pytest.param(_circulant(rng.dirichlet(np.ones(m))),
                           id=f"circulant{m}") for m in (3, 5, 7)]
    sparse = rng.dirichlet(np.ones(6))
    sparse[[1, 4]] = 0.0
    cases += [
        pytest.param(_circulant(sparse / sparse.sum()), id="circulant-zeros"),
        pytest.param(_circulant(np.array([0.5, 0.5, 0.0, 0.0])),
                     id="circulant-halves"),
        pytest.param(np.array([[0.35, 0.35, 0.15, 0.15],
                               [0.15, 0.15, 0.35, 0.35]]), id="2x4"),
        pytest.param(np.eye(4), id="identity4"),
    ]
    return cases


def _flat_params(m):
    """The eps and costs each symmetric channel is checked at."""
    eps = [e for e in (0.0, 0.02, 0.1, 0.5, 1.0 - 1.0 / m + 0.05) if e < 1.0]
    return eps, list(range(2, m + 2))


def _one_ulp_off():
    rows = ns_meta.bsc_channel(2, 0.11).rows.copy()
    rows[0, 0] = np.nextafter(rows[0, 0], 1.0)
    return rows


def _no_lp(program):
    raise AssertionError("a symmetric channel built an LP")


def _counting_lp(monkeypatch):
    calls = []
    real = ns_meta.solve_lp

    def counting(program):
        calls.append(program)
        return real(program)

    monkeypatch.setattr(ns_meta, "solve_lp", counting)
    return calls


def _load_workloads():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFlatClosedForm:
    @pytest.mark.parametrize("rows", _symmetric_channels())
    def test_matches_lp_route(self, rows, monkeypatch):
        m = rows.shape[1]
        eps_list, costs = _flat_params(m)
        assert ns_meta._is_symmetric(rows)
        imax_lp = [ns_meta._solve_reduced_lp(rows, "max-information", eps=e)
                   for e in eps_list]
        dev_lp = [ns_meta._solve_reduced_lp(rows, "deviation", cost=c)
                  for c in costs]
        monkeypatch.setattr(ns_meta, "solve_lp", _no_lp)
        uniform = np.full(m, 1.0 / m)
        for eps, (want, _, _) in zip(eps_list, imax_lp):
            got = ns_meta.i_max_smooth(rows, eps)
            assert got.value == pytest.approx(want, abs=1e-12)
            assert got.value == d_max_smooth(eps, rows[0], uniform)
            assert np.all(got.zeta == got.zeta[0])
            assert got.zeta.sum() == pytest.approx(2.0 ** got.value,
                                                   rel=1e-12)
            _assert_witness(rows, got.w_tilde, got.zeta, eps)
            assert ns_meta.ns_cost(rows, eps).cost == \
                ns_meta._clamped_ceil(2.0 ** want)
        for cost, (want, _, _) in zip(costs, dev_lp):
            got = ns_meta.ns_eps_for_cost(rows, cost)
            assert got.eps == pytest.approx(max(want, 0.0), abs=1e-12)
            assert np.all(got.zeta == cost / m)
            _assert_witness(rows, got.w_tilde, got.zeta, got.eps)

    @pytest.mark.parametrize("rows", [
        # Rows permute one another, columns do not: the flat formula
        # would give log2 1.8 = 0.848 bits, the optimum is log2 1.6.
        pytest.param(np.array([[0.6, 0.4, 0.0], [0.0, 0.6, 0.4]]),
                     id="rows-only"),
        # Columns permute one another, rows do not: flat on row 0 would
        # give 0 bits.
        pytest.param(np.array([[0.5, 0.5], [0.2, 0.8], [0.8, 0.2]]),
                     id="columns-only"),
        pytest.param(_one_ulp_off(), id="bsc^2-one-ulp-off"),
    ])
    def test_asymmetric_takes_the_lp(self, rows, monkeypatch):
        assert not ns_meta._is_symmetric(rows)
        calls = _counting_lp(monkeypatch)
        got = ns_meta.i_max_smooth(rows, 0.0)
        assert len(calls) == 1
        assert got.value == pytest.approx(ns_meta.i_max(rows), abs=1e-12)
        ns_meta.ns_eps_for_cost(rows, 2)
        assert len(calls) == 2

    # At seed 1881 the cost of ns-eps-bsc3 is 2, where 1 - sum min(W, c/m)
    # rounds an ulp away from the LP's removed mass.
    @pytest.mark.parametrize("seed", [11, 1881])
    def test_oneshot_traffic(self, tmp_path, monkeypatch, seed):
        # The benchmark's dense cost jobs: the BSC(0.11)^3 and ^4 ones
        # take the closed form, with the LP route's output bytes, and the
        # random channels the LP.
        jobs = _load_workloads().make_jobs("oneshot", seed, str(tmp_path))
        calls = _counting_lp(monkeypatch)
        fast, slow = [], []
        for job in jobs:
            argv = list(job.get("argv", ()))
            if not argv or argv[0] not in ("ns-cost", "ns-eps", "imax"):
                continue
            for flag in ("--channel", "--out"):
                argv[argv.index(flag) + 1] = str(
                    tmp_path / argv[argv.index(flag) + 1])
            out = tmp_path / job["out"]
            before = len(calls)
            assert cli.main(argv) == cli.EXIT_OK
            if len(calls) > before:
                slow.append(job["id"])
                continue
            fast.append(job["id"])
            got = out.read_bytes()
            with monkeypatch.context() as patch:
                patch.setattr(ns_meta, "_is_symmetric", lambda rows: False)
                assert cli.main(argv) == cli.EXIT_OK
            assert out.read_bytes() == got
        assert sorted(fast) == ["imax-bsc3", "ns-cost-bsc3", "ns-cost-bsc4",
                                "ns-eps-bsc3"]
        assert len(slow) == 9


class TestChannelDivergences:
    def test_d_s_plus_channel_is_row_max(self):
        # ties, zero entries, q-null mass, and eps up to and past 1
        rng = np.random.default_rng(31)
        for trial in range(40):
            rows = _random_channel(rng, 3, 4).rows.copy()
            q = np.ones(4) / 4.0
            if trial % 4 == 1:
                rows[:, 1] = rows[:, 0]
                rows /= rows.sum(axis=1, keepdims=True)
            elif trial % 4 == 2:
                rows[0, 2] = 0.0
                rows /= rows.sum(axis=1, keepdims=True)
                rows[1] = [0.25, 0.5, 0.25, 0.0]
            elif trial % 4 == 3:
                q = np.array([0.5, 0.5, 0.0, 0.0])
            for eps in (1e-12, 0.2, 0.5, 0.999, 1.0, 1.5):
                got = ns_meta.d_s_plus_channel(rows, q, eps)
                want = max(d_s_plus(eps, row, q) for row in rows)
                assert got == want, (trial, eps)

    def test_channel_d_max_smooth_is_row_max(self):
        rng = np.random.default_rng(37)
        w = _random_channel(rng, 3, 4)
        q = np.ones(4) / 4.0
        got = ns_meta.channel_d_max_smooth(w, q, 0.2)
        want = max(d_max_smooth(0.2, row, q) for row in w.rows)
        assert got == pytest.approx(want, abs=1e-12)


def _witness_by_rows(rows, qa, a):
    """smoothing_witness's hat and eps_x, built one row at a time."""
    hat, eps_x = np.zeros_like(rows), np.zeros(rows.shape[0])
    for x, row in enumerate(rows):
        keep = np.zeros(row.size, dtype=bool)
        pos = (row > 0.0) & (qa > 0.0)
        keep[pos] = np.log2(row[pos] / qa[pos]) <= a
        keep[row == 0.0] = True
        eps_x[x] = row[~keep].sum()
        hat[x] = row * keep + eps_x[x] * qa
    return hat, eps_x


class TestSmoothingWitness:
    def test_matches_the_row_loop(self):
        # Same kept sets; the clipped sums add zeros in place of the kept
        # letters, so they may differ in order only, by m ulps of 1 at most.
        rng = np.random.default_rng(53)
        built = 0
        for _ in range(200):
            m = int(rng.integers(2, 24))
            rows = rng.random((int(rng.integers(1, 6)), m))
            rows[rng.random(rows.shape) < 0.2] = 0.0
            rows[:, 0] += 0.1
            rows /= rows.sum(axis=1, keepdims=True)
            q = rng.random(m)
            q[rng.random(m) < 0.1] = 0.0
            q[0] += 0.1
            q /= q.sum()
            try:
                hat, a, eps_x = ns_meta.smoothing_witness(
                    rows, q, float(rng.uniform(0.05, 0.9)))
            except ValueError:  # mass outside supp(q) reaches eps
                continue
            built += 1
            want_hat, want_eps = _witness_by_rows(rows, q, a)
            tol = m * np.finfo(np.float64).eps
            assert np.abs(eps_x - want_eps).max() <= tol
            assert np.abs(hat - want_hat).max() <= tol
        assert built >= 150

    def test_invariants(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            w = _random_channel(rng, int(rng.integers(2, 4)), 4)
            q = rng.random(4) + 0.1
            q /= q.sum()
            eps = float(rng.uniform(0.05, 0.4))
            hat, a, eps_x = ns_meta.smoothing_witness(w, q, eps)
            assert a == ns_meta.d_s_plus_channel(w, q, eps)
            assert np.allclose(hat.sum(axis=1), 1.0, atol=1e-12)
            for x in range(w.input_size):
                assert eps_x[x] < eps + 1e-15
                assert prob.tvd(prob.Pmf(hat[x]),
                                prob.Pmf(w.rows[x])) <= eps + 1e-12
                bound = math.log2(2.0 ** a + eps_x[x])
                assert d_max(hat[x], q) <= bound + 1e-9
                assert bound <= a + 1.0 + 1e-12

    def test_forward_inequality(self):
        # the witness construction pins the smoothed channel divergence
        # under the spectrum quantile plus one bit
        rng = np.random.default_rng(43)
        for _ in range(20):
            w = _random_channel(rng, 3, 4)
            q = rng.random(4) + 0.1
            q /= q.sum()
            eps = float(rng.uniform(0.05, 0.4))
            lhs = ns_meta.channel_d_max_smooth(w, q, eps)
            rhs = ns_meta.d_s_plus_channel(w, q, eps) + 1.0
            assert lhs <= rhs + 1e-9

    def test_reverse_inequality(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            w = _random_channel(rng, 3, 4)
            q = rng.random(4) + 0.1
            q /= q.sum()
            eps = float(rng.uniform(0.05, 0.3))
            delta = float(rng.uniform(0.05, 0.3))
            lhs = ns_meta.channel_d_max_smooth(w, q, eps)
            rhs = ns_meta.d_s_plus_channel(w, q, eps + delta) \
                + math.log2(delta)
            assert lhs >= rhs - 1e-9


def _bsc_weights(n: int, delta: float):
    """Class counts C_k, per-string masses w_k and class masses b_k.

    Linear-domain view of ``ns_meta._bsc_log_weights``; C_k is finite only
    up to n of about 1030.
    """
    log_c, log_w = ns_meta._bsc_log_weights(n, delta)
    return np.exp2(log_c), np.exp2(log_w), np.exp2(log_c + log_w)


class TestBscFastPath:
    def test_weights_sum(self):
        c, w, b = _bsc_weights(6, 0.1)
        assert (c * w).sum() == pytest.approx(1.0)
        assert c.sum() == pytest.approx(2.0 ** 6)

    def test_waterfill_matches_bisection(self):
        for n, delta, eps in ((4, 0.1, 0.05), (8, 0.3, 0.2), (12, 0.1, 0.2)):
            c, w, _ = _bsc_weights(n, delta)
            got = ns_meta.bsc_ns_cost(n, delta, eps).s

            def g(s):
                return (c * np.minimum(w, s)).sum()

            assert g(got) >= 1.0 - eps - 1e-12
            # the level is minimal: nudging down must break the target
            assert g(got * (1.0 - 1e-9)) < 1.0 - eps + 1e-12

    def test_matches_general_lp(self):
        for n in (1, 2, 3):
            for delta in (0.1, 0.3):
                for eps in (0.05, 0.2):
                    fast = ns_meta.bsc_ns_cost(n, delta, eps)
                    big = ns_meta.ns_cost(
                        prob.tensor_power(prob.Dmc.bsc(delta), n), eps)
                    assert fast.cost == big.cost, (n, delta, eps)
                    assert fast.i_max_eps == pytest.approx(
                        big.i_max_eps, abs=1e-7)

    def test_eps_direction_matches_general_lp(self):
        for n in (1, 2, 3):
            for delta in (0.1, 0.3):
                w = prob.tensor_power(prob.Dmc.bsc(delta), n)
                base = ns_meta.ns_cost(w, 0.2)
                c = max(base.cost, 2)
                fast = ns_meta.bsc_ns_eps(n, delta, c)
                general = ns_meta.ns_eps_for_cost(w, c).eps
                assert fast == pytest.approx(general, abs=1e-7)

    def test_witness_profile_invariants(self):
        got = ns_meta.bsc_ns_cost(6, 0.1, 0.05)
        c, w, _ = _bsc_weights(6, 0.1)
        assert (c * got.r).sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(got.r <= got.s + 1e-9)
        assert np.all(got.r >= -1e-12)
        assert 0.5 * (c * np.abs(w - got.r)).sum() <= 0.05 + 1e-8
        assert got.log2_cost == pytest.approx(6 + math.log2(got.s))
        assert got.cost == math.ceil(2.0 ** got.log2_cost - 1e-9)

    @pytest.mark.parametrize("n", [1030, 2000])
    def test_large_n_matches_mpmath(self, n):
        # C_k overflows a double from n = 1030 on; the closed forms must
        # still agree with a 40-digit evaluation. lgamma near n = 2000
        # puts about 2e-12 of absolute error into log C_k; neither side
        # subtracts from the total mass 1, so log2 s* moves by about
        # 2e-11 bits and the deviation by about 1e-12 relative.
        mpmath = pytest.importorskip("mpmath")
        delta, eps = 0.11, 0.05
        with mpmath.workdps(40):
            d = mpmath.mpf(delta)
            counts = [mpmath.binomial(n, k) for k in range(n + 1)]
            w = [(1 - d) ** (n - k) * d ** k for k in range(n + 1)]

            def g(s):
                return mpmath.fsum(c * min(wk, s) for c, wk in zip(counts, w))

            # bisect G(s) = 1 - eps on log2 s in [-n, 0]
            lo, hi = mpmath.mpf(-n), mpmath.mpf(0)
            for _ in range(120):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if g(2 ** mid) >= 1 - eps else (mid, hi)
            want_log2 = float(n + hi)
            cost = int(mpmath.floor(2 ** (n + hi - mpmath.mpf("0.3"))))
            want_eps = float(1 - g(mpmath.mpf(cost) / 2 ** n))
        got = ns_meta.bsc_ns_cost(n, delta, eps)
        assert got.log2_cost == pytest.approx(want_log2, abs=1e-9)
        assert got.cost is None
        assert np.all(np.isfinite(got.r)) and np.all(got.r >= 0.0)
        assert ns_meta.bsc_ns_eps(n, delta, cost) == pytest.approx(
            want_eps, rel=1e-10)

    def test_eps_decreases_with_cost(self):
        # Eight costs per octave on about 50 octaves up to 2^n, where the
        # level s = 1 lies above every w_k; no tolerance.
        for n in (6, 300, 2000):
            costs = sorted({max(2, (m << e) >> 3) for m in range(8, 16)
                            for e in range(0, n + 1, max(1, n // 50))}
                           | {2 ** n})
            vals = [ns_meta.bsc_ns_eps(n, 0.11, c) for c in costs]
            assert all(a >= b for a, b in zip(vals, vals[1:])), n
            assert vals[-1] == 0.0

    def test_bsc_channel_helper(self):
        w = ns_meta.bsc_channel(3, 0.1)
        direct = prob.tensor_power(prob.Dmc.bsc(0.1), 3)
        assert np.allclose(w.rows, direct.rows)

    def test_validates_args(self):
        with pytest.raises(ValueError):
            ns_meta.bsc_ns_cost(0, 0.1, 0.05)
        with pytest.raises(ValueError):
            ns_meta.bsc_ns_cost(4, 0.6, 0.05)
        with pytest.raises(ValueError):
            ns_meta.bsc_ns_eps(4, 0.1, 1)


def _reference_log2_cost(n, delta, eps):
    """n + log2 s* by the suffix maximum over one row.

    The one-row form of the batched sweep, kept as its reference: a fresh
    lgamma list per n, then the largest log2(P_t - eps) - log2 N_t over
    the class prefixes t, floored at -n, with P_t - eps read from the
    tail from eps = 1/2 on. At eps = 0 that maximum is the top class's
    log2 w_0, read directly: the prefix masses of BSC(1/2)^n lose their
    bits below 2^-1022 and would put up to 0.73 bits of noise on an
    exact 0.
    """
    lg = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    k = np.arange(n + 1, dtype=np.float64)
    log_c = (lg[-1] - lg - lg[::-1]) / math.log(2.0)
    log_w = ((n - k) * (math.log1p(-delta) / math.log(2.0))
             + k * math.log2(delta))
    if eps == 0.0:
        return n + max(float(log_w[0]), float(-n))
    mass = np.exp2(log_c + log_w)
    if eps < 0.5:
        gain = np.cumsum(mass) - eps
    else:
        tail = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)
        gain = (1.0 - eps) - tail
    kept = gain > 0.0
    log_s = np.log2(gain[kept]) - np.logaddexp2.accumulate(log_c)[kept]
    return n + max(float(log_s.max()), float(-n))


class TestBscSweep:
    @pytest.mark.parametrize("delta", [1e-12, 0.01, 0.11, 0.3, 0.5])
    @pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-12, 1e-6, 0.05, 0.3,
                                     0.5, 0.9, 1 - 1e-9])
    def test_matches_reference_bit_for_bit(self, delta, eps):
        # 1..300 spans many blocks of growing width; 1030 and 2000 sit in
        # blocks of their own sizes, past where C_k overflows a double.
        ns = list(range(1, 301)) + [1030, 2000]
        got = ns_meta.bsc_ns_log2_costs(ns, delta, eps)
        want = [_reference_log2_cost(n, delta, eps) for n in ns]
        assert got.tolist() == want

    def test_block_size_never_changes_output(self, monkeypatch):
        ns = list(range(1, 60)) + list(range(990, 1041))
        want = ns_meta.bsc_ns_log2_costs(ns, 0.11, 0.05)
        for cells in (1, 64, 5000, 1 << 20):
            monkeypatch.setattr(ns_meta, "_LEVEL_CELLS", cells)
            got = ns_meta.bsc_ns_log2_costs(ns, 0.11, 0.05)
            assert got.tobytes() == want.tobytes(), cells

    def test_blocklengths_must_ascend(self):
        ns = [1, 2, 3, 3, 7, 64, 1030]
        got = ns_meta.bsc_ns_log2_costs(ns, 0.2, 0.1)
        assert got.tolist() == [ns_meta.bsc_ns_cost(n, 0.2, 0.1).log2_cost
                                for n in ns]
        assert ns_meta.bsc_ns_log2_costs([], 0.2, 0.1).size == 0
        with pytest.raises(ValueError):
            ns_meta.bsc_ns_log2_costs([7, 3, 1030], 0.2, 0.1)

    def test_one_level_kernel(self):
        # bsc_ns_cost reads the sweep's level on its own row
        for n in (1, 5, 300):
            got = ns_meta.bsc_ns_cost(n, 0.11, 0.05)
            assert got.log2_cost == ns_meta.bsc_ns_log2_costs(
                [n], 0.11, 0.05)[0]
            assert n + math.log2(got.s) == _reference_log2_cost(n, 0.11, 0.05)

    def test_validates_args(self):
        for ns, delta, eps in (([3, 0], 0.1, 0.05), ([2.5], 0.1, 0.05),
                               ([3], 0.6, 0.05), ([3], 0.1, 1.0),
                               ([3], 0.1, -0.1)):
            with pytest.raises(ValueError):
                ns_meta.bsc_ns_log2_costs(ns, delta, eps)


def _mp_log2_costs(mpmath, n, delta, epss):
    """n + log2 s* for each eps as the exact suffix maximum.

    The largest log2(P_t - eps) - log2 N_t over the class prefixes t,
    floored at -n, at the working precision.
    """
    d = mpmath.mpf(delta)
    mass, count = mpmath.mpf(0), mpmath.mpf(0)
    best = [mpmath.mpf(-n)] * len(epss)
    for k in range(n + 1):
        c = mpmath.binomial(n, k)
        mass += c * (1 - d) ** (n - k) * d ** k
        count += c
        for i, eps in enumerate(epss):
            if mass > eps:
                best[i] = max(best[i], mpmath.log(mass - eps, 2)
                              - mpmath.log(count, 2))
    return [float(n + b) for b in best]


def _mp_removed_mass(mpmath, n, delta, c):
    """sum_k C_k max(w_k - c 2^-n, 0) at the working precision."""
    d = mpmath.mpf(delta)
    s = mpmath.mpf(c) / mpmath.mpf(2) ** n
    total = mpmath.mpf(0)
    for k in range(n + 1):
        w = (1 - d) ** (n - k) * d ** k
        if w > s:
            total += mpmath.binomial(n, k) * (w - s)
    return total


class TestBscExactness:
    def test_any_eps_in_open_unit_interval(self):
        # The exact column of bsc-curve against 50 digits, from where
        # 1 - eps rounds to 1 to where 1 - eps is only a few times the
        # 3.8e-13 that lgamma misses of the total mass at n = 1000.
        mpmath = pytest.importorskip("mpmath")
        epss = [1e-300, 1e-17, 1e-16, 1e-12, 1e-9, 0.05, 0.4999, 0.5,
                0.999999, 1 - 2 ** -40]
        for n in (1, 40, 300, 1000):
            with mpmath.workdps(50):
                want = _mp_log2_costs(mpmath, n, 0.11,
                                      [mpmath.mpf(eps) for eps in epss])
            got = [ns_meta.bsc_ns_log2_costs([n], 0.11, eps)[0]
                   for eps in epss]
            assert got == pytest.approx(want, abs=1e-9), n

    def test_eps_zero_is_the_top_class_ratio(self):
        # At eps = 0 the cost is plain D_max, 2^n w_0. The useless
        # BSC(1/2)^n costs exactly one message even where its class masses
        # are subnormal (the prefix maximum read up to 0.73 bits there),
        # and w_0 is read in the log domain where 2^-n w_0 underflows.
        costs = ns_meta.bsc_ns_log2_costs(range(900, 2001, 50), 0.5, 0.0)
        assert costs.tolist() == [0.0] * 23
        for delta in (0.11, 0.3, 0.45):
            for n in (1, 40, 300, 1030, 2000):
                got = ns_meta.bsc_ns_cost(n, delta, 0.0).log2_cost
                assert got == pytest.approx(
                    n * (1.0 + math.log2(1.0 - delta)), rel=1e-14, abs=0.0)

    def test_selfcheck_sees_a_class_level_off(self, monkeypatch):
        assert selfcheck.check_bsc_classes(0)[0]
        real = ns_meta.bsc_ns_cost

        def high(n, delta, eps):
            got = real(n, delta, eps)
            return dataclasses.replace(got, log2_cost=got.log2_cost + 1e-8)

        monkeypatch.setattr(ns_meta, "bsc_ns_cost", high)
        ok, detail = selfcheck.check_bsc_classes(0)
        assert not ok and "classes" in detail

    def test_deviation_matches_mpmath_when_exponentially_small(self):
        # BSC(0.11) above capacity C: the deviation falls to 1e-14 and
        # below, where 1 - G(s) would read 4.0e-13, 0.0 and 0.0.
        mpmath = pytest.importorskip("mpmath")
        cap = 1.0 + 0.11 * math.log2(0.11) + 0.89 * math.log2(0.89)
        points = [(1000, math.floor(2.0 ** (1000 * (cap + 0.2)))),
                  (4000, 2 ** math.floor(4000 * (cap + 0.1))),
                  (4000, 2 ** math.floor(4000 * (cap + 0.2)))]
        for n, c in points:
            with mpmath.workdps(60):
                want = float(_mp_removed_mass(mpmath, n, 0.11, c))
            assert 0.0 < want < 1e-12
            assert ns_meta.bsc_ns_eps(n, 0.11, c) == pytest.approx(
                want, rel=1e-10, abs=0.0), n

    def test_deviation_equals_kept_mass_form_where_large(self):
        # 1 - G(s), the kept mass taken from 1, differs from the removed
        # mass by the computed total's distance from 1 (lgamma's error,
        # up to about 1e-13 here) and by rounding: a relative 1e-10
        # wherever it exceeds 1e-6, or that distance where it is larger.
        checked = 0
        for n in (1, 5, 40, 300, 1000):
            log_c, log_w = ns_meta._bsc_log_weights(n, 0.11)
            shortfall = abs(1.0 - math.fsum(np.exp2(log_c + log_w)))
            for log2_c in np.linspace(1.0, n, 200):
                c = max(2, math.floor(2.0 ** log2_c))
                want = 1.0 - math.fsum(np.exp2(log_c + np.minimum(
                    log_w, math.log2(c) - n)))
                if want > 1e-6:
                    checked += 1
                    got = ns_meta.bsc_ns_eps(n, 0.11, c)
                    assert abs(got - want) <= 1e-10 * want + shortfall, (n, c)
        assert checked > 300


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 400), delta=st.floats(0.01, 0.45),
       log10_eps=st.floats(-16.0, math.log10(0.3)))
def test_level_and_deviation_are_dual(n, delta, log10_eps):
    # The level (a maximum over class prefixes) and the deviation (the
    # removed mass at a fixed level) are two formulations of one
    # water-filling: a cost 0.01 bits below the level misses eps, and a
    # cost 0.01 bits above it meets eps.
    eps = 10.0 ** log10_eps
    level = ns_meta.bsc_ns_log2_costs([n], delta, eps)[0]
    assume(level >= 3.0)
    assert ns_meta.bsc_ns_eps(n, delta, math.floor(2.0 ** (level - 0.01))) > eps
    assert ns_meta.bsc_ns_eps(n, delta, math.ceil(2.0 ** (level + 0.01))) <= eps
