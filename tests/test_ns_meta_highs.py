"""Reduced max-information programs against HiGHS on the full program.

The oracle solves the original formulation over the substitute channel
W~, the weights zeta and the TVD slacks mu with scipy's HiGHS, so it shares
no modelling step with ``ns_meta._reduced_program``. Test-only: skipped
when scipy is missing.
"""

import math

import numpy as np
import pytest

from channelsim import ns_meta, prob

optimize = pytest.importorskip("scipy.optimize")


def _full_program(rows, eps=None, cost=None):
    """Blocks of the W~, zeta, mu (and gamma) program for linprog.

    HiGHS runs without presolve: with it, the program of ``_SPARSE_ROWS``
    at eps = 0 comes back "infeasible" from every HiGHS method, though
    W~ = W, zeta = max_x W is always feasible.
    """
    k, m = rows.shape
    km = k * m
    extra = cost is not None
    nv = 2 * km + m + extra
    eye = np.eye(km)
    pick_zeta = np.tile(np.eye(m), (k, 1))
    row_sum = np.kron(np.eye(k), np.ones(m))
    a_ub = np.zeros((2 * km + k, nv))
    a_ub[:km, :km] = eye                      # W~ - zeta <= 0
    a_ub[:km, km:km + m] = -pick_zeta
    a_ub[km:2 * km, :km] = eye                # W~ - mu <= W
    a_ub[km:2 * km, km + m:2 * km + m] = -eye
    a_ub[2 * km:, km + m:2 * km + m] = row_sum  # sum_y mu <= eps (or gamma)
    b_ub = np.concatenate([np.zeros(km), rows.ravel(), np.zeros(k)])
    a_eq = np.zeros((k + extra, nv))
    a_eq[:k, :km] = row_sum                   # W~ row-stochastic
    b_eq = np.ones(k + extra)
    c = np.zeros(nv)
    if extra:
        a_ub[2 * km:, -1] = -1.0
        a_eq[-1, km:km + m] = 1.0             # sum zeta = cost
        b_eq[-1] = cost
        c[-1] = 1.0
    else:
        b_ub[2 * km:] = eps
        c[km:km + m] = 1.0
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                           bounds=(0.0, None), method="highs",
                           options={"presolve": False})
    assert res.status == 0, res.message
    return float(res.fun)


def _sparse_rows():
    """Draw 241 of 300 Dirichlet(0.1) channels of 2-8 letters from seed 99:
    5x8, with a smallest entry of 2.0e-20."""
    rng = np.random.default_rng(99)
    for _ in range(242):
        k, m = (int(v) for v in rng.integers(2, 9, size=2))
        rows = rng.dirichlet(np.full(m, 0.1), size=k)
        rng.choice([0.0, 0.02, 0.1, 0.3, 0.6])
    return rows


_SPARSE_ROWS = _sparse_rows()


def _cases():
    """Random channels up to 6x6 at Dirichlet concentration 0.7, then up
    to 8x8 at 0.3 and 0.1, whose rows are far from uniform, and the
    sparse channel HiGHS's presolve called infeasible at eps = 0."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(30):
        k, m = (int(v) for v in rng.integers(2, 7, size=2))
        rows = rng.dirichlet(np.full(m, 0.7), size=k)
        eps = float(rng.choice([0.0, 0.02, 0.1, 0.3, 0.6]))
        cost = int(rng.integers(2, max(k, m) + 2))
        cases.append(pytest.param(rows, eps, cost, 0.7, id=f"r{i}-{k}x{m}"))
    rng = np.random.default_rng(2027)
    for alpha in (0.3, 0.1):
        for i in range(20):
            k, m = (int(v) for v in rng.integers(2, 9, size=2))
            rows = rng.dirichlet(np.full(m, alpha), size=k)
            eps = float(rng.choice([0.0, 0.02, 0.1, 0.3, 0.6]))
            cost = int(rng.integers(2, max(k, m) + 2))
            cases.append(pytest.param(rows, eps, cost, alpha,
                                      id=f"a{alpha}-{i}-{k}x{m}"))
    cases.append(pytest.param(_SPARSE_ROWS, 0.0, 3, 0.1, id="sparse-5x8"))
    return cases


def _check_witness(rows, w_tilde, zeta, eps):
    assert np.allclose(w_tilde.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(w_tilde >= 0.0)
    assert np.all(w_tilde <= zeta[None, :] + 1e-9)
    assert prob.channel_tvd(prob.Dmc(rows=w_tilde),
                            prob.Dmc(rows=rows)) <= eps + 1e-8


@pytest.mark.parametrize("rows,eps,cost,alpha", _cases())
def test_random_channels_match_highs(rows, eps, cost, alpha):
    # HiGHS solves to its own 1e-7 tolerance, and at alpha = 0.1 the two
    # costs part by up to 4.4e-8 relative on 300 further channels.
    got = ns_meta.i_max_smooth(rows, eps)
    assert 2.0 ** got.value == pytest.approx(
        _full_program(rows, eps=eps), rel=1e-7 if alpha == 0.1 else 1e-12)
    _check_witness(rows, got.w_tilde, got.zeta, eps)
    dev = ns_meta.ns_eps_for_cost(rows, cost)
    want = max(_full_program(rows, cost=cost), 0.0)
    assert dev.eps == pytest.approx(want, abs=1e-12)
    _check_witness(rows, dev.w_tilde, dev.zeta, dev.eps)
    assert dev.zeta.sum() == pytest.approx(cost, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_identity_past_one_over_k_costs_nothing(k):
    # eps > 1 - 1/k lets every row move to the uniform output, and the
    # floor sum zeta >= 1 stops the program going below 0 bits.
    rows = np.eye(k)
    eps = 1.0 - 1.0 / k + 0.05
    assert _full_program(rows, eps=eps) == pytest.approx(1.0, abs=1e-9)
    got = ns_meta.i_max_smooth(rows, eps)
    assert got.value == pytest.approx(0.0, abs=1e-12)
    _check_witness(rows, got.w_tilde, got.zeta, eps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_useless_bsc_costs_nothing(n):
    # Without the floor the waterfill level of BSC(0.5)^3 at eps = 0.1 is
    # 0.9 2^-3, that is -0.152 bits.
    rows = ns_meta.bsc_channel(n, 0.5).rows
    assert _full_program(rows, eps=0.1) == pytest.approx(1.0, abs=1e-9)
    assert ns_meta.i_max_smooth(rows, 0.1).value == pytest.approx(
        0.0, abs=1e-12)
    fast = ns_meta.bsc_ns_cost(n, 0.5, 0.1)
    assert fast.log2_cost == 0.0
    assert fast.cost == 1


def _symmetric_cases():
    """Channels whose rows, and whose columns, permute one another."""
    rng = np.random.default_rng(1819)
    cases = [pytest.param(ns_meta.bsc_channel(n, delta).rows,
                          id=f"bsc{delta}^{n}")
             for n, delta in ((1, 0.5), (2, 0.11), (3, 0.5), (4, 0.11))]
    for m in (3, 6):
        base = rng.dirichlet(np.ones(m))
        if m == 6:
            base[[0, 3]] = 0.0
            base /= base.sum()
        cases.append(pytest.param(
            np.array([np.roll(base, i) for i in range(m)]),
            id=f"circulant{m}"))
    off = 0.05
    cases += [
        pytest.param(np.full((5, 5), off) + np.eye(5) * (0.8 - off),
                     id="qary5"),
        pytest.param(np.array([[0.35, 0.35, 0.15, 0.15],
                               [0.15, 0.15, 0.35, 0.35]]), id="2x4"),
        pytest.param(np.eye(3), id="identity3"),
    ]
    return cases


@pytest.mark.parametrize("rows", _symmetric_cases())
def test_symmetric_closed_form_matches_highs(rows):
    # These take the flat closed form; HiGHS solves the full program.
    assert ns_meta._is_symmetric(rows)
    m = rows.shape[1]
    for eps in (0.0, 0.02, 0.1, 0.5, 1.0 - 1.0 / m + 0.05):
        if eps >= 1.0:
            continue
        got = ns_meta.i_max_smooth(rows, eps)
        assert got.value == pytest.approx(
            math.log2(_full_program(rows, eps=eps)), abs=1e-9)
        _check_witness(rows, got.w_tilde, got.zeta, eps)
    for cost in range(2, m + 2):
        dev = ns_meta.ns_eps_for_cost(rows, cost)
        want = max(_full_program(rows, cost=cost), 0.0)
        assert dev.eps == pytest.approx(want, abs=1e-9)
        _check_witness(rows, dev.w_tilde, dev.zeta, dev.eps)
