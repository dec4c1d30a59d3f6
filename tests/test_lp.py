"""Simplex solver against closed forms and a vertex-enumeration oracle."""

import itertools
import re

import numpy as np
import pytest

from channelsim.lp import LpProblem, LpSolution, solve_lp


def _vertex_oracle(problem: LpProblem):
    """Brute-force optimum by enumerating basic feasible points.

    Turns every inequality and nonnegativity into a hyperplane, solves
    all n-subsets, keeps feasible intersection points, and returns the
    best objective. Exponential, so only for tiny instances.
    """
    n = problem.num_vars
    planes = []
    for i in range(problem.num_rows):
        planes.append((problem.a[i], problem.b[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, 0.0))
    best = np.inf
    arg = None
    for combo in itertools.combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        ok = True
        for i in range(problem.num_rows):
            lhs = problem.a[i] @ x
            s = problem.senses[i]
            if s == "<=" and lhs > problem.b[i] + 1e-9:
                ok = False
            elif s == ">=" and lhs < problem.b[i] - 1e-9:
                ok = False
            elif s == "=" and abs(lhs - problem.b[i]) > 1e-9:
                ok = False
        if ok and np.all(x >= -1e-9):
            val = problem.c @ x
            if val < best - 1e-12:
                best, arg = val, x
    return best, arg


def test_textbook_max():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6)
    p = LpProblem(c=np.array([-3.0, -5.0]),
                  a=np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]),
                  b=np.array([4.0, 12.0, 18.0]),
                  senses=("<=", "<=", "<="))
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-36.0)
    assert sol.x == pytest.approx([2.0, 6.0])


def test_equality_rows():
    p = LpProblem(c=np.array([1.0, 2.0, 3.0]),
                  a=np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
                  b=np.array([1.0, 0.3]),
                  senses=("=", "="))
    sol = solve_lp(p)
    assert sol.status == "optimal"
    # x = y + 0.3, z = 0.7 - 2y; objective 1.9 - z*... direct check instead
    assert sol.value == pytest.approx(0.65 + 0.35 * 2)


def test_infeasible():
    p = LpProblem(c=np.array([1.0]),
                  a=np.array([[1.0], [1.0]]),
                  b=np.array([1.0, 2.0]),
                  senses=(">=", "<="))
    sol = solve_lp(LpProblem(c=np.array([1.0]),
                             a=np.array([[1.0], [-1.0]]),
                             b=np.array([2.0, -1.0]),
                             senses=(">=", ">=")))
    assert sol.status == "infeasible" or sol.status == "optimal"
    # the genuinely empty program: x >= 2 and x <= 1
    sol2 = solve_lp(LpProblem(c=np.array([1.0]),
                              a=np.array([[1.0], [1.0]]),
                              b=np.array([2.0, 1.0]),
                              senses=(">=", "<=")))
    assert sol2.status == "infeasible"
    assert sol2.x is None


def test_unbounded():
    p = LpProblem(c=np.array([-1.0, 0.0]),
                  a=np.array([[0.0, 1.0]]),
                  b=np.array([1.0]),
                  senses=("<=",))
    assert solve_lp(p).status == "unbounded"


def test_degenerate_vertex_terminates():
    # several constraints meet at the optimum; Bland's rule must not cycle
    p = LpProblem(c=np.array([-1.0, -1.0]),
                  a=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                              [1.0, 2.0], [2.0, 1.0]]),
                  b=np.array([1.0, 1.0, 2.0, 3.0, 3.0]),
                  senses=("<=",) * 5)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-2.0)


def test_against_vertex_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        a = rng.normal(size=(m, n))
        x_feas = rng.random(n)
        slack = rng.random(m) * 0.5
        b = a @ x_feas + slack
        c = rng.normal(size=n)
        upper = x_feas + rng.random(n) * 2.0
        p = LpProblem(c=c, a=np.vstack([a, np.eye(n)]),
                      b=np.concatenate([b, upper]), senses=("<=",) * (m + n))
        sol = solve_lp(p)
        assert sol.status == "optimal"
        want, _ = _vertex_oracle(p)
        assert sol.value == pytest.approx(want, abs=1e-7)
        checked += 1
    assert checked == 40


def test_deterministic_resolve():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(3, 4))
    b = a @ rng.random(4) + 0.2
    c = rng.normal(size=4)
    p = LpProblem(c=c, a=np.vstack([a, np.eye(4)]),
                  b=np.concatenate([b, np.full(4, 3.0)]), senses=("<=",) * 7)
    s1 = solve_lp(p)
    s2 = solve_lp(p)
    assert s1.value == s2.value
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        LpProblem(c=np.array([np.inf]), a=np.array([[1.0]]),
                  b=np.array([1.0]), senses=("<=",))


def test_caps_are_rows_not_bounds():
    # A cap is a row like any other; there is no separate bound vector.
    with pytest.raises(TypeError):
        LpProblem(c=[-1.0], a=[[1.0]], b=[1.0], senses=("<=",),
                  upper=[0.5])


def test_shape_mismatch():
    with pytest.raises(ValueError):
        LpProblem(c=np.array([1.0, 2.0]), a=np.array([[1.0]]),
                  b=np.array([1.0]), senses=("<=",))


def _dense_pivot(tab, obj, basis, row, col):
    """Reference pivot: the full rank-one update of the whole tableau."""
    piv = tab[row, col]
    tab[row] /= piv
    pivot_row = tab[row]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, pivot_row)
    obj -= obj[col] * pivot_row
    basis[row] = col


def _pivot_programs():
    from channelsim import ns_meta

    rng = np.random.default_rng(71)
    programs = []
    for _ in range(6):
        k, m = (int(v) for v in rng.integers(2, 6, size=2))
        rows = rng.dirichlet(np.ones(m), size=k)
        programs.append(ns_meta._reduced_program(
            rows, eps=float(rng.uniform(0.0, 0.4))))
        programs.append(ns_meta._reduced_program(
            rows, cost=int(rng.integers(2, m + 2))))
    for _ in range(8):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        a = rng.normal(size=(m, n))
        upper = 0.5 + rng.random(n) * 2.0
        x_feas = upper * rng.random(n)
        c = rng.normal(size=n)
        kinds = rng.choice(["<=", "=", ">="], size=m)
        slack = rng.random(m) * 0.5
        b = a @ x_feas + np.select([kinds == "<=", kinds == ">="],
                                   [slack, -slack], 0.0)
        programs.append(LpProblem(
            c=c, a=np.vstack([a, np.eye(n)]), b=np.concatenate([b, upper]),
            senses=tuple(kinds.tolist()) + ("<=",) * n))
    # The reduced programs at the sizes of the exact one-shot costs:
    # BSC(0.11)^3, random 8x8 and 12x12 channels, each at an eps and at
    # cost 2 (a larger cost can leave nothing to pivot), and the 16x16
    # BSC(0.11)^4 at eps 0.05.
    bsc = np.array([[0.89, 0.11], [0.11, 0.89]])
    bsc3 = np.kron(np.kron(bsc, bsc), bsc)
    for rows in (bsc3, rng.dirichlet(np.ones(8), size=8),
                 rng.dirichlet(np.ones(12), size=12)):
        programs.append(ns_meta._reduced_program(
            rows, eps=float(rng.uniform(0.03, 0.15))))
        programs.append(ns_meta._reduced_program(rows, cost=2))
    programs.append(ns_meta._reduced_program(np.kron(bsc3, bsc), eps=0.05))
    return programs


def test_sparse_pivot_matches_dense_reference(monkeypatch):
    # Skipping the cells the rank-one update would subtract zero from must
    # not change a single bit of the result or the pivot sequence.
    from channelsim import lp

    programs = _pivot_programs()
    sparse = [solve_lp(p) for p in programs]
    monkeypatch.setattr(lp, "_pivot", _dense_pivot)
    for p, got in zip(programs, sparse):
        want = solve_lp(p)
        assert got.status == want.status == "optimal"
        assert got.iterations == want.iterations
        assert got.value == want.value
        assert np.array_equal(got.x, want.x)


@pytest.mark.parametrize("scale, message", [
    (0.5, "row 0 residual -5.000e-01"),   # '=' row short, '>=' row too
    (2.0, "row 0 residual 1.000e+00"),    # '=' row over, '<=' row too
])
def test_residual_check_names_first_bad_row(monkeypatch, scale, message):
    # Scaling the basic values after phase 2 moves x off the constraints;
    # the final check must catch it and name the first row it breaks.
    from channelsim import lp

    run = lp._run_simplex
    calls = []

    def scaled_run(tab, obj, basis, allowed, max_iters):
        result = run(tab, obj, basis, allowed, max_iters)
        calls.append(result)
        if len(calls) == 2:
            tab[:, -1] *= scale
        return result

    p = LpProblem(c=np.array([1.0, 2.0]),
                  a=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
                  b=np.array([1.0, 1.5, 0.1]),
                  senses=("=", "<=", ">="))
    assert solve_lp(p).x == pytest.approx([0.9, 0.1])
    monkeypatch.setattr(lp, "_run_simplex", scaled_run)
    with pytest.raises(lp.LpNumericsError, match=re.escape(message)):
        solve_lp(p)
