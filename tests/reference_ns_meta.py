"""The full reduced program that ``ns_meta._reduced_program`` shrinks.

The library solves the removed-mass program on the cells that can bind:
each column's peak cell is substituted and the cells whose gap exceeds
the bound on s are dropped. The program here keeps every cell, one row
and one variable per entry of W, and maps its optimum back the way the
library did before the reductions; the tests check the reduced program
against it. Not collected as tests.
"""

import math

import numpy as np

from channelsim.lp import LpProblem, solve_lp
from channelsim.ns_meta import _rebuild_rows


def reduced_program(rows: np.ndarray, eps: float = 0.0,
                    cost: int | None = None) -> LpProblem:
    """maximize sum s  s.t.  r >= 0,  0 <= s <= M,
    s_y - r_xy <= M_y - W(y|x),  sum_y r_xy <= eps,  sum s <= sum M - 1;

    with a cost, minimize gamma with the same caps, sum_y r_xy <= gamma and
    sum s >= sum M - cost. The k m + k + m + 1 rows come in that order,
    and the variables are r (row-major), s, then gamma.
    """
    k, m = rows.shape
    km = k * m
    peak = rows.max(axis=0)
    nv = km + m + (cost is not None)
    a = np.zeros((km + k + m + 1, nv))
    a[:km, :km] = -np.eye(km)
    a[:km, km:km + m] = np.tile(np.eye(m), (k, 1))
    a[km:km + k, :km] = np.kron(np.eye(k), np.ones(m))
    a[km + k:, km:km + m] = np.vstack([np.eye(m), np.ones(m)])
    c = np.zeros(nv)
    gaps = (peak[None, :] - rows).ravel()
    if cost is None:
        c[km:] = -1.0
        b = np.concatenate([gaps, np.full(k, eps), peak,
                            [max(peak.sum() - 1.0, 0.0)]])
        last = "<="
    else:
        a[km:km + k, -1] = -1.0
        c[-1] = 1.0
        b = np.concatenate([gaps, np.zeros(k), peak, [peak.sum() - cost]])
        last = ">="
    return LpProblem(c=c, a=a, b=b,
                     senses=("<=",) * (km + k + m) + (last,))


def solve_reduced(rows: np.ndarray, eps: float = 0.0,
                  cost: int | None = None):
    """(value, W~ witness, zeta, pivots) from ``reduced_program``.

    t = max(W - r, 0) and zeta = M - s; at a cost, zeta is raised evenly
    to sum to the cost, and the value is the deviation gamma.
    """
    sol = solve_lp(reduced_program(rows, eps=eps, cost=cost))
    assert sol.status == "optimal"
    k, m = rows.shape
    t = np.maximum(rows - sol.x[:k * m].reshape(k, m), 0.0)
    zeta = rows.max(axis=0) - sol.x[k * m:k * m + m]
    if cost is None:
        value = float(math.log2(zeta.sum()))
    else:
        zeta += max(cost - zeta.sum(), 0.0) / m
        value = sol.value
    return value, _rebuild_rows(t, zeta), zeta, sol.iterations
