"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Small self-contained solver for the linear programs of the meta-converse
(``ns_meta``) and of the dispersion faces (``asymptotics``); the
smoothed max-divergence has a closed form and keeps its program only as
a reference. Design choices, deliberately boring: a dense tableau,
nonnegative variables with no other bounds (a program states any cap as
a row), Bland's smallest-index entering rule with ratio ties broken by
the smallest basic variable index, equality rows handled through phase-1
artificial variables. Identical input therefore produces an identical
pivot sequence and bit-identical output.

At these sizes a pivot costs its numpy calls more than its arithmetic,
so each step does as few as it can without changing a single result:
the tableaux are mostly zeros, and a pivot divides its row in place and
updates only the rows and columns, objective included, where the pivot
column and row are nonzero; the ratio test reuses the rows found
positive when the entering column was chosen; and the phase-2 objective
is reduced only over rows whose basic cost is nonzero.

Tolerances: reduced costs count as negative below -1e-9, pivot entries
below 1e-11 are never used (an LpNumericsError is raised if no usable
pivot exists), and solutions are rejected unless every constraint
residual is within 1e-8.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

RC_TOL = 1e-9
PIVOT_TOL = 1e-11
FEAS_TOL = 1e-8


class LpNumericsError(RuntimeError):
    """Raised when the tableau degrades past the documented tolerances."""


@dataclasses.dataclass(frozen=True, eq=False)
class LpProblem:
    """minimize c.x  subject to  A x (<=, =, >=) b  and  x >= 0.

    senses is one string per row, each '<=', '=' or '>='. Every variable
    is nonnegative and has no other bound; a cap x_j <= u is a '<=' row.
    """

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    senses: tuple

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        a = np.atleast_2d(np.asarray(self.a, dtype=np.float64))
        b = np.asarray(self.b, dtype=np.float64)
        senses = tuple(self.senses)
        if a.shape != (b.size, c.size):
            raise ValueError("constraint matrix shape mismatch")
        if len(senses) != b.size or any(s not in ("<=", "=", ">=") for s in senses):
            raise ValueError("senses must be '<=', '=' or '>=' per row")
        for name, arr in (("c", c), ("a", a), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", senses)

    @property
    def num_vars(self) -> int:
        return int(self.c.size)

    @property
    def num_rows(self) -> int:
        return int(self.b.size)


@dataclasses.dataclass(frozen=True, eq=False)
class LpSolution:
    status: str            # 'optimal' | 'infeasible' | 'unbounded'
    value: float
    x: np.ndarray          # None unless optimal
    iterations: int


def _pivot(tab: np.ndarray, obj: np.ndarray, basis: np.ndarray, row: int, col: int):
    pivot_row = tab[row]
    pivot_row /= pivot_row[col]
    # The rank-one update only touches rows with a nonzero in the pivot
    # column and columns with a nonzero in the pivot row; every other cell,
    # the objective's included, would have zero subtracted from it.
    cols = pivot_row.nonzero()[0]
    rows = tab[:, col].nonzero()[0]
    rows = rows[rows != row]
    if rows.size:
        tab[rows[:, None], cols] -= tab[rows, col][:, None] * pivot_row[cols]
    obj[cols] -= obj[col] * pivot_row[cols]
    basis[row] = col


def _run_simplex(tab, obj, basis, allowed, max_iters):
    """Bland iterations on the current tableau. Returns (status, iters)."""
    iters = 0
    ncols = tab.shape[1] - 1
    while True:
        if iters > max_iters:
            raise LpNumericsError("simplex iteration limit exceeded")
        entering = -1
        saw_tiny_only = False
        for j in (allowed & (obj[:ncols] < -RC_TOL)).nonzero()[0]:
            col = tab[:, j]
            rows = (col > PIVOT_TOL).nonzero()[0]
            if not rows.size:
                if (col > 0.0).any():
                    saw_tiny_only = True   # only sub-tolerance pivots here
                    continue
                return "unbounded", iters
            entering = int(j)
            break
        if entering < 0:
            if saw_tiny_only:
                raise LpNumericsError("no pivot above 1e-11 in any improving column")
            return "optimal", iters
        ratios = tab[rows, -1] / col[rows]
        best = ratios.min()
        # Bland tie-break: smallest basic variable index among minimal ratios
        tied = rows[ratios <= best + 1e-12 * max(1.0, abs(best))]
        leave = tied[basis[tied].argmin()]
        _pivot(tab, obj, basis, int(leave), entering)
        iters += 1


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an LpProblem, returning an optimal basic solution.

    Raises LpNumericsError when the tableau cannot be trusted, including
    past 200 * (rows + columns) + 2000 pivots in a phase; returns status
    'infeasible' or 'unbounded' (with x = None) for well-posed programs
    without an optimum.
    """
    n = problem.num_vars

    A = problem.a.copy()
    b = problem.b.copy()
    senses = np.array(problem.senses)
    # Which way each row may miss its bound, for the final check.
    may_exceed = senses != ">="
    may_fall = senses != "<="
    rows_total = b.size
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] = -b[neg]
    flip = neg & (senses != "=")
    senses[flip] = np.where(senses[flip] == "<=", ">=", "<=")

    # ---- slack and artificial blocks
    slack_rows = np.flatnonzero(senses != "=")
    art_rows = np.flatnonzero(senses != "<=")
    n_slack, n_art = slack_rows.size, art_rows.size
    ncols = n + n_slack + n_art
    tab = np.zeros((rows_total, ncols + 1))
    tab[:, :n] = A
    tab[:, -1] = b
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)
    tab[slack_rows, slack_cols] = np.where(senses[slack_rows] == "<=", 1.0, -1.0)
    tab[art_rows, art_cols] = 1.0
    basis = np.empty(rows_total, dtype=np.int64)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols     # a '>=' row starts on its artificial

    max_iters = 200 * (rows_total + ncols) + 2000
    iters_total = 0
    allowed = np.ones(ncols, dtype=bool)
    first_art = n + n_slack
    if n_art:
        # phase 1: minimize the sum of artificials, expressed in reduced form
        obj = -tab[art_rows].sum(axis=0)
        obj[art_cols] = 0.0
        status, it1 = _run_simplex(tab, obj, basis, allowed, max_iters)
        iters_total += it1
        if status == "unbounded":
            raise LpNumericsError("phase 1 reported unbounded")
        phase1_val = float(tab[basis >= first_art, -1].sum())
        if phase1_val > FEAS_TOL:
            return LpSolution("infeasible", math.inf, None, iters_total)
        # drive remaining artificials out of the basis, drop redundant rows
        keep_rows = np.ones(rows_total, dtype=bool)
        for i in np.flatnonzero(basis >= first_art):
            cand = np.flatnonzero(np.abs(tab[i, :first_art]) > PIVOT_TOL)
            if cand.size:
                _pivot(tab, obj, basis, i, int(cand[0]))
                iters_total += 1
            else:
                keep_rows[i] = False
        tab = tab[keep_rows]
        basis = basis[keep_rows]
        rows_total = tab.shape[0]
    # artificial columns are dead from here on
    allowed[first_art:] = False

    # phase 2 objective in reduced form
    obj = np.zeros(ncols + 1)
    obj[:n] = problem.c
    # Basic columns are unit vectors, so clearing one basic cost leaves the
    # others as they are: only rows with a nonzero basic cost take a step.
    for i in (obj[basis] != 0.0).nonzero()[0]:
        obj -= obj[basis[i]] * tab[i]
    status, it2 = _run_simplex(tab, obj, basis, allowed, max_iters)
    iters_total += it2
    if status == "unbounded":
        return LpSolution("unbounded", -math.inf, None, iters_total)

    # ---- read x off the basis and validate
    x_std = np.zeros(ncols)
    x_std[basis] = tab[:, -1]
    if x_std.min() < -FEAS_TOL:
        raise LpNumericsError("negative basic value beyond tolerance")
    x = np.maximum(x_std[:n], 0.0)

    resid = problem.a @ x - problem.b
    bad = (may_exceed & (resid > FEAS_TOL)) | (may_fall & (resid < -FEAS_TOL))
    if bad.any():
        i = int(bad.argmax())
        raise LpNumericsError(f"row {i} residual {resid[i]:.3e} out of tolerance")

    value = float(problem.c @ x)
    tableau_value = -float(obj[-1])
    if abs(value - tableau_value) > 1e-9 * max(1.0, abs(value)):
        raise LpNumericsError("tableau objective drifted from recomputed value")
    return LpSolution("optimal", value, x, iters_total)
