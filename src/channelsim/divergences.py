"""Divergences between finite distributions, plus smoothed and spectral forms.

Everything is measured in bits. Functions take raw mass vectors (anything
``np.asarray`` accepts) so that joint distributions can be passed flattened;
wrap ``Pmf.probs`` at call sites. Each must pass Pmf's one mass rule
(``prob._check_mass``: finite, nonnegative, sum 1 within 1e-12). Where a
quantity diverges because absolute continuity fails, the functions return
``math.inf`` rather than raising, except ``var_div`` whose variance is
undefined without a finite mean.
The spectrum divergence D_s+ has one vectorized kernel, ``_spectrum``, for
``d_s_plus`` and for its channel form ``ns_meta.d_s_plus_channel``.
The smoothed max-divergence has one closed-form kernel, ``_smooth_levels``,
which ``ns_meta`` also runs on channel rows and on the Hamming-weight
classes of BSC powers; ``_d_max_smooth_lp`` stays as its reference.

The hypothesis-testing quantity ``beta_star`` is evaluated exactly by subset
enumeration. A likelihood-ratio prefix is optimal only for randomized tests;
over deterministic test sets it can miss the minimum (take p = (.09, .9, .01)
against q = (.01, .98, .01) at eps = 0.2: every ratio prefix reaching mass
0.8 costs q-mass 1.0 while the singleton {1} costs 0.98), so no greedy
shortcut is offered.
"""

from __future__ import annotations

import math

import numpy as np

from .lp import LpProblem, solve_lp
from .prob import _check_mass

# Effective support cap for beta_star's subset enumeration (2^20 subset sums).
_ENUM_LIMIT = 20


def _as_pmf_pair(p, q):
    pa = np.asarray(p, dtype=np.float64).reshape(-1)
    qa = np.asarray(q, dtype=np.float64).reshape(-1)
    if pa.size != qa.size or pa.size == 0:
        raise ValueError("distributions must share a nonempty alphabet")
    _check_mass(pa, "p")
    _check_mass(qa, "q")
    return pa, qa


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")


def kl(p, q) -> float:
    """Relative entropy sum p log2(p/q); +inf if p is not dominated by q."""
    pa, qa = _as_pmf_pair(p, q)
    on = pa > 0.0
    if np.any(qa[on] == 0.0):
        return math.inf
    return float((pa[on] * np.log2(pa[on] / qa[on])).sum())


def var_div(p, q) -> float:
    """Variance of the log-ratio, sum p (log2(p/q) - kl)^2, in bits^2."""
    pa, qa = _as_pmf_pair(p, q)
    on = pa > 0.0
    if np.any(qa[on] == 0.0):
        raise ValueError("variance undefined: p has mass outside supp(q)")
    logs = np.log2(pa[on] / qa[on])
    mean = float((pa[on] * logs).sum())
    return float((pa[on] * (logs - mean) ** 2).sum())


def d_max(p, q) -> float:
    """Max-divergence max over supp(p) of log2(p/q)."""
    pa, qa = _as_pmf_pair(p, q)
    on = pa > 0.0
    if np.any(qa[on] == 0.0):
        return math.inf
    return float(np.log2(pa[on] / qa[on]).max())


def beta_star(eps: float, p, q) -> float:
    """Least q-mass of a subset A with p(A) >= 1 - eps, exactly.

    Symbols with p = 0 never help, and symbols with q = 0 are free, so the
    enumeration only runs over the symbols charged by both distributions;
    alphabets whose charged part exceeds 20 symbols are rejected.
    """
    pa, qa = _as_pmf_pair(p, q)
    _check_eps(eps)
    free = (qa == 0.0) & (pa > 0.0)
    required = (1.0 - eps) - float(pa[free].sum())
    if required <= 1e-12:
        return 0.0
    charged = (pa > 0.0) & (qa > 0.0)
    pc, qc = pa[charged], qa[charged]
    if pc.size > _ENUM_LIMIT:
        raise ValueError(
            f"beta_star enumerates subsets of the charged support, "
            f"capped at {_ENUM_LIMIT} symbols; got {pc.size}"
        )
    p_sums = np.zeros(1)
    q_sums = np.zeros(1)
    for i in range(pc.size):
        p_sums = np.concatenate([p_sums, p_sums + pc[i]])
        q_sums = np.concatenate([q_sums, q_sums + qc[i]])
    feasible = p_sums >= required - 1e-12
    if not feasible.any():
        # Total charged p-mass falls short of the requirement, which cannot
        # happen for valid pmfs (the full set always qualifies).
        return math.inf
    return float(q_sums[feasible].min())


def d_h(eps: float, p, q) -> float:
    """Hypothesis-testing divergence -log2 beta_star; +inf when beta_star = 0."""
    beta = beta_star(eps, p, q)
    if beta <= 0.0:
        return math.inf
    return 0.0 - math.log2(beta)  # +0.0, not -0.0, at beta = 1


def _spectrum(mass, log_ratio, eps: float) -> np.ndarray:
    """D_s+^eps per row: inf{a >= 0 : mass with log-ratio above a < eps}.

    Row g holds atoms of mass ``mass[g]`` (broadcast) at ``log_ratio[g]``;
    -inf marks atoms that never exceed, +inf mass outside the reference's
    support. The value is the first finite atom whose strict exceedance
    is below eps, clamped at 0; it is 0 when the row's mass is below eps,
    and +inf when no finite atom qualifies.
    """
    order = np.argsort(log_ratio, axis=1, kind="stable")
    vals = np.take_along_axis(log_ratio, order, axis=1)
    ms = np.take_along_axis(np.broadcast_to(mass, vals.shape), order, axis=1)
    # above[:, i] = mass sorted after atom i, summed from the top so that a
    # small tail is no difference of totals; at the last atom of a tie
    # group it is the strict exceedance of that group's value.
    above = np.zeros_like(ms)
    above[:, :-1] = np.cumsum(ms[:, :0:-1], axis=1)[:, ::-1]
    group_end = np.ones_like(vals, dtype=bool)
    group_end[:, :-1] = vals[:, 1:] > vals[:, :-1]
    ok = group_end & (above < eps) & np.isfinite(vals)
    picked = vals[np.arange(vals.shape[0]), np.argmax(ok, axis=1)]
    out = np.where(ok.any(axis=1), np.maximum(picked, 0.0), math.inf)
    return np.where(ms.sum(axis=1) < eps, 0.0, out)


def _d_s_plus_rows(eps: float, pa: np.ndarray, qa: np.ndarray) -> np.ndarray:
    """D_s+^eps(row || qa) for each row of ``pa``, all pmfs checked."""
    if not eps >= 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log2(pa / qa)
    # 0/0 atoms carry no mass and never exceed a threshold
    log_ratio[np.isnan(log_ratio)] = -math.inf
    return _spectrum(pa, log_ratio, eps)


def d_s_plus(eps: float, p, q) -> float:
    """Spectrum divergence inf{a >= 0 : Pr_p[log2 p/q > a] < eps}.

    Attained at a log-ratio atom or at the clamp point 0 (``_spectrum``).
    It is +inf at eps = 0 or once the p-mass outside supp(q) reaches eps,
    and 0 for eps above p's whole mass.
    """
    pa, qa = _as_pmf_pair(p, q)
    return float(_d_s_plus_rows(eps, pa[None], qa)[0])


def _smooth_levels(log_p, log_q, eps: float) -> np.ndarray:
    """log2 max_t (P_t - eps) / Q_t per row, over the t with Q_t > 0.

    Rows hold atoms sorted by decreasing ratio p/q (q = 0 first), as
    base-2 logs of the p-mass (summing to 1) and of the q-mass or class
    count; P_t and Q_t sum the first t, and P_t <= eps reads -inf. At
    eps = 0 the value is the top atom's log-ratio, which no prefix (a
    mediant) exceeds. From eps = 1/2 on, P_t - eps is (1 - eps) less the
    mass after t, exact where P_t near 1 would swamp a gain near 1 - eps.
    """
    if eps == 0.0:
        return log_p[:, 0] - log_q[:, 0]
    mass = np.exp2(log_p)
    if eps < 0.5:
        gain = np.cumsum(mass, axis=1) - eps
    else:
        gain = np.full_like(mass, 1.0 - eps)
        gain[:, :-1] -= np.cumsum(mass[:, :0:-1], axis=1)[:, ::-1]
    log_q = np.logaddexp2.accumulate(log_q, axis=1)
    ok = (gain > 0.0) & (log_q > -math.inf)
    level = np.log2(gain, out=np.full_like(gain, -math.inf), where=ok)
    return np.subtract(level, log_q, out=level, where=ok).max(axis=1)


def _d_max_smooth_rows(eps: float, pa: np.ndarray, qa: np.ndarray):
    """d_max_smooth(eps, row, qa) for each row of ``pa``, all pmfs checked."""
    _check_eps(eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log2(pa), np.log2(qa)
        # 0/0 letters key as NaN, which sorts last: they carry nothing
        order = np.argsort(log_q - log_p, axis=1, kind="stable")
    levels = _smooth_levels(np.take_along_axis(log_p, order, axis=1),
                            log_q[order], eps)
    outside = pa[:, qa == 0.0].sum(axis=1)
    return np.where(outside > eps, math.inf, np.maximum(levels, 0.0))


def d_max_smooth(eps: float, p, q) -> float:
    """Smoothed max-divergence: least log2 m over p' in the eps-ball of p.

    Minimizes m over substitutes p' with 0 <= p' <= m q, sum p' = 1 and
    tvd(p', p) <= eps, in closed form: log2 max(1, lam*) with
    lam* = min{lam : sum_y min(p_y, lam q_y) >= 1 - eps} (keep
    min(p, lam q), refill the rest where q has room). In removed mass,
    lam is feasible iff out + sum_{y in S} (p_y - lam q_y) <= eps for every
    S in supp(q), out being the p-mass outside supp(q); the worst S are
    the top-ratio sets, so lam* is the largest (out + p(S) - eps) / q(S)
    over those (``_smooth_levels``), and +inf when out exceeds eps.
    """
    pa, qa = _as_pmf_pair(p, q)
    return float(_d_max_smooth_rows(eps, pa[None], qa)[0])


def _d_max_smooth_lp(eps: float, p, q) -> float:
    """Reference for ``d_max_smooth``: the smoothing linear program.

    Variables p' (n), mu (n) and m; minimizes m subject to sum p' = 1,
    p' <= m q and tvd(p', p) <= eps, the last written with one-sided
    slacks mu >= p' - p, sum mu <= eps. Returns log2 of the optimum, or
    +inf when the program is infeasible.
    """
    pa, qa = _as_pmf_pair(p, q)
    _check_eps(eps)
    n = pa.size
    # Variables: p' (n), mu (n), m.
    nv = 2 * n + 1
    rows, rhs, senses = [], [], []
    row = np.zeros(nv)
    row[:n] = 1.0
    rows.append(row)
    rhs.append(1.0)
    senses.append("=")
    for i in range(n):
        row = np.zeros(nv)
        row[i] = 1.0
        row[-1] = -qa[i]
        rows.append(row)
        rhs.append(0.0)
        senses.append("<=")
        row = np.zeros(nv)
        row[i] = 1.0
        row[n + i] = -1.0
        rows.append(row)
        rhs.append(pa[i])
        senses.append("<=")
    row = np.zeros(nv)
    row[n:2 * n] = 1.0
    rows.append(row)
    rhs.append(eps)
    senses.append("<=")
    cost = np.zeros(nv)
    cost[-1] = 1.0
    sol = solve_lp(LpProblem(c=cost, a=np.array(rows), b=np.array(rhs),
                             senses=tuple(senses)))
    if sol.status == "infeasible":
        return math.inf
    if sol.status != "optimal":
        raise ArithmeticError(f"smoothing LP ended with status {sol.status}")
    return float(math.log2(max(sol.x[-1], 1.0)))
