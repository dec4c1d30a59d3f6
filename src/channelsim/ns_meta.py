"""Channel max-information and no-signaling simulation cost programs.

The one-shot cost of simulating a channel W within TVD eps under
no-signaling assistance is the ceiling of 2 to the smoothed channel
max-information

    I_max^eps(W) = log2 min sum_y zeta(y)

over row-stochastic substitutes W~ with W~(y|x) <= zeta(y) and per-row TVD
to W at most eps. Both directions of the tradeoff are exposed: minimal cost
at fixed eps, and minimal eps at fixed integer cost. Both are solved as one
reduced LP over the overlap t = min(W, W~) and zeta alone, written in the
mass removed from W and from the column peaks M_y = max_x W(y|x):
r = W - t and s = M - zeta (see ``_reduced_program``). The program keeps
only the cells that can bind: each column's peak cell is substituted
(r = s_y) and the cells whose gap M_y - W(y|x) exceeds the bound on s_y
are dropped, both with the full program's optimum. W itself is feasible,
so r = s = 0 is a basic feasible start and the simplex skips phase 1 in
the cost direction; at an integer cost of at least sum M, zeta = M fits
and no LP is built. The substitute channel is rebuilt from t afterwards.
On a symmetric channel, one whose rows are permutations of one another and
whose columns are too (Cover and Thomas, section 7.2), a flat zeta is
optimal and both directions are closed forms of row 0 alone, with no LP
(see ``_solve_reduced``). For BSC tensor powers, the symmetric channels of
this kind that grow with n, the same smoothed max-divergence kernel reads
the flat level off the Hamming-weight classes in the log domain, so any
blocklength is cheap; see ``bsc_ns_cost`` and, for many blocklengths at
once, ``bsc_ns_log2_costs``.

Witness conventions: witnesses are renormalized row-wise before being
returned, and reported reference weights zeta are M - s from the LP, whose
sum is the (fractional) cost; at a fixed integer cost they are first raised
evenly to sum to that cost. On a symmetric channel zeta is flat.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .divergences import (_as_pmf_pair, _check_eps, _d_max_smooth_rows,
                          _d_s_plus_rows, _smooth_levels, d_max_smooth)
from .lp import LpProblem, solve_lp
from .prob import (Dmc, _channel_rows, _check_blocklengths, _check_count,
                   _lgamma_table)


def i_max(w) -> float:
    """Unsmoothed channel max-information log2 sum_y max_x W(y|x)."""
    rows = _channel_rows(w)
    return float(math.log2(rows.max(axis=0).sum()))


@dataclasses.dataclass(frozen=True)
class SmoothImax:
    """Value of I_max^eps together with the optimizing substitute channel."""

    value: float
    w_tilde: np.ndarray
    zeta: np.ndarray


@dataclasses.dataclass(frozen=True)
class NsCostResult:
    i_max_eps: float
    cost: int
    w_tilde: np.ndarray
    zeta: np.ndarray


def _clamped_ceil(value: float) -> int:
    """Ceiling after snapping to the nearest integer within 1e-9."""
    nearest = round(value)
    if abs(value - nearest) <= 1e-9:
        return int(nearest)
    return int(math.ceil(value))


def _clean_rows(raw: np.ndarray) -> np.ndarray:
    """Row-normalize an LP witness after dropping solver dust below 1e-13.

    The dust matters: a 1e-15 entry left where the optimal zeta is zero
    would blow the max divergence of the witness row up to infinity.
    """
    rows = np.where(raw < 1e-13, 0.0, raw)
    return rows / rows.sum(axis=1, keepdims=True)


def _program_cells(rows: np.ndarray, eps: float = 0.0,
                   cost: int | None = None):
    """The cells ``_reduced_program`` keeps: (M, peak rows, kept mask).

    Column y's peak row x*(y) is the first x with W(y|x) = M_y. Every
    other cell is kept when its gap M_y - W(y|x) is at most the bound on
    s_y at an optimum: eps, or at a cost c the worst row deviation
    gamma_0 = max_x sum_y (W(y|x) - zeta0_y)+ of the feasible point
    zeta0 = M c / sum M.
    """
    peak = rows.max(axis=0)
    top = rows.argmax(axis=0)
    if cost is None:
        bound = eps
    else:
        bound = np.maximum(rows - peak * (cost / peak.sum()), 0.0).sum(
            axis=1).max()
    keep = peak - rows <= bound
    keep[top, np.arange(rows.shape[1])] = False
    return peak, top, keep


def _reduced_program(rows: np.ndarray, eps: float = 0.0,
                     cost: int | None = None, cells=None) -> LpProblem:
    """The max-information LP in removed-mass variables r and s.

    A substitute row W~(.|x) within TVD eps of W(.|x) keeps the overlap
    t_xy = min(W(y|x), W~(y|x)) of mass at least 1 - eps, so the program
    needs only t (k x m) and the weights zeta (m). It is written in the
    mass removed from W and from the column peaks M_y = max_x W(y|x):
    r = W - t and s = M - zeta, so that

        maximize sum s  s.t.  r >= 0,  0 <= s <= M,
                              s_y - r_xy <= M_y - W(y|x),
                              sum_y r_xy <= eps,  sum s <= sum M - 1

    is the cost program min sum zeta over 0 <= t <= W, t_xy <= zeta_y,
    sum_y t_xy >= 1 - eps and sum zeta >= 1 (s >= 0 loses nothing: zeta
    can always be cut down to M). The m rows s <= M (zeta >= 0) replace
    the k m caps r <= W (t >= 0) with the same optimum: those caps give
    s_y <= M_y - W(y|x) + r_xy <= M_y, and conversely min(r, W) with the
    same s is feasible, since where r_xy > W(y|x) its row reads s <= M
    and every row sum only falls. An optimal r may still exceed W, so t
    is read as max(W - r, 0). With an integer cost the program instead
    gains a last variable gamma: minimize gamma with the same caps,
    sum_y r_xy <= gamma and sum zeta <= cost, written
    sum s >= sum M - cost, the only row that may need an artificial.

    Two reductions, both exact, shrink it to the cells that can bind
    (``_program_cells``):

    - Peak cells are substituted. In column y's peak row x*(y) the cell's
      row reads r >= s_y, and that r appears elsewhere only in the budget
      row of x*, where it only uses budget up; so r = s_y loses nothing.
      Its variable and row go, and s_y enters the budget row of x*
      directly. Other rows tied at the peak stay as cells with gap 0.
    - Cells that cannot bind are dropped. The budget row of x*(y) now
      gives s_y <= eps, or in the cost form s_y <= gamma* <= gamma_0,
      the deviation of the feasible point zeta0 = M c / sum M. A cell
      whose gap exceeds that bound keeps r = 0 at every optimum: its
      variable and its row go, and so does the budget row of an input
      left with no cell. Setting a dropped r to 0 maps every feasible
      point of the full program to one of the small program with the
      same objective; an optimum of the small program, with its dropped
      r at 0, meets every dropped row; so both have the same optimum.

    Every right-hand side of the eps form stays non-negative, so r = s = 0,
    that is t = W and zeta = M, is the all-slack basis and the simplex
    starts in phase 2. The last row lets every row be refilled to mass one
    under zeta (see ``_rebuild_rows``). The variables are the kept cells'
    r in row-major order, then s, then gamma; the rows are the kept cells,
    the budget rows of the inputs that keep one (ascending), the caps
    s <= M and the last row. ``cells`` is the ``_program_cells`` layout
    for the same eps and cost, when the caller has decided it already.
    """
    if cells is None:
        cells = _program_cells(rows, eps=eps, cost=cost)
    peak, top, keep = cells
    m = rows.shape[1]
    cell_x, cell_y = keep.nonzero()
    nk = cell_x.size
    inputs = np.union1d(cell_x, top)
    nb = inputs.size
    cells, outs = np.arange(nk), np.arange(m)
    a = np.zeros((nk + nb + m + 1, nk + m + (cost is not None)))
    a[cells, cells] = -1.0
    a[cells, nk + cell_y] = 1.0
    a[nk + np.searchsorted(inputs, cell_x), cells] = 1.0
    a[nk + np.searchsorted(inputs, top), nk + outs] = 1.0
    a[nk + nb + outs, nk + outs] = 1.0
    a[-1, nk:nk + m] = 1.0
    c = np.zeros(a.shape[1])
    gaps = (peak - rows)[keep]
    if cost is None:
        c[nk:] = -1.0
        # sum M >= 1 holds exactly; only its rounding can dip below.
        b = np.concatenate([gaps, np.full(nb, eps), peak,
                            [max(peak.sum() - 1.0, 0.0)]])
        last = "<="
    else:
        a[nk:nk + nb, -1] = -1.0
        c[-1] = 1.0
        b = np.concatenate([gaps, np.zeros(nb), peak, [peak.sum() - cost]])
        last = ">="
    return LpProblem(c=c, a=a, b=b,
                     senses=("<=",) * (nk + nb + m) + (last,))


def _is_symmetric(rows: np.ndarray) -> bool:
    """Whether the rows are permutations of one another and so are the
    columns, compared bit for bit."""
    by_row = np.sort(rows, axis=1)
    by_col = np.sort(rows, axis=0)
    return bool((by_row == by_row[0]).all()
                and (by_col == by_col[:, :1]).all())


def _solve_reduced(rows: np.ndarray, what: str, eps: float = 0.0,
                   cost: int | None = None):
    """Optimum of ``_reduced_program``; returns (value, W~ witness, zeta).

    The value is I_max^eps in bits, or with a cost the least deviation
    (possibly a rounding below 0). A symmetric channel (``_is_symmetric``)
    takes the flat zeta in closed form; any other channel, even one an
    ulp off symmetric, takes ``_solve_reduced_lp``. The flat zeta is
    optimal there. Write G_y(z) = sum_x min(W(y|x), z), concave and
    nondecreasing in z. Averaging the k row constraints of any feasible
    (t, zeta) gives

        min_x sum_y min(W(y|x), zeta_y) <= (1/k) sum_y G_y(zeta_y).

    The columns share one multiset, so every G_y is the same G, and by
    Jensen (1/k) sum_y G(zeta_y) <= (m/k) G(mean zeta): the flat zeta
    with the same sum (in the cost form, with sum at most c, so also the
    flat c/m) does at least as well on average. The rows share one
    multiset, so every row keeps the same sum_y min(W(y|x), z) =
    (m/k) G(z) under a flat z, and the flat vector meets every row's
    constraint exactly when it meets row 0's. Hence

        I_max^eps = log2 max(1, lam*),
        lam* = m min{z : sum_y min(W(y|0), z) >= 1 - eps},

    which is ``d_max_smooth(eps, W(.|0), uniform)`` (the max(1, .) is the
    floor sum zeta >= 1), and at cost c the deviation is
    1 - sum_y min(W(y|0), c/m), summed as the removed mass
    sum_y max(W(y|0) - c/m, 0), the LP's own r, so that a small deviation
    is no difference of near-equal sums. The witness keeps
    t = min(W, zeta).
    """
    if not _is_symmetric(rows):
        return _solve_reduced_lp(rows, what, eps=eps, cost=cost)
    m = rows.shape[1]
    if cost is None:
        value = d_max_smooth(eps, rows[0], np.full(m, 1.0 / m))
        zeta = np.full(m, 2.0 ** value / m)
    else:
        zeta = np.full(m, cost / m)
        value = float(np.maximum(rows[0] - zeta, 0.0).sum())
    return value, _rebuild_rows(np.minimum(rows, zeta), zeta), zeta


def _solve_reduced_lp(rows: np.ndarray, what: str, eps: float = 0.0,
                      cost: int | None = None):
    """``_solve_reduced`` by the simplex, for any channel.

    Maps back zeta = M - s and t = max(W - r, 0) (``_reduced_program``
    caps zeta, not t), with r = s_y on column y's peak cell and r = 0 on
    the cells the program drops. At a fixed cost, zeta is then raised
    evenly until it sums to the cost, which keeps every t <= zeta. A cost
    of at least sum M needs no LP: zeta = M is feasible there, so the
    deviation is 0 and t = W, the program's optimum at its starting basis.
    """
    k, m = rows.shape
    if cost is not None:
        peak = rows.max(axis=0)
        if peak.sum() - cost <= 0.0:
            zeta = peak + (cost - peak.sum()) / m
            return 0.0, _rebuild_rows(rows, zeta), zeta
    cells = _program_cells(rows, eps=eps, cost=cost)
    peak, top, keep = cells
    sol = solve_lp(_reduced_program(rows, eps=eps, cost=cost, cells=cells))
    if sol.status != "optimal":
        raise ArithmeticError(f"{what} LP status {sol.status}")
    nk = np.count_nonzero(keep)
    s = sol.x[nk:nk + m]
    r = np.zeros((k, m))
    r[keep] = sol.x[:nk]
    r[top, np.arange(m)] = s
    zeta = peak - s
    if cost is None:
        value = float(math.log2(zeta.sum()))
    else:
        zeta += max(cost - zeta.sum(), 0.0) / m
        value = sol.value
    return value, _rebuild_rows(np.maximum(rows - r, 0.0), zeta), zeta


def _rebuild_rows(t: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Substitute channel W~ = t + (1 - sum_y t)(zeta - t) / sum_y (zeta - t).

    Each row tops its overlap t up to mass one in proportion to the room
    left under zeta, so W~ <= zeta, W~ >= t and the TVD to W stays at most
    1 - sum_y t. A row without room already has mass one.
    """
    room = np.maximum(zeta[None, :] - t, 0.0)
    missing = np.maximum(1.0 - t.sum(axis=1, keepdims=True), 0.0)
    free = room.sum(axis=1, keepdims=True)
    share = np.divide(missing, free, out=np.zeros_like(free), where=free > 0.0)
    return _clean_rows(t + share * room)


def i_max_smooth(w, eps: float) -> SmoothImax:
    """Smoothed channel max-information, the simulation meta-converse.

    The reduced program of ``_reduced_program``: minimize sum zeta over
    overlaps 0 <= t <= W with t_xy <= zeta_y, sum_y t_xy >= 1 - eps per row
    and sum zeta >= 1, posed as maximize sum s over the removed masses
    r = W - t and s = M - zeta, with m rows s <= M for the k m caps t >= 0
    (so t = max(W - r, 0)). It keeps a row and a variable only for the
    cells off each column's peak whose gap M_y - W(y|x) is at most eps;
    the peak cell's r is s_y itself. Every right-hand side is
    non-negative, so the simplex starts from t = W, zeta = M and runs no
    phase 1. On a symmetric channel no LP is built: averaging the rows and
    Jensen over the shared column multiset make a flat zeta optimal, so
    the value is ``d_max_smooth(eps, W(.|0), uniform)`` (proof at
    ``_solve_reduced``). The substitute channel W~ is rebuilt from t.
    """
    rows = _channel_rows(w)
    _check_eps(eps)
    value, w_tilde, zeta = _solve_reduced(rows, "max-information", eps=eps)
    return SmoothImax(value=value, w_tilde=w_tilde, zeta=zeta)


def ns_cost(w, eps: float) -> NsCostResult:
    """Minimal no-signaling simulation cost ceil(2^{I_max^eps})."""
    smooth = i_max_smooth(w, eps)
    return NsCostResult(
        i_max_eps=smooth.value,
        cost=_clamped_ceil(2.0 ** smooth.value),
        w_tilde=smooth.w_tilde,
        zeta=smooth.zeta,
    )


@dataclasses.dataclass(frozen=True)
class NsEpsResult:
    eps: float
    w_tilde: np.ndarray
    zeta: np.ndarray


def ns_eps_for_cost(w, c: int) -> NsEpsResult:
    """Minimal simulation deviation achievable with message alphabet size c.

    The reduced LP of ``_reduced_program`` in its cost form: minimize gamma
    over overlaps 0 <= t <= W with t_xy <= zeta_y, sum zeta <= c and
    sum_y t_xy >= 1 - gamma per row, in the removed masses r = W - t and
    s = M - zeta, with the m rows s <= M for the caps t >= 0 (so
    t = max(W - r, 0)). It keeps only the cells off each column's peak
    whose gap is at most gamma_0, the deviation of the feasible
    zeta0 = M c / sum M. Only sum s >= sum M - c can start infeasible, so
    phase 1 has a single artificial; from c >= sum M on, zeta = M fits and
    the deviation is 0 with no LP. Bland's rule does not promise fewer
    pivots on the smaller program: summed over Dirichlet channels they
    fall, but about one program in twelve takes more than the full one
    would, up to 1.8 times as many. zeta is then raised evenly to sum to
    c, and W~ is rebuilt from t. On a symmetric channel the flat
    zeta = c/m is optimal (proof at ``_solve_reduced``), so the deviation
    is sum_y max(W(y|0) - c/m, 0) = 1 - sum_y min(W(y|0), c/m) with no LP.
    """
    rows = _channel_rows(w)
    c = _check_count("cost", c, least=2)
    value, w_tilde, zeta = _solve_reduced(rows, "deviation", cost=c)
    return NsEpsResult(eps=float(max(value, 0.0)), w_tilde=w_tilde,
                       zeta=zeta)


def d_s_plus_channel(w, q, eps: float) -> float:
    """sup over inputs p of D_s+^eps(p W || p x q).

    The exceedance probability of the joint log-ratio is linear in p, with
    per-input coefficients given by the rows, so the supremum over the
    simplex is attained at a point mass and a row maximum suffices.
    """
    rows = _channel_rows(w)
    _, qa = _as_pmf_pair(rows[0], q)
    return float(_d_s_plus_rows(eps, rows, qa).max())


def channel_d_max_smooth(w, q, eps: float) -> float:
    """min over channels W~ with channel-TVD <= eps of max_x D_max(W~(.|x)||q).

    Both the constraint (worst row TVD) and the objective (worst row
    max-divergence) decouple across rows, so the program splits into one
    smoothed max-divergence per row, all read from one kernel call.
    """
    rows = _channel_rows(w)
    _, qa = _as_pmf_pair(rows[0], q)
    return float(_d_max_smooth_rows(eps, rows, qa).max())


def smoothing_witness(w, q, eps: float):
    """Explicit substitute channel relating spectrum and max divergence.

    With a = max_x D_s+^eps(W(.|x) || q), keep each row on its sub-threshold
    set A_x = {y : log2 W(y|x)/q(y) <= a} (closed, so the threshold atom
    itself is kept) and refill the clipped mass eps_x < eps with q:

        W^(y|x) = W(y|x) 1[y in A_x] + eps_x q(y).

    Every row then satisfies tvd <= eps_x and W^(y|x) <= (2^a + 1) q(y),
    giving max_x D_max(W^(.|x) || q) <= a + 1 for a >= 0.

    Returns (hat_rows, a, eps_x vector).
    """
    rows = _channel_rows(w)
    _, qa = _as_pmf_pair(rows[0], q)
    a = float(_d_s_plus_rows(eps, rows, qa).max())
    if math.isinf(a):
        raise ValueError("spectrum threshold is infinite, no witness exists")
    with np.errstate(divide="ignore", invalid="ignore"):
        # mass outside supp(q) reads +inf and is clipped; a zero entry
        # adds nothing kept or clipped, so its NaN at q = 0 is harmless
        keep = np.log2(rows / qa) <= a
    eps_x = np.where(keep, 0.0, rows).sum(axis=1)
    return rows * keep + eps_x[:, None] * qa, a, eps_x


# ----------------------------------------------------------------------
# Closed forms for BSC tensor powers.
#
# On W = BSC(delta)^{(x) n} the flat optimum of ``_solve_reduced`` needs
# only the Hamming-weight classes: with w_k = (1-delta)^(n-k) delta^k and
# C_k = binom(n, k), a string of weight k has mass w_k, and w_k falls
# with k. The cost is 2^n s* with s* the least flat level whose removed
# mass sum_k C_k max(w_k - s, 0) is at most eps, floored at 2^-n
# (sum zeta >= 1). That is ``d_max_smooth`` against the uniform q, read
# by its kernel on class atoms (log2 C_k w_k, log2 C_k) sorted by w_k:
#
#   log2 s* = max(-n, max_t [log2(P_t - eps) - log2 N_t]),
#   P_t = sum_{k<t} C_k w_k,  N_t = sum_{k<t} C_k,
#
# over t = 1..n+1, log2 w_0 at eps = 0. Class boundaries suffice: a set
# that splits class t is a mediant of the boundaries t and t+1. The
# deviation at integer cost c is the removed mass at s = c 2^-n, summed
# from its positive terms C_k w_k (1 - s/w_k). The lgamma-built classes
# miss the total mass 1 by up to about 1.6e-12 near n = 1800, so neither
# reads a small quantity as 1 minus a large computed sum (1 - eps is
# exact). C_k overflows a double past n of about 1030 and 2^-n underflows
# past 1074, so everything below works with base-2 logs of C_k, w_k and
# s; the floor is then exactly log2 s = -n.
# ----------------------------------------------------------------------

# Cells (blocklengths times weight classes) per block of the level sweep in
# ``bsc_ns_log2_costs``. It bounds memory only and never changes an output.
_LEVEL_CELLS = 1 << 13


def _bsc_class_logs(lg: np.ndarray, ns: np.ndarray, delta: float):
    """log2 C_k and log2 w_k, one row per n in ``ns``, columns k = 0..max ns.

    ``ns`` holds integers and ``lg`` is an ``_lgamma_table`` reaching
    max ns. Cells with k > n get log2 C_k = -inf, so they carry no mass in
    any sum along a row (there n - k indexes ``lg`` from its far end, and
    the mask drops the value).
    """
    n = ns[:, None]
    k = np.arange(ns.max() + 1)
    log_c = np.where(k <= n, lg[n] - lg[k] - lg[n - k], -np.inf)
    return (log_c / math.log(2.0),
            (n - k) * (math.log1p(-delta) / math.log(2.0))
            + k * math.log2(delta))


def _bsc_log_weights(n: int, delta: float):
    """log2 C_k and log2 w_k for the weight classes k = 0..n."""
    log_c, log_w = _bsc_class_logs(_lgamma_table(n), np.array([n]), delta)
    return log_c[0], log_w[0]


def _bsc_removed_mass(log_c: np.ndarray, log_w: np.ndarray,
                      log_s: float) -> float:
    """sum_k C_k max(w_k - s, 0) at s = 2^log_s, from positive terms only."""
    above = log_w > log_s
    log_wa = log_w[above]
    return math.fsum(np.exp2(log_c[above] + log_wa)
                     * -np.expm1((log_s - log_wa) * math.log(2.0)))


def _bsc_profile(log_c: np.ndarray, log_w: np.ndarray, log_s: float):
    """Per-string substitute masses r_k at level s = 2^log_s.

    Each string keeps min(w_k, s); the removed mass
    sum_k C_k max(w_k - s, 0) (``_bsc_removed_mass``) is refilled in
    proportion to the room s - min(w_k, s), the BSC instance of
    ``_rebuild_rows``. Then r <= s, sum_k C_k r_k = sum_k C_k w_k and the
    TVD to w is the removed mass, at most eps.
    """
    gap = np.minimum(log_w - log_s, 0.0)
    with np.errstate(divide="ignore"):
        log_room = log_s + np.log2(-np.expm1(gap * math.log(2.0)))
    log_total = np.logaddexp2.reduce(log_c + log_room)
    kept = np.exp2(np.minimum(log_w, log_s))
    if not np.isfinite(log_total):
        return kept
    missing = _bsc_removed_mass(log_c, log_w, log_s)
    return kept + missing * np.exp2(log_room - log_total)


@dataclasses.dataclass(frozen=True)
class BscNsCost:
    """Simulation cost of BSC(delta)^{(x) n} from the closed form.

    ``cost`` is the exact integer ceil(2^log2_cost) while log2_cost < 53
    and None above, where doubles no longer hold every integer. The
    per-string level ``s`` and masses ``r`` underflow to zero once they
    fall below 2^-1074; ``log2_cost`` stays exact at any blocklength.
    """

    n: int
    delta: float
    eps: float
    i_max_eps: float
    log2_cost: float
    cost: int | None
    s: float
    r: np.ndarray


def _check_crossover(delta: float) -> None:
    if not 0.0 < delta <= 0.5:
        raise ValueError("crossover must lie in (0, 0.5]")


def bsc_ns_log2_costs(ns, delta: float, eps: float) -> np.ndarray:
    """log2 of the no-signaling cost of BSC(delta)^{(x) n} for each n in ns.

    ``ns`` must be in ascending order. The values are those of
    ``bsc_ns_cost(n, delta, eps).log2_cost``, bit for bit, without the
    substitute profile. One lgamma table serves every n, and the levels
    are found for blocks of rows of at most ``_LEVEL_CELLS`` cells
    (blocklengths times weight classes). Any iterable of blocklengths
    works; a 2-d array's entries are its rows, which are not counts.
    """
    if not isinstance(ns, np.ndarray) or ns.ndim == 0:
        ns = list(ns)
    ns = _check_blocklengths(ns)
    if ns.ndim > 1 and len(ns):
        _check_count("blocklength", ns[0])
    _check_crossover(delta)
    _check_eps(eps)
    if np.any(ns[1:] < ns[:-1]):
        raise ValueError("blocklengths must be in ascending order")
    ns = ns.astype(np.int64)
    lg = _lgamma_table(ns[-1]) if ns.size else None
    out = np.empty(ns.size)
    start = 0
    while start < ns.size:
        # Rows as wide as the first one would fit this many; the widest row
        # so reached then cuts the count, and rows are sorted, so the block
        # stays within the bound unless a single row exceeds it.
        stop = min(ns.size, start + max(1, _LEVEL_CELLS // (ns[start] + 1)))
        stop = start + max(1, min(stop - start,
                                  _LEVEL_CELLS // (ns[stop - 1] + 1)))
        log_c, log_w = _bsc_class_logs(lg, ns[start:stop], delta)
        block = ns[start:stop]
        levels = _smooth_levels(log_c + log_w, log_c, eps)
        out[start:stop] = block + np.maximum(levels, -block)
        start = stop
    return out


def bsc_ns_cost(n: int, delta: float, eps: float) -> BscNsCost:
    """No-signaling cost of BSC(delta)^{(x) n}: log2 cost = n + log2 s*."""
    n = _check_count("blocklength", n)
    _check_crossover(delta)
    _check_eps(eps)
    log_c, log_w = _bsc_log_weights(n, delta)
    log_s = max(float(_smooth_levels((log_c + log_w)[None], log_c[None],
                                     eps)[0]), float(-n))
    log2_cost = n + log_s
    return BscNsCost(
        n=n, delta=delta, eps=eps,
        i_max_eps=log2_cost,
        log2_cost=log2_cost,
        cost=_clamped_ceil(2.0 ** log2_cost) if log2_cost < 53 else None,
        s=2.0 ** log_s, r=_bsc_profile(log_c, log_w, log_s),
    )


def bsc_ns_eps(n: int, delta: float, c: int) -> float:
    """Minimal deviation for simulating BSC(delta)^{(x) n} at cost c.

    Fixing the cost fixes the flat level s = c 2^-n, so the deviation is
    the removed mass sum_k C_k max(w_k - s, 0), summed from its positive
    terms: it keeps its relative accuracy however small it is, and it
    never increases with c.
    """
    n = _check_count("blocklength", n)
    _check_crossover(delta)
    c = _check_count("cost", c, least=2)
    log_c, log_w = _bsc_log_weights(n, delta)
    return _bsc_removed_mass(log_c, log_w, math.log2(c) - n)


def bsc_channel(n: int, delta: float) -> Dmc:
    """Dense BSC(delta)^{(x) n} for cross-checking against the general LPs."""
    from .prob import tensor_power

    return tensor_power(Dmc.bsc(delta), n)
