"""Capacity, dispersion and finite-blocklength rate expansions.

Everything here feeds the asymptotic side of the simulation-versus-coding
comparison: Blahut-Arimoto traces with a-priori certificates (capacity and
its trace), inputs certified a posteriori by Blahut's bracket with a
Newton finish on the optimal face (dispersion, and the thresholds of the
broadcast rate region), the channel dispersion extracted from the
capacity-achieving input set, the Gaussian quantile (Wichura's AS241,
from the standard library), the second-order expansions for one
blocklength or many at once, and the moderate-deviation rates. The
unquantified residual terms (O(log n) at second order, o(a_n) in the
moderate regime) are never folded into the returned numbers; callers
that serialize results attach a "band: unquantified" marker instead.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .divergences import var_div
from .lp import LpProblem, solve_lp
from .prob import Pmf, _channel_rows, _check_blocklengths, _check_count

_LN2 = math.log(2.0)


@dataclasses.dataclass(frozen=True)
class BaTrace:
    """Blahut-Arimoto estimates with their convergence certificate.

    ``estimates`` holds one float per step: ``estimates[t - 1]`` is step
    t's estimate in bits, computed from the input of step t-1. It is
    monotonically nondecreasing, and the true optimum lies in [estimate,
    estimate + k * log2(num_inputs) / t] at every step. Only the input
    of the last step is kept, as ``final_input``, with the run's ``tol``.
    """

    estimates: tuple
    final_input: Pmf
    k: int
    num_inputs: int
    tol: float

    @property
    def iterates(self) -> tuple:
        """(step, estimate) pairs, steps counted from 1."""
        return tuple(enumerate(self.estimates, start=1))

    @property
    def value(self) -> float:
        return self.estimates[-1]

    def bound(self, step: int) -> float:
        step = _check_count("step", step)
        if step > len(self.estimates):
            raise ValueError(f"step must be at most {len(self.estimates)}, "
                             f"got {step}")
        return self.k * math.log2(self.num_inputs) / step

    @property
    def final_bound(self) -> float:
        return self.bound(len(self.estimates))


def _drop_dead_letters(rows: np.ndarray, out_sizes: tuple):
    """Remove per-receiver output letters that no input ever produces."""
    cube = rows.reshape((rows.shape[0],) + tuple(out_sizes))
    keeps = []
    for axis, size in enumerate(out_sizes):
        other = tuple(i for i in range(cube.ndim) if i != axis + 1)
        keeps.append(np.flatnonzero(cube.sum(axis=other) > 0.0))
    cube = cube[np.ix_(np.arange(rows.shape[0]), *keeps)]
    sizes = tuple(k.size for k in keeps)
    return cube.reshape(rows.shape[0], -1), sizes


def _row_terms(rows: np.ndarray) -> np.ndarray:
    """sum_y W(y|x) log2 W(y|x) for each row x."""
    with np.errstate(divide="ignore"):
        return np.where(rows > 0.0, rows * np.log2(
            np.where(rows > 0.0, rows, 1.0)), 0.0).sum(axis=1)


def _product_reference(out_sizes: tuple):
    """The map from an output law to prod_i p_Yi, flattened.

    The marginal axes and shapes are worked out once per channel. With one
    output factor that product is the law itself, returned as is.
    """
    if len(out_sizes) == 1:
        return lambda out: out
    factors = []
    for axis, size in enumerate(out_sizes):
        other = tuple(i for i in range(len(out_sizes)) if i != axis)
        shape = [1] * len(out_sizes)
        shape[axis] = size
        factors.append((other, tuple(shape)))

    def product(out: np.ndarray) -> np.ndarray:
        out = out.reshape(out_sizes)
        margs = [np.add.reduce(out, axis=other).reshape(shape)
                 for other, shape in factors]
        ref = margs[0]
        for marg in margs[1:]:
            ref = ref * marg
        return ref.reshape(-1)

    return product


def _divergence_map(rows: np.ndarray, out_sizes: tuple):
    """The map p -> d, d_x = D(W(.|x) || prod_i p_Yi), set up once.

    Dead output letters must already be dropped. Where the reference is
    zero on a row's support that row's divergence is +inf, without a
    floating-point warning and with no errstate context: a reference
    with a zero takes log2 only where it is nonzero, into a buffer
    prefilled with -inf (one without takes it everywhere), and the cross
    terms W log2 ref are formed on the support of W only (unmasked when
    W has full support), so a vanishing reference gives -inf cross terms
    and never 0 * -inf. Each call returns a fresh array.
    """
    row_terms = _row_terms(rows)
    product = _product_reference(out_sizes)
    # Cross terms W log2 ref on the support of W; zero off it, never written.
    live = rows > 0.0
    full = bool(live.all())
    cross = np.zeros_like(rows)
    log_ref = np.empty(rows.shape[1])
    # What .sum() computes, without its Python wrapper.
    add = np.add.reduce

    def divergences(p: np.ndarray) -> np.ndarray:
        ref = product(p @ rows)
        if np.count_nonzero(ref) == ref.size:
            np.log2(ref, out=log_ref)
        else:
            log_ref.fill(-np.inf)
            np.log2(ref, out=log_ref, where=ref != 0.0)
        if full:
            np.multiply(rows, log_ref, out=cross)
        else:
            np.multiply(rows, log_ref, out=cross, where=live)
        return row_terms - add(cross, axis=1)

    return divergences


def _ascent(divergences, k: int, p: np.ndarray):
    """The Blahut-Arimoto multiplicative update; the caller owns the stop.

    Starting from the input ``p``, each step yields (p, d, z, next p):
    the step's input, the divergences d_x = D(W(.|x) || prod_i p_Yi) at
    that input (``divergences`` is the channel's ``_divergence_map``), the
    normalizer z = sum_x p_x 2^(d_x / k), whose k log2 z is the step's
    estimate, and the next input p * 2^(d / k) / z. The next step starts
    from that input. The generator never ends; callers stop consuming it.
    """
    add = np.add.reduce
    while True:
        d = divergences(p)
        # p * 2^(d / k) / z in place: the same roundings, one allocation;
        # d / 1 is d exactly.
        nxt = np.exp2(d if k == 1 else d / k)
        nxt *= p
        z = add(nxt)
        nxt /= z
        yield p, d, z, nxt
        p = nxt


def _marginal_rows(rows: np.ndarray, out_sizes: tuple) -> np.ndarray:
    """The output factors' marginal rows W^i(y_i | x), side by side."""
    if len(out_sizes) == 1:
        return rows
    cube = rows.reshape((rows.shape[0],) + tuple(out_sizes))
    axes = range(1, cube.ndim)
    return np.hstack([cube.sum(axis=tuple(j for j in axes if j != i))
                      for i in axes])


def _eliminate(a: list):
    """Solve a square system by Gaussian elimination with partial pivoting.

    ``a`` holds the augmented rows [M | rhs] as lists of floats and is
    overwritten. Returns (x, None), or (None, j) when column j has no
    pivot above 1e-12 of the largest entry of M: that column lies, to
    rounding, in the span of columns 0..j-1. Plain floats: the systems are
    a handful of rows, where numpy's per-call cost dominates.
    """
    n = len(a)
    small = 1e-12 * max(abs(v) for row in a for v in row[:n])
    for j in range(n):
        piv = max(range(j, n), key=lambda i: abs(a[i][j]))
        if abs(a[piv][j]) <= small:
            return None, j
        a[j], a[piv] = a[piv], a[j]
        top = a[j]
        for i in range(j + 1, n):
            f = a[i][j] / top[j]
            a[i] = [u - f * v for u, v in zip(a[i], top)]
    x = [0.0] * n
    for j in range(n - 1, -1, -1):
        row = a[j]
        x[j] = (row[n] - sum(row[k] * x[k] for k in range(j + 1, n))) / row[j]
    return x, None


# Newton attempts start at step _NEWTON_FIRST of the ascent, or later
# once its gap is below _FACE_SLACK bits, and repeat each time the step
# count doubles. An attempt takes the letters within _FACE_SLACK bits of
# max_x d_x as the candidate face and gives up after _NEWTON_STEPS steps.
# The ascent itself stops at _ASCENT_CAP steps.
_ASCENT_CAP = 100_000
_NEWTON_FIRST = 4
_FACE_SLACK = 1e-2
_NEWTON_STEPS = 12


def _newton_finish(divergences, marginals, p, d, gap):
    """Newton on {d_x(p) = lam for x in S, sum p = 1} over a candidate face S.

    Starts from p restricted to S and returns (p, d) with max_x d_x -
    p.d <= gap, or None. The Jacobian of d_S is
    -sum_i W^i_S diag(1 / q_i) W^i_S^T / ln 2, summed over the output
    factors i (``marginals`` holds the W^i side by side). Scaled by
    -ln 2 and bordered by the multiplier column and the normalization row
    it is a symmetric system. S is ordered by decreasing weight; a
    letter whose column has no pivot (it depends on heavier letters) or
    whose weight turns negative leaves S, a letter whose divergence tops
    every letter of S joins it at weight zero, and the iteration goes on.
    """
    face = np.flatnonzero(d >= d.max() - _FACE_SLACK)
    face = face[np.argsort(-p[face], kind="stable")]
    start = p
    p = np.zeros_like(start)
    p[face] = start[face] / start[face].sum()
    for step in range(_NEWTON_STEPS + 1):
        d = divergences(p)
        if d.max() - p[face] @ d[face] <= gap:
            return p, d
        if step == _NEWTON_STEPS or d.max() == math.inf:
            return None
        face = np.append(face, np.flatnonzero(d > d[face].max()))
        n = face.size
        q = p @ marginals
        w = marginals[face]
        hessian = (w / np.where(q > 0.0, q, 1.0)) @ w.T
        # Unknowns: the step on S and ln 2 times the new multiplier, which
        # enters linearly.
        x, bad = _eliminate(
            [row + [1.0, rhs] for row, rhs in
             zip(hessian.tolist(), (_LN2 * d[face]).tolist())]
            + [[1.0] * n + [0.0, 1.0 - p.sum()]])
        if x is None:
            if bad == n:
                return None
            p[face[bad]] = 0.0
            face = np.delete(face, bad)
        else:
            p[face] += x[:n]
            keep = p[face] > 0.0
            p[face[~keep]] = 0.0
            face = face[keep]
        p /= p.sum()
    return None


def _certified_optimum(rows: np.ndarray, out_sizes: tuple, k: int,
                       gap: float):
    """An input p and its divergences d with max_x d_x - p.d <= gap.

    d_x = D(W(.|x) || prod_i p_Yi) is the shared ascent's divergence.
    For every k, I(X : Y_J) = sum_i H(Y_i) - sum_x p_x H(W_x) is concave
    in p, equals p.d, and has gradient d_x - k log2 e, so for any optimum
    p*, I(p*) <= I(p) + (p* - p).d <= max_x d_x: the value lies in the
    a-posteriori bracket [p.d, max_x d_x] (Blahut, 1972, for k = 1). The
    ascent runs from the uniform input and Newton on the candidate face
    (``_newton_finish``) is tried along the way; a failed attempt leaves
    the multiplicative steps to go on. Dead output letters must already be
    dropped. Raises ArithmeticError when the ascent reaches _ASCENT_CAP
    steps with a gap still above ``gap``.
    """
    if not 0.0 < gap < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {gap}")
    kx = rows.shape[0]
    divergences = _divergence_map(rows, out_sizes)
    marginals = _marginal_rows(rows, out_sizes)
    next_try = _NEWTON_FIRST
    steps = _ascent(divergences, k, np.full(kx, 1.0 / kx))
    for step, (p, d, _, _) in enumerate(steps):
        now = float(d.max() - p @ d)
        if now <= gap:
            return p, d
        if step >= next_try and now <= _FACE_SLACK:
            found = _newton_finish(divergences, marginals, p, d, gap)
            if found is not None:
                return found
            next_try = 2 * step
        if step == _ASCENT_CAP:
            raise ArithmeticError(
                f"ascent stopped after {_ASCENT_CAP} steps with a gap of "
                f"{now:.3e} bits")


# The a-priori traces (capacity, ba-trace) stop at _TRACE_CAP steps. This
# is not _ASCENT_CAP: sharing it would move where a long trace stops.
_TRACE_CAP = 1_000_000


def _ba_core(rows: np.ndarray, out_sizes: tuple, k: int,
             tol: float | None) -> BaTrace:
    """Run the shared ascent for capacity and the C-tilde runs.

    Starts from the uniform input and stops at the first step t whose
    estimate k log2 z_t rises by less than tol over step t-1's, or whose
    a-priori bound k*log2|X|/t is below tol (None: 1e-9 bits for k <= 2
    receivers, 1e-6 above), or at _TRACE_CAP. The trace keeps each step's
    estimate, the last step's input and tol.
    """
    tol = (1e-9 if k <= 2 else 1e-6) if tol is None else tol
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    rows, out_sizes = _drop_dead_letters(rows, out_sizes)
    kx = rows.shape[0]
    estimates = []
    prev = -math.inf
    log_inputs = math.log2(kx) if kx > 1 else 0.0
    steps = _ascent(_divergence_map(rows, out_sizes), k, np.full(kx, 1.0 / kx))
    for t, (_, _, z, p) in zip(range(1, _TRACE_CAP + 1), steps):
        est = k * math.log2(z)
        estimates.append(est)
        if est - prev < tol or k * log_inputs / t < tol:
            break
        prev = est
    return BaTrace(estimates=tuple(estimates), final_input=Pmf(p), k=k,
                   num_inputs=kx, tol=tol)


def capacity_ba(w, tol: float | None = None) -> BaTrace:
    """Channel capacity by Blahut-Arimoto from the uniform input.

    Returns the trace; the capacity estimate is ``trace.value`` and the
    optimum is certified to lie within ``trace.final_bound`` above it.
    """
    rows = _channel_rows(w)
    return _ba_core(rows, (rows.shape[1],), 1, tol)


@dataclasses.dataclass(frozen=True)
class SecondOrderParams:
    """Capacity and dispersion range of a channel.

    v_min and v_max are the extreme values of the conditional information
    variance over the capacity-achieving input set (the optimal face); they
    differ only when that set is not a single point.
    capacity_achieving_inputs holds the face's minimizer and maximizer of
    the variance, one entry when they coincide. tol_cap is the divergence
    slack within which an input letter counts as capacity-achieving,
    1e-7 bits.
    """

    capacity: float
    v_min: float
    v_max: float
    capacity_achieving_inputs: tuple
    tol_cap: float


# dispersion certifies its input to Blahut's gap max_x D(W_x || pW) - I(p)
# <= _ASCENT_GAP. The gap must sit far below the face threshold _TOL_CAP:
# stopped at a gap of 5e-8, an ascent can leave a face letter out of X*
# under a threshold of 1e-7 and understate v_max by a quarter of a bit^2.
_ASCENT_GAP = 1e-12
_TOL_CAP = 1e-7


def dispersion(w) -> SecondOrderParams:
    """Capacity and the dispersion range over the capacity-achieving inputs.

    ``_certified_optimum`` gives an input p whose a-posteriori gap
    max_x D(W_x || pW) - I(p) is at most 1e-12: the shared Blahut-Arimoto
    ascent from the uniform input, finished by Newton's method on the
    candidate optimal face. The capacity is the lower end I(p) of that
    bracket. The letters with D(W_x || pW) within 1e-7 of the maximum
    form X*; p restricted to X* and renormalized, p^, fixes the
    capacity-achieving output q^ = p^ W. On the optimal face
    {p >= 0 on X*, p W = q^} the dispersion is the conditional information
    variance sum_x p_x Var_{W_x}[log2 W_x / q^], which is linear in p
    (Polyanskiy, Poor and Verdu, 2010), so v_min and v_max are two small
    linear programs. When the face rows are linearly independent (their
    Gram matrix has a pivot in every column under ``_eliminate``), p W =
    q^ has the one solution p^, so the face is that point and both
    extremes are its variance, with no LP. Any number of inputs works.
    Raises ArithmeticError if the ascent reaches its 100,000-step cap with
    the gap above 1e-12, or if a face program fails.
    """
    rows = _channel_rows(w)
    rows, out_sizes = _drop_dead_letters(rows, (rows.shape[1],))
    kx = rows.shape[0]
    p, d = _certified_optimum(rows, out_sizes, 1, _ASCENT_GAP)
    face = np.flatnonzero(d >= d.max() - _TOL_CAP)
    p_hat = p[face] / p[face].sum()
    q_hat = p_hat @ rows[face]
    live = q_hat > 0.0
    w_face, q_hat = rows[face][:, live], q_hat[live]
    v = np.array([var_div(row, q_hat) for row in w_face])
    gram = (w_face @ w_face.T).tolist()
    if _eliminate([row + [0.0] for row in gram])[0] is not None:
        points = [p_hat]
    else:
        points = []
        for sign in (1.0, -1.0):
            sol = solve_lp(LpProblem(c=sign * v, a=w_face.T, b=q_hat,
                                     senses=("=",) * q_hat.size))
            if sol.status != "optimal":
                raise ArithmeticError(
                    f"dispersion face LP status {sol.status}")
            points.append(sol.x / sol.x.sum())
    v_min, v_max = float(v @ points[0]), float(v @ points[-1])
    extremes = []
    for x in points:
        full = np.zeros(kx)
        full[face] = x
        extremes.append(full)
    if np.max(np.abs(extremes[0] - extremes[-1])) <= 1e-9:
        extremes = extremes[:1]
    return SecondOrderParams(
        capacity=float(p @ d),
        v_min=v_min,
        v_max=v_max,
        capacity_achieving_inputs=tuple(Pmf(x) for x in extremes),
        tol_cap=_TOL_CAP,
    )


def normal_cdf(x: float) -> float:
    """Standard normal CDF as 0.5 erfc(-x / sqrt 2).

    The complementary error function keeps full relative accuracy in the
    lower tail, where 0.5 (1 + erf(x / sqrt 2)) cancels.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def inv_normal_cdf(eps: float) -> float:
    """Standard normal quantile by Wichura's AS241, from the standard library.

    The tests hold it within 1e-14 of max(1, |x|) of a 40-digit root for
    every eps from the smallest normal double (about 2.2e-308) to
    1 - 2^-53; below that Phi itself is subnormal, and the value only
    stays finite.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    # Here, not at the top: statistics imports random, fractions, decimal.
    from statistics import NormalDist

    return NormalDist().inv_cdf(eps)


def _check_open_eps(eps: float) -> None:
    """The expansions' range for eps: strictly inside (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly in (0, 1)")


def _expansion(params: SecondOrderParams, n, eps: float, level: float,
               sign: float):
    """n C + sqrt(n v) sign Phi^-1(eps), with v = v_min below level 1/2 and
    v_max from it, for one blocklength or an array solving Phi^-1 once."""
    ns = _check_blocklengths(n)
    _check_open_eps(eps)
    v = params.v_min if level < 0.5 else params.v_max
    quantile = sign * inv_normal_cdf(eps)
    ns = ns.astype(np.float64)
    value = ns * params.capacity + np.sqrt(ns * v) * quantile
    return value if value.ndim else float(value)


def second_order_coding(params: SecondOrderParams, n, eps: float):
    """Gaussian-approximation log code size n C + sqrt(n V_eps) * quantile.

    ``n`` is a blocklength or an array of them, and the value a float or
    an array to match; the quantile is solved once per call. The O(log n)
    residual is not included; serializers mark the value with an
    unquantified band instead.
    """
    return _expansion(params, n, eps, eps, 1.0)


def second_order_simulation(params: SecondOrderParams, n, eps: float):
    """Gaussian-approximation log simulation cost.

    Same shape as the coding expansion but evaluated at 1 - eps, so for
    eps < 1/2 the Gaussian term is positive and scales with v_max: paying
    above capacity is the price of a faithful simulation, where coding
    gets to undershoot. ``n`` may be an array, as for the coding side.
    """
    # Phi^-1(1 - eps) = -Phi^-1(eps) without rounding 1 - eps, which is
    # 1.0 for eps below about 1.1e-16.
    return _expansion(params, n, eps, 1.0 - eps, -1.0)


@dataclasses.dataclass(frozen=True)
class ModerateRates:
    """First-order rates in the moderate-deviation regime eps_n = 2^(-n a_n^2).

    The o(a_n) residual is excluded; the ``moderate`` command's output
    records it with a "band: unquantified" marker.
    """

    a_n: float
    eps_n: float
    simulation_at_eps: float
    simulation_at_complement: float
    coding_at_eps: float
    coding_at_complement: float


def moderate_deviation_rates(params: SecondOrderParams, n: int,
                             a_n: float | None = None) -> ModerateRates:
    """Simulation and coding rates at deviation eps_n and 1 - eps_n.

    Vanishing error makes simulation expensive and coding cheap, so the
    eps_n pair is (C + sqrt(2 v_max) a_n, C - sqrt(2 v_min) a_n); the
    complement pair swaps roles. Default sequence a_n = n^(-1/3).
    """
    _check_count("blocklength", n)
    if a_n is None:
        a_n = float(n) ** (-1.0 / 3.0)
    if not 0.0 < a_n < math.inf:
        raise ValueError("a_n must be positive and finite")
    up = math.sqrt(2.0 * params.v_max) * a_n
    down = math.sqrt(2.0 * params.v_min) * a_n
    c = params.capacity
    return ModerateRates(
        a_n=a_n,
        eps_n=2.0 ** (-n * a_n * a_n),
        simulation_at_eps=c + up,
        simulation_at_complement=c - down,
        coding_at_eps=c - down,
        coding_at_complement=c + up,
    )


def cs_cc_bracket(log_n_low: float, log_n_high: float,
                  delta: float) -> tuple:
    """Bracket on log simulation cost from two coding log sizes.

    Given log N* at error 1 - eps - delta (low) and 1 - eps + delta (high),
    the simulation cost at error eps satisfies

        log_n_low + log2(delta) <= log M* <= log_n_high + log2(2/delta)
                                             + log2(log2(4/delta^2)).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly in (0, 1)")
    lower = log_n_low + math.log2(delta)
    upper = (log_n_high + math.log2(2.0 / delta)
             + math.log2(math.log2(4.0 / (delta * delta))))
    return lower, upper
