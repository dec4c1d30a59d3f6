"""Executable one-shot simulation protocols and their exact verifiers.

Three protocol families live here. Rejection sampling turns a reference
pmf and a round budget into an approximate sampler for a target pmf, with
the residual error known in closed form. The sender-side achievability
construction sizes the message alphabet needed to simulate a channel
within a TVD budget. The two-receiver broadcast protocol distributes
correlated indices into shared reference lists; its induced channel is
computed exactly by two independent routes (a literal per-atom enumeration
and a vectorized one) so one can certify the other. The vectorized route
and the Monte Carlo run share one kernel, which computes the index
posteriors of every list configuration for one input at a time, so their
memory is bounded by one input's table.

Every Monte Carlo path draws from RngStream, a counter-based splitmix64
stream, so runs are bit-reproducible from the seed alone. A trial owns a
fixed range of counters, so trial t always sees the same words and a
block of trials runs as array operations; since any word is computed
without the ones before it, the rejection sampler computes only the
rounds a trial reaches. Word i is the splitmix64 finalizer (_mix, one
in-place kernel that every path shares) of the state key + (i + 1) *
golden mod 2^64, so the samplers carry states, not counters: a live
rejection trial steps its state by golden to its decision word and by
2 golden to its next round, and a broadcast trial's words are a fixed
state offset from its first. The block size changes no output.

Sampling is table-driven and makes the same float comparisons as a
binary search. A pick reads a guide table on the top 12 bits of its word
(Chen and Asau, 1974); a bucket holding one cumulative entry compares the
whole word with that entry's threshold word, and only a bucket holding
two or more searches; an acceptance compares the whole word, as one 64-bit
integer, with the largest word whose top 53 bits are at most
floor(accept * 2^53); the broadcast protocol keeps each trial's list
configuration and, input by input, looks its index pair up in that
input's cumulative posteriors, computed once per input.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from typing import NamedTuple

import numpy as np

from .divergences import d_max, d_s_plus
from .ns_meta import i_max_smooth
from .prob import BroadcastDmc, Pmf, channel_tvd, tvd

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The same as numpy scalars, for array arithmetic mod 2^64.
_GOLDEN_U = np.uint64(_GOLDEN)
_MIX1_U, _MIX2_U = np.uint64(_MIX1), np.uint64(_MIX2)
_SHIFTS = np.uint64(30), np.uint64(27), np.uint64(31)
# Words per vector step: a broadcast block holds the trials whose list
# picks read about this many, and a rejection block holds 2 * _BLOCK_WORDS
# trials, whose live ones compute one (pick, decision) pair per round.
# Words are addressed by counter, so this bounds memory only and never
# changes an output.
_BLOCK_WORDS = 4096
# Largest round budget m of a RejectionPlan.
MAX_ROUNDS = 1 << 20
# Largest state space, in atoms, that the convex-split mixture and the
# broadcast protocol's list configurations may enumerate.
MAX_ATOMS = 1 << 20
# Buckets of a guide table: a word's bucket is its top 12 bits, which
# equal floor(u * 2^12) for its uniform u.
_GUIDE_BITS = 12


def _splitmix(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix(z: np.ndarray, scratch: np.ndarray, out=None) -> np.ndarray:
    """The splitmix64 finalizer of the uint64 states z, elementwise.

    Writes into ``out`` (z itself by default) and returns it; ``scratch``
    is a uint64 array of z's shape that is overwritten. Word i of a
    stream is this finalizer of the state key + (i + 1) * golden.
    """
    first, second, third = _SHIFTS
    np.right_shift(z, first, out=scratch)
    out = np.bitwise_xor(z, scratch, out=z if out is None else out)
    out *= _MIX1_U
    np.right_shift(out, second, out=scratch)
    out ^= scratch
    out *= _MIX2_U
    np.right_shift(out, third, out=scratch)
    out ^= scratch
    return out


class RngStream:
    """Counter-based splitmix64 stream.

    Word i (0-based) is mix(key + (i + 1) * golden) mod 2^64 with
    key = _splitmix(seed): the standard splitmix64 sequence from state
    key, so nearby seeds give unrelated streams and any word is computed
    without the ones before it. ``counter`` is the number of words drawn;
    the runs address words by counter or carry states from ``state_at``.
    """

    def __init__(self, seed: int):
        self.key = _splitmix(int(seed) & _MASK64)
        self.counter = 0

    def state_at(self, counter: int) -> int:
        """The pre-mix state of the word at a counter, taken mod 2^64."""
        return (self.key + (counter + 1) * _GOLDEN) & _MASK64

    def words_at(self, index) -> np.ndarray:
        """The words at the given counters, as a uint64 array of that shape.

        Counters are taken mod 2^64; ``counter`` does not move.
        """
        z = np.array(index, dtype=np.uint64)
        z *= _GOLDEN_U
        z += np.uint64(self.state_at(0))
        return _mix(z, np.empty_like(z))

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as a uint64 array."""
        if count < 0:
            raise ValueError(f"word count must be nonnegative, got {count}")
        index = np.arange(count, dtype=np.uint64)
        index += np.uint64(self.counter & _MASK64)
        self.counter += count
        return self.words_at(index)


def _to_uniform(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word."""
    return (words >> np.uint64(11)) * (2.0 ** -53)


def _pick(cumulative: np.ndarray, u):
    """Count of cumulative entries <= u, clamped to the last index."""
    idx = np.searchsorted(cumulative, u, side="right")
    return np.minimum(idx, cumulative.size - 1)


class _Guide(NamedTuple):
    """A _guide_table: per-bucket base picks and limit words."""

    base: np.ndarray
    limits: np.ndarray
    searches: bool


def _guide_table(cumulative: np.ndarray) -> _Guide:
    """Guide table of a cumulative array for _guided_pick.

    Bucket b covers the uniforms in [b, b + 1) / 2^12; ``base[b]`` is
    _pick of its lower edge. When exactly one cumulative entry c lies
    strictly inside the bucket, a word w there picks one more exactly when
    u >= c, that is (w >> 11) >= ceil(c 2^53), so ``limits[b]`` holds
    (ceil(c 2^53) << 11) - 1 and the pick is base + (w > limit); c < 1
    keeps the shift in 64 bits. Every other limit is 2^64 - 1, which no
    word exceeds. A bucket whose one entry is the last needs no limit:
    the clamp to the last index picks the same on both sides of it. A
    bucket holding two or more entries has base -1 and its words search;
    ``searches`` says whether any bucket does. Bases are int32, so a
    block's picks take half the memory of intp ones.
    """
    edges = np.arange((1 << _GUIDE_BITS) + 1) * 2.0 ** -_GUIDE_BITS
    below = np.searchsorted(cumulative, edges[:-1], side="right")
    inner = np.searchsorted(cumulative, edges[1:], side="left") - below
    last = cumulative.size - 1
    base = np.minimum(below, last).astype(np.int32)
    limits = np.full(base.size, _MASK64, dtype=np.uint64)
    one = (inner == 1) & (below < last)
    top = np.ceil(cumulative[below[one]] * 2.0 ** 53).astype(np.uint64)
    limits[one] = (top << np.uint64(11)) - np.uint64(1)
    many = inner > 1
    base[many] = -1
    return _Guide(base, limits, bool(many.any()))


def _guided_pick(cumulative: np.ndarray, guide: _Guide,
                 words: np.ndarray) -> np.ndarray:
    """_pick of the words' uniforms through a _guide_table."""
    bucket = (words >> np.uint64(64 - _GUIDE_BITS)).view(np.int64)
    # Clip mode is take's fastest; every bucket index is in range.
    idx = guide.base.take(bucket, mode="clip")
    idx += words > guide.limits.take(bucket, mode="clip")
    if guide.searches:
        near = np.flatnonzero(idx < 0)
        if near.size:
            idx.flat[near] = _pick(cumulative, _to_uniform(words.take(near)))
    return idx


def _check_count(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclasses.dataclass(frozen=True)
class RejectionPlan:
    """Accept-reject sampler description for target p against reference q.

    lam = 2^(-D_max(p || q)) is the acceptance scale; lam * p(y) / q(y)
    never exceeds 1, entries above it by at most 1e-12 of rounding are
    clamped. accept holds those per-symbol acceptance probabilities. The
    round budget m is at most MAX_ROUNDS (2^20): a run keeps one count
    per round, and a trial owns 2m words of the stream.
    """

    p: Pmf
    q: Pmf
    m: int
    lam: float
    accept: np.ndarray

    @classmethod
    def build(cls, p: Pmf, q: Pmf, m: int) -> "RejectionPlan":
        _check_count("round budget", m)
        if m > MAX_ROUNDS:
            raise ValueError(f"round budget m must be at most {MAX_ROUNDS}, "
                             f"got {m}")
        div = d_max(p.probs, q.probs)
        if math.isinf(div):
            raise ValueError("target is not absolutely continuous with "
                             "respect to the reference")
        lam = 2.0 ** (-div)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(q.probs > 0.0, lam * p.probs / np.where(
                q.probs > 0.0, q.probs, 1.0), 0.0)
        if np.any(ratio > 1.0 + 1e-12):
            raise ValueError("acceptance ratio exceeds 1 beyond rounding")
        return cls(p=p, q=q, m=int(m), lam=lam,
                   accept=np.minimum(ratio, 1.0))


def rejection_exact_marginal(plan: RejectionPlan):
    """Closed-form output law and failure probability of the plan.

    All M rounds rejecting leaves the last reference draw as the output,
    so the marginal is a mixture of the target and the tilted remainder
    (q - lam p) / (1 - lam), weighted by the reject probability
    (1 - lam)^M.
    """
    rho = (1.0 - plan.lam) ** plan.m
    if plan.lam >= 1.0:
        return plan.p, 0.0
    residual = (plan.q.probs - plan.lam * plan.p.probs) / (1.0 - plan.lam)
    mixed = (1.0 - rho) * plan.p.probs + rho * np.maximum(residual, 0.0)
    return Pmf.normalized(mixed), float(rho)


@dataclasses.dataclass(frozen=True)
class RejectionRun:
    """Empirical output of a batch of accept-reject executions."""

    empirical: Pmf
    accept_counts: np.ndarray
    rejects: int
    trials: int


def rejection_sample_run(plan: RejectionPlan, stream: RngStream,
                         trials: int) -> RejectionRun:
    """Run the sequential accept-reject loop for a batch of trials.

    Trial t owns the 2M words at counters base + 2M t + 2(j-1) and the
    next one, the (reference pick, decision) pair of round j, and outputs
    the first accepted round's sample, else the round-M one. Blocks of
    trials run round by round: each live trial carries the pre-mix state
    of its round's pick word, whose decision word's state is golden on
    and whose next round's is 2 golden on, so round j mixes only the
    pairs of the trials still live, and a trial leaves the block when it
    accepts. The counter still advances by 2M per trial, so outputs and
    later draws are those of reading every word. The pick goes through a
    guide table of the reference's cumulative masses, and a decision
    word w accepts when w <= floor(accept * 2^53) * 2^11 + 2^11 - 1 (all
    ones when accept is 1), which is (w >> 11) <= floor(accept * 2^53),
    that is u <= accept exactly since both sides are multiples of 2^-53.
    accept_counts[j-1] counts round-j accepts.
    """
    _check_count("trials", trials)
    cum = np.cumsum(plan.q.probs)
    guide = _guide_table(cum)
    top = np.floor(plan.accept * 2.0 ** 53).astype(np.uint64)
    limit = np.where(top >> np.uint64(53), np.uint64(_MASK64),
                     (top << np.uint64(11)) | np.uint64(2047))
    m = plan.m
    out = np.zeros(plan.q.size, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    first = stream.state_at(stream.counter)
    stream.counter += trials * 2 * m
    stride = 2 * m * _GOLDEN
    gamma2 = np.uint64(2 * _GOLDEN & _MASK64)
    step = 2 * _BLOCK_WORDS
    # The spare row takes the mixing scratch, then the acceptance limits.
    spare_row, word_row = np.empty((2, min(step, trials)), dtype=np.uint64)
    for start in range(0, trials, step):
        # Pre-mix states of the block's pick words in its first round; a
        # decision word's state is golden on, the next round's 2 golden.
        state = np.arange(min(step, trials - start), dtype=np.uint64)
        state *= np.uint64(stride & _MASK64)
        state += np.uint64((first + start * stride) & _MASK64)
        for j in range(m):
            spare, word = spare_row[:state.size], word_row[:state.size]
            ys = _guided_pick(cum, guide, _mix(state, spare, out=word))
            _mix(np.add(state, _GOLDEN_U, out=word), spare)
            accepted = word <= limit.take(ys, out=spare, mode="clip")
            taken = ys.compress(accepted)
            acc[j] += taken.size
            if j == m - 1:
                out += np.bincount(ys, minlength=plan.q.size)
                break
            out += np.bincount(taken, minlength=plan.q.size)
            state = state.compress(~accepted)
            if state.size == 0:
                break
            state += gamma2
    return RejectionRun(empirical=Pmf.normalized(out.astype(np.float64)),
                        accept_counts=acc, rejects=trials - int(acc.sum()),
                        trials=trials)


def achievability_size(w, eps: float, delta: float):
    """Message alphabet size sufficient for one-shot channel simulation.

    Splits the budget as eps = (eps - delta) + delta: the smoothed
    max-information witness W~ sits within eps - delta of W, and M
    rejection rounds against the witness reference q* leave at most delta
    of residual per row. Returns (M, bound) with the analytic size bound
    log2 M <= I_max^(eps - delta) + log2 log2(1/delta) + 1; the bound is
    meaningful for delta <= 1/2.
    """
    if not 0.0 < delta <= eps < 1.0:
        raise ValueError("need 0 < delta <= eps < 1")
    smooth = i_max_smooth(w, eps - delta)
    q_star = smooth.zeta / smooth.zeta.sum()
    lam_min = min(2.0 ** (-d_max(row, q_star)) for row in smooth.w_tilde)
    if lam_min >= 1.0:
        m = 1
    else:
        guess = max(int(math.ceil(math.log(delta) / math.log(1.0 - lam_min))),
                    1)
        m = guess
        while m > 1 and (1.0 - lam_min) ** (m - 1) <= delta:
            m -= 1
        while (1.0 - lam_min) ** m > delta:
            m += 1
    bound = smooth.value + math.log2(math.log2(1.0 / delta)) + 1.0
    return m, bound


@dataclasses.dataclass(frozen=True)
class ConvexSplitParams:
    """Budget split (eps_i, delta_i) for the two-receiver convex split."""

    eps1: float
    eps2: float
    eps3: float
    delta1: float
    delta2: float
    delta3: float

    @property
    def delta_norm(self) -> float:
        return math.sqrt(self.delta1 ** 2 + self.delta2 ** 2
                         + self.delta3 ** 2)

    @property
    def bound(self) -> float:
        return self.eps1 + self.eps2 + self.eps3 + self.delta_norm


@dataclasses.dataclass(frozen=True)
class ConvexSplitReport:
    tvd: float
    bound: float
    hypotheses_hold: bool
    thresholds: tuple


def convex_split_mixture(joint_xyz: np.ndarray, q: np.ndarray,
                         r: np.ndarray, m: int, n: int) -> np.ndarray:
    """Uniform position mixture over (X, Y_1..Y_M, Z_1..Z_N).

    Component (j, k) plants the correlated pair at positions (j, k) and
    fills every other slot with the reference; summing with uniform
    weights gives the tensor whose distance to the full product the
    convex split lemma controls. Each of the 1 + M + N factors takes one
    einsum subscript letter, so M + N is at most 25, and the tensor holds
    at most MAX_ATOMS entries.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 1 + m + n > len(letters):
        raise ValueError(f"m + n = {m + n} exceeds the limit of "
                         f"{len(letters) - 1} list copies")
    kx, sy, sz = joint_xyz.shape
    atoms = kx * sy ** m * sz ** n
    if atoms > MAX_ATOMS:
        raise ValueError(
            f"state space of {atoms} atoms exceeds cap {MAX_ATOMS}")
    x_l = letters[0]
    y_ls = letters[1:1 + m]
    z_ls = letters[1 + m:1 + m + n]
    out_sub = x_l + y_ls + z_ls
    total = np.zeros((kx,) + (sy,) * m + (sz,) * n)
    for j in range(m):
        for k in range(n):
            operands = [joint_xyz]
            subs = [x_l + y_ls[j] + z_ls[k]]
            for i in range(m):
                if i != j:
                    operands.append(q)
                    subs.append(y_ls[i])
            for ell in range(n):
                if ell != k:
                    operands.append(r)
                    subs.append(z_ls[ell])
            total += np.einsum(",".join(subs) + "->" + out_sub, *operands)
    return total / (m * n)


def convex_split_check(joint, q: Pmf, r: Pmf, m: int, n: int,
                       eps_params) -> ConvexSplitReport:
    """Exact TVD of the convex-split mixture against its certified bound.

    eps_params is a ConvexSplitParams (or a 6-sequence in the same order).
    The report's bound is eps_1 + eps_2 + eps_3 + sqrt(sum delta_i^2);
    hypotheses_hold records whether (M, N) and the parameters satisfy the
    lemma's gates, in which case tvd <= bound is guaranteed. A violated
    hypothesis is reported, not raised.
    """
    if not isinstance(eps_params, ConvexSplitParams):
        eps_params = ConvexSplitParams(*eps_params)
    sizes = tuple(joint.factor_sizes)
    if len(sizes) != 3:
        raise ValueError("joint must have factors (X, Y, Z)")
    if q.size != sizes[1] or r.size != sizes[2]:
        raise ValueError("reference sizes do not match the joint factors")
    cube = joint.probs.reshape(sizes)
    p_x = cube.sum(axis=(1, 2))
    p_xy = cube.sum(axis=2)
    p_xz = cube.sum(axis=1)
    t1 = d_s_plus(eps_params.eps1, p_xy.reshape(-1),
                  np.outer(p_x, q.probs).reshape(-1))
    t2 = d_s_plus(eps_params.eps2, p_xz.reshape(-1),
                  np.outer(p_x, r.probs).reshape(-1))
    ref3 = np.einsum("a,b,c->abc", p_x, q.probs, r.probs)
    t3 = d_s_plus(eps_params.eps3, cube.reshape(-1), ref3.reshape(-1))
    params_ok = (
        all(0.0 < v < 1.0 for v in (eps_params.eps1, eps_params.eps2,
                                    eps_params.eps3, eps_params.delta1,
                                    eps_params.delta2, eps_params.delta3))
        and eps_params.bound < 1.0)
    slack = 1e-12
    sizes_ok = (
        math.log2(m) >= t1 - math.log2(eps_params.delta1 ** 2) - slack
        and math.log2(n) >= t2 - math.log2(eps_params.delta2 ** 2) - slack
        and math.log2(m) + math.log2(n)
        >= t3 - math.log2(eps_params.delta3 ** 2) - slack)
    mixture = convex_split_mixture(cube, q.probs, r.probs, m, n)
    product = p_x
    for _ in range(m):
        product = np.multiply.outer(product, q.probs)
    for _ in range(n):
        product = np.multiply.outer(product, r.probs)
    exact = 0.5 * float(np.abs(mixture - product).sum())
    return ConvexSplitReport(tvd=exact, bound=eps_params.bound,
                             hypotheses_hold=bool(params_ok and sizes_ok),
                             thresholds=(t1, t2, t3))


def _string_atoms(size: int, length: int) -> np.ndarray:
    """All strings of the given length as digit rows, shape (size^len, len)."""
    # np.indices counts in the order of itertools.product: last digit fastest.
    return np.indices((size,) * length, dtype=np.intp).reshape(length, -1).T


def _check_lists(w: BroadcastDmc, m, n) -> None:
    _check_count("list size m", m)
    _check_count("list size n", n)
    sy, sz = w.output_sizes
    if sy ** m * sz ** n * w.input_size > MAX_ATOMS:
        raise ValueError("state space exceeds the enumeration cap")


def _input_posteriors(w: BroadcastDmc, q: Pmf, r: Pmf, m: int, n: int):
    """Index posteriors of the broadcast protocol, one input at a time.

    Checks the list sizes, MAX_ATOMS and the references' support before any
    work, then returns (weights, cells, posteriors). List configuration
    c = (y-string, z-string) is numbered with the z-string varying
    fastest; weights[c] is its probability q^M(y) r^N(z) and cells[c, jk]
    the flat output cell y_j * sz + z_k of index pair (j, k), row-major.
    posteriors yields, for each input x in turn, the (configs, MN) array
    of index posteriors given x. Numerators are W(y_j, z_k | x) /
    (q(y_j) r(z_k)), the full string probability factored out, and an
    all-zero row falls back to a uniform pair.
    """
    _check_lists(w, m, n)
    if np.any(q.probs <= 0.0) or np.any(r.probs <= 0.0):
        raise ValueError("references must have full support")
    sy, sz = w.output_sizes
    y_atoms, z_atoms = _string_atoms(sy, m), _string_atoms(sz, n)
    weights = (np.prod(q.probs[y_atoms], axis=1)[:, None]
               * np.prod(r.probs[z_atoms], axis=1)[None, :]).reshape(-1)
    cells = (y_atoms[:, None, :, None] * sz
             + z_atoms[None, :, None, :]).reshape(weights.size, m * n)
    inv_q = (1.0 / q.probs[y_atoms])[:, None, :, None]
    inv_r = (1.0 / r.probs[z_atoms])[None, :, None, :]

    def posteriors():
        for wx in w.rows.reshape(w.input_size, sy, sz):
            post = (wx[y_atoms[:, None, :, None], z_atoms[None, :, None, :]]
                    * inv_q * inv_r).reshape(cells.shape)
            total = post.sum(axis=1, keepdims=True)
            safe = total > 0.0
            post /= np.where(safe, total, 1.0)
            post[~safe[:, 0]] = 1.0 / (m * n)
            yield post

    return weights, cells, posteriors()


def _induced_row(weights: np.ndarray, cells: np.ndarray, post: np.ndarray,
                 size: int) -> np.ndarray:
    """One input's induced-channel row, unnormalized, added in cell order."""
    return np.bincount(cells.reshape(-1), minlength=size,
                       weights=(weights[:, None] * post).reshape(-1))


def induced_channel_literal(w: BroadcastDmc, q: Pmf, r: Pmf, m: int,
                            n: int) -> np.ndarray:
    """Protocol-induced channel by direct per-atom enumeration.

    Follows the protocol definition symbol by symbol: for every shared
    string pair, the index posterior is assembled from the literal
    products prod_{i != j} q(y_i) prod_{l != k} r(z_l), normalized, and
    accumulated with the string probability. Kept deliberately naive as
    the reference route; induced_channel_scatter is the fast one.
    """
    _check_lists(w, m, n)
    sy, sz = w.output_sizes
    rows3 = w.rows.reshape(w.input_size, sy, sz)
    qv, rv = q.probs, r.probs
    out = np.zeros((w.input_size, sy * sz))
    for x in range(w.input_size):
        wx = rows3[x]
        for ys in itertools.product(range(sy), repeat=m):
            for zs in itertools.product(range(sz), repeat=n):
                weight = 1.0
                for y in ys:
                    weight *= qv[y]
                for z in zs:
                    weight *= rv[z]
                if weight == 0.0:
                    continue
                nums = np.empty((m, n))
                for j in range(m):
                    for k in range(n):
                        term = wx[ys[j], zs[k]]
                        for i in range(m):
                            if i != j:
                                term *= qv[ys[i]]
                        for ell in range(n):
                            if ell != k:
                                term *= rv[zs[ell]]
                        nums[j, k] = term
                denom = nums.sum()
                if denom <= 0.0:
                    post = np.full((m, n), 1.0 / (m * n))
                else:
                    post = nums / denom
                for j in range(m):
                    for k in range(n):
                        out[x, ys[j] * sz + zs[k]] += weight * post[j, k]
    # Each row sums to the total string mass, exactly 1 in exact
    # arithmetic; divide out the float drift so strict pmf checks pass.
    return out / out.sum(axis=1, keepdims=True)


def induced_channel_scatter(w: BroadcastDmc, q: Pmf, r: Pmf, m: int,
                            n: int) -> np.ndarray:
    """Protocol-induced channel, vectorized.

    Shares no intermediate algebra with the literal route: numerators are
    reduced to W(y_j, z_k | x) / (q(y_j) r(z_k)) after factoring out the
    full string probability, and each input's row is one weighted count
    of the output cells, which adds in the order of a scatter-add.
    """
    weights, cells, posteriors = _input_posteriors(w, q, r, m, n)
    out = np.array([_induced_row(weights, cells, post, w.rows.shape[1])
                    for post in posteriors])
    return out / out.sum(axis=1, keepdims=True)


@dataclasses.dataclass(frozen=True)
class BroadcastRun:
    empirical: BroadcastDmc
    exact: BroadcastDmc
    worst_tvd: float


def broadcast_protocol_run(w: BroadcastDmc, q: Pmf, r: Pmf, m: int, n: int,
                           stream: RngStream, trials: int) -> BroadcastRun:
    """Run the two-receiver index protocol and compare against the target.

    Per trial, draw the shared lists (M picks from q, then N from r) and,
    for each input x in turn, draw (J, K) from the index posterior and
    record (Y_J, Z_K). Trial t reads the M + N + |X| words from counter
    base + (M + N + |X|) t: its list picks, then one index word per input.
    The list picks go through guide tables and leave each trial's
    configuration index, the only per-trial array kept. Inputs then run
    one at a time: the posteriors of x given every configuration
    (sy^M sz^N MN doubles) give x's row of the exact induced channel and,
    cumulated, a row lookup for each trial's index pair, so memory is
    bounded by one input's table. Blocks of trials bound the rest and
    change no output. worst_tvd measures the exact channel against w. A
    posterior can degenerate to all-zero numerators when a sparse row
    misses every drawn list entry; the protocol then falls back to a
    uniform index pair, matching the exact computation.
    """
    if w.num_receivers != 2:
        raise ValueError("protocol is defined for exactly 2 receivers")
    _check_count("trials", trials)
    weights, cells, posteriors = _input_posteriors(w, q, r, m, n)
    sy, sz = w.output_sizes
    size = sy * sz
    per_trial = m + n + w.input_size
    # Word c of the stream mixes the state key + (c + 1) golden, so trial
    # t's word i mixes first + t * stride + i golden: a block's states are
    # one offset, a Python int reduced mod 2^64, plus a fixed ramp.
    first = stream.state_at(stream.counter)
    stream.counter += trials * per_trial
    stride = per_trial * _GOLDEN
    cum_q, cum_r = np.cumsum(q.probs), np.cumsum(r.probs)
    guide_q, guide_r = _guide_table(cum_q), _guide_table(cum_r)
    config = np.empty(trials, dtype=np.intp)
    step = max(1, _BLOCK_WORDS // (m + n))
    ramp = np.arange(min(step, trials), dtype=np.uint64)
    ramp *= np.uint64(stride & _MASK64)
    list_states = (ramp[:, None]
                   + np.arange(m + n, dtype=np.uint64) * _GOLDEN_U)
    for start in range(0, trials, step):
        words = np.add(list_states[:trials - start],
                       np.uint64((first + start * stride) & _MASK64))
        words = _mix(words, np.empty_like(words))
        ys = _guided_pick(cum_q, guide_q, words[:, :m])
        zs = _guided_pick(cum_r, guide_r, words[:, m:])
        config[start:start + step] = np.ravel_multi_index(
            (*ys.T, *zs.T), (sy,) * m + (sz,) * n)
    exact = np.empty((w.input_size, size))
    counts = np.zeros((w.input_size, size), dtype=np.int64)
    state, scratch = np.empty((2, ramp.size), dtype=np.uint64)
    for x, post in enumerate(posteriors):
        exact[x] = _induced_row(weights, cells, post, size)
        # Last entry above 1: the first entry above a uniform u is the
        # count of entries <= u, clamped to the last pair.
        cum = np.cumsum(post, axis=1, out=post)
        cum[:, -1] = 2.0
        index_word = first + (m + n + x) * _GOLDEN
        for start in range(0, trials, step):
            live = min(step, trials - start)
            at = np.uint64((index_word + start * stride) & _MASK64)
            u = _to_uniform(_mix(np.add(ramp[:live], at, out=state[:live]),
                                 scratch[:live]))
            # take is the faster form of cum[rows] and cells[rows, pair];
            # every index is in range, so clipping changes none.
            rows = config[start:start + step]
            pair = (cum.take(rows, axis=0, mode="clip")
                    > u[:, None]).argmax(axis=1)
            counts[x] += np.bincount(
                cells.take(rows * (m * n) + pair, mode="clip"),
                minlength=size)
    exact /= exact.sum(axis=1, keepdims=True)
    empirical = BroadcastDmc(rows=counts / trials, output_sizes=(sy, sz))
    exact_dmc = BroadcastDmc(rows=exact, output_sizes=(sy, sz))
    return BroadcastRun(empirical=empirical, exact=exact_dmc,
                        worst_tvd=channel_tvd(exact_dmc, w))
