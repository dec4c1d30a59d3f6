"""Reference routes the tests check the protocols against.

The library computes the convex-split TVD and the protocol-induced
channel as sums over list types. The string enumerations here are the
routes they replaced, which enumerate every list string and so stop at
small list sizes; the tests check the type sums against them. The Monte
Carlo runs address an RngStream's words by counter or carry states; the
sequential word reader here draws the same words one array at a time,
and the per-trial reference loops read it. Each keeps its own argument
checks. Not collected as tests.
"""

import itertools

import numpy as np

from channelsim.prob import BroadcastDmc, Pmf, _check_count
from channelsim.protocols import (_GOLDEN_U, _MASK64, MAX_ATOMS, RngStream,
                                  _mix)


def words_at(stream: RngStream, index) -> np.ndarray:
    """The words of ``stream`` at the given counters, as a uint64 array of
    that shape.

    Counters are taken mod 2^64; ``stream.counter`` does not move.
    """
    z = np.array(index, dtype=np.uint64)
    z *= _GOLDEN_U
    z += np.uint64(stream.state_at(0))
    return _mix(z, np.empty_like(z))


def words(stream: RngStream, count: int) -> np.ndarray:
    """The next ``count`` words of ``stream`` as a uint64 array."""
    count = _check_count("word count", count, least=0)
    index = np.arange(count, dtype=np.uint64)
    index += np.uint64(stream.counter & _MASK64)
    stream.counter += count
    return words_at(stream, index)


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
    m, n = _check_count("list size m", m), _check_count("list size n", n)
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


def convex_split_tvd(joint_xyz: np.ndarray, q: np.ndarray, r: np.ndarray,
                     m: int, n: int) -> float:
    """Exact TVD of convex_split_mixture against p_X q^M r^N."""
    mixture = convex_split_mixture(joint_xyz, q, r, m, n)
    product = joint_xyz.sum(axis=(1, 2))
    for _ in range(m):
        product = np.multiply.outer(product, q)
    for _ in range(n):
        product = np.multiply.outer(product, r)
    return 0.5 * float(np.abs(mixture - product).sum())


def induced_channel_literal(w: BroadcastDmc, q: Pmf, r: Pmf, m: int,
                            n: int) -> np.ndarray:
    """Protocol-induced channel by direct per-atom enumeration.

    Follows the protocol definition symbol by symbol: for every shared
    string pair, the index posterior is assembled from the literal
    products prod_{i != j} q(y_i) prod_{l != k} r(z_l), normalized, and
    accumulated with the string probability. Kept deliberately naive as
    the reference route.
    """
    m, n = _check_count("list size m", m), _check_count("list size n", n)
    if (q.size, r.size) != w.output_sizes:
        raise ValueError("reference sizes do not match the receivers' "
                         "alphabets")
    sy, sz = w.output_sizes
    if sy ** m * sz ** n * w.input_size > MAX_ATOMS:
        raise ValueError("state space exceeds the enumeration cap")
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
