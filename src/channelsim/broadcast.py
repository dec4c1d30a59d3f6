"""Broadcast-channel rate regions built on multipartite mutual information.

The asymptotic simulation region of a K-receiver broadcast channel is an
intersection of half spaces, one per nonempty receiver subset J: the rates
of the receivers in J must add up to at least the maximized multipartite
mutual information of the channel reduced to J. This module computes those
thresholds with the generalized Blahut-Arimoto ascent and a Newton finish,
each certified within a stated gap by the a-posteriori bracket of
``asymptotics._certified_optimum``, keeps the ascent's own trace with its
a-priori bound (``tilde_c_ba``, behind ``ba-trace``), tests membership,
extracts the two-receiver corner points, and evaluates the common
dispersion and the product-reference spectrum bound used by the one-shot
converse arguments.

Receiver subsets are 0-based index collections throughout; the CLI layer
renders them 1-based for output files.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .asymptotics import (MAX_GRID_POINTS, BaTrace, _ba_core,
                          _certified_optimum, _drop_dead_letters,
                          _simplex_grid)
from .divergences import _check_eps, _spectrum, d_s_plus, var_div
from .prob import BroadcastDmc, Pmf, entropy_bits, push_forward, reduce_broadcast


@dataclasses.dataclass(frozen=True)
class MultipartiteMi:
    """I(X : Y_J) = H(X) + sum_i H(Y_i) - H(X, Y_J) with its pieces."""

    value: float
    h_input: float
    h_receivers: tuple
    h_joint: float


def multipartite_mi(p: Pmf, w: BroadcastDmc, subset) -> MultipartiteMi:
    """Multipartite mutual information between the input and receivers in subset."""
    joint = push_forward(p, reduce_broadcast(w, subset))
    h_in = entropy_bits(p)
    h_rec = tuple(entropy_bits(joint.marginal((axis,)))
                  for axis in range(1, len(joint.factor_sizes)))
    h_joint = entropy_bits(joint.probs)
    return MultipartiteMi(value=h_in + sum(h_rec) - h_joint,
                          h_input=h_in, h_receivers=h_rec, h_joint=h_joint)


def _output_sizes(reduced) -> tuple:
    """Output factor sizes of a reduced channel, broadcast or not."""
    if hasattr(reduced, "output_sizes"):
        return tuple(reduced.output_sizes)
    return (reduced.output_size,)


def tilde_c_ba(w: BroadcastDmc, subset, tol: float | None = None) -> BaTrace:
    """Maximized multipartite mutual information for one receiver subset.

    Ascent rule, from the uniform input:
    p <- p * 2^(D(W_J(.|x) || prod_i p_Yi) / |J|). The default stopping
    increment (``trace.tol``) is 1e-9 bits for up to two receivers and
    1e-6 for more, where each iteration is noticeably heavier. The trace
    carries the a-priori bound |J| log2|X| / t only; ``rate_region`` does
    not use this function, and certifies each threshold a posteriori.
    """
    reduced = reduce_broadcast(w, subset)
    sizes = _output_sizes(reduced)
    return _ba_core(reduced.rows, sizes, len(sizes), tol)


@dataclasses.dataclass(frozen=True)
class RateRegion:
    """Half-space family: sum of rates over J at least constraints[J] bits,
    each threshold certified within ``tol`` bits."""

    k: int
    constraints: dict
    tol: float


def rate_region(w: BroadcastDmc, tol: float | None = None) -> RateRegion:
    """Thresholds c_J for every nonempty receiver subset.

    Each c_J is I(p) = p.d at an input p certified by
    ``asymptotics._certified_optimum``: the maximized multipartite mutual
    information lies in [c_J, c_J + tol], tol defaulting to 1e-12 bits.
    """
    if w.num_receivers > 4:
        raise ValueError("rate_region supports at most 4 receivers")
    gap = 1e-12 if tol is None else tol
    receivers = range(w.num_receivers)
    constraints = {}
    for size in receivers:
        for js in itertools.combinations(receivers, size + 1):
            reduced = reduce_broadcast(w, js)
            rows, sizes = _drop_dead_letters(reduced.rows,
                                             _output_sizes(reduced))
            p, d = _certified_optimum(rows, sizes, len(js), gap)
            constraints[frozenset(js)] = float(p @ d)
    return RateRegion(k=w.num_receivers, constraints=constraints, tol=gap)


def region_contains(region: RateRegion, rates) -> bool:
    """Closed-half-space membership of a rate vector."""
    r = np.asarray(rates, dtype=np.float64)
    if r.shape != (region.k,):
        raise ValueError(f"rate vector must have length {region.k}")
    return all(float(r[list(js)].sum()) >= c
               for js, c in region.constraints.items())


def region_corners_k2(region: RateRegion) -> list:
    """Vertices of the two-receiver region boundary.

    When the sum constraint binds there are two kinks; when it is redundant
    both formulas give the single corner (c_1, c_2) and the duplicate is
    removed.
    """
    if region.k != 2:
        raise ValueError("corner extraction is defined for 2 receivers")
    c1 = region.constraints[frozenset((0,))]
    c2 = region.constraints[frozenset((1,))]
    c12 = region.constraints[frozenset((0, 1))]
    corners = [(c1, max(c2, c12 - c1)), (max(c1, c12 - c2), c2)]
    out = []
    for pt in corners:
        if not any(abs(pt[0] - q[0]) <= 1e-12 and abs(pt[1] - q[1]) <= 1e-12
                   for q in out):
            out.append(pt)
    return out


def common_dispersion(p: Pmf, w: BroadcastDmc) -> float:
    """Input-averaged variance of log W(y..|x) / prod_i p_Yi(y_i).

    This is the variance term governing the second-order behavior of the
    common-randomness sum rate. Rows with zero input probability are
    skipped; on the support the reference product is automatically positive
    wherever the row is.
    """
    joint = push_forward(p, w)
    refs = []
    for axis in range(1, w.num_receivers + 1):
        refs.append(joint.marginal((axis,)).probs)
    ref = refs[0]
    for q in refs[1:]:
        ref = np.multiply.outer(ref, q)
    ref = ref.reshape(-1)
    total = 0.0
    for x in range(w.input_size):
        px = p.probs[x]
        if px <= 0.0:
            continue
        total += px * var_div(w.rows[x], ref)
    return total


def _factor_grids(sizes, resolution: float):
    """Simplex grids per output factor plus the combo count guard."""
    steps = max(int(round(1.0 / resolution)), 1)
    grids = [_simplex_grid(size, steps) for size in sizes]
    combos = 1
    for g in grids:
        combos *= g.shape[0]
        if combos > MAX_GRID_POINTS:
            raise ValueError(
                "product-reference grid too large; coarsen the resolution "
                "or reduce the output alphabets")
    return grids


def ds_product_lower_bound(joint, eps: float, delta: float,
                           resolution: float = 1e-2) -> tuple:
    """Best product-reference spectrum divergence versus its lower bound.

    lhs approximates inf over product references q_1 x ... x q_k of
    D_s+^eps(p || p_X x q_1 x ... x q_k) by grid search (the exact output
    marginals are appended to each grid); rhs is the closed-form bound
    D_s+^(eps + k delta)(p || p_X x p_Y1 x ... x p_Yk) + k log2 delta.
    Coarsening the grid can only raise the lhs, so the inequality
    lhs >= rhs is tested one-sidedly. Each factor's grid, and their
    product, may hold at most MAX_GRID_POINTS points.
    """
    sizes = tuple(joint.factor_sizes)
    k = len(sizes) - 1
    if k < 1:
        raise ValueError("joint must have at least one output factor")
    _check_eps(eps)
    if not 0.0 < delta < (1.0 - eps) / k:
        raise ValueError("delta must lie in (0, (1 - eps) / k)")
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, "
                         f"got {resolution!r}")
    p_x = joint.marginal((0,)).probs
    marginals = [joint.marginal((axis,)).probs for axis in range(1, k + 1)]
    ref = p_x
    for q in marginals:
        ref = np.multiply.outer(ref, q)
    rhs = d_s_plus(eps + k * delta, joint.probs, ref.reshape(-1)) \
        + k * math.log2(delta)

    grids = _factor_grids(sizes[1:], resolution)
    grids = [np.vstack([g, m[None, :]]) for g, m in zip(grids, marginals)]
    support = joint.probs > 0.0
    mass = joint.probs[support]
    # Atom coordinates over (x, y_1, .., y_k) restricted to the support.
    coords = np.unravel_index(np.flatnonzero(support), sizes)
    with np.errstate(divide="ignore"):
        base = np.log2(p_x)[coords[0]]
        factor_logs = [np.log2(g) for g in grids]
    combo_shape = tuple(g.shape[0] for g in grids)
    total = int(np.prod(combo_shape))
    log_refs = np.broadcast_to(base, (total, mass.size)).copy()
    combo_index = np.indices(combo_shape).reshape(k, total)
    for i in range(k):
        with np.errstate(invalid="ignore"):
            log_refs += factor_logs[i][np.ix_(combo_index[i], coords[i + 1])]
    values = _spectrum(mass, np.log2(mass) - log_refs, eps)
    return float(values.min()), float(rhs)
