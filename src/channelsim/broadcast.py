"""Broadcast-channel rate regions built on multipartite mutual information.

The asymptotic simulation region of a K-receiver broadcast channel is an
intersection of half spaces, one per nonempty receiver subset J: the rates
of the receivers in J must add up to at least the maximized multipartite
mutual information of the channel reduced to J. This module computes those
thresholds with the generalized Blahut-Arimoto ascent and a Newton finish,
each certified within a stated gap by the a-posteriori bracket of
``asymptotics._certified_optimum``, keeps the ascent's own trace with its
a-priori bound (``tilde_c_ba``, behind ``ba-trace``), tests membership and
extracts the two-receiver corner points.

Receiver subsets are 0-based index collections throughout; the CLI layer
renders them 1-based for output files.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .asymptotics import (BaTrace, _ba_core, _certified_optimum,
                          _drop_dead_letters)
from .prob import BroadcastDmc, reduce_broadcast


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
