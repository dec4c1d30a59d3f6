"""Dispersion extremes against HiGHS on the same optimal face.

The oracle runs its own Blahut-Arimoto ascent to a 1e-12 a-posteriori gap,
takes the letters within TOL_CAP = 1e-7 bits of the largest divergence
(the threshold ``dispersion`` uses) as X*, and
minimizes and maximizes the conditional information variance over
{p >= 0 on X*, p W = q*} with scipy's HiGHS, so it shares no code with
``asymptotics.dispersion``. Half of the channels are two cyclic families of
equal entropy, whose optimal face is not a single point. Test-only: skipped
when scipy is missing.
"""

import numpy as np
import pytest

from channelsim import asymptotics as asy

optimize = pytest.importorskip("scipy.optimize")

TOL_CAP = 1e-7


def _divergences(rows, q):
    pos = rows > 0.0
    logs = np.log2(np.where(pos, rows, 1.0) / np.where(pos, q, 1.0))
    return np.where(pos, rows * logs, 0.0).sum(axis=1), logs


def _face_extremes(rows):
    p = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for _ in range(200_000):
        d, _ = _divergences(rows, p @ rows)
        if d.max() - p @ d <= 1e-12:
            break
        p = p * np.exp2(d - d.max())
        p /= p.sum()
    face = d >= d.max() - TOL_CAP
    q = p[face] @ rows[face] / p[face].sum()
    live = q > 0.0
    w_face = rows[face][:, live]
    d, logs = _divergences(w_face, q[live])
    v = (w_face * (logs - d[:, None]) ** 2).sum(axis=1)
    values = []
    for sign in (1.0, -1.0):
        res = optimize.linprog(sign * v, A_eq=w_face.T, b_eq=q[live],
                               bounds=(0.0, None), method="highs")
        assert res.status == 0
        values.append(sign * res.fun)
    return values


def _entropy(pmf):
    pos = pmf[pmf > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def _two_families(rng, m):
    """Cyclic shifts of two rows of equal entropy, plus dominated rows."""
    base = rng.dirichlet(np.ones(m))
    target = _entropy(base)
    while True:
        peak = rng.dirichlet(np.full(m, 0.3))
        if _entropy(peak) < target:
            break
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        mixed = (1.0 - mid) * peak + mid / m
        lo, hi = (mid, hi) if _entropy(mixed) < target else (lo, mid)
    other = (1.0 - lo) * peak + lo / m
    rows = [np.roll(base, i) for i in range(m)] \
        + [np.roll(other, i) for i in range(m)]
    # Mixing a face row with the uniform row lowers its divergence from
    # the uniform output, so these rows stay off the face.
    for _ in range(8 - 2 * m):
        rows.append(0.5 * rows[int(rng.integers(m))] + 0.5 / m)
    return np.array(rows)


def _cases():
    cases = []
    for i in range(10):
        rng = np.random.default_rng(300 + i)
        k, m = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        rows = rng.dirichlet(np.ones(m), size=k)
        cases.append(pytest.param(rows, False, id=f"r{i}-{k}x{m}"))
    for i in range(10):
        rng = np.random.default_rng(400 + i)
        m = 3 + i % 2
        cases.append(pytest.param(_two_families(rng, m), True,
                                  id=f"f{i}-{2 * m}x{m}"))
    return cases


@pytest.mark.parametrize("rows,wide", _cases())
def test_face_extremes_match_highs(rows, wide):
    got = asy.dispersion(rows)
    v_min, v_max = _face_extremes(rows)
    assert got.v_min == pytest.approx(v_min, abs=1e-9)
    assert got.v_max == pytest.approx(v_max, abs=1e-9)
    if wide:
        assert v_max - v_min > 1e-3
        assert len(got.capacity_achieving_inputs) == 2
    for p in got.capacity_achieving_inputs:
        d, _ = _divergences(rows, p.probs @ rows)
        assert d.max() - p.probs @ d <= 1e-9
