"""Broadcast regions: thresholds, corners and membership."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from channelsim import broadcast, prob, selfcheck
from channelsim.asymptotics import capacity_ba


def _h2(d):
    return -d * math.log2(d) - (1.0 - d) * math.log2(1.0 - d)


def _bsc_chain(depth):
    """Broadcast channel whose receiver i sees the input through i+1 BSC(0.3) hops."""
    b = np.array([[0.7, 0.3], [0.3, 0.7]])
    rows = np.zeros((2, 2 ** depth))
    for x in range(2):
        for flat in range(2 ** depth):
            bits = [(flat >> (depth - 1 - i)) & 1 for i in range(depth)]
            mass = 1.0
            prev = x
            for bit in bits:
                mass *= b[prev, bit]
                prev = bit
            rows[x, flat] = mass
    return prob.BroadcastDmc(rows=rows, output_sizes=(2,) * depth)


DEGRADED = _bsc_chain(2)
BSSC = prob.BroadcastDmc(rows=[[0.5, 0.0, 0.5, 0.0],
                               [0.0, 0.0, 0.5, 0.5]], output_sizes=(2, 2))

C_Y = 1.0 - _h2(0.3)
C_Z = 1.0 - _h2(0.42)
C_YZ = 2.0 - 2.0 * _h2(0.3)

# Receiver 0 sees the input through a Z channel (1 -> 0 with probability
# 1/2) and receiver 1 sees noise independent of everything, so the
# multipartite information is the Z channel's I(X; Y): log2(5/4) at most,
# at the input (3/5, 2/5). From the uniform input the ascent takes dozens
# of steps.
Z_PAIR = prob.BroadcastDmc(
    rows=np.einsum("xy,z->xyz", [[1.0, 0.0], [0.5, 0.5]],
                   [0.3, 0.7]).reshape(2, 4),
    output_sizes=(2, 2))
C_Z_PAIR = math.log2(1.25)


class TestTildeC:
    def test_asymmetric_pair_from_uniform_start(self):
        trace = broadcast.tilde_c_ba(Z_PAIR, (0, 1))
        assert trace.value == pytest.approx(C_Z_PAIR, abs=1e-4)
        assert trace.final_input.probs == pytest.approx([0.6, 0.4], abs=1e-3)

    def test_trace_monotone_and_certified(self):
        trace = broadcast.tilde_c_ba(Z_PAIR, (0, 1))
        assert len(trace.estimates) > 10
        ests = [est for _, est in trace.iterates]
        assert all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))
        for t, est in trace.iterates:
            assert est <= C_Z_PAIR + 1e-9
            assert C_Z_PAIR <= est + trace.bound(t) + 1e-9

    def test_single_receiver_matches_plain_capacity(self):
        reduced = prob.reduce_broadcast(DEGRADED, (1,))
        want = capacity_ba(reduced).value
        got = broadcast.tilde_c_ba(DEGRADED, (1,)).value
        assert got == pytest.approx(want, abs=1e-8)


class TestRateRegion:
    def test_degraded_thresholds(self):
        reg = broadcast.rate_region(DEGRADED)
        assert reg.constraints[frozenset((0,))] == pytest.approx(C_Y, abs=1e-4)
        assert reg.constraints[frozenset((1,))] == pytest.approx(C_Z, abs=1e-4)
        assert reg.constraints[frozenset((0, 1))] == pytest.approx(C_YZ,
                                                                   abs=1e-4)

    def test_skew_symmetric_thresholds(self):
        reg = broadcast.rate_region(BSSC)
        single = math.log2(1.25)
        assert reg.constraints[frozenset((0,))] == pytest.approx(single,
                                                                 abs=5e-4)
        assert reg.constraints[frozenset((1,))] == pytest.approx(single,
                                                                 abs=5e-4)

    def test_skew_symmetric_sum_constraint_redundant(self):
        reg = broadcast.rate_region(BSSC)
        c1 = reg.constraints[frozenset((0,))]
        c2 = reg.constraints[frozenset((1,))]
        assert reg.constraints[frozenset((0, 1))] <= c1 + c2 + 1e-6

    def test_thresholds_monotone_under_inclusion(self):
        rng = np.random.default_rng(5)
        rows = rng.random((3, 8)) + 0.1
        w = prob.BroadcastDmc(rows=rows / rows.sum(axis=1, keepdims=True),
                              output_sizes=(2, 2, 2))
        reg = broadcast.rate_region(w)
        for js, c in reg.constraints.items():
            for ks, d in reg.constraints.items():
                if js < ks:
                    assert c <= d + 1e-5

    def test_membership_examples(self):
        reg = broadcast.rate_region(DEGRADED)
        assert broadcast.region_contains(reg, (0.2, 0.05))
        assert not broadcast.region_contains(reg, (0.0, 0.0))
        assert not broadcast.region_contains(reg, (0.2, 0.01))
        assert not broadcast.region_contains(reg, (0.13, 0.02))
        full = reg.constraints[frozenset((0, 1))]
        assert broadcast.region_contains(reg, (full, full))

    @given(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
    def test_membership_is_an_up_set(self, bump):
        reg = broadcast.rate_region(DEGRADED)
        base = (0.22, 0.05)
        assert broadcast.region_contains(reg, base)
        assert broadcast.region_contains(reg, (base[0] + bump[0],
                                               base[1] + bump[1]))

    def test_validates_rate_vector_length(self):
        reg = broadcast.rate_region(DEGRADED)
        with pytest.raises(ValueError):
            broadcast.region_contains(reg, (0.2, 0.05, 0.1))

    def test_selfcheck_sees_a_threshold_off_by_1e_9(self, monkeypatch):
        assert selfcheck.check_region(0)[0]
        real = broadcast.rate_region

        def low(w, tol=None):
            reg = real(w, tol)
            return broadcast.RateRegion(k=reg.k, constraints={
                js: c - 1e-9 for js, c in reg.constraints.items()},
                tol=reg.tol)
        monkeypatch.setattr(broadcast, "rate_region", low)
        ok, detail = selfcheck.check_region(0)
        assert not ok and "constraint" in detail

    def test_receiver_count_guard(self):
        w = prob.BroadcastDmc(rows=np.full((2, 32), 1.0 / 32.0),
                              output_sizes=(2,) * 5)
        with pytest.raises(ValueError):
            broadcast.rate_region(w)


class TestCorners:
    def test_degraded_has_two_kinks(self):
        reg = broadcast.rate_region(DEGRADED)
        c1 = reg.constraints[frozenset((0,))]
        c2 = reg.constraints[frozenset((1,))]
        c12 = reg.constraints[frozenset((0, 1))]
        corners = broadcast.region_corners_k2(reg)
        assert len(corners) == 2
        assert corners[0] == pytest.approx((c1, c12 - c1), abs=1e-12)
        assert corners[1] == pytest.approx((c12 - c2, c2), abs=1e-12)

    def test_redundant_sum_gives_single_corner(self):
        reg = broadcast.rate_region(BSSC)
        corners = broadcast.region_corners_k2(reg)
        assert len(corners) == 1
        assert corners[0] == pytest.approx(
            (math.log2(1.25), math.log2(1.25)), abs=5e-4)

    def test_corners_sit_on_the_boundary(self):
        reg = broadcast.rate_region(DEGRADED)
        for corner in broadcast.region_corners_k2(reg):
            inside = (corner[0] + 1e-12, corner[1] + 1e-12)
            assert broadcast.region_contains(reg, inside)
            for axis in range(2):
                probe = list(inside)
                probe[axis] -= 1e-3
                assert not broadcast.region_contains(reg, probe)

    def test_requires_two_receivers(self):
        reg = broadcast.rate_region(_bsc_chain(3))
        with pytest.raises(ValueError):
            broadcast.region_corners_k2(reg)


class TestThreeReceivers:
    def test_chain_thresholds(self):
        reg = broadcast.rate_region(_bsc_chain(3))
        assert reg.k == 3
        assert reg.constraints[frozenset((0,))] == pytest.approx(C_Y, abs=1e-4)
        assert reg.constraints[frozenset((1,))] == pytest.approx(C_Z, abs=1e-4)
        assert reg.constraints[frozenset((2,))] == pytest.approx(
            1.0 - _h2(0.468), abs=1e-4)
        assert reg.constraints[frozenset((0, 1))] == pytest.approx(C_YZ,
                                                                   abs=1e-4)
        assert reg.constraints[frozenset((0, 1, 2))] == pytest.approx(
            3.0 - 3.0 * _h2(0.3), abs=1e-3)
        for js, c in reg.constraints.items():
            for ks, d in reg.constraints.items():
                if js < ks:
                    assert c <= d + 1e-5
