"""Core probability types: validation, distances, transforms, JSON."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from channelsim import asymptotics, ns_meta, prob


def _pmf_values(size):
    return st.lists(st.floats(0.001, 1.0), min_size=size, max_size=size)


class TestPmf:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            prob.Pmf(np.array([0.5, -0.1, 0.6]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            prob.Pmf(np.array([0.5, 0.4]))

    def test_normalized(self):
        p = prob.Pmf.normalized(np.array([2.0, 6.0]))
        assert np.allclose(p.probs, [0.25, 0.75])


# Entry points that take a channel object or a raw array, with the
# arguments after the channel.
_RAW_ENTRIES = [
    (ns_meta.i_max, ()),
    (ns_meta.i_max_smooth, (0.1,)),
    (ns_meta.ns_cost, (0.1,)),
    (ns_meta.ns_eps_for_cost, (2,)),
    (ns_meta.d_s_plus_channel, ([0.5, 0.5], 0.1)),
    (ns_meta.channel_d_max_smooth, ([0.5, 0.5], 0.1)),
    (ns_meta.smoothing_witness, ([0.5, 0.5], 0.1)),
    (asymptotics.capacity_ba, ()),
    (asymptotics.dispersion, ()),
]


class TestDmc:
    def test_bsc(self):
        w = prob.Dmc.bsc(0.1)
        assert np.allclose(w.rows, [[0.9, 0.1], [0.1, 0.9]])

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            prob.Dmc(rows=np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_bsc_crossover_range(self):
        with pytest.raises(ValueError):
            prob.Dmc.bsc(-0.01)

    @pytest.mark.parametrize("entry, args", _RAW_ENTRIES,
                             ids=[f.__name__ for f, _ in _RAW_ENTRIES])
    def test_raw_arrays_are_checked_as_channels(self, entry, args):
        # Accepted unchecked, this array gave 0.0 bits of smoothed
        # max-information, a cost of 1 and a capacity of 0.0845 bits.
        with pytest.raises(ValueError, match="channel row 0 must sum to 1"):
            entry([[0.5, 0.6], [0.3, 0.3]], *args)


class TestTvd:
    def test_disjoint_supports(self):
        p = prob.Pmf(np.array([1.0, 0.0]))
        q = prob.Pmf(np.array([0.0, 1.0]))
        assert prob.tvd(p, q) == 1.0

    def test_identical(self):
        p = prob.Pmf(np.full(5, 1 / 5))
        assert prob.tvd(p, p) == 0.0

    @given(_pmf_values(4), _pmf_values(4))
    def test_symmetry_and_range(self, a, b):
        p = prob.Pmf.normalized(np.array(a))
        q = prob.Pmf.normalized(np.array(b))
        d = prob.tvd(p, q)
        assert d == prob.tvd(q, p)
        assert 0.0 <= d <= 1.0

    @given(_pmf_values(3), _pmf_values(3), _pmf_values(3))
    def test_triangle(self, a, b, c):
        p = prob.Pmf.normalized(np.array(a))
        q = prob.Pmf.normalized(np.array(b))
        r = prob.Pmf.normalized(np.array(c))
        assert prob.tvd(p, r) <= prob.tvd(p, q) + prob.tvd(q, r) + 1e-12

    def test_channel_tvd_is_worst_row(self):
        a = prob.Dmc(rows=np.array([[1.0, 0.0], [0.5, 0.5]]))
        b = prob.Dmc(rows=np.array([[0.8, 0.2], [0.5, 0.5]]))
        assert prob.channel_tvd(a, b) == pytest.approx(0.2)


class TestTransforms:
    def test_tensor_power_shape(self):
        w = prob.Dmc.bsc(0.1)
        w3 = prob.tensor_power(w, 3)
        assert w3.rows.shape == (8, 8)
        assert np.allclose(w3.rows.sum(axis=1), 1.0)

    def test_tensor_power_entry(self):
        w = prob.Dmc.bsc(0.1)
        w2 = prob.tensor_power(w, 2)
        # input (0,0) -> output (0,1) flips the second coordinate only
        assert w2.rows[0, 1] == pytest.approx(0.9 * 0.1)

    def test_tensor_power_guard(self):
        with pytest.raises(ValueError):
            prob.tensor_power(prob.Dmc.bsc(0.1), 25)

    def test_reduce_broadcast_single(self):
        rows = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]])
        w = prob.BroadcastDmc(rows=rows, output_sizes=(2, 2))
        w_y = prob.reduce_broadcast(w, (0,))
        assert isinstance(w_y, prob.Dmc)
        assert np.allclose(w_y.rows, [[0.5, 0.5], [0.0, 1.0]])

    def test_reduce_broadcast_keeps_order(self):
        rows = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]])
        w = prob.BroadcastDmc(rows=rows, output_sizes=(2, 2))
        w_z = prob.reduce_broadcast(w, (1,))
        assert np.allclose(w_z.rows, [[1.0, 0.0], [0.5, 0.5]])


class TestJson:
    def test_dmc_roundtrip_bits(self):
        rng = np.random.default_rng(11)
        rows = rng.random((3, 5))
        rows /= rows.sum(axis=1, keepdims=True)
        w = prob.Dmc(rows=rows)
        back = prob.channel_from_json(prob.channel_to_json(w))
        assert isinstance(back, prob.Dmc)
        assert np.array_equal(back.rows, w.rows)

    def test_broadcast_roundtrip_bits(self):
        rng = np.random.default_rng(12)
        rows = rng.random((2, 6))
        rows /= rows.sum(axis=1, keepdims=True)
        w = prob.BroadcastDmc(rows=rows, output_sizes=(3, 2))
        back = prob.channel_from_json(prob.channel_to_json(w))
        assert isinstance(back, prob.BroadcastDmc)
        assert np.array_equal(back.rows, w.rows)
        assert back.output_sizes == w.output_sizes
