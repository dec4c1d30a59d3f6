"""The one count rule: every integer argument goes through prob._check_count.

A count is an integer that is not a bool and is at least its function's
minimum. Integral floats, bools, strings, None, NaN and infinities are
rejected with a ValueError naming the argument, never truncated and
never an OverflowError, IndexError or TypeError.
"""

import math
import re

import numpy as np
import pytest
import reference_protocols as ref

from channelsim import asymptotics, ns_meta, prob, protocols
from channelsim.prob import BroadcastDmc, Dmc, JointPmf, Pmf

BSC = Dmc.bsc(0.1)
HALF = Pmf([0.5, 0.5])
PAIR = BroadcastDmc(np.full((2, 4), 0.25), (2, 2))
PARAMS = asymptotics.SecondOrderParams(
    capacity=0.5, v_min=0.25, v_max=0.25, capacity_achieving_inputs=(),
    tol_cap=1e-7)
CUBE = np.einsum("a,b,c->abc", [0.4, 0.6], [0.3, 0.7], [0.55, 0.45])
JOINT = JointPmf(CUBE.reshape(-1), (2, 2, 2))
SPLIT = (0.05, 0.05, 0.05, 0.1, 0.1, 0.1)
TRACE = asymptotics.capacity_ba(BSC)


def _plan():
    return protocols.RejectionPlan.build(HALF, HALF, 1)


# (argument name in the message, least, call with the count)
SITES = {
    "tensor_power": ("power", 1, lambda v: prob.tensor_power(BSC, v)),
    "BroadcastDmc": ("output size", 1,
                     lambda v: BroadcastDmc(np.full((1, 2), 0.5), (v, 2))),
    "JointPmf": ("factor size", 1,
                 lambda v: JointPmf([0.5, 0.5], (v, 2))),
    "reduce_broadcast": ("receiver", 0,
                         lambda v: prob.reduce_broadcast(PAIR, (v,))),
    "count_field": ("'k'", 1, lambda v: prob.count_field({"k": v}, "k")),
    "counts_field": ("'k'", 1,
                     lambda v: prob.counts_field({"k": [v]}, "k")),
    "ns_eps_for_cost": ("cost", 2,
                        lambda v: ns_meta.ns_eps_for_cost(BSC, v)),
    "bsc_ns_eps.n": ("blocklength", 1,
                     lambda v: ns_meta.bsc_ns_eps(v, 0.1, 2)),
    "bsc_ns_eps.c": ("cost", 2, lambda v: ns_meta.bsc_ns_eps(3, 0.1, v)),
    "bsc_ns_cost": ("blocklength", 1,
                    lambda v: ns_meta.bsc_ns_cost(v, 0.1, 0.1)),
    "bsc_ns_log2_costs": ("blocklength", 1,
                          lambda v: ns_meta.bsc_ns_log2_costs([v], 0.1, 0.1)),
    "second_order_coding": (
        "blocklength", 1,
        lambda v: asymptotics.second_order_coding(PARAMS, v, 0.1)),
    "second_order_simulation": (
        "blocklength", 1,
        lambda v: asymptotics.second_order_simulation(PARAMS, [v], 0.1)),
    "moderate_deviation_rates": (
        "blocklength", 1,
        lambda v: asymptotics.moderate_deviation_rates(PARAMS, v)),
    "BaTrace.bound": ("step", 1, lambda v: TRACE.bound(v)),
    "RngStream": ("seed", 0, lambda v: protocols.RngStream(v)),
    # The sequential word reader in the tests keeps the rule.
    "RngStream.words": ("word count", 0,
                        lambda v: ref.words(protocols.RngStream(1), v)),
    "RejectionPlan.build": (
        "round budget", 1,
        lambda v: protocols.RejectionPlan.build(HALF, HALF, v)),
    "rejection_sample_run": (
        "trials", 1,
        lambda v: protocols.rejection_sample_run(
            _plan(), protocols.RngStream(1), v)),
    # The string-enumeration references in the tests keep the rule.
    "convex_split_mixture.m": (
        "list size m", 1,
        lambda v: ref.convex_split_mixture(
            CUBE, HALF.probs, HALF.probs, v, 1)),
    "convex_split_mixture.n": (
        "list size n", 1,
        lambda v: ref.convex_split_mixture(
            CUBE, HALF.probs, HALF.probs, 1, v)),
    "convex_split_check.m": (
        "list size m", 1,
        lambda v: protocols.convex_split_check(JOINT, HALF, HALF, v, 1,
                                               SPLIT)),
    "convex_split_check.n": (
        "list size n", 1,
        lambda v: protocols.convex_split_check(JOINT, HALF, HALF, 1, v,
                                               SPLIT)),
    "induced_channel_literal.m": (
        "list size m", 1,
        lambda v: ref.induced_channel_literal(PAIR, HALF, HALF, v, 1)),
    "induced_channel_types.m": (
        "list size m", 1,
        lambda v: protocols.induced_channel_types(PAIR, HALF, HALF, v, 1)),
    "induced_channel_types.n": (
        "list size n", 1,
        lambda v: protocols.induced_channel_types(PAIR, HALF, HALF, 1, v)),
    "induced_channel_scatter.n": (
        "list size n", 1,
        lambda v: protocols.induced_channel_scatter(PAIR, HALF, HALF, 1, v)),
    "broadcast_protocol_run.m": (
        "list size m", 1,
        lambda v: protocols.broadcast_protocol_run(
            PAIR, HALF, HALF, v, 1, protocols.RngStream(1), 4)),
    "broadcast_protocol_run.trials": (
        "trials", 1,
        lambda v: protocols.broadcast_protocol_run(
            PAIR, HALF, HALF, 1, 1, protocols.RngStream(1), v)),
}


def _bad_values(least):
    return [2.5, 2.0, True, math.nan, math.inf, -1, least - 1, "3", None]


@pytest.mark.parametrize("site", sorted(SITES))
def test_rejects_every_non_count(site):
    name, least, call = SITES[site]
    for value in _bad_values(least):
        with pytest.raises(ValueError, match=re.escape(name)):
            call(value)


@pytest.mark.parametrize("site", sorted(SITES))
def test_accepts_the_least_count(site):
    _, least, call = SITES[site]
    call(least)
    call(np.int64(least))


def test_message_names_the_rule():
    with pytest.raises(ValueError, match=r"^power must be a positive "
                                         r"integer, got 2\.5$"):
        prob.tensor_power(BSC, 2.5)
    with pytest.raises(ValueError, match=r"^cost must be an integer >= 2, "
                                         r"got 1$"):
        ns_meta.ns_eps_for_cost(BSC, 1)
    with pytest.raises(ValueError, match=r"^'m' must be a positive integer, "
                                         r"got 2\.5$"):
        prob.count_field({"m": 2.5}, "m")


def test_numpy_counts_come_back_as_python_ints():
    w = BroadcastDmc(np.full((1, 4), 0.25), (np.int64(2), np.int64(2)))
    assert [type(m) for m in w.output_sizes] == [int, int]
    stream = protocols.RngStream(1)
    protocols.rejection_sample_run(_plan(), stream, np.int64(3))
    ref.words(stream, np.int64(2))
    assert type(stream.counter) is int and stream.counter == 8
    # Later draws still work: a numpy counter would overflow the key sum.
    assert ref.words(stream, 1).shape == (1,)
    run = protocols.broadcast_protocol_run(
        PAIR, HALF, HALF, np.int64(2), np.int64(1), protocols.RngStream(1),
        np.int64(4))
    assert run.empirical.rows.shape == (2, 4)
    # A numpy power once wrapped the entry count to 0 and passed the cap.
    with pytest.raises(ValueError, match="cap"):
        prob.tensor_power(BSC, np.int64(64))


def test_float_blocklength_arrays_are_rejected():
    with pytest.raises(ValueError, match="blocklength"):
        asymptotics.second_order_coding(PARAMS, np.array([2.0, 3.0]), 0.1)
    value = asymptotics.second_order_coding(PARAMS, np.array([2, 3]), 0.1)
    assert value.shape == (2,)
