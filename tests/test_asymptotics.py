"""Capacity iteration, dispersion search, quantiles, rate expansions."""

import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from channelsim import asymptotics as asy
from channelsim import broadcast, cli, prob


def _h2(x):
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _ternary():
    return prob.Dmc(rows=(np.ones((3, 3)) - np.eye(3)) / 2.0)


class TestCapacityBa:
    def test_bsc_closed_form(self):
        trace = asy.capacity_ba(prob.Dmc.bsc(0.1))
        assert trace.value == pytest.approx(1.0 - _h2(0.1), abs=1e-9)

    def test_ternary_closed_form(self):
        trace = asy.capacity_ba(_ternary())
        assert trace.value == pytest.approx(math.log2(1.5), abs=1e-9)

    def test_estimates_monotone(self):
        rng = np.random.default_rng(3)
        rows = rng.random((4, 3))
        rows /= rows.sum(axis=1, keepdims=True)
        trace = asy.capacity_ba(prob.Dmc(rows=rows))
        ests = [e for _, e in trace.iterates]
        assert all(a <= b + 1e-12 for a, b in zip(ests, ests[1:]))

    def test_certificate_brackets_final_value(self):
        rng = np.random.default_rng(5)
        rows = rng.random((3, 4))
        rows /= rows.sum(axis=1, keepdims=True)
        trace = asy.capacity_ba(prob.Dmc(rows=rows))
        for t, est in trace.iterates:
            assert est <= trace.value + 1e-12
            assert trace.value <= est + trace.bound(t) + 1e-12

    def test_bound_formula(self):
        trace = asy.capacity_ba(prob.Dmc.bsc(0.2))
        for t, _ in trace.iterates:
            assert trace.bound(t) == pytest.approx(math.log2(2) / t)
        # A run of ten steps or more, so step 10 is read as before.
        trace = asy.capacity_ba(prob.Dmc(rows=[[0.7, 0.2, 0.1],
                                               [0.1, 0.3, 0.6]]), tol=1e-12)
        assert trace.bound(10) == pytest.approx(math.log2(2) / 10)
        assert trace.final_bound == trace.bound(len(trace.iterates))

    def test_bound_takes_a_step_of_the_run(self):
        # bound(-1) once returned a negative width and bound(0) raised
        # ZeroDivisionError; a step past the run has no estimate.
        trace = asy.capacity_ba(prob.Dmc.bsc(0.1))
        last = len(trace.estimates)
        for step in (0, -1, 2.5, True, last + 1):
            with pytest.raises(ValueError, match="step must be"):
                trace.bound(step)
        with pytest.raises(TypeError):
            trace.bound()
        assert trace.bound(np.int64(last)) == trace.final_bound

    def test_zero_column_dropped(self):
        # a dead output letter must not poison the reference distribution
        rows = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
        trace = asy.capacity_ba(prob.Dmc(rows=rows))
        want = asy.capacity_ba(prob.Dmc(rows=rows[:, :2])).value
        assert trace.value == pytest.approx(want, abs=1e-9)

    def test_final_input_is_capacity_achieving(self):
        trace = asy.capacity_ba(prob.Dmc.bsc(0.1))
        assert trace.final_input.probs == pytest.approx([0.5, 0.5],
                                                        abs=1e-6)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError):
            asy.capacity_ba(prob.Dmc.bsc(0.1), tol=tol)
        with pytest.raises(ValueError):
            broadcast.tilde_c_ba(_DEGRADED, (0, 1), tol=tol)

    def test_trace_keeps_one_float_per_step(self):
        # A Z channel: from the uniform input the trace takes many steps.
        trace = asy.capacity_ba(prob.Dmc(rows=[[1.0, 0.0], [0.5, 0.5]]))
        assert len(trace.estimates) > 10
        assert all(type(e) is float for e in trace.estimates)
        assert trace.iterates == tuple(
            (t, e) for t, e in enumerate(trace.estimates, start=1))
        assert trace.value == trace.estimates[-1]
        assert isinstance(trace.final_input, prob.Pmf)


# Reference implementations for the shared ascent: the two loops that
# capacity/C-tilde and dispersion ran before they shared one update. The
# capacity loop has the same arithmetic, so it must agree bit for bit;
# dispersion's loop normalized by 2^(d - max d), so it agrees to rounding.

def _ref_row_divergences(rows, ref):
    with np.errstate(divide="ignore"):
        row_terms = np.where(rows > 0.0, rows * np.log2(
            np.where(rows > 0.0, rows, 1.0)), 0.0).sum(axis=1)
        log_ref = np.log2(ref)
    return row_terms - np.where(rows > 0.0, rows * log_ref, 0.0).sum(axis=1)


def _ref_ba(rows, out_sizes, k, tol, max_iter=1_000_000):
    rows, out_sizes = asy._drop_dead_letters(rows, out_sizes)
    kx = rows.shape[0]
    p = np.full(kx, 1.0 / kx)
    estimates = []
    prev = -math.inf
    log_inputs = math.log2(kx) if kx > 1 else 0.0
    for t in range(1, max_iter + 1):
        out = (p @ rows).reshape(out_sizes)
        ref = np.ones(out_sizes)
        for axis in range(len(out_sizes)):
            other = tuple(i for i in range(len(out_sizes)) if i != axis)
            marg = out.sum(axis=other)
            shape = [1] * len(out_sizes)
            shape[axis] = out_sizes[axis]
            ref = ref * marg.reshape(shape)
        d = _ref_row_divergences(rows, ref.reshape(-1))
        weights = p * np.exp2(d / k)
        z = weights.sum()
        est = k * math.log2(z)
        p = weights / z
        estimates.append(est)
        if est - prev < tol or k * log_inputs / t < tol:
            break
        prev = est
    return estimates, p


def _ref_dispersion_ascent(rows):
    rows, _ = asy._drop_dead_letters(rows, (rows.shape[1],))
    p = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for step in range(asy._ASCENT_CAP + 1):
        d = _ref_row_divergences(rows, p @ rows)
        if d.max() - p @ d <= asy._ASCENT_GAP or step == asy._ASCENT_CAP:
            break
        p = p * np.exp2(d - d.max())
        p /= p.sum()
    return step, p


def _dirichlet(seed):
    rng = np.random.default_rng(seed)
    k, m = rng.integers(2, 5, size=2)
    return rng.dirichlet(np.ones(m), size=k)


_DEAD = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.5, 0.3, 0.2]])
_DEGRADED = prob.BroadcastDmc(
    rows=[[0.49, 0.21, 0.21, 0.09], [0.09, 0.21, 0.21, 0.49]],
    output_sizes=(2, 2))


# The ids name the channel, the start input (None: uniform) and the tol.
class TestSharedAscent:
    @pytest.mark.parametrize("rows, tol", [
        pytest.param(prob.Dmc.bsc(0.1).rows, 1e-9, id="rows0-None-1e-09"),
        pytest.param(_dirichlet(3), 1e-9, id="rows1-None-1e-09"),
        pytest.param(_dirichlet(56), 1e-12, id="rows2-None-1e-12"),
        pytest.param(_DEAD, 1e-9, id="rows4-None-1e-09")])
    def test_capacity_matches_reference_bits(self, rows, tol):
        trace = asy.capacity_ba(prob.Dmc(rows=rows), tol=tol)
        estimates, p = _ref_ba(rows, (rows.shape[1],), 1, tol)
        assert trace.estimates == tuple(estimates)
        assert np.array_equal(trace.final_input.probs, p)

    def test_capacity_matches_reference_at_max_iter(self, monkeypatch):
        rows = _dirichlet(56)
        monkeypatch.setattr(asy, "_TRACE_CAP", 7)
        trace = asy.capacity_ba(prob.Dmc(rows=rows))
        estimates, p = _ref_ba(rows, (rows.shape[1],), 1, 1e-9, max_iter=7)
        assert len(trace.estimates) == 7
        assert trace.estimates == tuple(estimates)
        assert np.array_equal(trace.final_input.probs, p)

    @pytest.mark.parametrize("sizes, seed, dead", [
        pytest.param((2, 2), 1, False, id="None-sizes0-1-False"),
        pytest.param((2, 3), 2, True, id="None-sizes1-2-True"),
        pytest.param((2, 2, 2), 3, False, id="None-sizes2-3-False"),
        pytest.param((3, 2, 2), 4, True, id="None-sizes3-4-True")])
    def test_tilde_c_matches_reference_bits(self, sizes, seed, dead):
        rng = np.random.default_rng(seed)
        cube = rng.dirichlet(np.ones(int(np.prod(sizes))), size=2)
        cube = cube.reshape((2,) + sizes)
        if dead:
            # receiver 1's last letter is never produced
            cube[:, -1] = 0.0
            cube /= cube.sum(axis=tuple(range(1, cube.ndim)), keepdims=True)
        w = prob.BroadcastDmc(rows=cube.reshape(2, -1), output_sizes=sizes)
        js = tuple(range(len(sizes)))
        trace = broadcast.tilde_c_ba(w, js, tol=1e-9)
        estimates, p = _ref_ba(w.rows, sizes, len(sizes), 1e-9)
        assert trace.estimates == tuple(estimates)
        assert np.array_equal(trace.final_input.probs, p)

    @pytest.mark.parametrize("rows", [
        prob.Dmc.bsc(0.1).rows,
        _ternary().rows,
        _DEAD,
        _dirichlet(5),
        # a slow tail: several thousand steps to the 1e-12 gap
        _dirichlet(56)])
    def test_dispersion_certifies_reference_capacity(self, rows):
        live, sizes = asy._drop_dead_letters(rows, (rows.shape[1],))
        p, d = asy._certified_optimum(live, sizes, 1, asy._ASCENT_GAP)
        assert d.max() - p @ d <= asy._ASCENT_GAP
        _, p_ref = _ref_dispersion_ascent(rows)
        d_ref = _ref_row_divergences(live, p_ref @ live)
        assert asy.dispersion(prob.Dmc(rows=rows)).capacity \
            == pytest.approx(float(p_ref @ d_ref), abs=1e-12)
        assert np.max(np.abs(p - p_ref)) <= 1e-6

    @pytest.mark.parametrize("rows, sizes", [
        ([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.2, 0.8]], (3,)),
        # Receiver 1 never sees letter 0 once input 0 has no weight.
        ([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
          [0.0, 0.0, 0.5, 0.5]], (2, 2))])
    def test_vanishing_reference_is_inf_without_warning(self, rows, sizes):
        # An input with a zero, as _newton_finish produces, leaves the
        # reference zero on row 0's support only.
        rows = np.array(rows)
        divergences = asy._divergence_map(rows, sizes)
        p = np.array([0.0, 0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                before = divergences(np.full(3, 1.0 / 3.0))
                d = divergences(p)
                after = divergences(np.full(3, 1.0 / 3.0))
        assert np.isfinite(before).all()
        assert np.array_equal(after, before)
        assert d[0] == math.inf
        out = (p @ rows).reshape(sizes)
        ref = np.ones(())
        for axis in range(len(sizes)):
            others = tuple(i for i in range(len(sizes)) if i != axis)
            ref = np.multiply.outer(ref, out.sum(axis=others))
        ref = ref.reshape(-1)
        for x in (1, 2):
            live = rows[x] > 0.0
            want = float(rows[x][live] @ np.log2(rows[x][live] / ref[live]))
            assert math.isfinite(d[x])
            assert d[x] == pytest.approx(want, abs=1e-12)


def _random_broadcast(seed, sizes, inputs):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(int(np.prod(sizes))), size=inputs)
    return prob.BroadcastDmc(rows=rows, output_sizes=sizes)


def _reference_threshold(w, js, gap=1e-13, cap=2_000_000):
    """I(p) of the plain ascent p <- p 2^(d / |J|) run to a gap below gap."""
    reduced = prob.reduce_broadcast(w, js)
    if isinstance(reduced, prob.BroadcastDmc):
        sizes = tuple(reduced.output_sizes)
    else:
        sizes = (reduced.output_size,)
    rows, sizes = asy._drop_dead_letters(reduced.rows, sizes)
    p = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for _ in range(cap):
        out = (p @ rows).reshape(sizes)
        ref = np.ones(())
        for axis in range(len(sizes)):
            others = tuple(i for i in range(len(sizes)) if i != axis)
            ref = np.multiply.outer(ref, out.sum(axis=others))
        d = _ref_row_divergences(rows, ref.reshape(-1))
        if d.max() - p @ d <= gap:
            return float(p @ d)
        p = p * np.exp2((d - d.max()) / len(js))
        p /= p.sum()
    raise AssertionError("reference ascent did not reach its gap")


def _count_ascent_steps(monkeypatch):
    real = asy._ascent
    seen = {"steps": 0}

    def spy(*args):
        for step, item in enumerate(real(*args)):
            seen["steps"] = step
            yield item
    monkeypatch.setattr(asy, "_ascent", spy)
    return seen


def _dirichlet_found(seed):
    """The Dirichlet(1) channels up to 8x8 whose ascent tails were slow."""
    rng = np.random.default_rng(seed)
    k, m = rng.integers(2, 9, size=2)
    return rng.dirichlet(np.ones(m), size=k)


class TestCertifiedOptimum:
    def test_two_hundred_dirichlet_channels(self, monkeypatch):
        # Seeds 78 and 169 took 147,000 and 95,000 plain ascent steps to
        # this gap; with the Newton finish none takes more than about 50
        # (0.3 s in total on a 2-vCPU host).
        seen = _count_ascent_steps(monkeypatch)
        start = time.perf_counter()
        steps = []
        for seed in range(200):
            rows = _dirichlet_found(seed)
            live, sizes = asy._drop_dead_letters(rows, (rows.shape[1],))
            p, d = asy._certified_optimum(live, sizes, 1, 1e-12)
            assert d.max() - p @ d <= 1e-12, seed
            assert p.min() >= 0.0 and p.sum() == pytest.approx(1.0)
            steps.append(seen["steps"])
        assert time.perf_counter() - start <= 10.0
        assert max(steps) <= 200
        assert all(steps[seed] <= 100 for seed in (78, 169, 5, 11))

    def test_rank_deficient_face(self, monkeypatch):
        # Seed 132 is 7x2: three candidate letters in a two-letter output
        # space are linearly dependent, so a column of the Newton system
        # has no pivot and its letter leaves the face.
        rows = _dirichlet_found(132)
        assert rows.shape == (7, 2)
        singular = []
        real = asy._eliminate

        def spy(a):
            x, bad = real(a)
            singular.append(x is None)
            return x, bad
        monkeypatch.setattr(asy, "_eliminate", spy)
        seen = _count_ascent_steps(monkeypatch)
        p, d = asy._certified_optimum(rows, (2,), 1, 1e-12)
        assert any(singular)
        assert d.max() - p @ d <= 1e-12
        assert seen["steps"] <= 100
        _, p_ref = _ref_dispersion_ascent(rows)
        d_ref = _ref_row_divergences(rows, p_ref @ rows)
        assert float(p @ d) == pytest.approx(float(p_ref @ d_ref),
                                             abs=1e-12)

    def test_failed_newton_falls_back_to_the_ascent(self, monkeypatch):
        rows = _dirichlet(5)
        want = asy.dispersion(prob.Dmc(rows=rows))
        monkeypatch.setattr(asy, "_newton_finish", lambda *args: None)
        p, d = asy._certified_optimum(rows, (rows.shape[1],), 1, 1e-12)
        assert d.max() - p @ d <= 1e-12
        got = asy.dispersion(prob.Dmc(rows=rows))
        assert got.capacity == pytest.approx(want.capacity, abs=1e-12)
        assert got.v_max == pytest.approx(want.v_max, rel=1e-9)

    def test_failed_newton_hits_the_cap(self, monkeypatch):
        # seed 78's plain ascent needs about 147,000 steps
        monkeypatch.setattr(asy, "_newton_finish", lambda *args: None)
        monkeypatch.setattr(asy, "_ASCENT_CAP", 2_000)
        with pytest.raises(ArithmeticError):
            asy.dispersion(prob.Dmc(rows=_dirichlet_found(78)))

    @pytest.mark.parametrize("sizes, inputs", [
        ((3,), 3), ((2, 3), 2), ((2, 2, 2), 2), ((2, 2, 2), 3)])
    def test_bracket_holds_at_any_input(self, sizes, inputs):
        # I(X : Y_J) is concave with gradient d_x - k log2 e, so the
        # optimum lies in [p.d, max_x d_x] at every p.
        rng = np.random.default_rng(7)
        w = _random_broadcast(8, sizes, inputs)
        rows, out_sizes = asy._drop_dead_letters(w.rows, sizes)
        p, d = asy._certified_optimum(rows, out_sizes, len(sizes), 1e-12)
        best = float(p @ d)
        divergences = asy._divergence_map(rows, out_sizes)
        for _ in range(50):
            q = rng.dirichlet(np.ones(inputs))
            dq = divergences(q)
            assert float(q @ dq) <= best + 1e-12
            assert best <= dq.max() + 1e-12

    @pytest.mark.parametrize("gap", [math.nan, math.inf, 0.0, -1e-12])
    def test_gap_must_be_positive_and_finite(self, gap):
        with pytest.raises(ValueError):
            asy._certified_optimum(np.eye(2), (2,), 1, gap)


class TestCertifiedRegion:
    @pytest.mark.parametrize("sizes, inputs, seed", [
        ((2, 3), 2, 1), ((2, 2), 3, 2), ((3, 2), 2, 3),
        ((2, 2, 2), 2, 4), ((2, 2, 2), 3, 5), ((2, 3, 2), 2, 6)])
    def test_matches_reference_and_never_drops(self, sizes, inputs, seed):
        w = _random_broadcast(seed, sizes, inputs)
        region = broadcast.rate_region(w)
        for js, got in region.constraints.items():
            js = tuple(sorted(js))
            assert got == pytest.approx(_reference_threshold(w, js),
                                        abs=1e-12)
            # the increment-stopped ascent that rate_region used to run
            assert got >= broadcast.tilde_c_ba(w, js).value - 1e-12

    def test_tol_is_the_certified_gap(self):
        w = _random_broadcast(5, (2, 2, 2), 3)
        loose = broadcast.rate_region(w, tol=1e-6)
        tight = broadcast.rate_region(w)
        for js, c in tight.constraints.items():
            assert c - 1e-6 <= loose.constraints[js] <= c + 1e-12


def _fill_grid(dim, steps):
    """Compositions of steps into dim parts by recursion, the reference."""
    out = []

    def fill(prefix, remaining, slot):
        if slot == dim - 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            fill(prefix + [v], remaining - v, slot + 1)

    fill([], steps, 0)
    return np.array(out, dtype=np.float64) / steps


class TestSimplexGrid:
    @pytest.mark.parametrize("dim, steps", [
        (1, 4), (2, 1), (2, 20), (3, 7), (4, 5), (6, 3)])
    def test_matches_recursive_fill(self, dim, steps):
        assert np.array_equal(prob._compositions(dim, steps) / steps,
                              _fill_grid(dim, steps))


class TestDispersion:
    def test_bsc_values(self):
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        want_v = 0.1 * 0.9 * math.log2(0.9 / 0.1) ** 2
        assert params.capacity == pytest.approx(1.0 - _h2(0.1), abs=1e-7)
        assert params.v_min == pytest.approx(want_v, abs=1e-5)
        assert params.v_max == pytest.approx(want_v, abs=1e-5)
        assert len(params.capacity_achieving_inputs) == 1

    def test_ternary_dispersion_zero(self):
        params = asy.dispersion(_ternary())
        assert params.capacity == pytest.approx(math.log2(1.5), abs=1e-8)
        assert abs(params.v_min) <= 1e-9
        assert abs(params.v_max) <= 1e-9

    def test_vmin_at_most_vmax(self):
        rng = np.random.default_rng(11)
        rows = rng.random((3, 3))
        rows /= rows.sum(axis=1, keepdims=True)
        params = asy.dispersion(prob.Dmc(rows=rows))
        assert params.v_min <= params.v_max + 1e-12

    def test_five_input_symmetric(self):
        # five inputs: cyclic shifts of one row, so the uniform input is
        # optimal with capacity log2 5 - H(row)
        base = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
        rows = np.array([np.roll(base, i) for i in range(5)])
        params = asy.dispersion(prob.Dmc(rows=rows))
        entropy = -float((base * np.log2(base)).sum())
        logs = np.log2(5.0 * base)
        want_v = float((base * (logs - (logs * base).sum()) ** 2).sum())
        assert params.capacity == pytest.approx(math.log2(5.0) - entropy,
                                                abs=1e-12)
        assert params.v_min == pytest.approx(want_v, rel=1e-9)
        assert params.v_max == pytest.approx(want_v, rel=1e-9)
        assert len(params.capacity_achieving_inputs) == 1
        assert params.capacity_achieving_inputs[0].probs == pytest.approx(
            np.full(5, 0.2), abs=1e-9)

    def test_zero_column_dropped(self):
        rows = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = asy.dispersion(prob.Dmc(rows=rows))
        want = asy.dispersion(prob.Dmc(rows=rows[:, :2]))
        assert got.capacity == want.capacity
        assert (got.v_min, got.v_max) == (want.v_min, want.v_max)

    def test_near_useless_bsc(self):
        delta = 0.4999
        params = asy.dispersion(prob.Dmc.bsc(delta))
        want_v = delta * (1.0 - delta) * math.log2((1.0 - delta) / delta) ** 2
        assert params.v_min == pytest.approx(want_v, rel=1e-9)
        assert params.v_max == pytest.approx(want_v, rel=1e-9)
        assert params.capacity == pytest.approx(1.0 - _h2(delta), rel=1e-9)

    def test_non_unique_face_extremes(self):
        # four cyclic shifts of (1/2, 1/2, 0, 0) and four of
        # (a, (1-a)/2, (1-a)/2, 0) with h(a) = a: every row has divergence
        # 1 bit from the uniform output, and each group alone reaches it
        lo, hi = 0.5, 0.99
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _h2(mid) > mid else (lo, mid)
        a = 0.5 * (lo + hi)
        flat = np.array([0.5, 0.5, 0.0, 0.0])
        skew = np.array([a, (1.0 - a) / 2.0, (1.0 - a) / 2.0, 0.0])
        rows = np.array([np.roll(flat, i) for i in range(4)]
                        + [np.roll(skew, i) for i in range(4)])
        params = asy.dispersion(prob.Dmc(rows=rows))
        assert params.capacity == pytest.approx(1.0, abs=1e-12)
        assert params.v_min == pytest.approx(0.0, abs=1e-12)
        want_v = a * (1.0 - a) * math.log2(2.0 * a / (1.0 - a)) ** 2
        assert params.v_max == pytest.approx(want_v, rel=1e-9)
        lo_p, hi_p = (p.probs for p in params.capacity_achieving_inputs)
        assert lo_p @ rows == pytest.approx(np.full(4, 0.25), abs=1e-12)
        assert hi_p @ rows == pytest.approx(np.full(4, 0.25), abs=1e-12)
        assert hi_p[4:].sum() == pytest.approx(1.0, abs=1e-12)

    def test_iteration_cap_is_numeric_failure(self, monkeypatch, tmp_path,
                                              capsys):
        rows = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]
        monkeypatch.setattr(asy, "_ASCENT_CAP", 3)
        with pytest.raises(ArithmeticError):
            asy.dispersion(prob.Dmc(rows=rows))
        path = tmp_path / "w.json"
        path.write_text(json.dumps(prob.channel_to_json(prob.Dmc(rows=rows))))
        assert cli.main(["dispersion", "--channel", str(path)]) \
            == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err


class TestNormalQuantile:
    def test_frozen_value(self):
        assert asy.inv_normal_cdf(0.05) == pytest.approx(
            -1.6448536269514722, abs=1e-12)

    def test_symmetry(self):
        assert asy.inv_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-15)
        assert asy.inv_normal_cdf(0.975) == pytest.approx(
            -asy.inv_normal_cdf(0.025), abs=1e-12)

    @given(st.floats(1e-8, 1.0 - 1e-8))
    def test_round_trip(self, eps):
        x = asy.inv_normal_cdf(eps)
        assert asy.normal_cdf(x) == pytest.approx(eps, abs=1e-11)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                asy.inv_normal_cdf(bad)

    @pytest.mark.parametrize("eps", [
        1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-13, 1e-10, 1e-8, 1e-4,
        0.01, 0.05, 0.3, 0.5 - 1e-12, 0.5, 0.5 + 1e-9, 0.7, 0.95,
        1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 2.2250738585072014e-308,
        1e-250, 1e-150, 0.25, 0.75, 1.0 - 2.0 ** -53])
    def test_matches_mpmath(self, eps):
        # The quantile of the double eps itself, from a 40-digit root of
        # log Phi(x) = log eps (or of the upper tail above 1/2, which is
        # exact in doubles there), started where the library starts.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            tail = mpmath.mpf(eps) if eps <= 0.5 else 1 - mpmath.mpf(eps)
            root = mpmath.findroot(
                lambda x: mpmath.log(mpmath.ncdf(x)) - mpmath.log(tail),
                -math.sqrt(-2.0 * math.log(2.0 * min(eps, 1.0 - eps))))
            want = float(root if eps <= 0.5 else -root)
        got = asy.inv_normal_cdf(eps)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("eps", [5e-324, 1e-320])
    def test_subnormal_eps_stays_finite(self, eps):
        # Phi is subnormal here (it underflows at the start point for the
        # smallest eps), so only a finite quantile that Phi maps back to
        # eps is asked for.
        x = asy.inv_normal_cdf(eps)
        assert math.isfinite(x) and x < -38.0
        assert asy.normal_cdf(x) == eps

    def test_selfcheck_sees_tail_errors(self, monkeypatch):
        from channelsim import selfcheck

        assert selfcheck.check_quantile(0)[0]
        # the cancelling erf form of the cdf is off by far more than an
        # absolute 1e-12 could show at eps = 1e-12
        monkeypatch.setattr(asy, "normal_cdf", lambda x: 0.5 * (
            1.0 + math.erf(x / math.sqrt(2.0))))
        assert not selfcheck.check_quantile(0)[0]

    def test_selfcheck_sees_wrong_sign(self, monkeypatch):
        from channelsim import selfcheck

        real = asy.inv_normal_cdf
        # the upper-half mirror without its minus
        monkeypatch.setattr(asy, "inv_normal_cdf", lambda eps: real(
            1.0 - eps) if eps > 0.5 else real(eps))
        assert not selfcheck.check_quantile(0)[0]
        # a lower-half quantile of the wrong sign
        monkeypatch.setattr(asy, "inv_normal_cdf", lambda eps: abs(real(eps)))
        assert not selfcheck.check_quantile(0)[0]


class TestSecondOrder:
    def test_formulas(self):
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        n, eps = 100, 0.05
        phi = asy.inv_normal_cdf(eps)
        want_code = n * params.capacity + math.sqrt(n * params.v_min) * phi
        got_code = asy.second_order_coding(params, n, eps)
        assert got_code == pytest.approx(want_code, abs=1e-9)
        phi_hi = asy.inv_normal_cdf(1.0 - eps)
        want_sim = n * params.capacity + math.sqrt(n * params.v_max) * phi_hi
        got_sim = asy.second_order_simulation(params, n, eps)
        assert got_sim == pytest.approx(want_sim, abs=1e-9)

    def test_tiny_eps(self):
        # 1 - eps rounds to 1.0 here; the expansion must stay finite and
        # use the mirrored quantile
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        eps = 1e-17
        got = asy.second_order_simulation(params, 100, eps)
        phi = asy.inv_normal_cdf(eps)
        assert math.isfinite(got)
        assert got == 100 * params.capacity \
            - math.sqrt(100 * params.v_max) * phi
        assert asy.second_order_coding(params, 100, eps) == pytest.approx(
            100 * params.capacity + math.sqrt(100 * params.v_min) * phi,
            rel=1e-15)

    @pytest.mark.parametrize("eps", [0.05, 1e-17, 0.3, 0.7])
    def test_array_of_blocklengths_matches_scalars(self, eps):
        # one quantile per call, the same bits as one call per n
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        ns = list(range(1, 2001))
        for fn in (asy.second_order_coding, asy.second_order_simulation):
            got = fn(params, np.array(ns), eps)
            assert got.shape == (len(ns),)
            assert got.tolist() == [fn(params, n, eps) for n in ns]
        with pytest.raises(ValueError):
            asy.second_order_coding(params, np.array([3, 0]), eps)

    def test_frozen_values(self):
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        assert asy.second_order_simulation(params, 100, 0.05) \
            == pytest.approx(68.7426, abs=2e-3)
        assert asy.second_order_coding(params, 100, 0.05) \
            == pytest.approx(37.4583, abs=2e-3)

    def test_variance_branch_at_half(self):
        # exactly at eps = 1/2 the upper variance is used on both curves
        params = asy.SecondOrderParams(
            capacity=1.0, v_min=0.5, v_max=2.0,
            capacity_achieving_inputs=(prob.Pmf(np.full(2, 1 / 2)),),
            tol_cap=1e-7)
        assert asy.second_order_coding(params, 4, 0.5) == pytest.approx(4.0)
        assert asy.second_order_simulation(params, 4, 0.5) \
            == pytest.approx(4.0)
        # below one half: coding uses v_min, simulation (level 1 - eps)
        # sits above one half and uses v_max
        phi = asy.inv_normal_cdf(0.25)
        assert asy.second_order_coding(params, 4, 0.25) == pytest.approx(
            4.0 + math.sqrt(4 * 0.5) * phi)
        assert asy.second_order_simulation(params, 4, 0.25) \
            == pytest.approx(4.0 - math.sqrt(4 * 2.0) * phi)

    def test_simulation_above_coding(self):
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        for n in (10, 100, 1000):
            assert asy.second_order_simulation(params, n, 0.05) \
                > asy.second_order_coding(params, n, 0.05)


class TestModerate:
    @pytest.mark.parametrize("a_n", [math.nan, math.inf, 0.0, -0.1])
    def test_a_n_must_be_positive_and_finite(self, a_n):
        params = asy.SecondOrderParams(
            capacity=1.0, v_min=0.25, v_max=1.0,
            capacity_achieving_inputs=(prob.Pmf(np.full(2, 1 / 2)),),
            tol_cap=1e-7)
        with pytest.raises(ValueError):
            asy.moderate_deviation_rates(params, 100, a_n=a_n)

    def test_default_schedule(self):
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        got = asy.moderate_deviation_rates(params, 1000)
        assert got.a_n == pytest.approx(1000.0 ** (-1.0 / 3.0))
        assert got.eps_n == pytest.approx(2.0 ** (-1000 * got.a_n ** 2))

    def test_sign_pairing(self):
        params = asy.SecondOrderParams(
            capacity=1.0, v_min=0.25, v_max=1.0,
            capacity_achieving_inputs=(prob.Pmf(np.full(2, 1 / 2)),),
            tol_cap=1e-7)
        got = asy.moderate_deviation_rates(params, 100, a_n=0.1)
        assert got.simulation_at_eps == pytest.approx(
            1.0 + math.sqrt(2.0) * 0.1)
        assert got.simulation_at_complement == pytest.approx(
            1.0 - math.sqrt(0.5) * 0.1)
        assert got.coding_at_eps == pytest.approx(1.0 - math.sqrt(0.5) * 0.1)
        assert got.coding_at_complement == pytest.approx(
            1.0 + math.sqrt(2.0) * 0.1)

    def test_frozen_value(self):
        params = asy.dispersion(prob.Dmc.bsc(0.1))
        got = asy.moderate_deviation_rates(params, 1000)
        assert got.simulation_at_eps == pytest.approx(0.665493, abs=1e-5)

    def test_rates_straddle_capacity(self):
        params = asy.dispersion(prob.Dmc.bsc(0.2))
        got = asy.moderate_deviation_rates(params, 500)
        assert got.coding_at_eps < params.capacity < got.simulation_at_eps


class TestBracket:
    def test_quarter_and_half(self):
        lo, hi = asy.cs_cc_bracket(7.0, 9.0, 0.25)
        assert lo == pytest.approx(7.0 - 2.0, abs=1e-12)
        assert hi == pytest.approx(9.0 + 3.0 + math.log2(math.log2(64.0)),
                                   abs=1e-12)
        lo2, hi2 = asy.cs_cc_bracket(5.0, 5.0, 0.5)
        assert lo2 == pytest.approx(5.0 - 1.0, abs=1e-12)
        assert hi2 == pytest.approx(5.0 + 4.0, abs=1e-12)

    @given(st.floats(1e-6, 0.5), st.floats(0.0, 40.0), st.floats(0.0, 10.0))
    def test_ordered(self, delta, base, gap):
        lo, hi = asy.cs_cc_bracket(base, base + gap, delta)
        assert lo <= hi

    def test_domain(self):
        with pytest.raises(ValueError):
            asy.cs_cc_bracket(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            asy.cs_cc_bracket(1.0, 2.0, 1.0)
