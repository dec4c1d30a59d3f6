"""Protocol executables: rng streams, rejection runs, splits, broadcast."""

import bisect
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from channelsim import prob, protocols
from channelsim.asymptotics import _simplex_grid
from channelsim.divergences import d_max, d_s_plus
from channelsim.ns_meta import i_max_smooth
from channelsim.prob import BroadcastDmc, Pmf, channel_tvd, tvd


def _random_pmf(rng, k, floor=0.0):
    v = rng.random(k) + floor
    return v / v.sum()


def _random_plan(rng, size, m):
    q = _random_pmf(rng, size, floor=0.05)
    p = _random_pmf(rng, size)
    if rng.random() < 0.4:
        p = p.copy()
        p[int(rng.integers(size))] = 0.0
        p = p / p.sum()
    return protocols.RejectionPlan.build(Pmf(p), Pmf(q), m)


def _marginal_oracle(plan):
    """Round-by-round output law, summed directly without a closed form."""
    alpha = plan.q.probs * plan.accept
    stay = 1.0 - float(alpha.sum())
    out = np.zeros(plan.q.size)
    remaining = 1.0
    for j in range(1, plan.m + 1):
        if j < plan.m:
            out += remaining * alpha
            remaining *= stay
        else:
            out += remaining * plan.q.probs
    return out


def _uniform(word):
    return (int(word) >> 11) * 2.0 ** -53


def _scalar_pick(cumulative, u):
    return min(bisect.bisect_right(cumulative, u), len(cumulative) - 1)


def _scalar_rejection(plan, stream, trials):
    """Reference per-trial loop: 2M words a trial, (pick, decision) pairs."""
    cum = list(np.cumsum(plan.q.probs))
    out = np.zeros(plan.q.size, dtype=np.int64)
    acc = np.zeros(plan.m, dtype=np.int64)
    rejects = 0
    for _ in range(trials):
        u = [_uniform(word) for word in stream.words(2 * plan.m)]
        for j in range(plan.m):
            y = _scalar_pick(cum, u[2 * j])
            if u[2 * j + 1] <= plan.accept[y]:
                acc[j] += 1
                break
        else:
            rejects += 1
        out[y] += 1
    return out, acc, rejects


def _exact_word(key, counter):
    """Word at a counter from Python integers, the counter taken mod 2^64."""
    at = (key + (counter % (1 << 64)) * protocols._GOLDEN) % (1 << 64)
    return protocols._splitmix(at)


def _lazy_rejection(plan, key, base, trials):
    """Reference reading only the rounds each trial reaches, word by word.

    Trial t's round-j pair sits at counters base + 2M t + 2(j-1) and the
    next one. Returns the output counts, accept counts, rejects and the
    number of words read.
    """
    cum = list(np.cumsum(plan.q.probs))
    m = plan.m
    out = np.zeros(plan.q.size, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    rejects = read = 0
    for t in range(trials):
        for j in range(m):
            at = base + 2 * m * t + 2 * j
            y = _scalar_pick(cum, _uniform(_exact_word(key, at)))
            read += 2
            if _uniform(_exact_word(key, at + 1)) <= plan.accept[y]:
                acc[j] += 1
                break
        else:
            rejects += 1
        out[y] += 1
    return out, acc, rejects, read


def _scalar_broadcast(w, q, r, m, n, stream, trials):
    """Reference per-trial loop: M + N list picks, then one index per x."""
    sy, sz = w.output_sizes
    rows3 = w.rows.reshape(w.input_size, sy, sz)
    cum_q, cum_r = list(np.cumsum(q.probs)), list(np.cumsum(r.probs))
    counts = np.zeros((w.input_size, sy * sz), dtype=np.int64)
    for _ in range(trials):
        u = [_uniform(word)
             for word in stream.words(m + n + w.input_size)]
        ys = [_scalar_pick(cum_q, v) for v in u[:m]]
        zs = [_scalar_pick(cum_r, v) for v in u[m:m + n]]
        inv_qy = 1.0 / q.probs[ys]
        inv_rz = 1.0 / r.probs[zs]
        for x in range(w.input_size):
            nums = (rows3[x][np.ix_(ys, zs)]
                    * inv_qy[:, None] * inv_rz[None, :]).reshape(-1)
            total = nums.sum()
            if total <= 0.0:
                nums = np.full(m * n, 1.0 / (m * n))
                total = 1.0
            jk = _scalar_pick(list(np.cumsum(nums / total)), u[m + n + x])
            j, k = divmod(jk, n)
            counts[x, ys[j] * sz + zs[k]] += 1
    return counts


class TestRngStream:
    def test_known_answer_splitmix64(self):
        want = [6457827717110365317, 3203168211198807973,
                9817491932198370423]
        s = protocols.RngStream(0)
        s.key = 1234567
        assert s.words(3).tolist() == want
        chain, state = [], 1234567
        for _ in range(3):
            chain.append(protocols._splitmix(state))
            state = (state + protocols._GOLDEN) % (1 << 64)
        assert chain == want

    def test_words_wrap_like_exact_integers(self):
        s = protocols.RngStream(2024)
        s.counter = (1 << 40) + 3
        got = s.words(4).tolist()
        want = [protocols._splitmix((s.key + i * protocols._GOLDEN)
                                    % (1 << 64))
                for i in range((1 << 40) + 3, (1 << 40) + 7)]
        assert got == want
        assert s.counter == (1 << 40) + 7

    def test_words_are_addressed_by_counter(self):
        a = protocols.RngStream(6)
        b = protocols.RngStream(6)
        joined = np.concatenate([a.words(5), a.words(1), a.words(11)])
        assert np.array_equal(joined, b.words(17))
        assert a.counter == b.counter == 17
        c = protocols.RngStream(6)
        assert [c.next_uint64() for _ in range(3)] == joined[:3].tolist()
        assert c.uniform() == _uniform(joined[3])
        assert c.uniforms(13).tolist() == [_uniform(w) for w in joined[4:]]

    def test_words_at_known_answers(self):
        s = protocols.RngStream(2025)
        s.counter = 9
        at = [0, 5, 3, (1 << 40) + 3, (1 << 64) - 1, 17, (1 << 63) + 11, 5]
        got = s.words_at(np.array(at, dtype=np.uint64))
        assert got.tolist() == [_exact_word(s.key, c) for c in at]
        grid = s.words_at(np.array(at, dtype=np.uint64).reshape(2, 4))
        assert grid.shape == (2, 4)
        assert grid.reshape(-1).tolist() == got.tolist()
        assert s.counter == 9

    def test_words_wrap_past_the_last_counter(self):
        s = protocols.RngStream(77)
        s.counter = (1 << 64) - 2
        got = s.words(4).tolist()
        assert got == [_exact_word(s.key, c)
                       for c in range((1 << 64) - 2, (1 << 64) + 2)]
        assert s.counter == (1 << 64) + 2

    def test_negative_count_rejected(self):
        s = protocols.RngStream(4)
        s.words(5)
        with pytest.raises(ValueError):
            s.words(-3)
        with pytest.raises(ValueError):
            s.uniforms(-1)
        assert s.counter == 5
        assert s.words(0).size == 0
        assert s.uniforms(0).size == 0
        assert s.counter == 5
        assert s.words(2).tolist() == [_exact_word(s.key, 5),
                                       _exact_word(s.key, 6)]

    def test_reproducible_from_seed(self):
        a = protocols.RngStream(1234)
        b = protocols.RngStream(1234)
        assert [a.next_uint64() for _ in range(20)] == \
            [b.next_uint64() for _ in range(20)]
        assert a.uniform() == b.uniform()

    def test_nearby_seeds_decorrelate(self):
        a = protocols.RngStream(7)
        b = protocols.RngStream(8)
        assert [a.next_uint64() for _ in range(4)] != \
            [b.next_uint64() for _ in range(4)]

    def test_seed_wraps_at_64_bits(self):
        a = protocols.RngStream(5)
        b = protocols.RngStream((1 << 64) + 5)
        assert a.next_uint64() == b.next_uint64()

    def test_counter_tracks_draws(self):
        s = protocols.RngStream(0)
        s.next_uint64()
        s.uniform()
        s.pick([0.5, 1.0])
        assert s.counter == 3

    def test_uniform_range(self):
        s = protocols.RngStream(99)
        draws = [s.uniform() for _ in range(2000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_pick_frequencies(self):
        s = protocols.RngStream(3)
        cum = np.array([0.25, 0.5, 1.0])
        counts = np.zeros(3)
        for _ in range(20000):
            counts[s.pick(cum)] += 1
        assert counts / 20000 == pytest.approx([0.25, 0.25, 0.5], abs=0.02)

    def test_pick_clamps_rounded_cumulative(self):
        s = protocols.RngStream(11)
        cum = np.array([0.3, 1.0 - 1e-13])
        for _ in range(1000):
            assert s.pick(cum) in (0, 1)

    def test_pick_clamps_past_last_entry(self):
        cum = np.array([0.3, 1.0 - 1e-13])
        got = protocols._pick(cum, np.array([0.0, 0.3, 0.5, 1.0 - 1e-14]))
        assert got.tolist() == [0, 1, 1, 1]

    def test_spawn_is_positional_not_stateful(self):
        parent = protocols.RngStream(42)
        before = parent.spawn(3)
        parent.next_uint64()
        after = parent.spawn(3)
        assert [before.next_uint64() for _ in range(5)] == \
            [after.next_uint64() for _ in range(5)]

    def test_spawn_children_distinct(self):
        parent = protocols.RngStream(42)
        seqs = {tuple(parent.spawn(i).next_uint64() for _ in range(3))
                for i in range(8)}
        assert len(seqs) == 8


class TestGuidedPick:
    """Guide-table picks against a clamped binary search of every word."""

    @staticmethod
    def _words(cumulative):
        """0, 2^64 - 1, the words either side of every bucket edge, and
        the words whose uniforms sit on or next to a cumulative entry."""
        shift = 64 - protocols._GUIDE_BITS
        words = {0, (1 << 64) - 1}
        for b in range(1, 1 << protocols._GUIDE_BITS):
            words.update(((b << shift) - 1, b << shift, (b << shift) + 1))
        for c in cumulative:
            k = math.floor(min(c, 1.0) * 2.0 ** 53)
            for top in (k - 1, k, k + 1):
                if 0 <= top < 1 << 53:
                    words.update((top << 11, (top << 11) | 0x7FF))
        return np.array(sorted(words), dtype=np.uint64)

    @staticmethod
    def _cumulatives():
        edge = 3000 / 4096
        big = np.random.default_rng(75).random(5000)
        big[::7] = 0.0
        return [
            np.array([0.25, 0.5, edge, 1.0]),
            np.array([np.nextafter(edge, 0.0), np.nextafter(0.875, 0.0),
                      1.0]),
            np.array([np.nextafter(edge, 1.0), np.nextafter(0.875, 1.0),
                      1.0]),
            np.array([np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0),
                      np.nextafter(0.5, 0.0), 1.0]),
            np.array([0.0, 0.0, 0.3, 0.3, 0.3, 0.7, 1.0]),
            np.array([0.3, 1.0 - 1e-13]),
            np.array([0.3, 0.6, 1.0 + 1e-13]),
            np.array([1.0]),
            np.cumsum(big / big.sum()),
        ]

    def test_matches_clamped_searchsorted(self):
        for cum in self._cumulatives():
            words = self._words(cum)
            u = protocols._to_uniform(words)
            want = np.minimum(np.searchsorted(cum, u, side="right"),
                              cum.size - 1)
            table = protocols._guide_table(cum)
            assert table.size == 1 << protocols._GUIDE_BITS
            got = protocols._guided_pick(cum, table, words)
            assert np.array_equal(got, want)
            # A column of a wider block, as the broadcast list picks read.
            block = np.stack([words[::-1], words], axis=1)[:, 1:]
            got = protocols._guided_pick(cum, table, block)
            assert np.array_equal(got, want[:, None])

    def test_only_buckets_holding_an_entry_search(self):
        cum = np.cumsum(np.full(8, 0.125))
        table = protocols._guide_table(cum)
        assert np.count_nonzero(table < 0) == 0
        cum = np.array([0.1, 0.35, 0.6, 0.85, 1.0 - 1e-12])
        assert np.count_nonzero(protocols._guide_table(cum) < 0) == 5


class TestRejectionPlan:
    def test_point_mass_against_uniform(self):
        plan = protocols.RejectionPlan.build(Pmf([1.0, 0.0]),
                                             Pmf([0.5, 0.5]), 4)
        assert plan.lam == pytest.approx(0.5)
        assert plan.accept == pytest.approx([1.0, 0.0])

    def test_identical_target_accepts_everything(self):
        p = Pmf([0.3, 0.7])
        plan = protocols.RejectionPlan.build(p, p, 2)
        assert plan.lam == pytest.approx(1.0)
        assert plan.accept == pytest.approx([1.0, 1.0])

    def test_accept_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            plan = _random_plan(rng, int(rng.integers(2, 6)),
                                int(rng.integers(1, 6)))
            assert np.all(plan.accept >= 0.0)
            assert np.all(plan.accept <= 1.0)

    def test_validates_arguments(self):
        p, q = Pmf([0.5, 0.5]), Pmf([0.4, 0.6])
        for m in (0, 1.5, True, 2.0, "3"):
            with pytest.raises(ValueError, match="round budget"):
                protocols.RejectionPlan.build(p, q, m)
        assert protocols.RejectionPlan.build(p, q, np.int64(2)).m == 2
        with pytest.raises(ValueError):
            protocols.RejectionPlan.build(p, Pmf([0.3, 0.3, 0.4]), 2)
        with pytest.raises(ValueError):
            protocols.RejectionPlan.build(p, Pmf([1.0, 0.0]), 2)

    def test_round_budget_cap(self):
        p, q = Pmf([0.5, 0.5]), Pmf([0.4, 0.6])
        cap = protocols.MAX_ROUNDS
        assert protocols.RejectionPlan.build(p, q, cap).m == cap
        for m in (cap + 1, np.int64(cap + 1), 10 ** 30):
            with pytest.raises(ValueError, match=f"m must be at most {cap}"):
                protocols.RejectionPlan.build(p, q, m)


class TestRejectionExact:
    def test_point_mass_marginal(self):
        plan = protocols.RejectionPlan.build(Pmf([1.0, 0.0]),
                                             Pmf([0.5, 0.5]), 4)
        marginal, rho = protocols.rejection_exact_marginal(plan)
        assert rho == pytest.approx(0.0625)
        assert marginal.probs == pytest.approx([0.9375, 0.0625])
        assert tvd(marginal, plan.p) == pytest.approx(0.0625, abs=1e-12)

    def test_lambda_one_is_exact(self):
        p = Pmf([0.3, 0.7])
        plan = protocols.RejectionPlan.build(p, p, 3)
        marginal, rho = protocols.rejection_exact_marginal(plan)
        assert rho == 0.0
        assert marginal.probs == pytest.approx(p.probs, abs=0.0)

    def test_matches_round_by_round_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            plan = _random_plan(rng, int(rng.integers(2, 6)),
                                int(rng.integers(1, 7)))
            marginal, _ = protocols.rejection_exact_marginal(plan)
            want = _marginal_oracle(plan)
            assert marginal.probs == pytest.approx(want, abs=1e-12)

    def test_residual_never_exceeds_geometric_bound(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            plan = _random_plan(rng, int(rng.integers(2, 6)),
                                int(rng.integers(1, 9)))
            marginal, rho = protocols.rejection_exact_marginal(plan)
            assert tvd(marginal, plan.p) <= (1.0 - plan.lam) ** plan.m + 1e-12
            assert rho == pytest.approx((1.0 - plan.lam) ** plan.m)


class TestRejectionRun:
    def test_bit_reproducible(self):
        rng = np.random.default_rng(21)
        plan = _random_plan(rng, 3, 3)
        a = protocols.rejection_sample_run(plan, protocols.RngStream(77), 5000)
        b = protocols.rejection_sample_run(plan, protocols.RngStream(77), 5000)
        assert np.array_equal(a.empirical.probs, b.empirical.probs)
        assert np.array_equal(a.accept_counts, b.accept_counts)
        assert a.rejects == b.rejects

    def test_seed_changes_output(self):
        rng = np.random.default_rng(22)
        plan = _random_plan(rng, 3, 3)
        a = protocols.rejection_sample_run(plan, protocols.RngStream(1), 5000)
        b = protocols.rejection_sample_run(plan, protocols.RngStream(2), 5000)
        assert not np.array_equal(a.empirical.probs, b.empirical.probs)

    def test_accounting_adds_up(self):
        rng = np.random.default_rng(23)
        plan = _random_plan(rng, 4, 5)
        run = protocols.rejection_sample_run(plan, protocols.RngStream(9),
                                             4000)
        assert int(run.accept_counts.sum()) + run.rejects == run.trials

    def test_accepted_round_law(self):
        plan = protocols.RejectionPlan.build(Pmf([1.0, 0.0]),
                                             Pmf([0.5, 0.5]), 4)
        run = protocols.rejection_sample_run(plan, protocols.RngStream(5),
                                             20000)
        freq = run.accept_counts / run.trials
        assert freq == pytest.approx([0.5, 0.25, 0.125, 0.0625], abs=0.02)
        assert run.rejects / run.trials == pytest.approx(0.0625, abs=0.01)

    def test_empirical_near_exact_marginal(self):
        rng = np.random.default_rng(24)
        plan = _random_plan(rng, 4, 4)
        trials = 20000
        run = protocols.rejection_sample_run(plan, protocols.RngStream(31),
                                             trials)
        marginal, _ = protocols.rejection_exact_marginal(plan)
        band = 3.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * trials))
        assert tvd(run.empirical, marginal) <= band

    def test_worker_count_does_not_change_output(self, monkeypatch):
        rng = np.random.default_rng(25)
        plan = _random_plan(rng, 3, 2)
        trials = 70000
        monkeypatch.setenv("CHANNELSIM_THREADS", "1")
        a = protocols.rejection_sample_run(plan, protocols.RngStream(8),
                                           trials)
        monkeypatch.setenv("CHANNELSIM_THREADS", "4")
        b = protocols.rejection_sample_run(plan, protocols.RngStream(8),
                                           trials)
        assert np.array_equal(a.empirical.probs, b.empirical.probs)
        assert np.array_equal(a.accept_counts, b.accept_counts)
        assert a.rejects == b.rejects

    def test_validates_trials(self):
        plan = protocols.RejectionPlan.build(Pmf([0.5, 0.5]),
                                             Pmf([0.5, 0.5]), 1)
        with pytest.raises(ValueError):
            protocols.rejection_sample_run(plan, protocols.RngStream(0), 0)
        stream = protocols.RngStream(0)
        for trials in (10.5, 3.0, True, False, -2, "5", None):
            with pytest.raises(ValueError, match="positive integer"):
                protocols.rejection_sample_run(plan, stream, trials)
        assert stream.counter == 0
        run = protocols.rejection_sample_run(plan, stream, np.int64(3))
        assert run.trials == 3 and stream.counter == 6


class TestVectorizedMatchesScalar:
    """Array runs against per-trial loops reading the same words."""

    @pytest.mark.parametrize("block", [None, 7, 1])
    def test_rejection(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(protocols, "_BLOCK_WORDS", block)
        rng = np.random.default_rng(70)
        for case in range(6):
            plan = _random_plan(rng, int(rng.integers(2, 7)),
                                int(rng.integers(1, 8)))
            trials = int(rng.integers(200, 700))
            stream = protocols.RngStream(case)
            run = protocols.rejection_sample_run(plan, stream, trials)
            out, acc, rejects = _scalar_rejection(
                plan, protocols.RngStream(case), trials)
            assert np.array_equal(run.accept_counts, acc)
            assert run.rejects == rejects
            assert np.array_equal(run.empirical.probs,
                                  Pmf.normalized(out.astype(float)).probs)
            assert stream.counter == trials * 2 * plan.m

    @pytest.mark.parametrize("block", [None, 7, 1])
    def test_broadcast(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(protocols, "_BLOCK_WORDS", block)
        rng = np.random.default_rng(71)
        cases = []
        # (4, 4) lists on 2 x (2, 2) sum 16 numerators per posterior, and
        # (3, 3) on 2 x (3, 3) has 729 list configurations, more than the
        # trials; eight or more terms take numpy's unrolled pairwise sum.
        for kx, sizes, (m, n) in ((2, (2, 2), (2, 2)), (3, (2, 3), (2, 3)),
                                  (2, (3, 2), (3, 1)), (2, (2, 2), (4, 4)),
                                  (2, (3, 3), (3, 3))):
            rows = rng.random((kx, sizes[0] * sizes[1])) + 0.05
            cases.append((BroadcastDmc(
                rows=rows / rows.sum(axis=1, keepdims=True),
                output_sizes=sizes), m, n))
        # Point-mass row: posteriors degenerate whenever the lists miss it.
        cases.append((BroadcastDmc(rows=[[1.0, 0.0, 0.0, 0.0],
                                         [0.25, 0.25, 0.25, 0.25]],
                                   output_sizes=(2, 2)), 2, 2))
        # From base 2^64 - 100 the counters wrap within the first trials.
        bases = (0, (1 << 64) - 100)
        for case, (base, (w, m, n)) in enumerate(
                itertools.product(bases, cases)):
            sy, sz = w.output_sizes
            q = Pmf(_random_pmf(rng, sy, floor=0.2))
            r = Pmf(_random_pmf(rng, sz, floor=0.2))
            trials = int(rng.integers(150, 400))
            stream = protocols.RngStream(40 + case)
            stream.counter = base
            run = protocols.broadcast_protocol_run(w, q, r, m, n, stream,
                                                   trials)
            scalar = protocols.RngStream(40 + case)
            scalar.counter = base
            counts = _scalar_broadcast(w, q, r, m, n, scalar, trials)
            assert np.array_equal(run.empirical.rows, counts / trials)
            assert np.array_equal(run.exact.rows,
                                  protocols.induced_channel_scatter(
                                      w, q, r, m, n))
            assert stream.counter == scalar.counter
            assert stream.counter == base + trials * (m + n + w.input_size)


class TestLazyRejection:
    """Round-by-round runs compute only the rounds each trial reaches."""

    @pytest.mark.parametrize("base", [(1 << 40) + 5, (1 << 64) - (1 << 10)])
    def test_matches_reference_at_preset_counter(self, base):
        rng = np.random.default_rng(72)
        for case in range(4):
            plan = _random_plan(rng, int(rng.integers(2, 7)),
                                int(rng.integers(1, 8)))
            trials = int(rng.integers(100, 300))
            stream = protocols.RngStream(90 + case)
            stream.counter = base
            run = protocols.rejection_sample_run(plan, stream, trials)
            out, acc, rejects, _ = _lazy_rejection(plan, stream.key, base,
                                                   trials)
            assert np.array_equal(run.accept_counts, acc)
            assert run.rejects == rejects
            assert np.array_equal(run.empirical.probs,
                                  Pmf.normalized(out.astype(float)).probs)
            assert stream.counter == base + trials * 2 * plan.m
            tail = protocols.RngStream(90 + case)
            tail.counter = stream.counter
            assert np.array_equal(stream.words(3), tail.words(3))

    def test_lambda_one_accepts_in_round_one(self):
        p = Pmf([0.2, 0.5, 0.3])
        plan = protocols.RejectionPlan.build(p, p, 5)
        assert plan.lam == 1.0
        stream = protocols.RngStream(3)
        run = protocols.rejection_sample_run(plan, stream, 3000)
        assert run.accept_counts.tolist() == [3000, 0, 0, 0, 0]
        assert run.rejects == 0
        assert stream.counter == 3000 * 10
        out, acc, rejects, read = _lazy_rejection(plan, stream.key, 0, 3000)
        assert np.array_equal(run.empirical.probs,
                              Pmf.normalized(out.astype(float)).probs)
        assert read == 2 * 3000

    def test_single_round(self):
        rng = np.random.default_rng(73)
        plan = _random_plan(rng, 5, 1)
        stream = protocols.RngStream(12)
        run = protocols.rejection_sample_run(plan, stream, 500)
        out, acc, rejects, _ = _lazy_rejection(plan, stream.key, 0, 500)
        assert np.array_equal(run.accept_counts, acc)
        assert run.rejects == rejects
        assert np.array_equal(run.empirical.probs,
                              Pmf.normalized(out.astype(float)).probs)
        assert stream.counter == 500 * 2

    def test_small_lambda_reaches_the_last_round(self):
        # lam = 1/16: most of 4 rounds reject and the round-4 draw is kept.
        plan = protocols.RejectionPlan.build(Pmf([1.0] + [0.0] * 15),
                                             Pmf([1.0 / 16] * 16), 4)
        assert plan.lam == pytest.approx(1.0 / 16)
        stream = protocols.RngStream(13)
        run = protocols.rejection_sample_run(plan, stream, 600)
        out, acc, rejects, _ = _lazy_rejection(plan, stream.key, 0, 600)
        assert run.rejects > 600 // 2
        assert np.array_equal(run.accept_counts, acc)
        assert run.rejects == rejects
        assert np.array_equal(run.empirical.probs,
                              Pmf.normalized(out.astype(float)).probs)

    @pytest.mark.parametrize("block", [None, 7])
    def test_computes_only_the_rounds_reached(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(protocols, "_BLOCK_WORDS", block)
        # Every word is computed by the finalizer kernel; count its inputs.
        computed = []
        real = protocols._mix

        def spy(z, scratch, out=None):
            computed.append(z.size)
            return real(z, scratch, out)

        monkeypatch.setattr(protocols, "_mix", spy)
        rng = np.random.default_rng(74)
        for case in range(4):
            plan = _random_plan(rng, int(rng.integers(2, 7)),
                                int(rng.integers(2, 9)))
            computed.clear()
            run = protocols.rejection_sample_run(
                plan, protocols.RngStream(case), 20000)
            rounds = np.arange(1, plan.m + 1)
            reached = int(run.accept_counts @ rounds) + plan.m * run.rejects
            assert sum(computed) == 2 * reached
            assert sum(computed) < 20000 * 2 * plan.m


class TestAchievabilitySize:
    def test_identity_two(self):
        m, bound = protocols.achievability_size(prob.Dmc.identity(2),
                                                0.5, 0.25)
        assert m == 2
        assert bound == pytest.approx(math.log2(1.5) + 2.0, abs=1e-9)

    def test_budget_entirely_on_rejection(self):
        m, bound = protocols.achievability_size(prob.Dmc.bsc(0.2), 0.3, 0.3)
        assert m >= 1
        assert math.isfinite(bound)

    def test_size_within_analytic_bound_and_accuracy(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            k = int(rng.integers(2, 5))
            rows = rng.random((k, int(rng.integers(2, 5)))) + 0.02
            w = prob.Dmc(rows=rows / rows.sum(axis=1, keepdims=True))
            eps = float(rng.choice([0.1, 0.3]))
            delta = eps / 2.0
            m, bound = protocols.achievability_size(w, eps, delta)
            assert math.log2(m) <= bound + 1e-9
            smooth = i_max_smooth(w, eps - delta)
            q_star = Pmf.normalized(smooth.zeta)
            worst = 0.0
            for x in range(w.rows.shape[0]):
                row = Pmf.normalized(np.maximum(smooth.w_tilde[x], 0.0))
                plan = protocols.RejectionPlan.build(row, q_star, m)
                marginal, rho = protocols.rejection_exact_marginal(plan)
                assert rho <= delta + 1e-9
                worst = max(worst, tvd(marginal, Pmf(w.rows[x])))
            assert worst <= eps + 1e-7

    def test_validates_budgets(self):
        w = prob.Dmc.bsc(0.1)
        with pytest.raises(ValueError):
            protocols.achievability_size(w, 0.5, 0.0)
        with pytest.raises(ValueError):
            protocols.achievability_size(w, 0.2, 0.3)
        with pytest.raises(ValueError):
            protocols.achievability_size(w, 1.0, 0.5)


class TestConvexSplit:
    def test_product_joint_has_zero_distance(self):
        p_x = np.array([0.4, 0.6])
        qv = np.array([0.3, 0.7])
        rv = np.array([0.55, 0.45])
        cube = np.einsum("a,b,c->abc", p_x, qv, rv)
        joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 2, 2))
        rep = protocols.convex_split_check(joint, Pmf(qv), Pmf(rv), 2, 2,
                                           (0.1, 0.1, 0.1, 0.2, 0.2, 0.2))
        assert rep.tvd <= 1e-14
        assert rep.thresholds == pytest.approx((0.0, 0.0, 0.0))

    def test_mixture_marginals(self):
        rng = np.random.default_rng(40)
        cube = rng.random((2, 2, 2)) + 0.1
        cube /= cube.sum()
        qv = _random_pmf(rng, 2, floor=0.2)
        rv = _random_pmf(rng, 2, floor=0.2)
        m, n = 3, 2
        mix = protocols.convex_split_mixture(cube, qv, rv, m, n)
        assert mix.sum() == pytest.approx(1.0, abs=1e-12)
        x_marg = mix.sum(axis=tuple(range(1, 1 + m + n)))
        assert x_marg == pytest.approx(cube.sum(axis=(1, 2)), abs=1e-12)
        p_y = cube.sum(axis=(0, 2))
        for i in range(m):
            axes = tuple(a for a in range(mix.ndim) if a != 1 + i)
            want = p_y / m + (1.0 - 1.0 / m) * qv
            assert mix.sum(axis=axes) == pytest.approx(want, abs=1e-12)

    def test_satisfied_hypotheses_bound_the_distance(self):
        rng = np.random.default_rng(60)
        confirmed = 0
        for trial in range(16):
            mn = 3 + trial % 2
            px = _random_pmf(rng, 2, floor=0.3)
            qv = _random_pmf(rng, 2, floor=0.3)
            rv = _random_pmf(rng, 2, floor=0.3)
            cube = np.einsum("a,b,c->abc", px, qv, rv)
            cube = cube * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, cube.shape))
            cube /= cube.sum()
            joint = prob.JointPmf(probs=cube.reshape(-1),
                                  factor_sizes=(2, 2, 2))
            p_x = cube.sum(axis=(1, 2))
            t1 = d_s_plus(0.02, cube.sum(axis=2).reshape(-1),
                          np.outer(p_x, qv).reshape(-1))
            t2 = d_s_plus(0.02, cube.sum(axis=1).reshape(-1),
                          np.outer(p_x, rv).reshape(-1))
            t3 = d_s_plus(0.02, cube.reshape(-1),
                          np.einsum("a,b,c->abc", p_x, qv, rv).reshape(-1))
            pars = protocols.ConvexSplitParams(
                0.02, 0.02, 0.02,
                math.sqrt(2.0 ** t1 / mn) * 1.0005,
                math.sqrt(2.0 ** t2 / mn) * 1.0005,
                math.sqrt(2.0 ** t3 / (mn * mn)) * 1.0005)
            rep = protocols.convex_split_check(joint, Pmf(qv), Pmf(rv),
                                               mn, mn, pars)
            if not rep.hypotheses_hold:
                continue
            confirmed += 1
            assert rep.tvd <= rep.bound + 1e-12
        assert confirmed >= 8

    def test_violated_gates_are_reported_not_raised(self):
        rng = np.random.default_rng(41)
        flat = rng.random(8) + 0.05
        joint = prob.JointPmf(probs=flat / flat.sum(), factor_sizes=(2, 2, 2))
        rep = protocols.convex_split_check(
            joint, Pmf([0.5, 0.5]), Pmf([0.45, 0.55]), 3, 3,
            (0.15, 0.15, 0.15, 0.1, 0.1, 0.1))
        assert not rep.hypotheses_hold
        assert rep.bound == pytest.approx(0.45 + math.sqrt(0.03))
        assert rep.tvd <= 0.6

    def test_single_copies_never_satisfy_the_gates(self):
        p_x = np.array([0.5, 0.5])
        qv = np.array([0.5, 0.5])
        rv = np.array([0.5, 0.5])
        cube = np.einsum("a,b,c->abc", p_x, qv, rv)
        joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 2, 2))
        rep = protocols.convex_split_check(joint, Pmf(qv), Pmf(rv), 1, 1,
                                           (0.1, 0.1, 0.1, 0.3, 0.3, 0.3))
        assert not rep.hypotheses_hold

    def test_state_space_cap(self):
        cube = np.full((2, 2, 2), 0.125)
        with pytest.raises(ValueError):
            protocols.convex_split_mixture(cube, np.array([0.5, 0.5]),
                                           np.array([0.5, 0.5]), 4, 4,
                                           cap=100)

    def test_list_copies_limit(self):
        # One letter per factor in the einsum: 1 + m + n may not pass 26.
        cube = np.einsum("a,b,c->abc", [0.4, 0.6], [1.0], [0.55, 0.45])
        joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 1, 2))
        pars = (0.05, 0.05, 0.05, 0.1, 0.1, 0.1)
        for m, n in ((26, 1), (1, 25), (13, 13)):
            with pytest.raises(ValueError, match="limit of 25"):
                protocols.convex_split_check(joint, Pmf([1.0]),
                                             Pmf([0.55, 0.45]), m, n, pars)
        rep = protocols.convex_split_check(joint, Pmf([1.0]),
                                           Pmf([0.55, 0.45]), 24, 1, pars)
        assert rep.tvd <= 1e-14

    def test_validates_shapes(self):
        joint = prob.JointPmf(probs=np.full(4, 0.25), factor_sizes=(2, 2))
        with pytest.raises(ValueError):
            protocols.convex_split_check(joint, Pmf([0.5, 0.5]),
                                         Pmf([0.5, 0.5]), 2, 2,
                                         (0.1,) * 3 + (0.2,) * 3)
        joint3 = prob.JointPmf(probs=np.full(8, 0.125),
                               factor_sizes=(2, 2, 2))
        with pytest.raises(ValueError):
            protocols.convex_split_check(joint3, Pmf([0.3, 0.3, 0.4]),
                                         Pmf([0.5, 0.5]), 2, 2,
                                         (0.1,) * 3 + (0.2,) * 3)


class TestInducedChannelRoutes:
    def test_string_atoms_enumerate_in_product_order(self):
        for size, length in ((1, 1), (1, 4), (2, 1), (2, 5), (3, 3),
                             (4, 2), (5, 1), (7, 3)):
            want = np.array(list(itertools.product(range(size),
                                                   repeat=length)),
                            dtype=np.intp).reshape(size ** length, length)
            got = protocols._string_atoms(size, length)
            assert got.dtype == np.intp
            assert np.array_equal(got, want), (size, length)

    def test_routes_agree(self):
        rng = np.random.default_rng(9)
        for m, n in ((1, 1), (2, 2), (2, 3)):
            rows = rng.random((2, 4)) + 0.1
            w = BroadcastDmc(rows=rows / rows.sum(axis=1, keepdims=True),
                             output_sizes=(2, 2))
            q = Pmf(_random_pmf(rng, 2, floor=0.2))
            r = Pmf(_random_pmf(rng, 2, floor=0.2))
            a = protocols.induced_channel_literal(w, q, r, m, n)
            b = protocols.induced_channel_scatter(w, q, r, m, n)
            assert np.abs(a - b).max() <= 1e-12

    def test_routes_agree_on_degenerate_posteriors(self):
        # A point-mass row zeroes every numerator whenever the drawn lists
        # miss (0, 0); both routes must take the uniform fallback.
        w = BroadcastDmc(rows=[[1.0, 0.0, 0.0, 0.0],
                               [0.25, 0.25, 0.25, 0.25]], output_sizes=(2, 2))
        q = Pmf([0.5, 0.5])
        r = Pmf([0.5, 0.5])
        a = protocols.induced_channel_literal(w, q, r, 2, 2)
        b = protocols.induced_channel_scatter(w, q, r, 2, 2)
        assert np.abs(a - b).max() <= 1e-12

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(19)
        rows = rng.random((3, 6)) + 0.05
        w = BroadcastDmc(rows=rows / rows.sum(axis=1, keepdims=True),
                         output_sizes=(2, 3))
        out = protocols.induced_channel_scatter(w, Pmf([0.4, 0.6]),
                                                Pmf([0.2, 0.3, 0.5]), 3, 2)
        assert np.all(out >= 0.0)
        assert out.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)

    def test_single_entry_lists_ignore_the_input(self):
        w = BroadcastDmc(rows=[[0.5, 0.2, 0.2, 0.1],
                               [0.1, 0.3, 0.3, 0.3]], output_sizes=(2, 2))
        q = Pmf([0.6, 0.4])
        r = Pmf([0.55, 0.45])
        out = protocols.induced_channel_scatter(w, q, r, 1, 1)
        want = np.outer(q.probs, r.probs).reshape(-1)
        assert np.abs(out - want[None, :]).max() <= 1e-15

    def test_scatter_requires_full_support(self):
        w = BroadcastDmc(rows=[[0.5, 0.5, 0.0, 0.0],
                               [0.0, 0.0, 0.5, 0.5]], output_sizes=(2, 2))
        with pytest.raises(ValueError):
            protocols.induced_channel_scatter(w, Pmf([1.0, 0.0]),
                                              Pmf([0.5, 0.5]), 2, 2)

    def test_enumeration_cap(self):
        w = BroadcastDmc(rows=np.full((2, 4), 0.25), output_sizes=(2, 2))
        with pytest.raises(ValueError):
            protocols.induced_channel_literal(w, Pmf([0.5, 0.5]),
                                              Pmf([0.5, 0.5]), 8, 8,
                                              cap=1000)


class TestBroadcastRun:
    def test_reproducible_and_consistent(self):
        w = BroadcastDmc(rows=[[0.5, 0.2, 0.2, 0.1],
                               [0.1, 0.3, 0.3, 0.3]], output_sizes=(2, 2))
        q = Pmf([0.6, 0.4])
        r = Pmf([0.55, 0.45])
        a = protocols.broadcast_protocol_run(w, q, r, 2, 2,
                                             protocols.RngStream(5), 3000)
        b = protocols.broadcast_protocol_run(w, q, r, 2, 2,
                                             protocols.RngStream(5), 3000)
        assert np.array_equal(a.empirical.rows, b.empirical.rows)
        want = channel_tvd(a.exact, w)
        assert a.worst_tvd == pytest.approx(want, abs=0.0)

    def test_empirical_tracks_exact(self):
        rng = np.random.default_rng(26)
        rows = rng.random((2, 4)) + 0.1
        w = BroadcastDmc(rows=rows / rows.sum(axis=1, keepdims=True),
                         output_sizes=(2, 2))
        q = Pmf([0.5, 0.5])
        r = Pmf([0.4, 0.6])
        trials = 20000
        run = protocols.broadcast_protocol_run(w, q, r, 2, 2,
                                               protocols.RngStream(13),
                                               trials)
        gap = channel_tvd(run.empirical, run.exact)
        assert gap <= 3.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * trials))

    def test_worker_count_does_not_change_output(self, monkeypatch):
        w = BroadcastDmc(rows=[[0.5, 0.2, 0.2, 0.1],
                               [0.1, 0.3, 0.3, 0.3]], output_sizes=(2, 2))
        q = Pmf([0.6, 0.4])
        r = Pmf([0.55, 0.45])
        monkeypatch.setenv("CHANNELSIM_THREADS", "1")
        a = protocols.broadcast_protocol_run(w, q, r, 2, 2,
                                             protocols.RngStream(3), 70000)
        monkeypatch.setenv("CHANNELSIM_THREADS", "3")
        b = protocols.broadcast_protocol_run(w, q, r, 2, 2,
                                             protocols.RngStream(3), 70000)
        assert np.array_equal(a.empirical.rows, b.empirical.rows)

    def test_degenerate_posterior_runs(self):
        w = BroadcastDmc(rows=[[1.0, 0.0, 0.0, 0.0],
                               [0.25, 0.25, 0.25, 0.25]], output_sizes=(2, 2))
        run = protocols.broadcast_protocol_run(w, Pmf([0.5, 0.5]),
                                               Pmf([0.5, 0.5]), 2, 2,
                                               protocols.RngStream(17), 2000)
        assert run.empirical.rows.shape == (2, 4)
        band = 3.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * 2000))
        for x in range(2):
            gap = 0.5 * np.abs(run.empirical.rows[x] - run.exact.rows[x]).sum()
            assert gap <= band

    def test_validates_arguments(self):
        w3 = BroadcastDmc(rows=np.full((2, 8), 0.125),
                          output_sizes=(2, 2, 2))
        with pytest.raises(ValueError):
            protocols.broadcast_protocol_run(w3, Pmf([0.5, 0.5]),
                                             Pmf([0.5, 0.5]), 2, 2,
                                             protocols.RngStream(0), 10)
        w = BroadcastDmc(rows=np.full((2, 4), 0.25), output_sizes=(2, 2))
        with pytest.raises(ValueError):
            protocols.broadcast_protocol_run(w, Pmf([0.5, 0.5]),
                                             Pmf([0.5, 0.5]), 2, 2,
                                             protocols.RngStream(0), 0)
        with pytest.raises(ValueError):
            protocols.broadcast_protocol_run(w, Pmf([1.0, 0.0]),
                                             Pmf([0.5, 0.5]), 2, 2,
                                             protocols.RngStream(0), 10)
        half = Pmf([0.5, 0.5])
        stream = protocols.RngStream(0)
        for trials in (10.5, 3.0, True, False, -2, "5", None):
            with pytest.raises(ValueError, match="positive integer"):
                protocols.broadcast_protocol_run(w, half, half, 2, 2, stream,
                                                 trials)
        assert stream.counter == 0
        run = protocols.broadcast_protocol_run(w, half, half, 2, 2, stream,
                                               np.int64(3))
        assert run.empirical.rows.sum(axis=1).tolist() == [1.0, 1.0]
        assert stream.counter == 3 * 6

    @pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (0, 0), (-1, 1),
                                      (2.0, 2), (2, 2.0), (True, 2),
                                      (2, True), (1.5, 1)])
    def test_list_sizes_must_be_positive(self, m, n):
        w = BroadcastDmc(rows=np.full((2, 4), 0.25), output_sizes=(2, 2))
        half = Pmf([0.5, 0.5])
        stream = protocols.RngStream(0)
        with pytest.raises(ValueError):
            protocols.broadcast_protocol_run(w, half, half, m, n, stream, 10)
        assert stream.counter == 0
        with pytest.raises(ValueError):
            protocols.induced_channel_scatter(w, half, half, m, n)
        with pytest.raises(ValueError):
            protocols.induced_channel_literal(w, half, half, m, n)

    def test_memory_bounded_by_one_input(self):
        # The run holds one input's posteriors at a time, like the scatter,
        # and a configuration index per trial; a table of every input's
        # posteriors would be |X| = 8 times the scatter's.
        rng = np.random.default_rng(27)
        rows = rng.random((8, 4)) + 0.05
        w = BroadcastDmc(rows=rows / rows.sum(axis=1, keepdims=True),
                         output_sizes=(2, 2))
        q = Pmf([0.6, 0.4])
        r = Pmf([0.45, 0.55])
        peaks = []
        for call in (lambda: protocols.induced_channel_scatter(w, q, r, 6, 6),
                     lambda: protocols.broadcast_protocol_run(
                         w, q, r, 6, 6, protocols.RngStream(7), 1000)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_list_sizes_respect_spectrum_converse(self):
        # The achieved accuracy eps of the (M, N) index protocol forces
        # log2 M above the smoothed spectrum bound of the reduced channel.
        # The grid minimum only overestimates the true infimum over
        # references, so passing this check implies the real inequality.
        base = np.einsum("b,c->bc", [0.6, 0.4], [0.55, 0.45]).reshape(-1)
        rows = np.vstack([base, base * np.array([1.1, 0.95, 0.9, 1.05])])
        w = BroadcastDmc(rows=rows / rows.sum(axis=1, keepdims=True),
                         output_sizes=(2, 2))
        q = Pmf([0.6, 0.4])
        r = Pmf([0.55, 0.45])
        m = n = 8
        exact = protocols.induced_channel_scatter(w, q, r, m, n)
        eps = channel_tvd(BroadcastDmc(rows=exact, output_sizes=(2, 2)), w)
        assert eps <= 0.01
        delta = 0.1
        grid = _simplex_grid(2, 20)
        for subset, size in (((0,), m), ((1,), n)):
            reduced = prob.reduce_broadcast(w, subset).rows
            grid_min = min(
                max(d_s_plus(eps + delta, row, g) for row in reduced)
                for g in grid)
            assert math.log2(size) >= grid_min + math.log2(delta) - 1e-9
