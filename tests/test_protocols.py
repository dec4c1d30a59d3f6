"""Protocol executables: rng streams, rejection runs, splits, broadcast."""

import bisect
import functools
import itertools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
import reference_protocols as ref

from channelsim import prob, protocols
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
        u = [_uniform(word) for word in ref.words(stream, 2 * plan.m)]
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
             for word in ref.words(stream, m + n + w.input_size)]
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
        assert ref.words(s, 3).tolist() == want
        chain, state = [], 1234567
        for _ in range(3):
            chain.append(protocols._splitmix(state))
            state = (state + protocols._GOLDEN) % (1 << 64)
        assert chain == want

    def test_words_wrap_like_exact_integers(self):
        s = protocols.RngStream(2024)
        s.counter = (1 << 40) + 3
        got = ref.words(s, 4).tolist()
        want = [protocols._splitmix((s.key + i * protocols._GOLDEN)
                                    % (1 << 64))
                for i in range((1 << 40) + 3, (1 << 40) + 7)]
        assert got == want
        assert s.counter == (1 << 40) + 7

    def test_words_are_addressed_by_counter(self):
        a = protocols.RngStream(6)
        b = protocols.RngStream(6)
        joined = np.concatenate([ref.words(a, 5), ref.words(a, 1),
                                 ref.words(a, 11)])
        assert np.array_equal(joined, ref.words(b, 17))
        assert a.counter == b.counter == 17

    def test_words_at_known_answers(self):
        s = protocols.RngStream(2025)
        s.counter = 9
        at = [0, 5, 3, (1 << 40) + 3, (1 << 64) - 1, 17, (1 << 63) + 11, 5]
        got = ref.words_at(s, np.array(at, dtype=np.uint64))
        assert got.tolist() == [_exact_word(s.key, c) for c in at]
        grid = ref.words_at(s, np.array(at, dtype=np.uint64).reshape(2, 4))
        assert grid.shape == (2, 4)
        assert grid.reshape(-1).tolist() == got.tolist()
        assert s.counter == 9

    def test_words_wrap_past_the_last_counter(self):
        s = protocols.RngStream(77)
        s.counter = (1 << 64) - 2
        got = ref.words(s, 4).tolist()
        assert got == [_exact_word(s.key, c)
                       for c in range((1 << 64) - 2, (1 << 64) + 2)]
        assert s.counter == (1 << 64) + 2

    def test_negative_count_rejected(self):
        s = protocols.RngStream(4)
        ref.words(s, 5)
        with pytest.raises(ValueError):
            ref.words(s, -3)
        assert s.counter == 5
        assert ref.words(s, 0).size == 0
        assert s.counter == 5
        assert ref.words(s, 2).tolist() == [_exact_word(s.key, 5),
                                       _exact_word(s.key, 6)]

    def test_reproducible_from_seed(self):
        a = protocols.RngStream(1234)
        b = protocols.RngStream(1234)
        assert ref.words(a, 20).tolist() == ref.words(b, 20).tolist()
        assert ref.words(a, 1).tolist() == ref.words(b, 1).tolist()

    def test_nearby_seeds_decorrelate(self):
        a = protocols.RngStream(7)
        b = protocols.RngStream(8)
        assert ref.words(a, 4).tolist() != ref.words(b, 4).tolist()

    def test_seed_wraps_at_64_bits(self):
        a = protocols.RngStream(5)
        b = protocols.RngStream((1 << 64) + 5)
        assert ref.words(a, 1).tolist() == ref.words(b, 1).tolist()

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, -1, "2", None])
    def test_seed_must_be_a_count(self, seed):
        # 2.5 once drew seed 2's words.
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            protocols.RngStream(seed)
        assert (ref.words(protocols.RngStream(np.int64(2)), 3).tolist()
                == ref.words(protocols.RngStream(2), 3).tolist())

    def test_counter_tracks_draws(self):
        s = protocols.RngStream(0)
        ref.words(s, 1)
        ref.words(s, 2)
        assert s.counter == 3

    def test_uniform_range(self):
        s = protocols.RngStream(99)
        draws = protocols._to_uniform(ref.words(s, 2000))
        assert np.all((draws >= 0.0) & (draws < 1.0))
        assert 0.4 < draws.mean() < 0.6

    def test_pick_frequencies(self):
        s = protocols.RngStream(3)
        cum = np.array([0.25, 0.5, 1.0])
        picks = protocols._pick(cum,
                                protocols._to_uniform(ref.words(s, 20000)))
        counts = np.bincount(picks, minlength=3)
        assert counts / 20000 == pytest.approx([0.25, 0.25, 0.5], abs=0.02)

    def test_pick_clamps_rounded_cumulative(self):
        s = protocols.RngStream(11)
        cum = np.array([0.3, 1.0 - 1e-13])
        picks = protocols._pick(cum, protocols._to_uniform(ref.words(s, 1000)))
        assert set(picks.tolist()) <= {0, 1}

    def test_pick_clamps_past_last_entry(self):
        cum = np.array([0.3, 1.0 - 1e-13])
        got = protocols._pick(cum, np.array([0.0, 0.3, 0.5, 1.0 - 1e-14]))
        assert got.tolist() == [0, 1, 1, 1]


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
            assert table.base.size == 1 << protocols._GUIDE_BITS
            assert table.limits.size == 1 << protocols._GUIDE_BITS
            got = protocols._guided_pick(cum, table, words)
            assert np.array_equal(got, want)
            # A column of a wider block, as the broadcast list picks read.
            block = np.stack([words[::-1], words], axis=1)[:, 1:]
            got = protocols._guided_pick(cum, table, block)
            assert np.array_equal(got, want[:, None])

    def test_only_buckets_holding_an_entry_search(self):
        # Entries on bucket edges need neither a limit nor a search.
        table = protocols._guide_table(np.cumsum(np.full(8, 0.125)))
        assert np.count_nonzero(table.base < 0) == 0
        assert np.all(table.limits == np.uint64((1 << 64) - 1))
        assert not table.searches
        # One entry inside a bucket is a limit word, not a search; the
        # last entry needs neither, since the clamp picks the last index
        # on both sides of it.
        cum = np.array([0.1, 0.35, 0.6, 0.85, 1.0 - 1e-12])
        table = protocols._guide_table(cum)
        assert np.count_nonzero(table.base < 0) == 0
        assert np.count_nonzero(table.limits != np.uint64((1 << 64) - 1)) == 4
        assert not table.searches
        # Only a bucket holding two or more entries searches.
        cum = np.array([0.1, 0.1 + 1e-5, 0.6, 0.6 + 2e-5, 0.6 + 3e-5, 1.0])
        table = protocols._guide_table(cum)
        assert np.count_nonzero(table.base < 0) == 2
        assert table.searches

    def _assert_picks(self, cum):
        words = self._words(cum)
        want = np.minimum(np.searchsorted(cum, protocols._to_uniform(words),
                                          side="right"), cum.size - 1)
        got = protocols._guided_pick(cum, protocols._guide_table(cum), words)
        assert np.array_equal(got, want)

    def test_letter_below_one_bucket(self):
        # A letter of mass below 2^-12 puts two entries in one bucket,
        # which searches, beside buckets that compare limit words.
        for mass in (1e-5, 2.0 ** -13, 2.0 ** -40, 0.0):
            cum = np.cumsum([0.2501, mass, 0.2, 0.5499 - mass])
            table = protocols._guide_table(cum)
            assert table.searches
            assert np.count_nonzero(table.base < 0) == 1
            self._assert_picks(cum)

    def test_last_entry_rounding_below_one(self):
        # cumsum of ten 0.1 ends at 1 - 2^-53: the top word's uniform
        # reaches it, and the pick is clamped to the last letter.
        cum = np.cumsum(np.full(10, 0.1))
        assert cum[-1] == 1.0 - 2.0 ** -53
        assert not protocols._guide_table(cum).searches
        self._assert_picks(cum)
        top = np.array([(1 << 64) - 1], dtype=np.uint64)
        assert protocols._guided_pick(cum, protocols._guide_table(cum),
                                      top)[0] == 9


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

    def test_multi_block_run_reproduces_bit_for_bit(self):
        # Two runs from one seed give the same output; 70,000 trials span
        # about 9 blocks of 2 * _BLOCK_WORDS trials.
        rng = np.random.default_rng(25)
        plan = _random_plan(rng, 3, 2)
        trials = 70000
        a = protocols.rejection_sample_run(plan, protocols.RngStream(8),
                                           trials)
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
                                  protocols.induced_channel_types(
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
            assert np.array_equal(ref.words(stream, 3), ref.words(tail, 3))

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
        m, bound = protocols.achievability_size(prob.Dmc(np.eye(2)),
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


def _type_masses_per_entry(probs, length):
    """_type_masses with math.lgamma mapped over every entry of every
    type, the form the shared log-factorial table replaced."""
    types = prob._compositions(probs.size, length)
    log_fact = np.fromiter(map(math.lgamma, (types + 1.0).ravel().tolist()),
                           np.float64, types.size).reshape(types.shape)
    coef = math.lgamma(length + 1.0) - log_fact.sum(axis=1)
    log_q = np.log(probs, out=np.full(probs.size, -np.inf), where=probs > 0)
    logs = np.multiply(types, log_q, out=np.zeros(types.shape),
                       where=types > 0)
    mass = np.exp(coef + logs.sum(axis=1))
    planted = np.divide(mass[:, None] * types, length * probs,
                        out=np.zeros(types.shape), where=probs > 0.0)
    for a in np.flatnonzero(probs == 0.0):
        once = types[:, a] == 1
        rest = np.delete(logs[once], a, axis=1).sum(axis=1)
        planted[once, a] = np.exp(coef[once] + rest) / length
    return types, mass, planted


class TestTypeMasses:
    @pytest.mark.parametrize("probs, length", [
        ([0.3, 0.7], 3), ([0.3, 0.7], 1000), ([0.3, 0.7], 200000),
        ([0.2, 0.3, 0.5], 700), ([0.25, 0.0, 0.75], 60),
        ([0.1, 0.2, 0.3, 0.4], 120), ([1.0], 1), ([1.0], 1000)])
    def test_table_matches_per_entry_lgamma_bit_for_bit(self, probs,
                                                         length):
        probs = np.array(probs)
        got = protocols._type_masses(probs, length)
        want = _type_masses_per_entry(probs, length)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_table_is_lgamma_of_the_successor(self):
        lg = prob._lgamma_table(300)
        assert lg.shape == (301,)
        assert [float(v) for v in lg] == [math.lgamma(j + 1.0)
                                          for j in range(301)]


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
        mix = ref.convex_split_mixture(cube, qv, rv, m, n)
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
        # 2 * 2001 * 2001 type pairs, past MAX_ATOMS; checked before any
        # type is enumerated. 2 * 725 * 725 is the first count past it.
        joint = prob.JointPmf(probs=np.full(8, 0.125), factor_sizes=(2, 2, 2))
        half = Pmf([0.5, 0.5])
        pars = (0.05, 0.05, 0.05, 0.1, 0.1, 0.1)
        for m, n in ((2000, 2000), (724, 724), (1, 600000)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="enumeration cap"):
                    protocols.convex_split_check(joint, half, half, m, n,
                                                 pars)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16
        rep = protocols.convex_split_check(joint, half, half, 723, 723, pars)
        assert rep.tvd <= 1e-14

    def test_one_letter_factor_costs_one_type(self):
        # A one-letter Y list is the same at every length, so the mixture,
        # and with it the distance, is that of m = 1; the types, masses
        # and log-factorials once scaled with m.
        cube = np.array([0.1, 0.25, 0.4, 0.25]).reshape(2, 1, 2)
        joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 1, 2))
        q, r = Pmf([1.0]), Pmf([0.35, 0.65])
        pars = (0.05, 0.05, 0.05, 0.1, 0.1, 0.1)
        want = protocols.convex_split_check(joint, q, r, 1, 2, pars)
        assert want.tvd > 0.01
        start = time.perf_counter()
        got = protocols.convex_split_check(joint, q, r, 10 ** 6, 2, pars)
        assert time.perf_counter() - start < 0.02
        assert abs(got.tvd - want.tvd) <= 1e-14
        tracemalloc.start()
        try:
            protocols.convex_split_check(joint, q, r, 10 ** 6, 2, pars)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_list_copies_limit(self):
        # The einsum mixture took one letter per list copy and stopped at
        # m + n = 25; the type sum has no such limit.
        cube = np.einsum("a,b,c->abc", [0.4, 0.6], [1.0], [0.55, 0.45])
        joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 1, 2))
        pars = (0.05, 0.05, 0.05, 0.1, 0.1, 0.1)
        for m, n in ((26, 1), (1, 25), (13, 13), (24, 1), (300, 400)):
            rep = protocols.convex_split_check(joint, Pmf([1.0]),
                                               Pmf([0.55, 0.45]), m, n, pars)
            assert rep.tvd <= 1e-14
        with pytest.raises(ValueError, match="limit of 25"):
            ref.convex_split_mixture(cube, np.array([1.0]),
                                     np.array([0.55, 0.45]), 13, 13)

    def test_matches_the_einsum_mixture(self):
        # Up to the reference's 25 copies and MAX_ATOMS atoms, on random
        # joints, with a reference letter of mass 0 in every third case.
        rng = np.random.default_rng(61)
        shapes = ((2, 2, 2), (1, 3, 2), (3, 2, 3), (2, 1, 3), (2, 3, 3))
        sizes = ((1, 1), (2, 3), (4, 4), (3, 1), (6, 5), (12, 12), (1, 20))
        for case in range(40):
            kx, sy, sz = shapes[case % len(shapes)]
            m, n = sizes[case % len(sizes)]
            if kx * sy ** m * sz ** n > protocols.MAX_ATOMS:
                m, n = min(m, 3), min(n, 3)
            cube = rng.random((kx, sy, sz)) ** 3
            cube /= cube.sum()
            qv = _random_pmf(rng, sy, floor=0.05)
            rv = _random_pmf(rng, sz, floor=0.05)
            if case % 3 == 0 and sy > 1:
                qv[0] = 0.0
                qv /= qv.sum()
            joint = prob.JointPmf(probs=cube.reshape(-1),
                                  factor_sizes=(kx, sy, sz))
            rep = protocols.convex_split_check(joint, Pmf(qv), Pmf(rv), m, n,
                                               (0.1,) * 6)
            want = ref.convex_split_tvd(cube, qv, rv, m, n)
            assert abs(rep.tvd - want) <= 1e-12, (case, rep.tvd, want)

    def test_large_lists_match_a_40_digit_type_sum(self):
        # A correlated joint at M = N = 200, where the strings number
        # 2^401; the reference sums the binomial types in mpmath.
        cube = np.array([[[0.30, 0.05], [0.05, 0.10]],
                         [[0.08, 0.12], [0.10, 0.20]]])
        qv, rv = cube.sum(axis=(0, 2)), cube.sum(axis=(0, 1))
        m = n = 200
        joint = prob.JointPmf(probs=cube.reshape(-1), factor_sizes=(2, 2, 2))
        rep = protocols.convex_split_check(joint, Pmf(qv), Pmf(rv), m, n,
                                           (0.05,) * 6)
        with mpmath.workdps(40):
            c = [[[mpmath.mpf(float(v)) for v in row] for row in plane]
                 for plane in cube]

            def side(probs, length):
                """Binomial type masses and planted masses, by first-letter
                count k."""
                a, b = (mpmath.mpf(float(v)) for v in probs)
                mass = [mpmath.binomial(length, k) * a ** k
                        * b ** (length - k) for k in range(length + 1)]
                planted = [
                    (mpmath.binomial(length - 1, k - 1) * a ** (k - 1)
                     * b ** (length - k) if k > 0 else 0,
                     mpmath.binomial(length - 1, k) * a ** k
                     * b ** (length - 1 - k) if k < length else 0)
                    for k in range(length + 1)]
                return mass, planted

            mass_y, planted_y = side(qv, m)
            mass_z, planted_z = side(rv, n)
            total = mpmath.mpf(0)
            for plane in c:
                p_x = sum(sum(row) for row in plane)
                v0, v1 = ([row[0] * pz[0] + row[1] * pz[1]
                           for pz in planted_z] for row in plane)
                for my, (y0, y1) in zip(mass_y, planted_y):
                    total += mpmath.fsum(
                        abs(y0 * v0[k] + y1 * v1[k] - p_x * my * mass_z[k])
                        for k in range(n + 1))
            want = float(total / 2)
        assert abs(rep.tvd - want) <= 1e-13
        assert 0.0 < rep.tvd < 0.05

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
            a = ref.induced_channel_literal(w, q, r, m, n)
            b = protocols.induced_channel_scatter(w, q, r, m, n)
            c = protocols.induced_channel_types(w, q, r, m, n)
            assert np.abs(a - b).max() <= 1e-12
            assert np.abs(a - c).max() <= 1e-12

    def test_type_route_matches_both_enumerations(self):
        # 48 seeded instances up to 3 x (3, 3) at M, N <= 3; every third
        # has sparse rows, whose posteriors often take the all-zero
        # fallback, and every fourth a point-mass row.
        rng = np.random.default_rng(33)
        fallbacks = 0
        for case in range(48):
            kx, sy, sz = (int(v) for v in rng.integers(1, 4, 3))
            m, n = (int(v) for v in rng.integers(1, 4, 2))
            rows = rng.random((kx, sy * sz)) + 0.02
            if case % 3 == 0:
                rows[rng.random(rows.shape) < 0.6] = 0.0
                rows[rows.sum(axis=1) == 0.0, -1] = 1.0
            if case % 4 == 0:
                rows[0] = np.eye(sy * sz)[-1]
            w = BroadcastDmc(rows=rows / rows.sum(axis=1, keepdims=True),
                             output_sizes=(sy, sz))
            q = Pmf(_random_pmf(rng, sy, floor=0.05))
            r = Pmf(_random_pmf(rng, sz, floor=0.05))
            got = protocols.induced_channel_types(w, q, r, m, n)
            for want in (ref.induced_channel_literal(w, q, r, m, n),
                         protocols.induced_channel_scatter(w, q, r, m, n)):
                assert np.abs(got - want).max() <= 1e-12, case
            # Lists holding only a and only b, which have positive mass,
            # take the fallback wherever W(a, b | x) = 0.
            fallbacks += bool(np.any(w.rows == 0.0))
        assert fallbacks >= 16

    def test_type_route_reaches_large_lists(self):
        # 16 inputs at M = N = 8: 2^16 list strings per input for the
        # scatter, 81 type pairs here. The type route matches a 40-digit
        # type sum; the scatter's weighted count of 2^16 strings drifts
        # by about 3e-12. M = N = 200, past any string enumeration, still
        # gives a stochastic channel.
        rng = np.random.default_rng(34)
        rows = rng.random((16, 4)) + 0.05
        w = BroadcastDmc(rows=rows / rows.sum(axis=1, keepdims=True),
                         output_sizes=(2, 2))
        q, r = Pmf([0.6, 0.4]), Pmf([0.45, 0.55])
        m = n = 8
        got = protocols.induced_channel_types(w, q, r, m, n)
        want = np.empty_like(got)
        with mpmath.workdps(40):
            qm, rm = ([mpmath.mpf(float(v)) for v in p.probs] for p in (q, r))
            pairs = [((ky, m - ky), (kz, n - kz),
                      mpmath.binomial(m, ky) * qm[0] ** ky
                      * qm[1] ** (m - ky) * mpmath.binomial(n, kz)
                      * rm[0] ** kz * rm[1] ** (n - kz))
                     for ky in range(m + 1) for kz in range(n + 1)]
            for x, row in enumerate(w.rows):
                f = [[mpmath.mpf(float(row[2 * a + b])) / (qm[a] * rm[b])
                      for b in range(2)] for a in range(2)]
                out = [0] * 4
                for ty, tz, mass in pairs:
                    terms = [ty[a] * tz[b] * f[a][b]
                             for a in range(2) for b in range(2)]
                    total = sum(terms)
                    out = [o + mass * t / total for o, t in zip(out, terms)]
                want[x] = [float(v) for v in out]
        assert np.abs(got - want).max() <= 1e-14
        scatter = protocols.induced_channel_scatter(w, q, r, m, n)
        assert np.abs(got - scatter).max() <= 1e-11
        big = protocols.induced_channel_types(w, q, r, 200, 200)
        assert np.all(big >= 0.0)
        assert big.sum(axis=1) == pytest.approx(np.ones(16), abs=1e-12)
        # More list entries track the target better here.
        assert (channel_tvd(BroadcastDmc(rows=big, output_sizes=(2, 2)), w)
                < channel_tvd(BroadcastDmc(rows=got, output_sizes=(2, 2)), w))

    def test_routes_agree_on_degenerate_posteriors(self):
        # A point-mass row zeroes every numerator whenever the drawn lists
        # miss (0, 0); both routes must take the uniform fallback.
        w = BroadcastDmc(rows=[[1.0, 0.0, 0.0, 0.0],
                               [0.25, 0.25, 0.25, 0.25]], output_sizes=(2, 2))
        q = Pmf([0.5, 0.5])
        r = Pmf([0.5, 0.5])
        a = ref.induced_channel_literal(w, q, r, 2, 2)
        b = protocols.induced_channel_scatter(w, q, r, 2, 2)
        c = protocols.induced_channel_types(w, q, r, 2, 2)
        assert np.abs(a - b).max() <= 1e-12
        assert np.abs(a - c).max() <= 1e-12

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
        for call in (protocols.induced_channel_scatter,
                     protocols.induced_channel_types):
            with pytest.raises(ValueError, match="full support"):
                call(w, Pmf([1.0, 0.0]), Pmf([0.5, 0.5]), 2, 2)

    def test_enumeration_cap(self):
        # The string routes stop at 2^10 * 2^10 * 2 states, the type route
        # at 2 * 2001 * 2001 type pairs; both past MAX_ATOMS and checked
        # before any work.
        w = BroadcastDmc(rows=np.full((2, 4), 0.25), output_sizes=(2, 2))
        half = Pmf([0.5, 0.5])
        for call, size in ((protocols.induced_channel_scatter, 10),
                           (protocols.induced_channel_types, 2000)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="enumeration cap"):
                    call(w, half, half, size, size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16
        with pytest.raises(ValueError, match="enumeration cap"):
            protocols.broadcast_protocol_run(w, half, half, 10, 10,
                                             protocols.RngStream(0), 10)

    def test_one_letter_factor_costs_one_type(self):
        # The induced channel does not depend on the length of a one-letter
        # list; at m = 10^6 it once took 1.7 s and a 38 MiB peak.
        w = BroadcastDmc(rows=[[0.3, 0.7], [0.6, 0.4], [0.05, 0.95]],
                         output_sizes=(1, 2))
        q, r = Pmf([1.0]), Pmf([0.4, 0.6])
        want = protocols.induced_channel_types(w, q, r, 1, 3)
        start = time.perf_counter()
        got = protocols.induced_channel_types(w, q, r, 10 ** 6, 3)
        assert time.perf_counter() - start < 0.02
        assert np.abs(got - want).max() <= 1e-14
        tracemalloc.start()
        try:
            protocols.induced_channel_types(w, q, r, 10 ** 6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_letter_string_lists_stop_at_the_cap(self):
        # A one-letter list counts once against the cap, but its strings
        # take one dimension per entry: at 64 entries numpy's dimension
        # limit stopped the scatter. Lists past 20 entries, the longest a
        # two-letter list can be, are rejected before anything is built.
        w = BroadcastDmc(rows=[[0.3, 0.7], [0.6, 0.4]], output_sizes=(1, 2))
        q, r = Pmf([1.0]), Pmf([0.4, 0.6])
        run = functools.partial(protocols.broadcast_protocol_run,
                                stream=protocols.RngStream(0), trials=10)
        for call in (protocols.induced_channel_scatter, run):
            assert call(w, q, r, 20, 2) is not None
            for m in (21, 64):
                tracemalloc.start()
                try:
                    with pytest.raises(ValueError, match="enumeration cap"):
                        call(w, q, r, m, 2)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1 << 16

    def test_string_cap_builds_no_huge_count(self):
        # 3^(10^7) as an exact integer took seconds to build and compare.
        w = BroadcastDmc(rows=np.full((2, 9), 1 / 9), output_sizes=(3, 3))
        third = Pmf(np.full(3, 1 / 3))
        for call in (protocols.induced_channel_scatter,
                     lambda *args: protocols.broadcast_protocol_run(
                         *args, protocols.RngStream(0), 10)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="enumeration cap"):
                call(w, third, third, 10 ** 7, 10 ** 7)
            assert time.perf_counter() - start < 0.01

    def test_string_cap_boundary(self):
        # 16 * 2^8 * 2^8 is exactly MAX_ATOMS; a size-1 list counts once.
        count = protocols._string_count
        protocols._check_states(16, (2, 2), 8, 8, count)
        protocols._check_states(1, (2, 1), 20, 10 ** 7, count)
        for inputs, sizes, m, n in ((17, (2, 2), 8, 8), (16, (2, 2), 8, 9),
                                    (16, (2, 2), 9, 8), (1, (2, 1), 21, 1),
                                    (1, (3, 1), 13, 1)):
            with pytest.raises(ValueError, match="enumeration cap"):
                protocols._check_states(inputs, sizes, m, n, count)
        assert [count(3, k) for k in (0, 1, 20)] == [1, 3, 3 ** 20]

    @pytest.mark.parametrize("q_size, r_size", [(3, 2), (1, 2), (2, 3),
                                                (2, 1)])
    def test_references_must_match_the_receivers(self, q_size, r_size):
        # A 3-letter q once gave a channel built from its first two
        # entries; a 1-letter one an IndexError.
        w = BroadcastDmc(rows=np.full((2, 4), 0.25), output_sizes=(2, 2))
        q = Pmf(np.full(q_size, 1 / q_size))
        r = Pmf(np.full(r_size, 1 / r_size))
        for call in (protocols.induced_channel_types,
                     protocols.induced_channel_scatter):
            with pytest.raises(ValueError, match="reference sizes"):
                call(w, q, r, 2, 2)
        with pytest.raises(ValueError, match="reference sizes"):
            protocols.broadcast_protocol_run(w, q, r, 2, 2,
                                             protocols.RngStream(0), 10)


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

    def test_multi_block_run_reproduces_bit_for_bit(self):
        # Two runs from one seed give the same output; 70,000 trials of
        # M + N = 4 list picks span about 69 blocks of _BLOCK_WORDS words.
        w = BroadcastDmc(rows=[[0.5, 0.2, 0.2, 0.1],
                               [0.1, 0.3, 0.3, 0.3]], output_sizes=(2, 2))
        q = Pmf([0.6, 0.4])
        r = Pmf([0.55, 0.45])
        a = protocols.broadcast_protocol_run(w, q, r, 2, 2,
                                             protocols.RngStream(3), 70000)
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
            protocols.induced_channel_types(w, half, half, m, n)

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
        grid = prob._compositions(2, 20) / 20
        for subset, size in (((0,), m), ((1,), n)):
            reduced = prob.reduce_broadcast(w, subset).rows
            grid_min = min(
                max(d_s_plus(eps + delta, row, g) for row in reduced)
                for g in grid)
            assert math.log2(size) >= grid_min + math.log2(delta) - 1e-9
