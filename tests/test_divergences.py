"""Divergence computations against enumeration oracles and each other."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from channelsim import divergences as dv


def _simplex(rng, size, floor=0.0):
    v = rng.random(size) + floor
    return v / v.sum()


def _rough_simplex(rng, size, kind):
    """A pmf on multiples of 1/8 (kind 0, ratio ties likely), with a zero
    entry (kind 1), or a random one with its first two entries tied."""
    if kind == 0:
        return rng.multinomial(8, np.full(size, 1.0 / size)) / 8.0
    v = rng.random(size)
    if kind == 1:
        v[rng.integers(size)] = 0.0
    else:
        v[1] = v[0]
    return v / v.sum()


SPECTRUM_EPS = (1e-12, 0.05, 0.2, 0.5, 0.999, 1.0, 1.5)


def _beta_oracle(eps, p, q):
    """Optimal type-II error by enumerating every deterministic test set."""
    best = math.inf
    n = len(p)
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if sum(p[i] for i in idx) >= 1.0 - eps - 1e-12:
            best = min(best, sum(q[i] for i in idx))
    return best


class TestKl:
    def test_closed_form(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        want = 0.5 * math.log2(0.5 / 0.9) + 0.5 * math.log2(0.5 / 0.1)
        assert dv.kl(p, q) == pytest.approx(want)

    def test_unsupported_is_infinite(self):
        assert dv.kl(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    @given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    def test_nonnegative_zero_iff_equal(self, a, b):
        p = np.array(a) / sum(a)
        q = np.array(b) / sum(b)
        d = dv.kl(p, q)
        assert d >= -1e-12
        assert dv.kl(p, p) == pytest.approx(0.0, abs=1e-12)


class TestVarDiv:
    def test_bsc_closed_form(self):
        # variance of log2(W(y|0)/q(y)) with q the uniform output of BSC(d)
        d = 0.1
        p = np.array([1.0 - d, d])
        q = np.array([0.5, 0.5])
        terms = np.log2(p / q)
        mean = (p * terms).sum()
        want = (p * (terms - mean) ** 2).sum()
        assert dv.var_div(p, q) == pytest.approx(want)

    def test_zero_for_equal(self):
        p = np.array([0.3, 0.7])
        assert dv.var_div(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_support_violation_raises(self):
        with pytest.raises(ValueError):
            dv.var_div(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestDmax:
    def test_ratio(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.5, 0.5])
        assert dv.d_max(p, q) == pytest.approx(math.log2(1.6))

    def test_null_support(self):
        assert dv.d_max(np.array([0.5, 0.5]),
                        np.array([1.0, 0.0])) == math.inf

    def test_zero_mass_ignored(self):
        p = np.array([0.0, 1.0])
        q = np.array([0.0, 1.0])
        assert dv.d_max(p, q) == 0.0


class TestBetaStar:
    def test_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            p = _simplex(rng, n)
            q = _simplex(rng, n)
            eps = float(rng.uniform(0.02, 0.6))
            got = dv.beta_star(eps, p, q)
            want = _beta_oracle(eps, p, q)
            assert got == pytest.approx(want, abs=1e-12)

    def test_greedy_ordering_is_not_optimal(self):
        # likelihood-ratio prefix keeps the 0.9 atom and pays q = 1.0;
        # the optimum drops it for the two cheap atoms instead
        p = np.array([0.09, 0.9, 0.01])
        q = np.array([0.01, 0.98, 0.01])
        got = dv.beta_star(0.2, p, q)
        assert got == pytest.approx(0.98)
        order = np.argsort(-(p / q))
        cum_p = 0.0
        greedy = 0.0
        for i in order:
            if cum_p < 0.8 - 1e-12:
                cum_p += p[i]
                greedy += q[i]
        assert greedy > got + 0.01

    def test_free_atoms(self):
        # q-null atoms with p-mass cost nothing and are always included
        p = np.array([0.4, 0.3, 0.3])
        q = np.array([0.5, 0.5, 0.0])
        # mass target 0.7: the free third atom plus the first reaches it
        # at cost 0.5; every other qualifying set costs more
        assert dv.beta_star(0.3, p, q) == pytest.approx(0.5)
        # with eps = 0.5 the free atom alone suffices and the test is free
        assert dv.beta_star(0.5, np.array([0.5, 0.5]),
                            np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_eps_zero(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.2, 0.8])
        assert dv.beta_star(0.0, p, q) == 1.0

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(5)
        p = _simplex(rng, 5)
        q = _simplex(rng, 5)
        values = [dv.beta_star(e, p, q) for e in (0.0, 0.1, 0.3, 0.5, 0.8)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestDh:
    def test_matches_beta(self):
        rng = np.random.default_rng(41)
        p = _simplex(rng, 4)
        q = _simplex(rng, 4)
        assert dv.d_h(0.25, p, q) == pytest.approx(
            -math.log2(dv.beta_star(0.25, p, q)))

    def test_identical_arguments(self):
        p = np.array([0.25, 0.75])
        # against itself, beta is the cheapest atom sum reaching 1 - eps
        assert dv.d_h(0.3, p, p) == pytest.approx(-math.log2(0.75))


class TestDsPlus:
    def test_atom_quantile(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.3, 0.7])
        # log ratios: (1, -0.807); exceedance above 1 is 0 < eps
        assert dv.d_s_plus(0.3, p, q) == pytest.approx(1.0)

    def test_clamps_at_zero(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.5, 0.5])
        # highest ratio is 1.6 with mass 0.8 > eps, so the infimum sits
        # at its log; with eps above 0.8 the zero clamp takes over
        assert dv.d_s_plus(0.5, p, q) == pytest.approx(math.log2(1.6))
        assert dv.d_s_plus(0.9, p, q) == 0.0

    def test_eps_zero_infinite(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.4, 0.6])
        assert dv.d_s_plus(0.0, p, q) == math.inf

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError):
            dv.d_s_plus(math.nan, np.array([0.5, 0.5]), np.array([0.4, 0.6]))

    def test_null_mass_infinite(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert dv.d_s_plus(0.3, p, q) == math.inf
        assert dv.d_s_plus(0.6, p, q) < math.inf

    def test_strict_exceedance_oracle(self):
        # ties, zero p entries and q-null mass, and eps up to and past 1
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = _rough_simplex(rng, n, int(rng.integers(3)))
            q = _rough_simplex(rng, n, int(rng.integers(3)))
            if q.sum() == 0.0 or p.sum() == 0.0:
                continue
            for eps in SPECTRUM_EPS + (float(rng.uniform(0.05, 0.9)),):
                a = dv.d_s_plus(eps, p, q)
                with np.errstate(divide="ignore"):
                    ratios = np.log2(np.where(
                        q > 0, p / np.where(q > 0, q, 1.0), math.inf))
                if not math.isfinite(a):
                    # only mass outside supp(q) can defeat every threshold
                    assert p[q == 0.0].sum() >= eps - 1e-12
                    continue
                exceed = p[ratios > a + 1e-12].sum()
                assert exceed < eps + 1e-12
                if a > 0.0:
                    # just below the infimum the exceedance must reach eps
                    below = p[ratios > a - 1e-9].sum()
                    assert below >= eps - 1e-9

    def test_batch_kernel_matches_d_s_plus(self):
        # one call over many references gives d_s_plus at each, bit for bit
        rng = np.random.default_rng(59)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            p = _rough_simplex(rng, n, int(rng.integers(3)))
            refs = np.array([_rough_simplex(rng, n, int(rng.integers(3)))
                             for _ in range(8)])
            refs = refs[refs.sum(axis=1) > 0.0]
            if p.sum() == 0.0 or refs.size == 0:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                log_ratio = np.log2(p / refs)
            log_ratio[np.isnan(log_ratio)] = -math.inf
            for eps in SPECTRUM_EPS:
                got = dv._spectrum(p, log_ratio, eps)
                want = [dv.d_s_plus(eps, p, r) for r in refs]
                assert got.tolist() == want


class TestDmaxSmooth:
    def test_at_most_unsmoothed(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            p = _simplex(rng, 4)
            q = _simplex(rng, 4, floor=0.05)
            eps = float(rng.uniform(0.05, 0.5))
            assert dv.d_max_smooth(eps, p, q) <= dv.d_max(p, q) + 1e-9

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(67)
        p = _simplex(rng, 5)
        q = _simplex(rng, 5, floor=0.05)
        vals = [dv.d_max_smooth(e, p, q) for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_null_mass_gate(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert dv.d_max_smooth(0.3, p, q) == math.inf
        assert dv.d_max_smooth(0.6, p, q) == pytest.approx(0.0, abs=1e-9)

    def test_witness_feasibility_via_value(self):
        # the LP value must be achievable by an explicit eps-close pmf:
        # reconstruct one from the optimal cap and verify both properties
        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.3, 0.3, 0.4])
        eps = 0.2
        val = dv.d_max_smooth(eps, p, q)
        cap = 2.0 ** val * q
        clipped = np.minimum(p, cap)
        # the LP guarantees the clipped mass deficit is within eps and
        # redistributable under the same cap
        deficit = 1.0 - clipped.sum()
        assert deficit <= eps + 1e-9
        room = (cap - clipped).sum()
        assert room >= deficit - 1e-9


    def test_closed_form_matches_lp(self):
        # 320 pairs of 2-40 letters: plain Dirichlet pairs, q with zero
        # letters (infinite once the p-mass outside supp q exceeds eps),
        # pairs on multiples of 1/8 (tied ratios), a q with two tied
        # letters, and eps = 0 or the outside mass exactly.
        rng = np.random.default_rng(83)
        kinds = {"plain": 0, "zeros": 0, "ties": 0, "eps0": 0, "edge": 0}
        infinite = 0
        for i in range(320):
            n = int(rng.integers(2, 41))
            p = rng.dirichlet(np.ones(n) * rng.choice([1.0, 3.0]))
            q = rng.dirichlet(np.ones(n) * rng.choice([1.0, 3.0]))
            eps = float(rng.uniform(0.0, 0.5))
            kind = ("plain", "zeros", "ties", "eps0", "edge")[i % 5]
            if kind in ("zeros", "edge"):
                dead = rng.random(n) < 0.3
                dead[rng.integers(n)] = False
                q = np.where(dead, 0.0, q)
                q /= q.sum()
                if kind == "edge":
                    eps = float(p[dead].sum())
            elif kind == "ties":
                p = _rough_simplex(rng, n, 0)
                q = _rough_simplex(rng, n, int(rng.integers(2)) + 1)
                while not q.any():
                    q = _rough_simplex(rng, n, 1)
            elif kind == "eps0":
                eps = 0.0
            got = dv.d_max_smooth(eps, p, q)
            want = dv._d_max_smooth_lp(eps, p, q)
            kinds[kind] += 1
            if math.isinf(want) or math.isinf(got):
                assert got == want, (i, kind)
                infinite += 1
            else:
                assert got == pytest.approx(want, abs=1e-9), (i, kind)
            if kind == "edge":
                assert math.isfinite(got)
        assert min(kinds.values()) == 64 and 0 < infinite < 64

    def test_closed_form_matches_exact_rationals(self):
        # Dirichlet(0.3) pairs put q entries near 1e-9, where the LP
        # reference can fail outright. The oracle works on the exact values
        # of the double inputs: lam* is the least breakpoint or segment
        # root at which the removed mass out + sum (p - lam q)_+ is <= eps.
        # From eps = 1/2 on, the closed form reads p(S) - eps from the
        # mass outside S, so those eps check that reading too.
        from fractions import Fraction

        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(2, 20))
            p = rng.dirichlet(np.full(n, 0.3))
            q = rng.dirichlet(np.full(n, 0.3))
            pf = [Fraction(v) for v in p]
            qf = [Fraction(v) for v in q]
            out = sum((a for a, b in zip(pf, qf) if b == 0), Fraction(0))

            def removed(lam):
                return out + sum((max(a - lam * b, 0) for a, b in
                                  zip(pf, qf) if b > 0), Fraction(0))

            ratios = [a / b for a, b in zip(pf, qf) if b > 0]
            for eps in (float(rng.choice([0.0, rng.uniform(0.0, 0.5)])),
                        0.5, 0.75, 0.999999, 1.0 - 2.0 ** -40):
                ef = Fraction(eps)
                cands = ratios + [
                    (out + sum(a for a, b in zip(pf, qf) if b > 0
                               and a >= r * b) - ef)
                    / sum(b for a, b in zip(pf, qf) if b > 0 and a >= r * b)
                    for r in ratios]
                feasible = [c for c in cands if c >= 0 and removed(c) <= ef]
                got = dv.d_max_smooth(eps, p, q)
                if out > ef:
                    assert got == math.inf
                else:
                    want = math.log2(max(min(feasible), 1))
                    assert got == pytest.approx(want, abs=1e-12)

    def test_closed_form_keeps_exactly_one_minus_eps(self):
        # Above zero bits the optimum sits where the kept mass
        # sum min(p, lam q) reaches 1 - eps, for any order of tied ratios.
        rng = np.random.default_rng(89)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            p = _rough_simplex(rng, n, int(rng.integers(3)))
            q = _rough_simplex(rng, n, int(rng.integers(3)))
            eps = float(rng.uniform(0.0, 0.4))
            val = dv.d_max_smooth(eps, p, q)
            outside = p[q == 0.0].sum()
            assert math.isinf(val) == (outside > eps)
            if math.isfinite(val) and val > 0.0:
                kept = np.minimum(p, 2.0 ** val * q).sum()
                assert kept == pytest.approx(1.0 - eps, abs=1e-12)
            perm = rng.permutation(n)
            assert dv.d_max_smooth(eps, p[perm], q[perm]) == \
                pytest.approx(val, abs=1e-12)

    def test_eps_zero_is_d_max(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            p = _rough_simplex(rng, n, int(rng.integers(3)))
            q = _simplex(rng, n, floor=0.01)
            assert dv.d_max_smooth(0.0, p, q) == \
                pytest.approx(max(dv.d_max(p, q), 0.0), abs=1e-12)


@settings(max_examples=60)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.floats(0.05, 0.45), st.floats(0.02, 0.25))
def test_quantile_sandwich_property(a, b, eps, delta):
    """D_s+ at 1-eps lower-bounds D_h at eps; a delta shift upper-bounds."""
    p = np.array(a) / sum(a)
    q = np.array(b) / sum(b)
    dh = dv.d_h(eps, p, q)
    lo = dv.d_s_plus(1.0 - eps, p, q)
    hi = dv.d_s_plus(1.0 - eps - delta, p, q) - math.log2(delta)
    assert lo - 1e-9 <= dh <= hi + 1e-9


@settings(max_examples=60)
@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.floats(0.05, 0.45), st.floats(0.02, 0.25))
def test_smooth_dmax_lower_bound_property(a, b, eps, delta):
    """Smoothed max divergence dominates the shifted testing bound."""
    p = np.array(a) / sum(a)
    q = np.array(b) / sum(b)
    lhs = dv.d_max_smooth(eps, p, q)
    beta = dv.beta_star(1.0 - eps - delta, p, q)
    rhs = -math.log2(beta) + math.log2(delta)
    assert lhs >= rhs - 1e-9
