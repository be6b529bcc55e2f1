import math

import numpy as np
import pytest

from recontree.kernel import (
    Params,
    RawParams,
    _denominator,
    _p1_gap,
    _ratio_log_c,
    p0,
    p1,
    prob_n_given_age,
    transform_params,
)


class TestTransform:
    def test_identity_case(self):
        p = transform_params(RawParams(1.0, 0.0, 1.0))
        assert p.lam == 1.0 and p.mu == 0.0

    def test_negative_mu(self):
        p = transform_params(RawParams(2.0, 0.5, 0.5))
        assert p.lam == 1.0
        assert p.mu == -0.5

    def test_critical_boundary(self):
        p = transform_params(RawParams(1.0, 1.0, 1.0))
        assert p.lam == 1.0 and p.mu == 1.0
        assert p.is_critical

    @pytest.mark.parametrize(
        "lh,mh,f",
        [(-1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 2.0, 1.0),
         (1.0, 0.5, 0.0), (1.0, 0.5, 1.5)],
    )
    def test_rejects_bad_raw(self, lh, mh, f):
        with pytest.raises(ValueError):
            RawParams(lh, mh, f)

    @pytest.mark.parametrize("make", [
        lambda: Params(math.inf, 0.0), lambda: Params(math.nan, 0.0),
        lambda: Params(1.0, math.nan), lambda: Params(1.0, -math.inf),
        lambda: RawParams(math.inf, 0.0), lambda: RawParams(math.nan, 0.0),
        lambda: RawParams(1.0, math.nan), lambda: RawParams(1.0, 0.0, math.nan),
    ])
    def test_rejects_non_finite_rates(self, make):
        # RawParams(inf, 0) was accepted, and transformed to Params(inf, nan)
        with pytest.raises(ValueError, match="finite|must lie in"):
            make()

    def test_rejects_mu_above_lam(self):
        with pytest.raises(ValueError, match="mu must be <= lam, got mu=2.0 lam=1.0"):
            Params(1.0, 2.0)

    # at mu_hat = lambda_hat and f < 1, mu_hat - lambda_hat (1 - f) rounded one
    # ulp past f lambda_hat at 13 of these 48 points, and Params refused them
    @pytest.mark.parametrize("lh", [0.1, 0.3, 1.0, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("f", [0.01, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_critical_raw_rates_stay_critical(self, lh, f):
        p = transform_params(RawParams(lh, lh, f))
        assert p.lam == f * lh and p.mu <= p.lam and p.is_critical

    def test_mu_never_exceeds_lam(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lh = rng.uniform(0.1, 5.0)
            mh = rng.uniform(0.0, lh)
            f = rng.uniform(0.01, 1.0)
            p = transform_params(RawParams(lh, mh, f))
            assert p.mu <= p.lam


class TestKernels:
    def test_p0_yule(self):
        p = Params(1.0, 0.0)
        assert p0(math.log(2), p) == pytest.approx(0.5, abs=1e-15)

    def test_p0_critical(self):
        p = Params(1.0, 1.0)
        assert p0(1.0, p) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_p1_critical_tends_to_zero_without_overflow(self):
        p = Params(1.0, 1.0)
        s = np.array([1e150, 1e154, 1.3e154, 1.4e154, 1e200, 1.7e308])
        h = 1.0 + s
        assert p1(s, p).tolist() == [1.0 / (x * x) for x in h[:3]] + [0.0, 0.0, 0.0]
        assert p1(np.float64(1e200), p) == 0.0

    def test_p0_critical_past_the_float_range_is_1_over_lam(self):
        # 1 + lam s is inf at lam = 1e100, s = 1e300: s / (1 + lam s) read 0
        p = Params(1e100, 1e100)
        assert p0(1e300, p) == 1.0 / p.lam
        with np.errstate(over="ignore"):  # numpy's lam * s warns as it overflows
            assert p0(np.array([1e300, 1.7e308]), p).tolist() == [1.0 / p.lam] * 2
        # wherever 1 + lam s is finite, p0 keeps its bits
        for p, top in ((p, 1e208), (Params(1.0, 1.0), 1.7e308)):
            s = np.geomspace(1e-300, top, 301)
            want = s / (1.0 + p.lam * s)
            assert np.array_equal(p0(s, p), want)
            assert [p0(x, p) for x in s.tolist()] == want.tolist()

    def test_p0_near_critical_matches_subcritical_branch(self):
        # just past the critical threshold, mu = 1 - 2e-8: 50-digit evaluation
        # of the subcritical branch gives 0.50000000250000000285; the
        # critical branch returns 0.5, 5e-9 away
        p = Params(1.0, 1.0 - 2e-8)
        assert not p.is_critical
        assert p0(1.0, p) == pytest.approx(0.50000000250000000285, rel=1e-14, abs=0.0)
        crit = Params(1.0, 1.0)
        assert abs(p0(1.0, p) - p0(1.0, crit)) < 1e-8

    def test_regime_continuity(self):
        # |p0_subcritical - p0_critical| -> 0 as mu -> lam; just past the
        # threshold the branches differ by at most 1.5e-8 relative here
        for s in (0.1, 1.0, 3.0):
            sub = Params(1.0, 1.0 - 2e-8)  # just past the critical threshold
            crit = Params(1.0, 1.0)
            assert p0(s, sub) == pytest.approx(p0(s, crit), rel=3e-8)
            assert p1(s, sub) == pytest.approx(p1(s, crit), rel=3e-8)

    @pytest.mark.parametrize("lam", [1.0, 3.0])
    @pytest.mark.parametrize("s", [0.1, 1.0, 3.0])
    def test_near_critical_against_50_digits(self, lam, s):
        # lam - mu e^{-ds} cancels as mu nears lam unless it is formed as
        # d + mu (1 - e^{-ds}); formed directly, p0, p1 and r lost ~1e-8
        mpmath = pytest.importorskip("mpmath")
        p = Params(lam, lam * (1.0 - 2e-8))
        assert not p.is_critical
        with mpmath.workdps(50):
            l, m = mpmath.mpf(p.lam), mpmath.mpf(p.mu)
            e = mpmath.exp(-(l - m) * s)
            want0 = (1 - e) / (l - m * e)
            want1 = (l - m) ** 2 * e / (l - m * e) ** 2
        assert p0(s, p) == pytest.approx(float(want0), rel=1e-14, abs=0.0)
        assert p1(s, p) == pytest.approx(float(want1), rel=1e-14, abs=0.0)
        assert _ratio_log_c(s, p)[0] == pytest.approx(float(l * want0), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 0.3, 3.0])
    def test_p1_gap_bit_identical_to_rate_form(self, lam):
        # the gap scales d and D(end) by a power of two near 1/lam, which only
        # moves their exponents: where nothing underflows, (p1, gap) equal
        # those of the unscaled formula, with D formed as the kernel forms it,
        # bit for bit, and no law value or golden moves
        def rate_form(s, end, p):
            if p.is_critical:
                h = 1.0 + p.lam * s
                gap = 1.0 / p.lam if end == math.inf else (end - s) / (1.0 + p.lam * end)
                return 1.0 / (h * h), gap / h
            d = p.lam - p.mu
            e = np.exp(-d * s)
            ds = _denominator(-np.expm1(-d * s), -d * s, p)
            dend = _denominator(-math.expm1(-d * end), -d * end, p)
            far = 1.0 if end == math.inf else -np.expm1(-d * (end - s))
            return d * d * e / (ds * ds), d * e * far / (ds * dend)

        for ratio in (-3.0, -0.5, -1e-9, 0.0, 0.5, 0.9, 1.0 - 1e-7, 1.0):
            p = Params(lam, ratio * lam)
            for end in (1e-9 / lam, 0.01 / lam, 1.0 / lam, 3.7 / lam, 40.0 / lam, math.inf):
                for s in (np.linspace(0.0, min(end, 50.0 / lam), 101), 0.3 * min(end, 1.0)):
                    got, want = _p1_gap(s, end, p), rate_form(s, end, p)
                    for a, b in zip(got, want):
                        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (ratio, end)

    def test_p1_examples(self):
        assert p1(0.0, Params(1.0, 0.3)) == 1.0
        assert p1(1.0, Params(1.0, 1.0)) == 0.25
        assert p1(math.log(2), Params(1.0, 0.0)) == pytest.approx(0.5)

    def test_yule_specialization_exact(self):
        p = Params(1.3, 0.0)
        s = np.linspace(0.01, 4.0, 25)
        assert np.allclose(p0(s, p), (1 - np.exp(-1.3 * s)) / 1.3, rtol=1e-14)
        assert np.allclose(p1(s, p), np.exp(-1.3 * s), rtol=1e-14)

    @pytest.mark.parametrize("mu", [-0.5, 0.0, 0.4, 0.999, 1.0])
    def test_bounds_and_monotonicity(self, mu):
        p = Params(1.0, mu)
        s = np.linspace(0.01, 8.0, 100)
        v0 = p0(s, p)
        v1 = p1(s, p)
        assert np.all((p.lam * v0 > 0) & (p.lam * v0 < 1))
        assert np.all((v1 > 0) & (v1 <= 1))
        assert np.all(np.diff(v0) > 0)
        assert np.all(np.diff(v1) < 0)

    def test_p1_identity(self):
        # 1 - mu*p0 = (lam-mu)/(lam - mu e^{-(lam-mu)s})
        p = Params(1.0, 0.6)
        for s in (0.2, 1.0, 3.0):
            lhs = 1 - p.mu * p0(s, p)
            rhs = (p.lam - p.mu) / (p.lam - p.mu * math.exp(-(p.lam - p.mu) * s))
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            p0(-0.1, Params(1.0, 0.0))

    @pytest.mark.parametrize("kernel", [p0, p1])
    @pytest.mark.parametrize(
        "s", [-0.1, np.float64(-0.1), -1, np.array([0.5, -0.1])],
        ids=["float", "float64", "int", "array"],
    )
    def test_negative_time_raises_for_every_input_type(self, kernel, s):
        for p in (Params(1.0, 0.0), Params(1.0, 0.5), Params(1.0, 1.0)):
            with pytest.raises(ValueError, match="s must be >= 0"):
                kernel(s, p)

    def test_regime_flags_leave_equality_alone(self):
        p = Params(1.0, 0.5)
        assert not p.is_critical and not p.is_yule
        assert p == Params(1.0, 0.5) and hash(p) == hash(Params(1.0, 0.5))
        assert repr(p) == repr(Params(1.0, 0.5))


class TestLargeNegativeMu:
    # D(s) = lam - mu e^{-ds} formed as d + mu (1 - e^{-ds}) cancels once
    # -mu >> lam: at (1, -1e20) p0 divided by zero and _ratio_log_c raised
    # ZeroDivisionError; lam + |mu| e^{-ds} has no cancellation
    @pytest.mark.parametrize("lam, mu", [(1.0, -1e20), (1e-100, -1e60), (1.0, -0.5)])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 3.0, 40.0, None])
    def test_against_50_digits(self, lam, mu, t):
        mpmath = pytest.importorskip("mpmath")
        p = Params(lam, mu)
        s = 1.0 if t is None else t / (lam - mu)  # t in units of the scale 1/d
        with mpmath.workdps(50):
            l, m = mpmath.mpf(lam), mpmath.mpf(mu)

            def want0(x):
                e = mpmath.exp(-(l - m) * x)
                return (1 - e) / (l - m * e)

            e = mpmath.exp(-(l - m) * s)
            want = [float(want0(s)), float((l - m) ** 2 * e / (l - m * e) ** 2)]
            gaps = [(end, float((1 / l if end == math.inf else want0(end)) - want0(s)))
                    for end in (2.0 * s, math.inf)]
            want_r = float(l * want0(s))
            want_c = float((l - m) * e / (l - m * e))  # c = 1 - r, from the rates
        # a RuntimeWarning fails the test, as every warning does here
        assert [p0(s, p), p1(s, p)] == pytest.approx(want, rel=1e-14, abs=0.0)
        for end, gap in gaps:
            assert _p1_gap(s, end, p)[1] == pytest.approx(gap, rel=1e-14, abs=0.0)
        r, log_c = _ratio_log_c(s, p)
        assert r == pytest.approx(want_r, rel=1e-14, abs=0.0)
        assert math.exp(log_c) == pytest.approx(want_c, rel=1e-14, abs=0.0)


class TestLogC:
    """log c with c = 1 - r, r = lam p0(x1), against 50 digits."""

    @staticmethod
    def _want(lam, mu, x1):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            l, m = mpmath.mpf(lam), mpmath.mpf(mu)
            em = -mpmath.expm1(-(l - m) * x1)
            return float(mpmath.log1p(-l * em / ((l - m) + m * em)))

    # log(lam-mu) - (lam-mu) x1 - log(D(x1)) cancels near c = 1: these lost
    # 1.0, 2.2e-14, 9.5e-11 and 7.8e-14 relative
    @pytest.mark.parametrize("lam, mu, x1", [(1.0, -1e20, 1e-23), (1.0, -0.5, 6.7e-4),
                                             (1.0, 0.999999, 1e-6), (1.0, 0.5, 1e-3)])
    def test_near_c_1(self, lam, mu, x1):
        want = self._want(lam, mu, x1)
        assert _ratio_log_c(x1, Params(lam, mu))[1] == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("lam, mu", [(1.0, 0.0), (1.0, 0.5), (1.0, -0.5), (1.0, 0.999999),
                                         (1e-4, 5e-5), (1e4, -1e4)])
    def test_sweep_up_to_r_one_half(self, lam, mu):
        p = Params(lam, mu)
        half = math.log((2.0 * lam - mu) / lam) / (lam - mu)  # the x1 of r = 1/2
        rs = []
        x1s = [*np.geomspace(1e-300 / lam, half, 200), *np.linspace(half / 2, half, 50)]
        for x1 in map(float, x1s):
            r, log_c = _ratio_log_c(x1, p)
            if r <= 0.5:
                rs.append(r)
                assert log_c == pytest.approx(self._want(lam, mu, x1), rel=1e-15, abs=0)
        assert min(rs) < 1e-299 and max(rs) > 0.49

    @pytest.mark.parametrize("lam, mu", [(1.0, 0.0), (1.0, 0.5), (1.0, -0.5), (1.0, 0.999999)])
    def test_bits_kept_above_r_one_half(self, lam, mu):
        # above 1/2 log c keeps its expression from the rates, bit for bit
        p = Params(lam, mu)
        d = lam - mu
        half = math.log((2.0 * lam - mu) / lam) / d
        for x1 in np.linspace(half * (1 + 1e-12), 1.5 * half, 50).tolist():
            y = -d * x1
            r, log_c = _ratio_log_c(x1, p)
            assert r > 0.5
            assert log_c == math.log(d) + y - math.log(_denominator(-math.expm1(y), y, p))


# (lam - mu)/lam inside the old critical band |lam - mu| <= 1e-8 lam, where the
# kernels dropped (lam - mu) s and erred the more the older the tree (at lam = 1e3,
# 9.9e-9 and lam s = 1e8, p1 was 8% off and the gap 71%); they branch on mu == lam
# alone now, and their rate forms are exact for any lam - mu > 0
BAND = (1e-15, 1e-12, 9.9e-9)


class TestCriticalBand:
    @pytest.mark.parametrize("rel", BAND)
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    def test_kernels_against_50_digits(self, lam, rel):
        mpmath = pytest.importorskip("mpmath")
        p = Params(lam, lam * (1.0 - rel))
        for ls in (1.0, 1e4, 1e8):
            s = ls / lam
            with mpmath.workdps(50):
                l, m = mpmath.mpf(p.lam), mpmath.mpf(p.mu)
                d = l - m
                mp0 = lambda t: -mpmath.expm1(-d * t) / (l - m * mpmath.exp(-d * t))
                want = [mp0(s), d * d * mpmath.exp(-d * s) / (l - m * mpmath.exp(-d * s)) ** 2,
                        1 / l - mp0(s), mp0(2 * s) - mp0(s), mpmath.log(1 - l * mp0(s))]
            got = [p0(s, p), p1(s, p), _p1_gap(s, math.inf, p)[1], _p1_gap(s, 2 * s, p)[1],
                   _ratio_log_c(s, p)[1]]
            for name, g, w in zip(("p0", "p1", "gap to inf", "gap to 2s", "log c"), got, want):
                assert abs(g - float(w)) <= 1e-12 * abs(float(w)), (name, ls)

    @pytest.mark.parametrize("x1", [1e4, 1e8])
    def test_prob_n_given_age_against_50_digits(self, x1):
        # it was 9.9e-5 off relative at x1 = 1e4, and 2.9 times the value at 1e8
        mpmath = pytest.importorskip("mpmath")
        p = Params(1.0, 1.0 - 9.9e-9)
        with mpmath.workdps(50):
            lam, mu = mpmath.mpf(p.lam), mpmath.mpf(p.mu)
            e = mpmath.exp(-(lam - mu) * x1)
            r = lam * (1 - e) / (lam - mu * e)
            want = float(4 * (1 - r) ** 2 * r ** 3)
        assert abs(prob_n_given_age(5, x1, p) - want) <= 1e-12 * want

class TestProbNGivenAge:
    def test_n2_yule(self):
        p = Params(1.0, 0.0)
        # p1^2 = 0.25 at x1 = ln 2, denominator 1
        assert prob_n_given_age(2, math.log(2), p) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "lam,mu,x1",
        [(1.0, 0.5, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.5),
         (1.0, -0.5, 1.0), (2.0, 1.9, 0.7)],
    )
    def test_sums_to_one(self, lam, mu, x1):
        p = Params(lam, mu)
        total = sum(prob_n_given_age(n, x1, p) for n in range(2, 2001))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("x1", [30.0, 70.0])
    def test_large_age_against_50_digits(self, x1):
        # 1 - r is below 1e-8 here; taken by subtraction it lost 4e-9 relative
        # at x1 = 30 and rounded to 0 at x1 = 70
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            lam, mu = mpmath.mpf(1.0), mpmath.mpf(0.4)
            e = mpmath.exp(-(lam - mu) * x1)
            r = lam * (1 - e) / (lam - mu * e)
            want = 4 * (1 - r) ** 2 * r ** 3
            got = prob_n_given_age(5, x1, Params(1.0, 0.4))
            assert abs(got - want) < 1e-12 * want

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            prob_n_given_age(1, 1.0, Params(1.0, 0.0))

    @pytest.mark.parametrize("mu, x1", [(0.0, 1.5), (0.4, 1.5), (1.0, 1.5), (-0.5, 1.5),
                                        (0.4, 1e-3), (0.4, 40.0)],
                             ids=["yule", "mu=0.4", "critical", "mu=-0.5", "r<0.25", "r~1"])
    def test_array_n_bit_identical_to_scalar(self, mu, x1):
        # the array's r^(n-2) are Python float powers: numpy's power can
        # differ from libm's in the last bit, depending on the host
        p = Params(1.0, mu)
        got = prob_n_given_age(np.arange(2, 2001), x1, p)
        assert got.tolist() == [prob_n_given_age(n, x1, p) for n in range(2, 2001)]

    def test_array_n_below_2_raises_the_scalar_message(self):
        p = Params(1.0, 0.0)
        with pytest.raises(ValueError) as scalar:
            prob_n_given_age(1, 1.0, p)
        with pytest.raises(ValueError) as array:
            prob_n_given_age(np.array([3, 1, 2]), 1.0, p)
        assert str(array.value) == str(scalar.value) == "n must be >= 2, got 1"
