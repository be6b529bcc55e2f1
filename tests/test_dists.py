import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from recontree import dists, kernel, mc
from recontree.dists import MixedDist
from recontree.kernel import Params, RawParams, prob_n_given_age, transform_params


YULE = Params(1.0, 0.0)
SUB = Params(1.0, 0.5)
CRIT = Params(1.0, 1.0)
NEG = Params(1.0, -0.5)
REGIMES = [YULE, SUB, CRIT, NEG]

# the pendant mean given x1 = 1e8 at lam = 1, mu = 0.9999999901, inside the old
# critical band |lam - mu| <= 1e-8 lam: a 50-digit quadrature of its survival
# (TestPendantGivenAge); CI holds `recontree expect` to it
BAND_MEAN_GIVEN_AGE = 1.0000001375887037


def _mp_kernels(p):
    """p0 and p1 in mpmath, evaluated at the caller's working precision."""
    mpmath = pytest.importorskip("mpmath")
    lam, mu = mpmath.mpf(p.lam), mpmath.mpf(p.mu)
    if p.mu == p.lam:
        return (lambda t: t / (1 + lam * t)), (lambda t: 1 / (1 + lam * t) ** 2)
    e = lambda t: mpmath.exp(-(lam - mu) * t)
    return ((lambda t: -mpmath.expm1(-(lam - mu) * t) / (lam - mu * e(t))),
            (lambda t: (lam - mu) ** 2 * e(t) / (lam - mu * e(t)) ** 2))


def _mp_mean(law_pdf, x1, atom):
    """atom x1 plus the integral of s pdf(s) over (0, x1), at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x1 = mpmath.mpf(x1)
        return float(mpmath.quad(lambda s: s * law_pdf(s), [0, x1]) + atom(x1) * x1)


def test_mixed_dist_rejects_bad_atom():
    f = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    with pytest.raises(ValueError):
        MixedDist(support_end=1.0, pdf=f, cdf=f, atom_weight=1.5)


class TestLeafAdjacency:
    def test_against_coalescent_product(self):
        # backward in time the lineage count drops from k+1 to k at the k-th
        # split; a given leaf joins there with prob 2/(k+1) once it has
        # escaped all more recent merges
        def oracle(k, n):
            p = 2.0 / (k + 1)
            for m in range(k + 2, n + 1):
                p *= 1.0 - 2.0 / m
            return p

        for n in range(2, 12):
            for k in range(1, n):
                assert dists.leaf_adjacency_prob(k, n) == pytest.approx(
                    oracle(k, n), rel=1e-12
                )

    def test_known_value(self):
        assert dists.leaf_adjacency_prob(3, 4) == 0.5

    def test_sums_to_one(self):
        for n in (2, 5, 40):
            total = sum(dists.leaf_adjacency_prob(k, n) for k in range(1, n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dists.leaf_adjacency_prob(0, 4)
        with pytest.raises(ValueError):
            dists.leaf_adjacency_prob(4, 4)


class TestPendantGivenN:
    @pytest.mark.parametrize("p", REGIMES, ids=lambda p: f"mu={p.mu}")
    def test_cdf_matches_quadrature(self, p):
        law = dists.pendant_dist_given_n(p)
        for s in (0.3, 1.0, 2.5):
            val, _ = quad(law.pdf, 0, s)
            assert law.cdf(s) == pytest.approx(val, abs=1e-10)

    def test_yule_is_exp2(self):
        s = np.linspace(0.1, 3.0, 17)
        assert np.allclose(
            dists.pendant_dist_given_n(YULE).pdf(s), 2.0 * np.exp(-2.0 * s), rtol=1e-13
        )

    @pytest.mark.parametrize("mu", [0.0, 0.5, -0.5, 0.9, 1.0])
    def test_pdf_tail_against_80_digits(self, mu):
        # 1 - lam p0(s) cancels in the tail; formed directly it lost 1.7e-4
        # relative at Yule, s = 30, and gave 0.0 at s = 40
        mpmath = pytest.importorskip("mpmath")
        p = Params(1.0, mu)
        law = dists.pendant_dist_given_n(p)
        p0, p1 = _mp_kernels(p)
        for s in (0.001, 0.5, 5.0, 20.0, 40.0):
            with mpmath.workdps(80):
                t = mpmath.mpf(s)
                want = float(2 * p.lam * p1(t) * (1 - p.lam * p0(t)))
            assert abs(law.pdf(s) - want) <= 1e-13 * want, s

    def test_mean_frozen_value(self):
        # 50-digit reference for (lam, mu) = (1, 0.5)
        assert dists.pendant_mean_given_n(SUB) == pytest.approx(
            0.6137056388801094, rel=1e-12
        )

    def test_mean_limits(self):
        assert dists.pendant_mean_given_n(YULE) == pytest.approx(0.5, rel=1e-12)
        assert dists.pendant_mean_given_n(CRIT) == pytest.approx(1.0, rel=1e-12)
        for lam in (0.3, 1.0, 7.0):
            assert dists.pendant_mean_given_n(Params(lam, lam)) == 1.0 / lam

    @pytest.mark.parametrize("p", [SUB, NEG, Params(1.0, 1e-5), Params(2.0, 1.0)],
                             ids=lambda p: f"lam={p.lam},mu={p.mu}")
    def test_mean_matches_quadrature(self, p):
        q = dists.pendant_dist_given_n(p).mean()
        assert dists.pendant_mean_given_n(p) == pytest.approx(q, rel=1e-8)

    def test_closed_form_branch_matches_series(self):
        # at the series/closed-form switch |mu/lam| = 0.25 the closed form
        # cancels about 3 bits; both sides agree with the full series
        for mu in (0.25, -0.25, 0.2499999, -0.2499999):
            closed = dists.pendant_mean_given_n(Params(1.0, mu))
            series = math.fsum(mu ** (k - 2) / (k * (k - 1)) for k in range(2, 80))
            assert closed == pytest.approx(series, rel=2e-15, abs=0.0), mu

    @pytest.mark.parametrize("mu", [1.0001e-4, -1.0001e-4, 1e-9, 0.3, 0.999, -3.0])
    def test_mean_against_60_digits(self, mu):
        # just past a 1e-4 cut to a closed form the mean was 7.8e-9 (mu > 0)
        # and 1.4e-8 (mu < 0) off
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            r = mpmath.mpf(mu)
            want = float((r + (1 - r) * mpmath.log(1 - r)) / (r * r))
        got = dists.pendant_mean_given_n(Params(1.0, mu))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestInteriorYule:
    def test_exp_rate(self):
        d = dists.interior_dist_yule(1.5)
        assert d.pdf(0.0) == pytest.approx(3.0)
        assert d.cdf(np.log(2) / 3.0) == pytest.approx(0.5)

    def test_rejects_extinction(self):
        with pytest.raises(ValueError):
            dists.interior_dist_yule(SUB)
        with pytest.raises(ValueError):
            dists.interior_dist_yule(0.0)


class TestSpeciationTimes:
    @pytest.mark.parametrize("p", REGIMES, ids=lambda p: f"mu={p.mu}")
    def test_kernel_derivative(self, p):
        # dG/ds = g, checked by central difference
        x1, h = 2.0, 1e-6
        for s in (0.2, 1.0, 1.7):
            _, G_plus = dists.speciation_kernel(s + h, x1, p)
            _, G_minus = dists.speciation_kernel(s - h, x1, p)
            g, _ = dists.speciation_kernel(s, x1, p)
            assert (G_plus - G_minus) / (2 * h) == pytest.approx(g, rel=1e-7)

    def test_kernel_boundaries(self):
        g0, G0 = dists.speciation_kernel(0.0, 2.0, SUB)
        _, G1 = dists.speciation_kernel(2.0, 2.0, SUB)
        assert G0 == 0.0 and G1 == pytest.approx(1.0)
        with pytest.raises(ValueError):
            dists.speciation_kernel(2.1, 2.0, SUB)

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (5, 6), (2, 3)])
    def test_cdf_matches_quadrature(self, k, n):
        x1, p = 2.0, SUB
        for s in (0.5, 1.2):
            val, _ = quad(
                lambda u: dists.speciation_time_pdf(u, k, n, x1, p), 0, s
            )
            assert dists.speciation_time_cdf(s, k, n, x1, p) == pytest.approx(
                val, abs=1e-9
            )

    def test_densities_sum_to_uniform_order_stats(self):
        # averaging over k recovers (n-2) copies of the base kernel g
        n, x1, p = 6, 2.0, SUB
        for s in (0.4, 1.5):
            g, _ = dists.speciation_kernel(s, x1, p)
            total = sum(
                dists.speciation_time_pdf(s, k, n, x1, p) for k in range(2, n)
            )
            assert total == pytest.approx((n - 2) * g, rel=1e-10)

    @pytest.mark.parametrize("k,n", [(550, 1100), (1000, 2000), (50_000, 100_000)])
    def test_pdf_finite_for_large_n(self, k, n):
        # (n-2) C(n-3, k-2) alone exceeds the float range at each of these
        s = np.linspace(0.0, 2.0, 41)
        pdf = dists.speciation_time_pdf(s, k, n, 2.0, SUB)
        assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            dists.speciation_time_pdf(0.5, 1, 5, 2.0, SUB)
        with pytest.raises(ValueError):
            dists.speciation_time_pdf(0.5, 5, 5, 2.0, SUB)


class TestPendantGivenNAge:
    @pytest.mark.parametrize("p", REGIMES, ids=lambda p: f"mu={p.mu}")
    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_total_mass(self, p, n):
        d = dists.pendant_dist_given_n_age(n, 2.0, p)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_atom_weight(self):
        assert dists.pendant_dist_given_n_age(5, 2.0, SUB).atom_weight == 0.1

    def test_n2_is_pure_atom(self):
        d = dists.pendant_dist_given_n_age(2, 1.5, SUB)
        assert d.atom_weight == 1.0
        assert d.pdf(np.array([0.5, 1.0])).tolist() == [0.0, 0.0]

    def test_cdf_matches_quadrature(self):
        d = dists.pendant_dist_given_n_age(6, 2.0, SUB)
        for s in (0.5, 1.5):
            val, _ = quad(d.pdf, 0, s)
            assert d.cdf(s) == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize(
        "n,x1,p",
        [(5, 2.0, SUB), (3, 1.0, SUB), (5, 2.0, CRIT), (8, 0.7, NEG),
         (4, 1.5, YULE)],
        ids=["sub", "sub-n3", "crit", "neg", "yule"],
    )
    def test_mean_matches_quadrature(self, n, x1, p):
        closed = dists.pendant_mean_given_n_age(n, x1, p)
        q = dists.pendant_dist_given_n_age(n, x1, p).mean()
        assert closed == pytest.approx(q, rel=1e-7)

    def test_mean_n2(self):
        assert dists.pendant_mean_given_n_age(2, 1.3, SUB) == 1.3

    @pytest.mark.parametrize("p", REGIMES, ids=lambda p: f"mu={p.mu}")
    def test_column_of_n_bit_identical_to_laws(self, p):
        # the mixture check's array pass: one row per n from one _p1_gap call
        x1, ns = 2.0, np.arange(2, 80)
        grid = np.linspace(0.0, x1, 41)
        end, _, amp, edge, slope, atom = dists._pendant_coefs_given_n_age(ns[:, None], x1, p)
        rows = dists._pendant_pdf(grid, end, amp, edge, slope, p)
        for n, row, a in zip(ns.tolist(), rows, atom[:, 0].tolist()):
            law = dists.pendant_dist_given_n_age(n, x1, p)
            assert row.tolist() == law.pdf(grid).tolist(), n
            assert a == law.atom_weight, n

    @pytest.mark.parametrize("n, x1, mu", [(10, 1e-5, 0.5), (10, 1e-5, -0.5),
                                           (20, 0.01, 1.0001e-4), (6, 2.0, 1.0)])
    def test_mean_against_50_digits(self, n, x1, mu):
        # a four-branch closed form was 17.5%, 28.8% and 8.7e-3 off at the
        # first three points
        p = Params(1.0, mu)
        p0, p1 = _mp_kernels(p)

        def pdf(s):
            q = p0(x1)
            return 2 * (n - 2) / (n * (n - 1) * q) * p1(s) * (2 + (n - 3) * (q - p0(s)) / q)

        want = _mp_mean(pdf, x1, lambda x: 2 / (n * (n - 1)))
        got = dists.pendant_mean_given_n_age(n, x1, p)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestPendantGivenAge:
    @pytest.mark.parametrize("p", REGIMES, ids=lambda p: f"mu={p.mu}")
    def test_total_mass(self, p):
        d = dists.pendant_dist_given_age(1.5, p)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("x1", [1e-8, 70.0, 700.0])
    @pytest.mark.parametrize("p", REGIMES, ids=lambda p: f"mu={p.mu}")
    def test_total_mass_extreme_ages(self, p, x1):
        # 1 - r rounds to 0 at large x1, and the 1/r terms cancel at small x1
        d = dists.pendant_dist_given_age(x1, p)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-8)

    @staticmethod
    def _pdf_80_digits(s, x1, p):
        """2 p1(s)/p0(x1) (W1 - (p0(s)/p0(x1)) W3), the closed form at 80 digits."""
        mpmath = pytest.importorskip("mpmath")
        p0, p1 = _mp_kernels(p)
        with mpmath.workdps(80):
            lam, s, x1 = (mpmath.mpf(v) for v in (p.lam, s, x1))
            r = lam * p0(x1)
            c = 1 - r
            w = lambda k: (k + 1) * r - k - 2 * k * c * c * (mpmath.log(c) / r + 1) / r
            return float(2 * p1(s) / p0(x1) * (w(1) - p0(s) / p0(x1) * w(3)))

    PDF_CASES = [
        (YULE, 30.0), (Params(1.0, 0.5), 40.0), (Params(1.0, 0.9), 200.0), (NEG, 15.0),
        (Params(38.704242132591524, 38.08867005325228), 98.0519235834409),
        *((p, x1) for x1 in (1e-8, 1.5) for p in (*REGIMES, Params(1.0, 0.9))),
    ]

    @pytest.mark.parametrize("p, x1", PDF_CASES,
                             ids=[f"lam={p.lam},mu={p.mu},x1={x1}" for p, x1 in PDF_CASES])
    def test_pdf_against_80_digits(self, p, x1):
        # W1 - G W3 with G = p0(s)/p0(x1) is O(1 - r) as s nears x1; formed
        # directly it lost up to 3.6e-4 relative at Yule, x1 = 30, and went
        # negative in the near-critical case
        law = dists.pendant_dist_given_age(x1, p)
        for frac in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
            want = self._pdf_80_digits(frac * x1, x1, p)
            assert abs(law.pdf(frac * x1) - want) < 1e-12 * want, frac
        assert np.all(law.pdf(np.linspace(0.0, x1, 2001)) >= 0.0)

    def test_age_weight_against_series(self):
        x1, p = 1.5, SUB
        r = p.lam * dists.p0(x1, p)
        for k in (1, 3):
            series = (1.0 - r) ** 2 * sum(
                (n - 2) / n * (n - k) * r ** (n - 2) for n in range(3, 4000)
            )
            assert dists.pendant_age_weight(k, x1, p) == pytest.approx(
                series, rel=1e-10
            )

    def test_mixture_identity_single_point(self):
        x1, p, s = 1.5, Params(1.0, 0.4), 0.8
        law = dists.pendant_dist_given_age(x1, p)
        mix = sum(
            prob_n_given_age(n, x1, p)
            * dists.pendant_dist_given_n_age(n, x1, p).pdf(s)
            for n in range(3, 600)
        )
        assert law.pdf(s) == pytest.approx(mix, abs=1e-9)
        atom = sum(
            prob_n_given_age(n, x1, p) * 2.0 / (n * (n - 1))
            for n in range(2, 3000)
        )
        assert law.atom_weight == pytest.approx(atom, abs=1e-10)

    def test_cdf_matches_quadrature(self):
        d = dists.pendant_dist_given_age(1.5, SUB)
        for s in (0.4, 1.1):
            val, _ = quad(d.pdf, 0, s)
            assert d.cdf(s) == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize("x1", [1e-5, 1.5, 30.0])
    @pytest.mark.parametrize("p", REGIMES, ids=lambda p: f"mu={p.mu}")
    def test_mean_against_50_digits(self, p, x1):
        mpmath = pytest.importorskip("mpmath")
        p0, p1 = _mp_kernels(p)

        def w(k, r):
            c = 1 - r
            return (k + 1) * r - k - 2 * k * c * c * (mpmath.log(c) / r + 1) / r

        def pdf(s):
            q = p0(x1)
            r = p.lam * q
            return 2 * p1(s) / q * (w(1, r) - p0(s) / q * w(3, r))

        def atom(x):
            r = p.lam * p0(x)
            return -2 * (mpmath.log(1 - r) + r) * ((1 - r) / r) ** 2

        want = _mp_mean(pdf, x1, atom)
        got = dists.pendant_mean_given_age(x1, p)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_mean_in_the_critical_band_against_50_digits(self):
        # the kernels took their critical forms here, and the mean read
        # 1.000000657, 5.2e-7 off
        mpmath = pytest.importorskip("mpmath")
        p, x1 = Params(1.0, 0.9999999901), 1e8
        with mpmath.workdps(50):
            lam, mu = mpmath.mpf(p.lam), mpmath.mpf(p.mu)
            p0 = lambda t: -mpmath.expm1(-(lam - mu) * t) / (lam - mu * mpmath.exp(-(lam - mu) * t))
            q = p0(mpmath.mpf(x1))
            r = lam * q
            c = 1 - r
            w = lambda k: (k + 1) * r - k - 2 * k * c * c * (mpmath.log(c) / r + 1) / r
            atom = -2 * (mpmath.log(c) + r) * (c / r) ** 2

            # the atom plus (2/q) times the integral of p1 (W1 - G W3) over (s, x1),
            # with p1 = p0' and G = p0(s)/q
            def survival(s):
                g = p0(s) / q
                return atom + 2 * w(1) * (1 - g) - w(3) * (1 - g * g)

            want = float(mpmath.quad(survival, [0] + [mpmath.mpf(10) ** k for k in range(-2, 9)]))
        assert want == pytest.approx(BAND_MEAN_GIVEN_AGE, rel=1e-14, abs=0.0)
        assert dists.pendant_mean_given_age(x1, p) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_mean_tends_to_given_n_mean(self):
        # as x1 grows the tree's tip count does too, and the pendant law
        # given x1 tends to the law given n
        p = SUB
        gaps = [dists.pendant_mean_given_age(x1, p) - dists.pendant_mean_given_n(p)
                for x1 in (5.0, 10.0, 20.0, 30.0)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert dists.pendant_mean_given_age(30.0, p) == pytest.approx(0.6137058752, rel=1e-9)
        assert dists.pendant_mean_given_n(p) == pytest.approx(0.6137056389, rel=1e-9)
        assert 0.0 < gaps[-1] < 1e-6


# each pendant-edge constructor, called with (n, x1, p)
PENDANT_LAWS = {
    "given_n": lambda n, x1, p: dists.pendant_dist_given_n(p),
    "given_n_age": lambda n, x1, p: dists.pendant_dist_given_n_age(n, x1, p),
    "given_age": lambda n, x1, p: dists.pendant_dist_given_age(x1, p),
}
# the mean of each, called likewise
PENDANT_MEANS = {
    "given_n": lambda n, x1, p: dists.pendant_mean_given_n(p),
    "given_n_age": lambda n, x1, p: dists.pendant_mean_given_n_age(n, x1, p),
    "given_age": lambda n, x1, p: dists.pendant_mean_given_age(x1, p),
}
# s / end on [0, 1], dense near both ends
_FRACS = np.unique(np.concatenate([
    np.linspace(0.0, 1.0, 41), np.geomspace(1e-12, 0.5, 25), 1.0 - np.geomspace(1e-12, 0.5, 25),
]))


class TestPendantLaws:
    @pytest.mark.parametrize("build", ["given_n_age", "given_age"])
    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x1", [0.01, 0.5, 2.0, 20.0])
    def test_mass_near_critical(self, build, k, lam, x1):
        # lam - mu e^{-ds} formed directly drifted the given-x1 mass by 4.1e-10
        # at lam = 0.5, mu = lam (1 - 1e-7), x1 = 0.5
        for n in (3, 6, 353):
            law = PENDANT_LAWS[build](n, x1, Params(lam, lam * (1.0 - 10.0 ** -k)))
            assert abs(law.cdf(x1) + law.atom_weight - 1.0) <= 1e-13, n

    @settings(max_examples=200)
    @given(
        lam=st.floats(-2.0, 2.0).map(lambda t: 10.0 ** t),
        ratio=st.one_of(st.floats(-3.0, 1.0), st.sampled_from([1 - 1e-9, 1 - 1e-7, 1e-9, -1e-9])),
        x1=st.floats(-8.0, 3.0).map(lambda t: 10.0 ** t),
        n=st.integers(2, 10 ** 5),
    )
    @example(lam=0.5, ratio=1 - 1e-7, x1=0.5, n=353)  # mu = 0.49999995
    def test_properties(self, lam, ratio, x1, n):
        # on s = frac * x1 (frac in [0, 1]): pdf finite and >= 0; cdf finite,
        # within [0, 1 - atom] up to 1e-12 and non-decreasing up to a few
        # ulps (near 1 - atom its true steps are below one ulp, and the cdf,
        # a product of a rising and a falling factor, rounds either way);
        # a law with a finite end holds all its mass; the mean is finite and
        # within [atom end, end]; numpy floating-point warnings and every
        # warning of the mean are errors
        p = Params(lam, ratio * lam)
        s = _FRACS * x1
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for name, build in PENDANT_LAWS.items():
                law = build(n, x1, p)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    m = PENDANT_MEANS[name](n, x1, p)
                # the mean lies between the atom's share of it and the end
                assert math.isfinite(m) and m > 0.0, name
                if math.isfinite(law.support_end):
                    assert law.atom_weight * law.support_end <= m <= law.support_end, name
                f, c = law.pdf(s), law.cdf(s)
                assert np.all(np.isfinite(f) & (f >= 0.0)), name
                assert np.all(np.isfinite(c)), name
                assert np.all(np.diff(c) >= -4 * np.finfo(float).eps), name
                assert c[0] >= 0.0 and c[-1] <= 1.0 - law.atom_weight + 1e-12, name
                if math.isfinite(law.support_end):
                    assert abs(c[-1] + law.atom_weight - 1.0) <= 1e-12, name


class TestLawConstructors:
    def test_law_table_names_every_constructor_and_mean_once(self):
        # each served law is one row of dists.LAWS: a *_dist* constructor or a
        # *_mean* or *_var* function in __all__ with no row, or in two rows, fails here
        named = [name for row in dists.LAWS for name in (row.dist, row.mean, row.var) if name]
        served = [name for name in dists.__all__
                  if "_dist" in name or "_mean" in name or "_var" in name]
        assert sorted(named) == sorted(served)
        for row in dists.LAWS:
            assert row.dist or not row.mass_at, row
            assert (row.dist or row.mean) and row.law and row.header, row
            assert set(row.args) <= {"k", "n", "x1"}, row

    @pytest.mark.parametrize("row", [r for r in dists.LAWS if r.dist and not math.isinf(
        getattr(dists, r.dist)(*r.mass_at[0], 1.0 if r.pure_birth else SUB).support_end)],
        ids=lambda r: r.dist)
    def test_past_a_finite_end_pdf_is_0_and_cdf_1_minus_atom(self, row):
        # the pendant laws read cdf 1.1055 and pdf -2.4e-4 past x1, the
        # root-edge law cdf 0.950, and the speciation-time law raised
        for args in row.mass_at:
            for rates in ([1.0] if row.pure_birth else REGIMES):
                law = getattr(dists, row.dist)(*args, rates)
                past, rest = 1.5 * law.support_end, 1.0 - law.atom_weight
                assert (law.pdf(past), law.cdf(past)) == (0.0, rest), (args, rates)
                s = np.array([0.5, 1.0, 1.5, 3.0]) * law.support_end
                assert law.pdf(s)[2:].tolist() == [0.0, 0.0], (args, rates)
                assert law.cdf(s)[2:].tolist() == [rest, rest], (args, rates)
        # an age near the largest _check_age takes at lam = 1e100, (lam + |mu|) x1
        # within a factor 2.3 of the float range: the pendant atom given x1 read
        # nan, from -2 (log c + r) overflowing before c^2 = 0 met it
        args = tuple(8e207 if a == "x1" else v for a, v in zip(row.args, row.mass_at[0]))
        for rates in ([1e100] if row.pure_birth else
                      [Params(1e100, mu) for mu in (0.0, 5e99, -1e100, 1e100)]):
            law = getattr(dists, row.dist)(*args, rates)
            s = np.array([0.0, 0.5, 1.0, 1.5]) * law.support_end
            f, c = law.pdf(s), law.cdf(s)
            assert np.isfinite(f).all() and np.isfinite(c).all(), (args, rates)
            assert (f[3], c[3]) == (0.0, 1.0 - law.atom_weight), (args, rates)

    @pytest.mark.parametrize("row", [r for r in dists.LAWS if r.dist and math.isinf(
        getattr(dists, r.dist)(*r.mass_at[0], 1.0 if r.pure_birth else SUB).support_end)],
        ids=lambda r: r.dist)
    def test_past_the_float_range_an_infinite_end_law_is_silent(self, row):
        # a rate times s overflows: numpy warned (an error in this suite), on an
        # array or a Python float, and the critical pendant law read cdf 0, from
        # p0's s / (1 + lam s)
        lam = 1e100
        for args in row.mass_at:
            for rates in ([lam] if row.pure_birth else
                          [Params(lam, mu) for mu in (0.0, 0.5 * lam, -lam, lam)]):
                law = getattr(dists, row.dist)(*args, rates)
                s = np.array([1e300])
                assert (law.pdf(s).tolist(), law.cdf(s).tolist()) == ([0.0], [1.0]), (args, rates)
                assert (law.pdf(1e300), law.cdf(1e300)) == (0.0, 1.0), (args, rates)

    def test_public_speciation_time_functions_still_refuse_past_x1(self):
        assert dists.speciation_time_dist(3, 6, 2.0, SUB).pdf(3.0) == 0.0
        for f in (dists.speciation_time_pdf, dists.speciation_time_cdf):
            with pytest.raises(ValueError, match="s must not exceed x1"):
                f(3.0, 3, 6, 2.0, SUB)

    @pytest.mark.parametrize("build", [
        lambda: dists.root_edge_dist_given_n(1, 1.0),
        lambda: dists.root_edge_dist_given_age(0.0, 1.0),
        lambda: dists.speciation_time_dist(1, 6, 2.0, SUB),
        lambda: dists.speciation_time_dist(3, 6, -1.0, SUB),
        lambda: dists.hypoexp_dist(1, 1.0),
        lambda: dists.diversity_dist_given_n(1, 1.0),
        lambda: dists.diversity_dist_given_n(5, SUB),
    ])
    def test_rejects_bad_arguments_when_built(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("x1", [-1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("call", [
        lambda x1: prob_n_given_age(5, x1, SUB),
        lambda x1: dists.speciation_kernel(0.0, x1, SUB),
        lambda x1: dists.speciation_time_pdf(0.0, 3, 5, x1, SUB),
        lambda x1: dists.speciation_time_cdf(0.0, 3, 5, x1, SUB),
        lambda x1: dists.speciation_time_dist(3, 5, x1, SUB),
        lambda x1: dists.pendant_dist_given_n_age(5, x1, SUB),
        lambda x1: dists.pendant_mean_given_n_age(5, x1, SUB),
        lambda x1: dists.pendant_mean_given_n_age(2, x1, SUB),
        lambda x1: dists.pendant_age_weight(3, x1, SUB),
        lambda x1: dists.pendant_dist_given_age(x1, SUB),
        lambda x1: dists.pendant_mean_given_age(x1, SUB),
        lambda x1: dists.root_edge_dist_given_age(x1, 1.0),
        lambda x1: dists.root_edge_mean_given_age(x1, 1.0),
        lambda x1: dists.root_edge_survival_given_n_age(0.0, 5, x1, 1.0),
        lambda x1: dists.diversity_mgf_given_n_age(0.0, 5, x1, 1.0),
        lambda x1: dists.diversity_mean_given_n_age(5, x1, 1.0),
        lambda x1: dists.diversity_mean_given_n_age(2, x1, 1.0),
        lambda x1: dists.diversity_mean_given_age(x1, 1.0),
    ])
    def test_rejects_bad_age(self, call, x1):
        with pytest.raises(ValueError, match="x1 must be > 0 and finite"):
            call(x1)

    def test_root_edge_given_age_mass(self):
        law = dists.root_edge_dist_given_age(1.5, 2.0)
        assert law.atom_weight == pytest.approx(math.exp(-3.0))
        assert law.total_mass() == pytest.approx(1.0, abs=1e-8)
        assert law.mean() == pytest.approx(dists.root_edge_mean_given_age(1.5, 2.0))


class TestHypoexp:
    def test_small_k_closed_forms(self):
        # k=2 is Exp(2 lam); k=3 is the two-term convolution
        t = np.linspace(0.05, 3.0, 9)
        assert np.allclose(dists.hypoexp_dist(2, 1.0).pdf(t), 2 * np.exp(-2 * t))
        assert np.allclose(
            dists.hypoexp_dist(3, 1.0).pdf(t), 6 * (np.exp(-2 * t) - np.exp(-3 * t))
        )

    def test_monte_carlo_sum_of_exponentials(self):
        # independent oracle: simulate the sum directly
        k, lam, m = 12, 1.0, 40_000
        rng = np.random.default_rng(7)
        rates = lam * np.arange(2, k + 1)
        samples = np.sort((rng.exponential(1.0, size=(m, k - 1)) / rates).sum(axis=1))
        ks = mc.ks_one_sample(samples, dists.hypoexp_dist(k, lam).cdf)
        assert ks < 1.6276 / math.sqrt(m)
        assert samples.mean() == pytest.approx(
            dists.hypoexp_mean(k, lam), abs=3 * samples.std() / math.sqrt(m)
        )

    def test_mean_frozen_value(self):
        assert dists.hypoexp_mean(5, 1.0) == pytest.approx(1.2833333333333334)

    def test_cdf_matches_quadrature_large_k(self):
        law = dists.hypoexp_dist(60, 1.0)
        for t in (0.5, 2.0, 5.0):
            val, _ = quad(law.pdf, 0, t, limit=200)
            assert law.cdf(t) == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("k", [61, 300, 1000])
    def test_mass_and_mean_large_k(self, k):
        # the cancellation-free form stays exact far past the old k <= 60 cap
        law = dists.hypoexp_dist(k, 1.0)
        assert law.total_mass() == pytest.approx(1.0, abs=1e-8)
        assert law.mean() == pytest.approx(dists.hypoexp_mean(k, 1.0), rel=1e-8)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            dists.hypoexp_mean(1, 1.0)


class TestRootEdge:
    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_cdf_matches_quadrature(self, n):
        law = dists.root_edge_dist_given_n(n, 1.0)
        for t in (0.3, 1.0, 3.0):
            val, _ = quad(law.pdf, 0, t)
            assert law.cdf(t) == pytest.approx(val, abs=1e-10)

    def test_n2_is_exp2(self):
        t = np.linspace(0.1, 2.0, 7)
        assert np.allclose(
            dists.root_edge_dist_given_n(2, 1.0).pdf(t), 2 * np.exp(-2 * t), atol=1e-14
        )

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_mean_matches_quadrature(self, n):
        law = dists.root_edge_dist_given_n(n, 1.0)
        val, _ = quad(lambda t: t * law.pdf(t), 0, np.inf)
        assert dists.root_edge_mean_given_n(n, 1.0) == pytest.approx(val, rel=1e-8)

    def test_survival_given_age(self):
        # P(L > l | x1) is 1 - cdf(l) below x1; the atom at x1 leaves no mass past it
        law = dists.root_edge_dist_given_age(1.0, 1.0)
        assert 1.0 - law.cdf(0.5) == pytest.approx(math.exp(-0.5))
        assert law.support_end < 1.5
        assert law.cdf(law.support_end) + law.atom_weight == pytest.approx(1.0)

    def test_mean_given_age(self):
        law = dists.root_edge_dist_given_age(1.0, 1.0)
        val, _ = quad(lambda l: 1.0 - law.cdf(l), 0, 1.0)
        assert dists.root_edge_mean_given_age(1.0, 1.0) == pytest.approx(val)

    def test_initial_edge_frozen_value(self):
        # alpha = (1-e^{-0.5})/(1-e^{-1}) at k=2, t=1, l=0.5
        assert dists.initial_edge_survival(0.5, 1.0, 2, 1.0) == pytest.approx(
            0.6224593312018546, rel=1e-12
        )
        assert dists.initial_edge_survival(0.0, 1.0, 5, 1.0) == 1.0
        assert dists.initial_edge_survival(1.0, 1.0, 5, 1.0) == 0.0

    def test_initial_edge_rejects_negative_length(self):
        with pytest.raises(ValueError, match="l must be >= 0"):
            dists.initial_edge_survival(-0.5, 1.0, 3, 1.0)

    def test_survival_given_n_age_boundaries(self):
        s = dists.root_edge_survival_given_n_age
        assert s(0.0, 5, 2.0, 1.0) == pytest.approx(1.0)
        assert s(2.5, 5, 2.0, 1.0) == 0.0
        vals = s(np.linspace(0.0, 2.0, 30), 5, 2.0, 1.0)
        assert np.all(np.diff(vals) < 0)

    def test_survival_series_branch_matches_direct_sum(self):
        # tiny lam pushes G -> 1, where 1 - G is small and taken from the kernel's
        # gap; the direct geometric sum is itself well conditioned there
        lam, n, x1 = 1e-10, 400, 1.0
        for l in (0.3, 0.9):
            alpha = math.expm1(-lam * (x1 - l)) / math.expm1(-lam * x1)
            direct = math.fsum(alpha ** j for j in range(n - 1)) / (n - 1)
            assert dists.root_edge_survival_given_n_age(
                l, n, x1, lam
            ) == pytest.approx(direct, rel=1e-12)

    def test_limit_constant(self):
        assert dists.root_edge_limit_constant() == pytest.approx(
            0.8158457311748504, abs=1e-10
        )

    @pytest.mark.parametrize("n", [5, 10, 400, 10**6])
    @pytest.mark.parametrize("lam", [1e-10, 1e-3, 1.0, math.log(5e5), 40.0])
    def test_survival_given_n_age_matches_mpmath(self, n, lam):
        # at n = 10^6 and lam = ln(5 10^5) (limit_constant's point) the power
        # G^(n-1) of a rounded G was 1.8e-11 off
        mpmath = pytest.importorskip("mpmath")
        for x1 in (1.0, 0.3):
            ls = np.concatenate([np.linspace(0.0, x1, 21), np.linspace(0.05 * x1, 0.6 * x1, 12)])
            got = dists.root_edge_survival_given_n_age(ls, n, x1, lam)
            with mpmath.workdps(60):
                lam_, x1_ = mpmath.mpf(lam), mpmath.mpf(x1)
                for l, value in zip(ls, got):
                    g = mpmath.expm1(-lam_ * (x1_ - mpmath.mpf(l))) / mpmath.expm1(-lam_ * x1_)
                    want = 1 if g == 1 else (1 - g ** (n - 1)) / ((n - 1) * (1 - g))
                    assert value == pytest.approx(float(want), rel=1e-14, abs=0), (x1, l)

    def test_initial_edge_survival_matches_mpmath(self):
        # relative precision at both ends: G near 1 for small l, near 0 as l -> t
        mpmath = pytest.importorskip("mpmath")
        t = 1.0
        ls = [0.0, 0.3, 0.5, 0.9, 1 - 1e-9]
        for k, lam in ((2, 1.0), (5, 13.0), (1000, 1e-3), (10**6, 1.0)):
            got = dists.initial_edge_survival(np.array(ls), t, k, lam)
            with mpmath.workdps(60):
                for l, value in zip(ls, got):
                    g = mpmath.expm1(-mpmath.mpf(lam) * (1 - mpmath.mpf(l))) / mpmath.expm1(-lam)
                    assert value == pytest.approx(float(g ** (k - 1)), rel=1e-12, abs=0), (k, l)


class TestDiversity:
    def test_gamma_moments(self):
        assert dists.diversity_mean_given_n(10, 1.0) == 9.0
        assert dists.diversity_var_given_n(10, 2.0) == pytest.approx(2.25)
        law = dists.diversity_dist_given_n(10, 1.0)
        val, _ = quad(lambda d: d * law.pdf(d), 0, np.inf)
        assert val == pytest.approx(9.0, rel=1e-8)

    def test_mgf_at_zero(self):
        assert dists.diversity_mgf_given_n_age(0.0, 6, 2.0, 1.0) == pytest.approx(1.0)

    def test_mgf_derivative_is_mean(self):
        h = 1e-6
        n, x1, lam = 6, 2.0, 1.0
        deriv = (
            dists.diversity_mgf_given_n_age(h, n, x1, lam)
            - dists.diversity_mgf_given_n_age(-h, n, x1, lam)
        ) / (2 * h)
        assert deriv == pytest.approx(
            dists.diversity_mean_given_n_age(n, x1, lam), rel=1e-7
        )

    def test_mgf_rejects_large_argument(self):
        with pytest.raises(ValueError):
            dists.diversity_mgf_given_n_age(1.0, 6, 2.0, 1.0)

    @pytest.mark.parametrize("n", [10**6, 2**40, 2**70])
    def test_mgf_at_zero_is_exactly_1_at_large_n(self, n):
        # base ** (n - 2) raised base's one-ulp rounding to the power: it read
        # 0.9999999998889779, 0.99987794 and 0.0
        assert dists.diversity_mgf_given_n_age(0.0, n, 1.5, 1.0) == 1.0

    @pytest.mark.parametrize("s", [1e-3, -1e-3])
    def test_mgf_at_large_n_matches_50_digits(self, s):
        mpmath = pytest.importorskip("mpmath")
        n, x1, lam = 10**6, 1.5, 1.0
        with mpmath.workdps(50):
            s_, x1_ = mpmath.mpf(s), mpmath.mpf(x1)
            base = -mpmath.expm1((s_ - lam) * x1_) / ((lam - s_) * -mpmath.expm1(-lam * x1_))
            want = float(mpmath.exp(2 * x1_ * s_) * (lam * base) ** (n - 2))
        got = dists.diversity_mgf_given_n_age(s, n, x1, lam)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [2.6e-4, -2.6e-4, 9e-4])
    def test_mgf_far_from_zero_matches_50_digits(self, s):
        # at |s| >= lam/4 base - 1 was formed by subtraction, and its rounding
        # raised to the power n - 2: 2.4e-10 off at s = 2.6e-4, 2.2e-10 at 9e-4;
        # it is now exprel's divided difference, summed as its series in s x1
        mpmath = pytest.importorskip("mpmath")
        n, x1, lam = 10**6, 1.5, 1e-3
        with mpmath.workdps(60):
            s_, x1_, lam_ = mpmath.mpf(s), mpmath.mpf(x1), mpmath.mpf(lam)
            base = -mpmath.expm1((s_ - lam_) * x1_) / ((lam_ - s_) * -mpmath.expm1(-lam_ * x1_))
            want = float(mpmath.exp(2 * x1_ * s_) * (lam_ * base) ** (n - 2))
        got = dists.diversity_mgf_given_n_age(s, n, x1, lam)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [2**70, 10**6])
    def test_mgf_past_the_float_range_is_refused(self, n):
        # it returned inf with an overflow warning; e^{2 x1 s} base^{n-2} is
        # checked in logs before the power
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"MGF at s=0.5, n={n} is past the float range"):
                dists.diversity_mgf_given_n_age(0.5, n, 1.5, 1.0)
            with pytest.raises(ValueError, match=f"MGF at s=0.5, n={n} is past"):
                dists.diversity_mgf_given_n_age(np.array([-0.5, 0.0, 0.5]), n, 1.5, 1.0)
            assert dists.diversity_mgf_given_n_age(-0.5, n, 1.5, 1.0) == 0.0  # underflows

    @pytest.mark.parametrize("n", [2, 6])
    def test_mgf_of_an_underflowed_base_is_0(self, n):
        # base = lam x1 exprel((s - lam) x1) / (1 - e^{-lam x1}) underflows to 0:
        # its log warned "divide by zero", and at n = 2, 0 times that -inf made nan
        assert dists.diversity_mgf_given_n_age(-1e300, n, 1.0, 1e-100) == 0.0

    def test_mean_given_age(self):
        assert dists.diversity_mean_given_age(1.0, 1.0) == pytest.approx(
            2.0 * (math.e - 1.0)
        )

    def test_mean_given_age_past_expm1s_range(self):
        # at lam x1 = 800, 2 expm1(lam x1) overflowed: math.expm1 raised
        # OverflowError, though the mean is finite
        mpmath = pytest.importorskip("mpmath")
        lam, x1 = 1e100, 8e-98
        with mpmath.workdps(50):
            want = 2 * mpmath.expm1(mpmath.mpf(lam) * mpmath.mpf(x1)) / mpmath.mpf(lam)
        got = dists.diversity_mean_given_age(x1, lam)
        assert abs(got - want) <= 1e-13 * want

    def test_mean_given_age_past_the_float_range_is_refused(self):
        # 2 expm1(709.5) is past the largest float: the mean read inf
        with pytest.raises(ValueError, match=r"E\[diversity \| x1\] .* at lam x1 = 709.5$"):
            dists.diversity_mean_given_age(709.5, 1.0)

    def test_mean_given_age_is_mixture_of_conditional_means(self):
        lam, x1 = 1.0, 1.0
        p = Params(lam, 0.0)
        mix = sum(
            prob_n_given_age(n, x1, p)
            * dists.diversity_mean_given_n_age(n, x1, lam)
            for n in range(2, 400)
        )
        assert dists.diversity_mean_given_age(x1, lam) == pytest.approx(
            mix, rel=1e-10
        )

    def test_rejects_extinction(self):
        with pytest.raises(ValueError):
            dists.diversity_mean_given_n(5, SUB)

    @pytest.mark.parametrize("n", [3, 10, 1000])
    def test_mean_given_n_age_matches_mpmath(self, n):
        # 1/lam - x1 (1 - v)/v cancelled: 1.2e-8 off at lam x1 = 1e-8
        mpmath = pytest.importorskip("mpmath")
        for y in np.logspace(-10.0, math.log10(60.0), 41):
            for x1 in (1.0, 0.25):
                lam = float(y) / x1
                with mpmath.workdps(60):
                    lam_, x1_ = mpmath.mpf(lam), mpmath.mpf(x1)
                    mean_s = 1 / lam_ - x1_ / mpmath.expm1(lam_ * x1_)
                    want = float(2 * x1_ + (n - 2) * mean_s)
                assert dists.diversity_mean_given_n_age(n, x1, lam) == pytest.approx(
                    want, rel=1e-14, abs=0), (lam, x1)

    @pytest.mark.parametrize("y", [1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 1.0, 30.0])
    @pytest.mark.parametrize("lam", [1e-100, 1.0])
    def test_mean_given_n_age_at_small_rate_times_age(self, y, lam):
        # gammainc(2, y) underflowed below y ~ 1.5e-154 (the mean read 2 x1) and
        # was up to 5e-14 off for y between 1e-150 and 1e-50
        mpmath = pytest.importorskip("mpmath")
        x1 = y / lam
        with mpmath.workdps(int(80 - min(math.log10(y), 0.0))):
            lam_, x1_ = mpmath.mpf(lam), mpmath.mpf(x1)
            mean_s = (1 - lam_ * x1_ / mpmath.expm1(lam_ * x1_)) / lam_
            want = float(2 * x1_ + 8 * mean_s)
        assert dists.diversity_mean_given_n_age(10, x1, lam) == pytest.approx(
            want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [3, 10, 1000])
    def test_mean_given_n_age_within_2_ulps(self, n):
        # E[S] = (1 - y/expm1(y))/lam, its series below y = 2; gammainc(2, y)
        # was 3.4e-16 off at y = 1, and the old series 1.9e-14 at y = 0.01
        mpmath = pytest.importorskip("mpmath")
        for y in np.logspace(-300.0, math.log10(700.0), 151):
            y = float(y)
            with mpmath.workdps(int(60 - min(math.log10(y), 0.0))):
                y_ = mpmath.mpf(y)
                want = 2 * y_ + (n - 2) * (1 - y_ / mpmath.expm1(y_))
            got = dists.diversity_mean_given_n_age(n, y, 1.0)
            assert abs(mpmath.mpf(got) - want) <= 2 * 2.0 ** -52 * want, y

    def test_gamma_law_matches_mpmath_and_scipy_stats(self):
        # the pdf and cdf, and scipy.stats.gamma's (which the law gave bit for bit
        # while it used scipy.special), within test_special's budget of the
        # 50-digit law
        mpmath = pytest.importorskip("mpmath")
        stats = pytest.importorskip("scipy.stats")
        from test_special import gamma_pq, within

        d = np.concatenate([[0.0], np.linspace(0.01, 30.0, 301)])
        for n, lam in ((2, 1.0), (5, 0.3), (10, 2.0), (400, 7.5)):
            law = dists.diversity_dist_given_n(n, lam)
            a = n - 1
            for di, pdf, cdf, spdf, scdf in zip(d, law.pdf(d), law.cdf(d),
                                                stats.gamma.pdf(d, a, scale=1.0 / lam),
                                                stats.gamma.cdf(d, a, scale=1.0 / lam)):
                with mpmath.workdps(50):
                    x = mpmath.mpf(di) * lam
                    t_pdf = lam * x ** (a - 1) * mpmath.exp(-x) / mpmath.gamma(a)
                t_cdf = gamma_pq(a, float(di * lam))[0] if di else 0
                assert within(pdf, t_pdf) and within(spdf, t_pdf), (n, di)
                assert within(cdf, t_cdf) and within(scdf, t_cdf), (n, di)


class TestExtremeRates:
    """Rates outside kernel.RATE_RANGE are refused with a message naming it;
    inside it, laws at lam x1 near 1e200 return finite values with no warning,
    and the given-(n, x1) pendant law keeps full precision from lam x1 = 1e-250
    at every rate."""

    @pytest.mark.parametrize("lam", [1e-300, 1e300])
    @pytest.mark.parametrize("call", [
        lambda lam: Params(lam),
        lambda lam: transform_params(RawParams(lam, 0.0)),
        lambda lam: dists.pendant_dist_given_n(Params(lam)),
        lambda lam: dists.interior_dist_yule(lam),
        lambda lam: dists.root_edge_survival_given_n_age(0.5, 5, 1.0, lam),
        lambda lam: dists.initial_edge_survival(0.5, 1.0, 5, lam),
        lambda lam: dists.diversity_dist_given_n(5, lam),
        lambda lam: dists.diversity_mean_given_n_age(5, 1.0, lam),
    ])
    def test_rate_outside_range_is_refused(self, call, lam):
        with pytest.raises(ValueError, match=r"lam must lie in \[1e-100, 1e\+100\]"):
            call(lam)

    @pytest.mark.parametrize("mu", [-1e300, -1e101])
    def test_large_negative_mu_is_refused(self, mu):
        with pytest.raises(ValueError, match=r"\|mu\| must be <= 1e\+100"):
            Params(1.0, mu)

    @pytest.mark.parametrize("lam, x1", [(1e100, 1e100), (1.0, 1e200), (1e-100, 1e300)])
    @pytest.mark.parametrize("ratio", [0.0, 0.5, -1.0, 1.0])
    def test_pendant_means_at_huge_age(self, lam, x1, ratio):
        # the survival quadrature's breakpoints outgrew its subdivision limit
        p, unit = Params(lam, ratio * lam), Params(1.0, ratio)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            given_n_age = dists.pendant_mean_given_n_age(5, x1, p)
            given_age = dists.pendant_mean_given_age(x1, p)
            # every law depends on lam s and mu/lam only
            unit_given_age = dists.pendant_mean_given_age(lam * x1, unit)
        # the atom 2/(n(n-1)) at x1 carries all but O(log(lam x1)/lam) of the mean
        assert given_n_age == pytest.approx(0.1 * x1, rel=1e-12)
        assert 0.0 < given_age < x1
        assert lam * given_age == pytest.approx(unit_given_age, rel=1e-12)

    def test_pendant_means_at_large_negative_mu(self):
        # D(s) = lam - mu e^{-ds} cancelled at -mu >> lam: the given-(n, x1)
        # mean raised ZeroDivisionError, and the pendant laws were nan
        p = Params(1.0, -1e20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            given_n = dists.pendant_mean_given_n(p)
            given_n_age = dists.pendant_mean_given_n_age(5, 1.0, p)
            given_age = dists.pendant_mean_given_age(1.0, p)
        # (mu + (lam - mu) log(1 - mu/lam))/mu^2 to 50 digits
        assert given_n == pytest.approx(4.5051701859880913680830346e-19, rel=1e-14)
        # every split lies within a few 1/|mu| of the tips: the atom carries the mean
        assert given_n_age == pytest.approx(0.1, rel=1e-14)
        assert 0.0 < given_age < 1.0 and math.isfinite(given_age)

    @pytest.mark.parametrize("lam, x1", [(1e100, 1e100), (1.0, 1e200), (1e-100, 1e300)])
    def test_pure_birth_laws_at_huge_age(self, lam, x1):
        ls = np.array([0.0, 1e-200 * x1, 0.5 * x1, x1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = dists.root_edge_survival_given_n_age(ls, 5, x1, lam)
            initial = dists.initial_edge_survival(ls, x1, 5, lam)
            mean = dists.diversity_mean_given_n_age(5, x1, lam)
            mgf = dists.diversity_mgf_given_n_age(0.0, 5, x1, lam)
        # every other node lies within a few 1/lam of the tips, so G(x1 - l | x1)
        # is 1 below x1 and 0 at it
        assert root.tolist() == [1.0, 1.0, 1.0, 0.25]
        assert initial.tolist() == [1.0, 1.0, 1.0, 0.0]
        assert mean == pytest.approx(2.0 * x1 + 3.0 / lam, rel=1e-15)
        assert mgf == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_critical_laws_at_huge_age(self):
        # the critical p1 = 1/(1 + lam s)^2 squared past the float range with a
        # RuntimeWarning from lam s ~ 1.3e154 on; its limit there is 0
        x1, n = 1e200, 5
        s = np.array([0.0, 0.25 * x1, 0.5 * x1, x1])
        laws = [dists.pendant_dist_given_n(CRIT), dists.pendant_dist_given_n_age(n, x1, CRIT),
                dists.pendant_dist_given_age(x1, CRIT), dists.speciation_time_dist(3, n, x1, CRIT)]
        for law in laws:
            pdf, cdf = law.pdf(s), law.cdf(s)
            assert pdf[1:].tolist() == [0.0, 0.0, 0.0]
            assert cdf[0] == 0.0
            assert np.all(np.isfinite(cdf)) and np.all(np.diff(cdf) >= 0.0)
            assert cdf[-1] + law.atom_weight == pytest.approx(1.0, rel=1e-15)

    # p0(x1) ~ min(x1, 1/lam) is subnormal, or 0 where lam x1 underflows
    TINY_AGES = [(1.0, 1e-310), (1e100, 1e-320), (1e-100, 1e-310)]
    X1_CALLS = [
        lambda x1, p: dists.speciation_kernel(0.0, x1, p),
        lambda x1, p: dists.speciation_time_pdf(0.0, 3, 5, x1, p),
        lambda x1, p: dists.speciation_time_dist(3, 5, x1, p),
        lambda x1, p: dists.pendant_dist_given_n_age(5, x1, p),
        lambda x1, p: dists.pendant_mean_given_n_age(5, x1, p),
        lambda x1, p: dists.pendant_age_weight(3, x1, p),
        lambda x1, p: dists.pendant_dist_given_age(x1, p),
        lambda x1, p: dists.pendant_mean_given_age(x1, p),
    ]
    YULE_CALLS = [
        lambda x1, lam: dists.root_edge_survival_given_n_age(0.5 * x1, 5, x1, lam),
        lambda x1, lam: dists.initial_edge_survival(0.5 * x1, x1, 5, lam),
    ]

    @pytest.mark.parametrize("lam, x1", TINY_AGES)
    @pytest.mark.parametrize("call", X1_CALLS)
    def test_age_below_the_float_range_is_refused(self, call, lam, x1):
        # 2/p0(x1) overflowed: the pdf read inf, the cdf and the given-x1 mean nan
        for ratio in (0.0, 0.5, 1.0, -0.5):
            with pytest.raises(ValueError, match=r"^x1 is too small for p0 and n/p0 to be "
                                                 r"normal floats \(p0 = "):
                call(x1, Params(lam, ratio * lam))

    @pytest.mark.parametrize("lam, x1, message", [
        # a subnormal age is refused by the age guard, naming the age (x1 or t)
        (1.0, 1e-310, r"^(x1|t) is too small for p0 and n/p0 to be normal floats \(p0 = 1e-310"),
        (1e-100, 1e-215, "lam times the age is too small"),
    ])
    @pytest.mark.parametrize("call", YULE_CALLS)
    def test_yule_age_below_the_float_range_is_refused(self, call, lam, x1, message):
        # at lam x1 = 0 the survivals read 1 and 0 at every l
        with pytest.raises(ValueError, match=message):
            call(x1, lam)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x1", [1e300, np.float64(1e300)], ids=["float", "float64"])
    @pytest.mark.parametrize("call", [
        lambda x1, lam: dists.root_edge_dist_given_age(x1, lam),
        lambda x1, lam: dists.root_edge_mean_given_age(x1, lam),
        lambda x1, lam: dists.initial_edge_survival(0.5, x1, 5, lam),
        lambda x1, lam: dists.root_edge_survival_given_n_age(0.5, 5, x1, lam),
        lambda x1, lam: dists.diversity_mgf_given_n_age(0.0, 5, x1, lam),
        lambda x1, lam: dists.diversity_mean_given_n_age(5, x1, lam),
        lambda x1, lam: dists.diversity_mean_given_age(x1, lam),
    ])
    def test_yule_laws_refuse_lam_x1_past_the_float_range(self, call, x1):
        # diversity_mean_given_age returned inf, and the two survivals warned
        # "overflow encountered in scalar multiply" before refusing; the
        # message names the age argument, which initial_edge_survival calls t
        name = "t" if "initial_edge_survival" in call.__code__.co_names else "x1"
        with pytest.raises(ValueError, match=rf"^\(lam \+ \|mu\|\) {name} must be > 0 and "
                                             r"finite, got inf$"):
            call(x1, 1e100)

    def test_age_past_the_float_range_names_the_argument(self):
        with pytest.raises(ValueError) as got:
            dists.initial_edge_survival(0.5, 1e300, 3, 1e100)
        assert str(got.value) == "(lam + |mu|) t must be > 0 and finite, got inf"

    def test_tip_count_past_the_float_range_is_refused(self):
        # the slope (n - 3)/p0(x1) overflows past n ~ 1.8e8 at x1 = 1e-300
        assert dists.pendant_dist_given_n_age(10**7, 1e-300, YULE).atom_weight > 0.0
        with pytest.raises(ValueError, match=r"n = 1000000000\), got 1e-300"):
            dists.pendant_dist_given_n_age(10**9, 1e-300, YULE)

    @pytest.mark.parametrize("lam, x1", [(1e100, 1e-300), (1.0, 1e-300), (1e-100, 1e-150)])
    @pytest.mark.parametrize("call", X1_CALLS + YULE_CALLS)
    def test_smallest_served_ages(self, call, lam, x1):
        # x1 >= 1e-300 with lam x1 >= 1e-250 stays served, finite and quiet
        arg = lam if call in self.YULE_CALLS else Params(lam, 0.5 * lam)
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            out = call(x1, arg)
            if isinstance(out, MixedDist):
                out = (out.pdf(0.5 * x1), out.cdf(0.5 * x1), out.atom_weight)
        assert np.all(np.isfinite(np.asarray(out, dtype=float)))

    SMALL_CASES = [(lam, prod, ratio) for lam in (1e-100, 1.0, 1e100)
                   for prod in (1e-250, 1e-220, 1e-150, 1e-50, 1e-8, 1.0, 1e2)
                   for ratio in (-0.5, 0.0, 0.5, 1.0) if prod / lam >= 1e-300]

    @pytest.mark.parametrize("lam, prod, ratio", SMALL_CASES,
                             ids=[f"lam={a:g},lam*x1={b:g},mu/lam={c:g}"
                                  for a, b, c in SMALL_CASES])
    def test_pendant_given_n_age_against_50_digits(self, lam, prod, ratio):
        # at lam = 1e-100, x1 = 1e-150 the gap's (lam - mu)^2 (x1 - s) underflowed:
        # the pdf read 0.6/x1 for 0.9/x1 at x1/2 and the mean 0.1 x1 for 0.5 x1;
        # at x1 = 1e-120 the mean raised an IntegrationWarning
        n, x1, p = 5, prod / lam, Params(lam, ratio * lam)
        mpmath = pytest.importorskip("mpmath")
        p0, p1 = _mp_kernels(p)
        with mpmath.workdps(50):
            x = mpmath.mpf(x1)
            q = p0(x)

            def pdf(t):  # at s = t x1, times x1
                s = t * x
                g, big_g = p1(s) / q, p0(s) / q
                return 2 * (n - 2) / (n * (n - 1)) * g * ((n - 1) - (n - 3) * big_g) * x

            cuts = [mpmath.mpf(10) ** k / (lam * x) for k in range(3) if 10 ** k < prod]
            atom = mpmath.mpf(2) / (n * (n - 1))
            mean = x * (mpmath.quad(lambda t: t * pdf(t), [0, *cuts, 1]) + atom)
            want = [(float(p1(t * x)), float(pdf(t) / x)) for t in (0.5, 0.9)]
            want_mean = float(mean)
        law = dists.pendant_dist_given_n_age(n, x1, p)
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            for t, (w1, wpdf) in zip((0.5, 0.9), want):
                assert kernel.p1(t * x1, p) == pytest.approx(w1, rel=1e-13, abs=0.0), t
                assert law.pdf(t * x1) == pytest.approx(wpdf, rel=1e-13, abs=0.0), t
            got_mean = dists.pendant_mean_given_n_age(n, x1, p)
        assert got_mean == pytest.approx(want_mean, rel=1e-13, abs=0.0)


# every law that takes a count, as a function of that count (n = 6, k = 3)
_GRID = np.linspace(0.0, 1.5, 7)
COUNT_LAWS = {
    "prob_n_given_age": lambda n: prob_n_given_age(n, 1.5, SUB),
    "leaf_adjacency_prob.k": lambda k: dists.leaf_adjacency_prob(k, 6),
    "leaf_adjacency_prob.n": lambda n: dists.leaf_adjacency_prob(3, n),
    "speciation_time_pdf.k": lambda k: dists.speciation_time_pdf(_GRID, k, 6, 1.5, SUB),
    "speciation_time_cdf.n": lambda n: dists.speciation_time_cdf(_GRID, 3, n, 1.5, SUB),
    "speciation_time_dist.k": lambda k: dists.speciation_time_dist(k, 6, 1.5, SUB),
    "speciation_time_dist.n": lambda n: dists.speciation_time_dist(3, n, 1.5, SUB),
    "pendant_dist_given_n_age": lambda n: dists.pendant_dist_given_n_age(n, 1.5, SUB),
    "pendant_mean_given_n_age": lambda n: dists.pendant_mean_given_n_age(n, 1.5, SUB),
    "hypoexp_dist": lambda k: dists.hypoexp_dist(k, 1.0),
    "hypoexp_mean": lambda k: dists.hypoexp_mean(k, 1.0),
    "root_edge_dist_given_n": lambda n: dists.root_edge_dist_given_n(n, 1.0),
    "root_edge_mean_given_n": lambda n: dists.root_edge_mean_given_n(n, 1.0),
    "initial_edge_survival": lambda k: dists.initial_edge_survival(_GRID, 1.5, k, 1.0),
    "root_edge_survival_given_n_age":
        lambda n: dists.root_edge_survival_given_n_age(_GRID, n, 1.5, 1.0),
    "diversity_dist_given_n": lambda n: dists.diversity_dist_given_n(n, 1.0),
    "diversity_mean_given_n": lambda n: dists.diversity_mean_given_n(n, 1.0),
    "diversity_var_given_n": lambda n: dists.diversity_var_given_n(n, 1.0),
    "diversity_mgf_given_n_age":
        lambda n: dists.diversity_mgf_given_n_age(_GRID - 1.0, n, 1.5, 1.0),
    "diversity_mean_given_n_age": lambda n: dists.diversity_mean_given_n_age(n, 1.5, 1.0),
}


def _law_values(out) -> list:
    """A law's numbers: its pdf, cdf and atom on the grid, or the value itself."""
    if isinstance(out, MixedDist):
        return [np.asarray(out.pdf(_GRID)).tolist(), np.asarray(out.cdf(_GRID)).tolist(),
                out.atom_weight, out.support_end]
    return np.asarray(out).tolist()


class TestCounts:
    @pytest.mark.parametrize("name", COUNT_LAWS)
    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_numpy_int_gives_the_python_int_values(self, name, kind):
        law = COUNT_LAWS[name]
        count = 3 if name.endswith(".k") or "hypoexp" in name or "initial" in name else 6
        assert _law_values(law(kind(count))) == _law_values(law(count))

    # a float count evaluated silently: pendant_dist_given_n_age(2.5, ...) gave a law
    @pytest.mark.parametrize("name", COUNT_LAWS)
    @pytest.mark.parametrize("count", [2.5, 6.0])
    def test_float_count_is_refused(self, name, count):
        arg = name.rsplit(".", 1)[-1] if "." in name else (
            "k" if "hypoexp" in name or "initial" in name else "n")
        with pytest.raises(ValueError, match=f"^{arg} must be an integer, got {count}$"):
            COUNT_LAWS[name](count)

    def test_integer_arrays_are_counts(self):
        n = np.arange(2, 8, dtype=np.int32)
        assert prob_n_given_age(n, 1.5, SUB).tolist() == [
            prob_n_given_age(v, 1.5, SUB) for v in range(2, 8)]
        with pytest.raises(ValueError, match=r"^n must be an integer, got array\(\[2\.5"):
            prob_n_given_age(np.array([2.5, 3.0]), 1.5, SUB)


# every constructor row of dists.LAWS at each of its mass_at arguments, at
# lam in {1e-4, 1, 1e4} and each mu regime the row serves
_SCALED_LAWS = [
    (row, args, Params(lam, ratio * lam))
    for row in dists.LAWS if row.dist
    for args in row.mass_at
    for lam in (1e-4, 1.0, 1e4)
    for ratio in ((0.0,) if row.pure_birth else (0.0, 0.5, 1.0, -0.5, -1e6))
]


def _tail_mean_by_scipy(end, q, amp, edge, slope, atom, p):
    """:func:`dists._pendant_mean` with scipy's QUADPACK, on the same cuts."""
    def tail(t):
        gap = kernel._p1_gap(t * end, end, p)[1]
        return gap * (edge + 0.5 * slope * gap)

    scale = (p.lam + abs(p.mu)) * end
    points = [10.0 ** k / scale for k in range(1, math.ceil(math.log10(scale)))]
    val, _ = quad(tail, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200 + 3 * len(points),
                  points=points or None)
    return atom * end + amp * end * val


def _largest_age(p: Params) -> float:
    """The largest x1 ``kernel._check_age`` takes at p: (lam + |mu|) x1 stays finite."""
    x1 = min(sys.float_info.max / (p.lam + abs(p.mu)), sys.float_info.max)
    while not math.isfinite((p.lam + abs(p.mu)) * x1):
        x1 = math.nextafter(x1, 0.0)
    return x1


# each rate pair at (lam + |mu|) x1 = 1e-3, 1e7, ..., 1e307 below its largest age, and that age
_PENDANT_SWEEP = [
    (p, x1) for p in (Params(1e100, 5e99), Params(1e100, -1e100), Params(1e-100, 0.0),
                      Params(1.0, 0.5))
    for x1 in [10.0 ** e / (p.lam + abs(p.mu)) for e in range(-3, 309, 10)
               if 10.0 ** e / (p.lam + abs(p.mu)) < _largest_age(p)] + [_largest_age(p)]
]


class TestQuadrature:
    @pytest.mark.parametrize("row, args, p", _SCALED_LAWS, ids=[
        f"{row.dist}{args}-lam={p.lam:g},mu={p.mu:g}" for row, args, p in _SCALED_LAWS])
    def test_mass_and_mean_on_every_scale(self, row, args, p):
        law = getattr(dists, row.dist)(*args, p)
        assert law.total_mass() == pytest.approx(1.0, abs=1e-10)
        if row.mean:
            want = getattr(dists, row.mean)(*args, p)
            assert law.mean() == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("row, args, p", [c for c in _SCALED_LAWS if c[0].var], ids=[
        f"{row.var}{args}-lam={p.lam:g}" for row, args, p in _SCALED_LAWS if row.var])
    def test_variance_is_the_second_central_moment(self, row, args, p):
        # the variance a LAWS row names is its law's, which verify checks beside the mean
        law = getattr(dists, row.dist)(*args, p)
        second = law._moment(2) + (law.atom_weight * law.support_end ** 2 if law.atom_weight
                                   else 0.0)
        want = second - law.mean() ** 2
        assert getattr(dists, row.var)(*args, p) == pytest.approx(want, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("p, x1", _PENDANT_SWEEP, ids=[
        f"lam={p.lam:g},mu={p.mu:g},x1={x1:.3g}" for p, x1 in _PENDANT_SWEEP])
    def test_pendant_means_up_to_the_largest_age(self, p, x1):
        # the survival's integral in t = s/x1, about q/((lam + |mu|) x1), underflowed:
        # the mean given x1 at lam = 1e100, mu = 5e99, x1 = 1e200 read 0.0, not
        # 6.137e-101; at the largest age amp x1 overflowed, and so did the midpoint
        # of MixedDist.mean's last panel at x1 near the largest float
        kernel._check_age(x1, p)
        for mean, law in ((dists.pendant_mean_given_age(x1, p), dists.pendant_dist_given_age(x1, p)),
                          (dists.pendant_mean_given_n_age(5, x1, p),
                           dists.pendant_dist_given_n_age(5, x1, p))):
            assert mean == pytest.approx(law.mean(), rel=1e-9, abs=0.0)

    def test_largest_age_is_the_largest_checked(self):
        for p in {p for p, _ in _PENDANT_SWEEP}:
            x1 = _largest_age(p)
            kernel._check_age(x1, p)
            if x1 < sys.float_info.max:
                with pytest.raises(ValueError, match="must be > 0 and finite"):
                    kernel._check_age(math.nextafter(x1, math.inf), p)

    @pytest.mark.parametrize("law, mean", [
        (dists.pendant_dist_given_n(Params(1.0, -1e6)),
         dists.pendant_mean_given_n(Params(1.0, -1e6))),
        (dists.interior_dist_yule(1e4), 5e-5),
        (dists.root_edge_dist_given_n(4, 1e4), 7.5e-5),
    ])
    def test_mass_far_below_scale_one(self, law, mean):
        # scipy's quad over (0, inf) never sampled the 1/|mu| or 1/lam scale:
        # these masses read 0.0, 2.9e-17 and 0.0, and the means 0 or 6.3e-20
        assert law.total_mass() == pytest.approx(1.0, abs=1e-10)
        assert law.mean() == pytest.approx(mean, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("coefs, p", [
        *((dists._pendant_coefs_given_n_age(n, x1, Params(lam, mu)), Params(lam, mu))
          for n, x1, lam, mu in mc._MEANS_GRID),
        *((coefs(Params(1.0, -1e20)), Params(1.0, -1e20)) for coefs in (
            lambda p: dists._pendant_coefs_given_n_age(5, 1.0, p),
            lambda p: dists._pendant_coefs_given_age(1.0, p))),
        *((coefs(Params(lam, ratio * lam)), Params(lam, ratio * lam))
          for lam, x1 in ((1e100, 1e100), (1.0, 1e200))
          for ratio in (0.0, 0.5, -1.0, 1.0)
          for coefs in (lambda p, x1=x1: dists._pendant_coefs_given_n_age(5, x1, p),
                        lambda p, x1=x1: dists._pendant_coefs_given_age(x1, p))),
    ])
    def test_pendant_mean_matches_quadpack(self, coefs, p):
        assert dists._pendant_mean(*coefs, p) == pytest.approx(
            _tail_mean_by_scipy(*coefs, p), rel=1e-13, abs=0.0)

    def test_nan_integrand_raises_at_once(self):
        calls = []

        def pdf(s):
            calls.append(s.size)
            return np.where(s > 0.5, np.nan, 1.0)

        law = MixedDist(support_end=1.0, pdf=pdf, cdf=lambda s: np.minimum(s, 1.0))
        with pytest.raises(ValueError, match="not finite"):
            law.total_mass()
        assert len(calls) == 1

    def test_noise_is_refused_within_the_caps(self):
        rng = np.random.default_rng(1)
        sizes = []

        def noise(s):
            sizes.append(s.size)
            return rng.random(s.size)

        with pytest.raises(RuntimeError, match="did not converge"):
            dists._gauss_legendre(noise, [0.0, 1.0], dists._QUAD_ABS, dists._QUAD_REL)
        assert max(sizes) <= 4 * dists._MAX_PANELS * dists._NODES
        assert len(sizes) <= dists._MAX_ROUNDS + 1

    def test_rule_integrates_polynomials_exactly(self):
        # 20 Gauss-Legendre nodes are exact to degree 39
        x, w = dists._legendre_rule()
        for k in (0, 1, 19, 39):
            assert float(np.sum(w * x ** k)) == pytest.approx(1.0 / (k + 1), rel=1e-14)

    def test_limit_constant_matches_50_digits(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want = mpmath.quad(lambda x: -mpmath.expm1(-x) / (x * (2 + x)), [0, 1, mpmath.inf])
        assert dists.root_edge_limit_constant() == pytest.approx(float(want), rel=1e-15, abs=0.0)
