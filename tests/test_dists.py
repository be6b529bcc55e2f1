import math

import numpy as np
import pytest
from scipy.integrate import quad

from recontree import dists
from recontree.dists import MixedDist, QuadratureConfig
from recontree.kernel import Params, prob_n_given_age


YULE = Params(1.0, 0.0)
SUB = Params(1.0, 0.5)
CRIT = Params(1.0, 1.0)
NEG = Params(1.0, -0.5)
REGIMES = [YULE, SUB, CRIT, NEG]


def test_mixed_dist_rejects_bad_atom():
    f = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    with pytest.raises(ValueError):
        MixedDist(support_end=1.0, pdf=f, cdf=f, atom_weight=1.5)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)


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

    def test_mean_frozen_value(self):
        # 50-digit reference for (lam, mu) = (1, 0.5)
        assert dists.pendant_mean_given_n(SUB) == pytest.approx(
            0.6137056388801094, rel=1e-12
        )

    def test_mean_limits(self):
        assert dists.pendant_mean_given_n(YULE) == pytest.approx(0.5, rel=1e-12)
        assert dists.pendant_mean_given_n(CRIT) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [SUB, NEG, Params(1.0, 1e-5), Params(2.0, 1.0)],
                             ids=lambda p: f"lam={p.lam},mu={p.mu}")
    def test_mean_matches_quadrature(self, p):
        q = dists.pendant_dist_given_n(p).mean()
        assert dists.pendant_mean_given_n(p) == pytest.approx(q, rel=1e-8)

    def test_closed_form_branch_matches_series(self):
        # just above the series/closed-form switch the two evaluations of
        # the same mu must agree
        mu = 1.01e-4
        closed = dists.pendant_mean_given_n(Params(1.0, mu))
        series = sum(mu ** (k - 2) / (k * (k - 1)) for k in range(2, 12))
        # the closed form cancels ~5 digits this close to mu = 0, which is
        # why the series branch exists below the switch
        assert closed == pytest.approx(series, rel=1e-7)


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
        with mpmath.workdps(80):
            lam, mu, s, x1 = (mpmath.mpf(v) for v in (p.lam, p.mu, s, x1))
            if p.is_critical:
                p0 = lambda t: t / (1 + lam * t)
                p1 = lambda t: 1 / (1 + lam * t) ** 2
            else:
                e = lambda t: mpmath.exp(-(lam - mu) * t)
                p0 = lambda t: (1 - e(t)) / (lam - mu * e(t))
                p1 = lambda t: (lam - mu) ** 2 * e(t) / (lam - mu * e(t)) ** 2
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


class TestLawConstructors:
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
        cdf_vals = dists.hypoexp_dist(k, lam).cdf(samples)
        grid = np.arange(1, m + 1) / m
        ks = np.max(np.abs(cdf_vals - grid))
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

    def test_survival_given_n_age_boundaries(self):
        s = dists.root_edge_survival_given_n_age
        assert s(0.0, 5, 2.0, 1.0) == pytest.approx(1.0)
        assert s(2.5, 5, 2.0, 1.0) == 0.0
        vals = s(np.linspace(0.0, 2.0, 30), 5, 2.0, 1.0)
        assert np.all(np.diff(vals) < 0)

    def test_survival_series_branch_matches_direct_sum(self):
        # tiny lam pushes alpha -> 1, exercising the expansion branch;
        # the direct geometric sum is itself well conditioned there
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

    def test_mean_given_age(self):
        assert dists.diversity_mean_given_age(1.0, 1.0) == pytest.approx(
            2.0 * (math.e - 1.0)
        )

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
