import math
import time
from functools import partial

import numpy as np
import pytest
import scipy

from recontree import dists, kernel, mc, sim
from recontree.dists import MixedDist
from recontree.kernel import Params
from recontree.mc import (
    CHECK_NAMES,
    KS_COEFF_99,
    VerifyConfig,
    chi_square_counts,
    compare,
    compare_two_sample,
    estimate,
    ks_one_sample,
    verify_suite,
)


class TestEstimate:
    def test_rejects_small_reps(self):
        with pytest.raises(ValueError, match="reps"):
            estimate(partial(sim.batch_yule_given_n, 5, 1.0), mc.read_random_pendant,
                     500, 0)

    def test_float_reps_are_refused(self):
        # they passed the reps check and ended in a TypeError from np.empty
        with pytest.raises(ValueError, match=r"^reps must be an integer, got 1000\.0$"):
            estimate(partial(sim.batch_yule_given_n, 5, 1.0), mc.read_random_pendant,
                     1000.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^reps must be an integer, got 1000\.0$"):
            VerifyConfig(reps=1000.0)

    def test_returns_the_sorted_sample(self):
        samples = estimate(partial(sim.batch_given_n_age, 3, 2.0, Params(1.0, 0.0)),
                           mc.read_random_pendant, 2000, sim.RngStream(1, 0))
        assert isinstance(samples, np.ndarray) and samples.shape == (2000,)
        assert np.all(np.diff(samples) >= 0) and samples[-1] == 2.0


class TestKsOneSample:
    def test_exact_on_centered_uniform_grid(self):
        m = 100
        samples = (np.arange(m) + 0.5) / m
        assert ks_one_sample(samples, lambda x: x) == pytest.approx(0.5 / m)

    def test_detects_wrong_cdf(self):
        rng = np.random.default_rng(0)
        samples = np.sort(rng.exponential(1.0, 5000))
        stat = ks_one_sample(samples, lambda x: -np.expm1(-2.0 * x))
        assert stat > 0.1


def _law(pdf, cdf):
    """A law without an atom, as ``compare`` takes it."""
    return MixedDist(math.inf, pdf, cdf)


class TestCompare:
    def test_callable_cdf_pass(self):
        rng = np.random.default_rng(2)
        samples = np.sort(rng.exponential(0.5, 20_000))
        rep = compare(
            samples,
            _law(lambda s: 2.0 * np.exp(-2.0 * s), lambda s: -np.expm1(-2.0 * s)),
            analytic_mean=0.5,
        )
        assert rep.ks.passed
        assert rep.moments[0].passed
        assert rep.passed

    def test_mixed_dist_atom_check(self):
        p = Params(1.0, 0.5)
        law = dists.pendant_dist_given_n_age(5, 2.0, p)
        samples = estimate(partial(sim.batch_given_n_age, 5, 2.0, p),
                           mc.read_random_pendant, 20_000, sim.RngStream(2, 0))
        rep = compare(samples, law, check="mixed")
        assert rep.ks is not None and rep.atom is not None
        assert rep.passed

    def test_atom_counting(self):
        p = Params(1.0, 0.0)
        samples = estimate(partial(sim.batch_given_n_age, 3, 2.0, p),
                           mc.read_random_pendant, 2000, sim.RngStream(1, 0))
        rep = compare(samples, dists.pendant_dist_given_n_age(3, 2.0, p))
        # atom mass is 2/(n(n-1)) = 1/3, and the KS test sees the rest
        assert abs(rep.atom.empirical_fraction - 1 / 3) < 0.05
        below = np.count_nonzero(samples < 2.0)
        assert rep.atom.empirical_fraction == (2000 - below) / 2000
        assert rep.ks.threshold == KS_COEFF_99 / np.sqrt(below)

    def test_samples_within_1e9_of_the_end_form_the_atom(self):
        law = dists.pendant_dist_given_n_age(5, 2.0, Params(1.0, 0.5))
        samples = np.array([0.2, 0.5, 2.0 * (1 - 2e-9), 2.0 * (1 - 5e-10), 2.0,
                            2.0 * (1 + 5e-10)])
        rep = compare(samples, law)
        assert rep.atom.analytic_mass == law.atom_weight
        assert rep.atom.empirical_fraction == 0.5
        assert rep.ks.threshold == KS_COEFF_99 / np.sqrt(3)
        cdf = lambda s: law.cdf(s) / (1 - law.atom_weight)
        assert rep.ks.stat == mc.ks_one_sample(samples[:3], cdf)

    def test_finite_end_without_an_atom_fails_a_pile_up_at_the_end(self):
        x1, p = 2.0, Params(1.0, 0.5)
        law = dists.speciation_time_dist(3, 6, x1, p)
        rng = np.random.default_rng(11)
        inside = rng.uniform(0.0, x1, 900)
        clean = compare(np.sort(inside), law)
        assert clean.atom is not None and clean.atom.to_dict() == {
            "analytic_mass": 0.0, "empirical_fraction": 0.0, "ci_halfwidth": 0.0, "pass": True}
        piled = compare(np.sort(np.concatenate([inside, np.full(100, x1)])), law)
        assert piled.atom.empirical_fraction == 0.1
        assert not piled.atom.passed and not piled.passed
        assert piled.ks.threshold == KS_COEFF_99 / np.sqrt(900)

    def test_infinite_end_has_no_atom_check(self):
        # even a sample that sits at one value throughout
        rep = compare(np.full(1000, 0.5), _law(lambda s: np.exp(-s), lambda s: -np.expm1(-s)))
        assert rep.atom is None and rep.to_dict()["atom"] is None
        assert rep.ks is not None

    @pytest.mark.parametrize("law", [
        dists.pendant_dist_given_n_age(6, 1.0, Params(1.0, 0.5)),
        dists.pendant_dist_given_n(Params(1.0, 0.5)),
    ], ids=["finite end", "infinite end"])
    def test_empty_sample_is_refused(self, law):
        # a finite end divided by zero; an infinite one returned a report with no checks
        with pytest.raises(ValueError, match="at least one sample"):
            compare(np.array([]), law)

    def test_every_sample_in_the_atom(self):
        # at x1 = 1e-6 the atom holds 0.9999987 of the law and all 1000 samples:
        # the KS threshold divided by sqrt(0) and raised a RuntimeWarning
        x1, p = 1e-6, Params(1, 0.4)
        samples = estimate(partial(sim.batch_given_age, x1, p), mc.read_random_pendant, 1000,
                           np.random.default_rng(0))
        rep = compare(samples, dists.pendant_dist_given_age(x1, p), check="atom only")
        assert rep.atom.empirical_fraction == 1.0 and rep.ks is None
        assert rep.atom.analytic_mass == pytest.approx(0.9999987, abs=1e-7)
        assert rep.atom.passed and rep.passed

    def test_requires_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            compare(np.array([2.0, 1.0]), _law(lambda s: np.ones_like(s), lambda s: s))

    def test_failing_mean_fails_report(self):
        rng = np.random.default_rng(3)
        rep = compare(np.sort(rng.exponential(1.0, 5000)), _law(lambda s: np.exp(-s), lambda s: -np.expm1(-s)),
                      analytic_mean=2.0)
        assert not rep.moments[0].passed
        assert not rep.passed

    def test_report_schema(self):
        rng = np.random.default_rng(4)
        samples = np.sort(rng.random(2000))
        uniform = _law(lambda s: ((s >= 0) & (s <= 1)).astype(float),
                       lambda s: np.clip(s, 0, 1))
        d = compare(samples, uniform, check="x", seed=5).to_dict()
        assert set(d) == {"check", "n_samples", "seed", "ks", "moments",
                          "atom", "pass", "wall_time_s"}
        assert d["check"] == "x" and d["seed"] == 5
        assert set(d["ks"]) == {"stat", "threshold", "pass"}


class TestTwoSample:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(6)
        a = rng.exponential(1.0, 10_000)
        b = rng.exponential(1.0, 10_000)
        assert compare_two_sample(a, b).passed

    def test_different_distributions_fail(self):
        rng = np.random.default_rng(7)
        a = rng.exponential(1.0, 10_000)
        b = rng.exponential(1.3, 10_000)
        assert not compare_two_sample(a, b).passed

    @staticmethod
    def _samples(kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "continuous":
            return rng.exponential(1.0, n), rng.exponential(1.0, n)
        if kind == "shifted":
            return rng.normal(0.0, 1.0, n), rng.normal(0.05, 1.0, n)
        # heavy ties: integer tip counts, as c07's leaf-count reader gives
        return (rng.geometric(0.3, n).astype(float) + 1.0,
                rng.geometric(0.3, n).astype(float) + 1.0)

    @pytest.mark.parametrize("n", [1, 2, 1000, 3000, 10_000, 20_000])
    @pytest.mark.parametrize("kind", ["continuous", "shifted", "ties"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_p_value_is_scipys_exact_p_value(self, n, kind, seed):
        a, b = self._samples(kind, n, 100 * n + seed)
        # the report holds 1 - p
        stat = compare_two_sample(a, b).ks.stat
        assert stat == 1.0 - scipy.stats.ks_2samp(a, b, method="exact").pvalue
        if n <= 10_000:  # where scipy's default is its exact p-value too
            assert stat == 1.0 - scipy.stats.ks_2samp(a, b).pvalue

    def test_report_counts_both_samples(self):
        rep = compare_two_sample(np.arange(5.0), np.arange(5.0), check="x", seed=3)
        assert (rep.check, rep.n_samples, rep.seed, rep.ks.stat) == ("x", 10, 3, 0.0)

    @pytest.mark.parametrize("sizes", [(1000, 999), (3, 0), (0, 3), (0, 0)])
    def test_unequal_or_empty_samples_are_refused(self, sizes):
        a, b = np.ones(sizes[0]), np.ones(sizes[1])
        with pytest.raises(ValueError, match=f"equal, non-zero size are needed, "
                                             f"got {sizes[0]} and {sizes[1]}"):
            compare_two_sample(a, b)


class TestChiSquare:
    def test_matching_law(self):
        rng = np.random.default_rng(8)
        vals = rng.geometric(0.4, 20_000) + 1  # support starts at 2
        pmf = lambda k: 0.4 * 0.6 ** (k - 2)
        assert chi_square_counts(vals, pmf) > 0.01

    def test_wrong_law(self):
        rng = np.random.default_rng(9)
        vals = rng.geometric(0.4, 20_000) + 1
        pmf = lambda k: 0.5 * 0.5 ** (k - 2)
        assert chi_square_counts(vals, pmf) < 1e-6

    @staticmethod
    def _reference(vals, pmf):
        # counts each bin in its own pass and asks scipy.stats for the p-value;
        # the binning and pooling are the harness's
        ks = np.arange(2, vals.max() + 1)
        probs = np.array([pmf(int(k)) for k in ks])
        observed = np.array([np.count_nonzero(vals == k) for k in ks])
        observed = np.append(observed, len(vals) - observed.sum())
        expected = np.append(probs, max(1.0 - probs.sum(), 0.0)) * len(vals)
        while len(expected) > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        return scipy.stats.chisquare(observed, expected).pvalue

    def test_same_p_value_as_counting_each_k(self):
        vals = np.random.default_rng(10).geometric(0.3, 5_000) + 1
        pmf = lambda k: 0.3 * 0.7 ** (k - 2)
        assert chi_square_counts(vals, pmf) == self._reference(vals, pmf)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tables_match_scipys_chisquare(self, seed):
        # a random law on 2..K (at even seeds not the law the counts come from)
        # and a random sample size, so pooling and the tail bin vary
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 40))
        probs = rng.dirichlet(np.ones(k))
        vals = 2 + rng.choice(k, size=int(rng.integers(50, 50_000)), p=probs)
        law = probs if seed % 2 else rng.dirichlet(np.ones(k))
        pmf = lambda n: float(law[n - 2]) if n - 2 < k else 0.0
        assert chi_square_counts(vals, pmf) == self._reference(vals, pmf)

    def test_totals_that_disagree_are_refused(self):
        # probabilities summing past 1 leave no tail bin to absorb the excess
        vals = np.random.default_rng(11).integers(2, 6, 1000)
        with pytest.raises(ValueError, match=r"observed total 1000\.0 and expected "
                                             r"total 1200\.0 differ by more than"):
            chi_square_counts(vals, lambda k: 0.3)


class TestVerifySuite:
    def test_unknown_check_raises(self):
        with pytest.raises(ValueError, match="unknown checks"):
            verify_suite(VerifyConfig(checks=("nope",)))

    def test_checks_are_named_once_in_the_config(self):
        # a bare str was walked letter by letter, as unknown checks 'n', 'o', ...
        with pytest.raises(ValueError, match="sequence of names, not 'normalization'; "
                                             "valid names: yule_pendant_n"):
            VerifyConfig(checks="normalization")
        with pytest.raises(ValueError, match=r"unknown checks \['nope'\]; valid names"):
            VerifyConfig(checks=("normalization", "nope"))

    def test_check_names_cover_registry(self):
        assert "normalization" in CHECK_NAMES
        assert len(CHECK_NAMES) == 13

    @pytest.mark.parametrize("name", sorted(mc._ONE_SAMPLE))
    def test_one_sample_row_resolves(self, name):
        # a row names a LAWS law with a constructor (and a mean, and any variance
        # its LAWS row names, where it checks one), a sim.SCENARIOS sampler whose
        # flags it gives, and a reader
        law, scenario, with_mean, reports = mc._ONE_SAMPLE[name]
        rows = [r for r in dists.LAWS if (r.law, r.scenario) == (law, scenario)]
        assert len(rows) == 1 and callable(getattr(dists, rows[0].dist))
        assert not with_mean or callable(getattr(dists, rows[0].mean))
        assert not with_mean or rows[0].var is None or callable(getattr(dists, rows[0].var))
        sampler, flags = sim.SCENARIOS[scenario]
        assert callable(getattr(sim, sampler)) and law in mc._READERS
        assert name in CHECK_NAMES and reports
        for label, stream, values, _ in reports:
            assert label.startswith(name) and isinstance(stream, int)
            assert set(values) == set(flags) >= set(rows[0].args)

    def test_every_law_scenario_is_a_sampled_scenario(self):
        assert {r.scenario for r in dists.LAWS if r.scenario} <= set(sim.SCENARIOS)

    def test_numeric_checks_pass(self):
        cfg = VerifyConfig(
            checks=("mixture_identity", "means_vs_quadrature",
                    "limit_constant", "normalization"),
            reps=1000,
        )
        reports = verify_suite(cfg)
        assert reports and all(r.passed for r in reports)

    def test_normalization_sweeps_every_density_law(self, monkeypatch):
        # c12 checks the total mass of every law ``recontree density`` serves
        names = {row.dist for row in dists.LAWS if row.dist}
        built = set()
        for name in names:
            monkeypatch.setattr(dists, name, lambda *a, _name=name, _make=getattr(dists, name):
                                built.add(_name) or _make(*a))
        list(mc._normalization_laws())
        assert built == names

    def test_means_check_covers_every_pendant_mean(self, monkeypatch):
        # c09 checks every pendant mean ``recontree expect`` prints against
        # its law's quadrature mean
        names = {row.mean for row in dists.LAWS if row.law == "pendant" and row.mean}
        called = set()
        for name in names:
            monkeypatch.setattr(dists, name, lambda *a, _name=name, _f=getattr(dists, name):
                                called.add(_name) or _f(*a))
        reports = mc._check_means_vs_quadrature(VerifyConfig())
        assert called == names
        assert all(r.passed for r in reports)

    def test_mixture_identity_builds_no_per_n_law(self, monkeypatch):
        # c08 sums its 498 given-(n, x1) densities and 1999 atoms as arrays over n
        calls = {"prob_n_given_age": 0, "pendant_dist_given_n_age": 0}
        for module, name in [(kernel, "prob_n_given_age"), (mc, "prob_n_given_age"),
                             (dists, "pendant_dist_given_n_age")]:
            monkeypatch.setattr(module, name, lambda *a, _name=name, _f=getattr(module, name):
                                calls.__setitem__(_name, calls[_name] + 1) or _f(*a))
        reports = mc._check_mixture_identity(VerifyConfig())
        assert len(reports) == len(mc._MIXTURE_GRID) and all(r.passed for r in reports)
        assert calls["pendant_dist_given_n_age"] == 0
        assert 0 < calls["prob_n_given_age"] <= 2 * len(mc._MIXTURE_GRID)

    def test_reps_bound(self):
        # each rep holds 8 bytes per sampled statistic; 10^11 reps asked for
        # 745 GiB before the first draw
        assert VerifyConfig(reps=mc.MAX_REPS).reps == mc.MAX_REPS
        with pytest.raises(ValueError, match=r"reps must be <= 1e\+07, got 100000000000"):
            VerifyConfig(reps=10**11)

    def test_wall_time_covers_the_check(self):
        cfg = VerifyConfig(checks=("root_edge_n",), reps=1000, seed=1)
        t0 = time.perf_counter()
        reports = verify_suite(cfg)
        wall = time.perf_counter() - t0
        assert len(reports) == 3
        assert sum(r.wall_time_s for r in reports) >= 0.5 * wall

    def test_sampled_check_small_reps(self):
        cfg = VerifyConfig(checks=("root_edge_mean",), reps=10_000, seed=1)
        reports = verify_suite(cfg)
        assert all(r.passed for r in reports)
        assert all(r.wall_time_s > 0 for r in reports)
