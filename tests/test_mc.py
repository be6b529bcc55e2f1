import math
import time
from functools import partial

import numpy as np
import pytest

from recontree import cli, dists, mc, sim
from recontree.dists import MixedDist
from recontree.kernel import Params
from recontree.mc import (
    CHECK_NAMES,
    EmpiricalDist,
    VerifyConfig,
    chi_square_counts,
    compare,
    compare_two_sample,
    estimate,
    ks_one_sample,
    verify_suite,
)


class TestEmpiricalDist:
    def test_basic(self):
        e = EmpiricalDist(samples=np.array([1.0, 2.0, 2.0, 3.0]))
        assert e.n_samples == 4
        assert e.mean() == 2.0
        assert e.atom_fraction == 0.0

    def test_atom_bucket(self):
        s = np.array([0.2, 0.5, 1.0, 1.0, 1.0])
        e = EmpiricalDist(samples=s, atom_location=1.0, atom_count=3)
        assert e.atom_fraction == 0.6
        assert e.continuous().tolist() == [0.2, 0.5]


class TestEstimate:
    def test_rejects_small_reps(self):
        with pytest.raises(ValueError, match="reps"):
            estimate(partial(sim.batch_yule_given_n, 5, 1.0), mc.read_random_pendant,
                     500, 0)

    def test_atom_counting(self):
        p = Params(1.0, 0.0)
        emp = estimate(
            partial(sim.batch_given_n_age, 3, 2.0, p),
            mc.read_random_pendant, 2000, sim.RngStream(1, 0), atom_at=2.0,
        )
        # atom mass is 2/(n(n-1)) = 1/3
        assert abs(emp.atom_fraction - 1 / 3) < 0.05
        assert np.all(emp.continuous() < 2.0)


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
            EmpiricalDist(samples=samples),
            _law(lambda s: 2.0 * np.exp(-2.0 * s), lambda s: -np.expm1(-2.0 * s)),
            analytic_mean=0.5,
        )
        assert rep.ks.passed
        assert rep.moments[0].passed
        assert rep.passed

    def test_mixed_dist_atom_check(self):
        p = Params(1.0, 0.5)
        law = dists.pendant_dist_given_n_age(5, 2.0, p)
        emp = estimate(
            partial(sim.batch_given_n_age, 5, 2.0, p),
            mc.read_random_pendant, 20_000, sim.RngStream(2, 0), atom_at=2.0,
        )
        rep = compare(emp, law, check="mixed")
        assert rep.ks is not None and rep.atom is not None
        assert rep.passed

    def test_requires_sorted(self):
        e = EmpiricalDist(samples=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="sorted"):
            compare(e, _law(lambda s: np.ones_like(s), lambda s: s))

    def test_failing_mean_fails_report(self):
        rng = np.random.default_rng(3)
        e = EmpiricalDist(samples=np.sort(rng.exponential(1.0, 5000)))
        rep = compare(e, _law(lambda s: np.exp(-s), lambda s: -np.expm1(-s)),
                      analytic_mean=2.0)
        assert not rep.moments[0].passed
        assert not rep.passed

    def test_report_schema(self):
        rng = np.random.default_rng(4)
        e = EmpiricalDist(samples=np.sort(rng.random(2000)))
        uniform = _law(lambda s: ((s >= 0) & (s <= 1)).astype(float),
                       lambda s: np.clip(s, 0, 1))
        d = compare(e, uniform, check="x", seed=5).to_dict()
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


class TestVerifySuite:
    def test_unknown_check_raises(self):
        with pytest.raises(ValueError, match="unknown checks"):
            verify_suite(VerifyConfig(checks=("nope",)))

    def test_check_names_cover_registry(self):
        assert "normalization" in CHECK_NAMES
        assert len(CHECK_NAMES) == 13

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
        names = {name for name, _, _ in cli._DENSITY_LAWS.values()}
        built = set()
        for name in names:
            monkeypatch.setattr(dists, name, lambda *a, _name=name, _make=getattr(dists, name):
                                built.add(_name) or _make(*a))
        list(mc._normalization_laws())
        assert built == names

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
