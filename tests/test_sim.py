import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats as sps

from recontree import dists, mc, sim
from recontree.kernel import Params, RawParams, p0, prob_n_given_age, transform_params
from recontree.sim import (
    ExtinctRun,
    RejectionStats,
    RngStream,
    _geometric_count,
    _speciation_time_inverse_cdf,
    reconstruct,
    sample_given_age,
    sample_given_n_age,
    sample_rejection_given_age,
    sample_yule_given_n,
    simulate_forward,
)
from recontree.tree import EXTANT, ReconTree, to_newick

SUB = Params(1.0, 0.5)


def revalidate(t: ReconTree) -> ReconTree:
    """Re-run full structural validation on a sampler-produced tree."""
    return ReconTree(t.times, t.parent)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator().random(5)
        b = RngStream(42, 3).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().random(5)
        b = RngStream(42, 1).generator().random(5)
        assert not np.array_equal(a, b)


class TestSimulateForward:
    def test_duration_rule_times(self):
        rng = np.random.default_rng(1)
        full = simulate_forward(RawParams(1.0, 0.0, 1.0), 2.0, rng)
        assert full.present == 2.0
        for i in range(full.n_lineages):
            assert full.btime[i] <= full.etime[i] <= 2.0
        with pytest.raises(ValueError, match="duration must be > 0"):
            simulate_forward(RawParams(1.0, 0.0, 1.0), 0.0, rng)

    def test_extinction_raises(self):
        raw = RawParams(1.0, 1.0, 1.0)
        seen = False
        for seed in range(30):
            try:
                simulate_forward(raw, 50.0, np.random.default_rng(seed))
            except ExtinctRun:
                seen = True
                break
        assert seen

    def test_sampling_flags(self):
        rng = np.random.default_rng(2)
        raw = RawParams(1.0, 0.0, 0.5)
        full = simulate_forward(raw, 3.7, rng)  # about e^3.7 = 40 tips
        extant = sum(1 for k in full.kind if k == EXTANT)
        assert 0 < full.sampled_tip_count() < extant

    def test_yule_population_growth_law(self):
        # E[K_t] = e^{lam t} for pure birth from one lineage
        rng = np.random.default_rng(3)
        raw = RawParams(1.0, 0.0, 1.0)
        counts = []
        for _ in range(4000):
            full = simulate_forward(raw, 1.0, rng)
            counts.append(sum(1 for k in full.kind if k == EXTANT))
        counts = np.array(counts)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - math.e) < 3 * se


class TestReconstruct:
    def test_complete_sampling_keeps_all_tips(self):
        rng = np.random.default_rng(4)
        raw = RawParams(1.0, 0.0, 1.0)
        checked = 0
        while checked < 10:
            full = simulate_forward(raw, 2.0, rng)
            extant = sum(1 for k in full.kind if k == EXTANT)
            t = reconstruct(full)
            if extant < 2:
                assert t is None
                continue
            assert t.n == extant
            revalidate(t)
            checked += 1

    def test_tip_count_matches_sampled(self):
        rng = np.random.default_rng(5)
        raw = RawParams(1.0, 0.6, 0.7)
        kept = 0
        for _ in range(200):
            try:
                full = simulate_forward(raw, 2.0, rng)
            except ExtinctRun:
                continue
            t = reconstruct(full)
            m = full.sampled_tip_count()
            if m < 2:
                assert t is None
            else:
                assert t.n == m
                assert t.mrca_age <= full.present + 1e-12
                revalidate(t)
                kept += 1
        assert kept > 20

    def test_mrca_age_is_oldest_sampled_split(self):
        rng = np.random.default_rng(6)
        raw = RawParams(1.0, 0.0, 0.4)
        for _ in range(50):
            full = simulate_forward(raw, 2.5, rng)
            t = reconstruct(full)
            if t is None:
                continue
            # diversity conservation: each pendant path length equals the
            # age of the MRCA in the original timescale
            lens = t.edge_lengths()
            for leaf in range(t.n):
                total, v = 0.0, leaf
                while t.parent[v] >= 0:
                    total += lens[v]
                    v = t.parent[v]
                assert total == pytest.approx(t.mrca_age, rel=1e-12)


class TestYuleGivenN:
    def test_shape_and_validity(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 10, 50):
            t = sample_yule_given_n(n, 1.0, rng)
            assert t.n == n
            revalidate(t)

    def test_reproducible(self):
        a = sample_yule_given_n(12, 1.0, RngStream(9, 0))
        b = sample_yule_given_n(12, 1.0, RngStream(9, 0))
        assert to_newick(a) == to_newick(b)

    def test_mrca_age_distribution(self):
        # root age is a sum of Exp(i lam), i=2..n -> hypoexponential
        n, m = 8, 20_000
        rng = np.random.default_rng(8)
        ages = np.sort(np.concatenate(
            [b.times[:, n] for b in sim.batch_yule_given_n(n, 1.0, m, rng)]))
        ks = mc.ks_one_sample(ages, dists.hypoexp_dist(n, 1.0).cdf)
        assert ks < 1.6276 / math.sqrt(m)

    def test_rejects_extinction_params(self):
        with pytest.raises(ValueError):
            sample_yule_given_n(5, SUB, np.random.default_rng(0))


class TestInverseCdf:
    def test_round_trip(self):
        x1 = 2.0
        for p in (SUB, Params(1.0, 0.0), Params(1.0, 1.0), Params(1.0, -0.5)):
            y = np.linspace(1e-6, 1 - 1e-6, 200)
            s = _speciation_time_inverse_cdf(y, x1, p)
            _, G = dists.speciation_kernel(s, x1, p)
            assert np.max(np.abs(G - y)) < 1e-12

    @pytest.mark.parametrize("rel", [1e-12, 9.9e-9])
    def test_round_trip_in_the_critical_band(self, rel):
        # |lam - mu| <= 1e-8 lam: the inverse took the critical q/(1 - lam q),
        # 5e-9 off relative in G at rel = 9.9e-9 and lam x1 = 1e4
        mpmath = pytest.importorskip("mpmath")
        y = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
        for lam in (1e-3, 1.0, 1e3):
            p = Params(lam, lam * (1.0 - rel))
            for x1 in (0.01 / lam, 1.0 / lam, 1e4 / lam):
                s = _speciation_time_inverse_cdf(y, x1, p)
                with mpmath.workdps(50):
                    l, m = mpmath.mpf(p.lam), mpmath.mpf(p.mu)
                    mp0 = lambda t: -mpmath.expm1(-(l - m) * t) / (l - m * mpmath.exp(-(l - m) * t))
                    G = np.array([float(mp0(t) / mp0(x1)) for t in s.tolist()])
                assert np.all(np.abs(G - y) <= 1e-14 * y), (lam, x1)


class TestGivenNAge:
    def test_shape_and_mrca(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 9):
            t = sample_given_n_age(n, 1.7, SUB, rng)
            assert t.n == n
            assert t.mrca_age == 1.7
            revalidate(t)

    def test_speciation_time_order_statistics(self):
        # the k-th oldest split follows the order-statistic law
        n, x1, m = 6, 2.0, 20_000
        rng = np.random.default_rng(12)
        times = np.concatenate([np.sort(b.times[:, n + 1:], axis=1)[:, ::-1]
                                for b in sim.batch_given_n_age(n, x1, SUB, m, rng)])
        for k in (2, 3, n - 1):
            ks = mc.ks_one_sample(np.sort(times[:, k - 2]),
                                  lambda s: dists.speciation_time_cdf(s, k, n, x1, SUB))
            assert ks < 1.6276 / math.sqrt(m)

    @pytest.mark.parametrize("sampler", [
        partial(sim.batch_given_n_age, 4, 1.0, SUB),
        partial(sim.batch_yule_given_n, 4, 1.0),
    ], ids=["given_n_age", "yule_given_n"])
    def test_topology_uniform_cherry_fraction(self, sampler):
        # among ranked 4-leaf topologies, uniform in every scenario, the
        # balanced shape has prob 1/3
        rng = np.random.default_rng(13)
        m = 10_000
        balanced = 0
        for b in sampler(m, rng):
            kids = np.nonzero(b.parent == b.n)[1].reshape(len(b), 2)  # the root's
            balanced += np.count_nonzero((kids >= b.n).all(axis=1))
        frac = balanced / m
        assert abs(frac - 1 / 3) < 3 * math.sqrt((1 / 3) * (2 / 3) / m)


# every batch sampler, in both topology paths (with small_blocks)
BOTH_TOPOLOGY_PATHS = pytest.mark.parametrize("rows", [1, 10**9], ids=["lockstep", "row_by_row"])
EVERY_BATCH_SAMPLER = pytest.mark.parametrize("sampler", [
    partial(sim.batch_yule_given_n, 2, 1.0),
    partial(sim.batch_yule_given_n, 20, 1.0),
    partial(sim.batch_given_n_age, 7, 1.5, SUB),
    partial(sim.batch_given_age, 1.5, SUB),
    partial(sim.batch_forward_given_age, 1.0, RawParams(2.0, 0.5, 0.5)),
], ids=["yule_given_n2", "yule_given_n20", "given_n_age", "given_age", "forward"])


def small_blocks(monkeypatch, rows):
    """Blocks of a few trees each; the given-x1 ones hold several tip-count batches."""
    monkeypatch.setattr(sim, "LOCKSTEP_ROWS", rows)
    monkeypatch.setattr(sim, "BATCH_NODES", 60)
    monkeypatch.setattr(sim, "FORWARD_NODES", 200)


class TestBatchLayout:
    # the layout every reader indexes: tips 0..n-1 at age 0, the root at
    # node n, the one node with parent -1, and nodes n..2n-2 in
    # non-increasing age
    @BOTH_TOPOLOGY_PATHS
    @EVERY_BATCH_SAMPLER
    def test_layout_and_lengths(self, sampler, rows, monkeypatch):
        small_blocks(monkeypatch, rows)
        count = 0
        for b in sampler(200, np.random.default_rng(31)):
            n, count = b.n, count + len(b)
            assert np.all(b.times[:, :n] == 0.0)
            assert np.array_equal(b.parent < 0, np.broadcast_to(np.arange(2 * n - 1) == n,
                                                                 b.parent.shape))
            assert np.all(np.diff(b.times[:, n:], axis=1) <= 0.0)
            lengths = b.lengths
            for i in range(len(b)):
                assert lengths[i].tobytes() == b.tree(i).edge_lengths().tobytes()
                assert np.array_equal(b.tree(i).children, revalidate(b.tree(i)).children)
        assert count == 200


class TestGeometricCount:
    def test_inversion_boundaries(self):
        assert _geometric_count(1.0, 0.5) == 1
        assert _geometric_count(0.6, 0.5) == 1
        assert _geometric_count(0.4, 0.5) == 2
        assert _geometric_count(0.5, 0.0) == 1

    def test_matches_geometric_law(self):
        rng = np.random.default_rng(14)
        r, m = 0.6, 50_000
        vals = np.array([_geometric_count(rng.random(), r) for _ in range(m)])
        for g in (1, 2, 3, 4):
            expected = (1 - r) * r ** (g - 1)
            frac = np.mean(vals == g)
            assert abs(frac - expected) < 3 * math.sqrt(expected / m) + 1e-3


class TestGivenAge:
    def test_mrca_fixed(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            t = sample_given_age(1.5, SUB, rng)
            assert t.mrca_age == 1.5
            assert t.n >= 2
            revalidate(t)

    def test_tip_count_law(self):
        from recontree.kernel import prob_n_given_age
        from recontree.mc import chi_square_counts
        rng = np.random.default_rng(16)
        x1, p = 1.5, Params(1.0, 0.4)
        ns = np.concatenate([np.full(len(b), b.n)
                             for b in sim.batch_given_age(x1, p, 20_000, rng)])
        pval = chi_square_counts(ns, lambda n: prob_n_given_age(n, x1, p))
        assert pval > 0.01

    def test_underflowed_ratio_gives_two_tips(self):
        # lam p0(x1) = 1e-330 rounds to 0: each side's count is 1, as
        # _geometric_count gives; the tip-count table took log(0) and raised
        # "math domain error" from the second tree on
        p, x1 = Params(1e-100, -1e100), 1e-230
        assert p.lam * p0(x1, p) == 0.0
        batches = list(sim.batch_given_age(x1, p, 3, np.random.default_rng(1)))
        assert [(b.n, len(b)) for b in batches] == [(2, 3)]


class TestGivenAgeSizeGuard:
    # at x1=45 the tip count would need terabytes; at x1=70 lam*p0 rounds to 1
    @pytest.mark.parametrize("x1", [45.0, 70.0])
    def test_rejects_huge_mean_tip_count(self, x1):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="mean tip count"):
            sample_given_age(x1, Params(1.0, 0.4), rng)
        assert rng.bit_generator.state == state  # raised before any draw

    def test_accepts_large_but_bounded_age(self):
        t = sample_given_age(10.0, Params(1.0, 0.4), np.random.default_rng(1))
        assert t.mrca_age == 10.0


class TestTreeStream:
    def test_stream_order_one_block_held(self, monkeypatch):
        # a block holds at most 50 // 3 + 1 trees, each bucketed by its n
        monkeypatch.setattr(sim, "BATCH_NODES", 50)
        x1, p, reps = 1.5, Params(1.0, 0.4), 300
        drawn = []

        def batches():
            for b in sim.batch_given_age(x1, p, reps, np.random.default_rng(3)):
                drawn.extend(b.index.tolist())
                yield b

        ns = []
        for k, t in enumerate(sim.tree_stream(batches())):
            assert len(drawn) - k <= 50 // 3 + 1
            ns.append(t.n)
        want = mc.collect(partial(sim.batch_given_age, x1, p),
                          {"n": mc.read_leaf_count}, reps, np.random.default_rng(3))["n"]
        assert ns == want.astype(int).tolist()
        assert sorted(drawn) == list(range(reps))


class TestBatchNewick:
    @BOTH_TOPOLOGY_PATHS
    @EVERY_BATCH_SAMPLER
    def test_rows_in_order_write_the_tree_stream(self, sampler, rows, monkeypatch):
        # TreeBatch.newick over rows_in_order is to_newick over tree_stream,
        # byte for byte and in the same order
        small_blocks(monkeypatch, rows)
        batches = list(sampler(200, np.random.default_rng(37)))
        texts = [b.newick(row) for b, row in sim.rows_in_order(batches)]
        want = [to_newick(t) for t in sim.tree_stream(sampler(200, np.random.default_rng(37)))]
        assert texts == want and len(texts) == 200
        if sampler.func is sim.batch_given_age:
            # a block of several tip-count batches: stream order is not batch order
            assert any(np.any(np.diff(b.index) != 1) for b in batches)


class TestBatchSamplerGuards:
    # each batch sampler refuses its bad arguments when called, before any
    # draw or allocation, not when its batches are read; the single-tree Yule
    # sampler refuses a rate that is not > 0 as its batch sampler does, and
    # the per-tree rejection oracle refuses x1 <= 0 before its first draw
    @pytest.mark.parametrize("make, message", [
        (lambda r: sim.batch_yule_given_n(1, 1.0, 10, r), "n must be >= 2"),
        (lambda r: sim.batch_yule_given_n(5, SUB, 10, r), "requires mu = 0"),
        (lambda r: sim.batch_given_n_age(1, 2.0, SUB, 10, r), "n must be >= 2"),
        # a tip count above the bound; tests/test_cli.py::TestSizeBounds runs
        # the sizes that would exhaust memory, in a child with its own limit
        (lambda r: sim.batch_yule_given_n(sim.MAX_MEAN_TIPS + 1, 1.0, 1, r),
         r"n must be <= 1e\+06, got 1000001"),
        (lambda r: sim.batch_given_n_age(sim.MAX_MEAN_TIPS + 1, 2.0, SUB, 1, r),
         r"n must be <= 1e\+06, got 1000001"),
        (lambda r: sim.batch_given_n_age(4, 0.0, SUB, 10, r), "x1 must be > 0"),
        (lambda r: sim.batch_given_n_age(4, -1.0, SUB, 10, r), "x1 must be > 0"),
        (lambda r: sim.batch_given_age(0.0, SUB, 10, r), "x1 must be > 0"),
        (lambda r: sim.batch_given_age(45.0, Params(1.0, 0.4), 10, r), "mean tip count"),
        (lambda r: sim.batch_given_age(70.0, Params(1.0, 0.4), 10, r), "mean tip count"),
        (lambda r: sample_rejection_given_age(0.0, RawParams(1.0, 0.0, 1.0), r),
         "x1 must be > 0"),
        (lambda r: sim.batch_forward_given_age(0.0, RawParams(1.0, 0.0, 1.0), 10, r),
         "x1 must be > 0"),
        (lambda r: sim.batch_forward_given_age(-1.0, RawParams(1.0, 0.0, 1.0), 10, r),
         "x1 must be > 0"),
        # e^14 > 10^6 lineages per side on average; e^45 would need terabytes
        *[(lambda r, x1=x1: sim.batch_forward_given_age(x1, RawParams(1.0, 0.0, 1.0), 10, r),
           "mean lineage count") for x1 in (14.0, 45.0)],
        # a negative reps, for every batch sampler
        *[(lambda r, make=make: make(-3, r), "reps must be >= 0, got -3") for make in (
            partial(sim.batch_yule_given_n, 5, 1.0),
            partial(sim.batch_given_n_age, 4, 2.0, SUB),
            partial(sim.batch_given_age, 1.5, SUB),
            partial(sim.batch_forward_given_age, 1.0, RawParams(2.0, 0.5, 0.5)),
        )],
        # a float count, for every sampler that takes one: batch_given_n_age
        # ended in a TypeError from random_raw
        *[(lambda r, make=make: make(6.0, r), "n must be an integer, got 6.0") for make in (
            lambda n, r: sim.batch_yule_given_n(n, 1.0, 3, r),
            lambda n, r: sim.batch_given_n_age(n, 2.0, SUB, 3, r),
            lambda n, r: sample_yule_given_n(n, 1.0, r),
            lambda n, r: sample_given_n_age(n, 2.0, SUB, r),
        )],
        *[(lambda r, make=make: make(3.0, r), "reps must be an integer, got 3.0") for make in (
            partial(sim.batch_yule_given_n, 5, 1.0),
            partial(sim.batch_given_n_age, 4, 2.0, SUB),
            partial(sim.batch_given_age, 1.5, SUB),
            partial(sim.batch_forward_given_age, 1.0, RawParams(2.0, 0.5, 0.5)),
        )],
        # a Yule rate that is not > 0 and finite, for the single-tree and batch samplers
        *[(lambda r, lam=lam: sample_yule_given_n(5, lam, r), "lam must be > 0")
          for lam in (0.0, -1.0, math.nan, math.inf)],
        *[(lambda r, lam=lam: sim.batch_yule_given_n(5, lam, 10, r), "lam must be > 0")
          for lam in (0.0, -1.0, math.nan, math.inf)],
    ])
    def test_rejects_before_any_draw(self, make, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                make(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rng.bit_generator.state == state
        assert peak < 100_000


class TestRejectionGivenAge:
    def test_mrca_and_validity(self):
        rng = np.random.default_rng(17)
        raw = RawParams(1.0, 0.0, 1.0)
        stats = RejectionStats()
        for _ in range(30):
            t = sample_rejection_given_age(1.0, raw, rng, stats=stats)
            assert t.mrca_age == pytest.approx(1.0)
            revalidate(t)
        assert stats.accepted == 30
        assert stats.attempts >= 30

    def test_acceptance_rate_prediction(self):
        # each root-child side succeeds iff it leaves >= 1 sampled extant
        # descendant; q(t) solves the extinction Riccati with q(0) = 1 - f,
        # and an attempt is accepted with probability (1 - q(x1))^2
        from scipy.integrate import solve_ivp
        raw = RawParams(2.0, 0.5, 0.5)
        lh, mh, f = raw.lambda_hat, raw.mu_hat, raw.f
        sol = solve_ivp(
            lambda t, q: mh - (lh + mh) * q + lh * q * q,
            [0.0, 1.0], [1.0 - f], rtol=1e-10, atol=1e-12,
        )
        predicted = (1.0 - sol.y[0, -1]) ** 2
        # 2000 trees from each oracle: one at a time, or in lockstep blocks
        per_tree, lockstep = RejectionStats(), RejectionStats()
        rng = np.random.default_rng(18)
        for _ in range(2000):
            sample_rejection_given_age(1.0, raw, rng, stats=per_tree)
        list(sim.batch_forward_given_age(1.0, raw, 2000, np.random.default_rng(25),
                                         stats=lockstep))
        for stats in (per_tree, lockstep):
            assert stats.accepted == 2000
            se = math.sqrt(predicted * (1 - predicted) / stats.attempts)
            assert abs(stats.acceptance_rate - predicted) < 4 * se

    def test_max_attempts_exhausted(self, monkeypatch):
        monkeypatch.setattr(sim, "MAX_ATTEMPTS", 5)
        rng = np.random.default_rng(19)
        raw = RawParams(1.0, 1.0, 0.01)  # critical with heavy subsampling
        with pytest.raises(RuntimeError, match="no acceptance within 5 attempts"):
            sample_rejection_given_age(8.0, raw, rng)


class TestForwardGivenAge:
    """The lockstep forward oracle against the per-tree oracle and the laws."""

    RAW, X1 = RawParams(2.0, 0.5, 0.5), 1.0
    READERS = {"pendant": mc.read_random_pendant, "diversity": mc.read_diversity,
               "n": mc.read_leaf_count}

    def test_same_law_as_per_tree_oracle(self):
        # two-sample KS at the 99% level, each oracle on its own test seed
        lockstep = mc.collect(partial(sim.batch_forward_given_age, self.X1, self.RAW),
                              self.READERS, 20_000, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        per_tree = {name: np.empty(4000) for name in self.READERS}
        for i in range(4000):
            t = sample_rejection_given_age(self.X1, self.RAW, rng)
            # the pendant edge's draw, integers(n), follows its tree's draws
            per_tree["pendant"][i] = t.times[t.parent[int(rng.integers(t.n))]]
            per_tree["diversity"][i] = t.edge_lengths().sum()
            per_tree["n"][i] = t.n
        for name in self.READERS:
            assert sps.ks_2samp(lockstep[name], per_tree[name]).pvalue > 0.01, name

    def test_mean_tip_count(self):
        # the tip count given x1 is the sum of two geometric counts with ratio
        # lam p0(x1), in the transformed rates: mean 2 / (1 - lam p0(x1))
        p = transform_params(self.RAW)
        ns = mc.collect(partial(sim.batch_forward_given_age, self.X1, self.RAW),
                        {"n": mc.read_leaf_count}, 20_000, np.random.default_rng(23))["n"]
        exact = 2.0 / (1.0 - p.lam * p0(self.X1, p))
        assert abs(ns.mean() - exact) < 4 * ns.std(ddof=1) / math.sqrt(ns.size)

    def test_tip_count_law(self):
        # chi-square of n against the exact law p_n(x1) in the transformed
        # rates, as c06 checks the exact sampler; no per-tree oracle involved
        p = transform_params(self.RAW)
        ns = mc.collect(partial(sim.batch_forward_given_age, self.X1, self.RAW),
                        {"n": mc.read_leaf_count}, 20_000, np.random.default_rng(26))["n"]
        p_chi = mc.chi_square_counts(ns.astype(int),
                                     lambda n: prob_n_given_age(n, self.X1, p))
        assert p_chi > 0.01

    @pytest.mark.parametrize("raw, x1", [(RawParams(2.0, 0.5, 0.5), 1.0),
                                         (RawParams(1.0, 0.3, 1.0), 1.5),
                                         (RawParams(1.0, 1.0, 0.3), 2.0),
                                         (RawParams(1.0, 0.0, 1.0), 0.1)])
    def test_every_row_is_a_valid_tree(self, raw, x1, monkeypatch):
        # small blocks, so that many blocks and tip counts are seen
        monkeypatch.setattr(sim, "FORWARD_NODES", 500)
        stats = RejectionStats()
        index = []
        for b in sim.batch_forward_given_age(x1, raw, 500, np.random.default_rng(24),
                                             draws=[lambda n: n], stats=stats):
            index += b.index.tolist()
            assert np.all((b.draws[:, 0] >= 0) & (b.draws[:, 0] < b.n))
            for i in range(len(b)):
                t = ReconTree(b.times[i], b.parent[i], validate=True)
                assert t.root == b.n and t.mrca_age == x1
        assert sorted(index) == list(range(500))
        assert stats.accepted == 500 and stats.attempts >= 500

    def test_max_attempts_exhausted(self, monkeypatch):
        # acceptance rate (1/2.2)^2 = 0.207, just above 1/5: served, and at this
        # seed a block ends with 5 failed pairs
        monkeypatch.setattr(sim, "MAX_ATTEMPTS", 5)
        rng = np.random.default_rng(25)
        with pytest.raises(RuntimeError, match="no acceptance within 5 attempts"):
            list(sim.batch_forward_given_age(1.2, RawParams(1.0, 1.0, 1.0), 10, rng))

    @pytest.mark.parametrize("raw, x1, cap", [
        (RawParams(1.0, 0.0, 1e-4), 1.0, sim.MAX_ATTEMPTS),  # rate 7.4e-8
        (RawParams(1.0, 1.0, 0.01), 8.0, 5),                 # rate 8.6e-5
        (RawParams(1.0, 1.0, 1.0), 1.3, 5),                  # rate (1/2.3)^2 = 0.189
    ])
    def test_hopeless_rates_refused_before_any_draw(self, raw, x1, cap, monkeypatch):
        # the closed-form acceptance rate (f (1 - mu p0(x1)))^2 below 1/MAX_ATTEMPTS
        # is refused up front; at the first rates the oracle ran 20 s into a RuntimeError
        monkeypatch.setattr(sim, "MAX_ATTEMPTS", cap)
        rng = np.random.default_rng(19)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"acceptance rate of .*, below 1/{cap}"):
            sim.batch_forward_given_age(x1, raw, 10, rng)
        assert rng.bit_generator.state == before


class TestInitialEdge:
    def test_conditioned_survival_matches_formula(self):
        # condition forward pure-birth runs on exactly 2 tips at t = 1 and
        # measure P(first split later than l = 0.5); frozen value 0.62246
        rng = np.random.default_rng(20)
        raw = RawParams(1.0, 0.0, 1.0)
        hits, kept = 0, 0
        for _ in range(20_000):
            full = simulate_forward(raw, 1.0, rng)
            if sum(1 for k in full.kind if k == EXTANT) != 2:
                continue
            kept += 1
            if full.etime[0] > 0.5:
                hits += 1
        target = 0.6224593312018546
        assert kept > 3000
        se = math.sqrt(target * (1 - target) / kept)
        assert abs(hits / kept - target) < 3 * se


def _drawn(batches) -> list:
    """Each tree of a batch sampler, in the order drawn: times, parents, draws."""
    return [(b.times[i].tolist(), b.parent[i].tolist(), b.draws[i].tolist())
            for b, i in sim.rows_in_order(batches)]


# every sampler, as a function of its tip count n (where it takes one), its
# reps and its rng; each with one reader draw
COUNT_SAMPLERS = {
    "batch_yule_given_n":
        lambda n, reps, r: _drawn(sim.batch_yule_given_n(n, 1.0, reps, r, [lambda m: m])),
    "batch_given_n_age":
        lambda n, reps, r: _drawn(sim.batch_given_n_age(n, 2.0, SUB, reps, r, [lambda m: m])),
    "batch_given_age":
        lambda n, reps, r: _drawn(sim.batch_given_age(1.5, SUB, reps, r, [lambda m: m])),
    "batch_forward_given_age": lambda n, reps, r: _drawn(sim.batch_forward_given_age(
        1.0, RawParams(2.0, 0.5, 0.5), reps, r, [lambda m: m])),
    "sample_yule_given_n": lambda n, reps, r: to_newick(sample_yule_given_n(n, 1.0, r)),
    "sample_given_n_age": lambda n, reps, r: to_newick(sample_given_n_age(n, 2.0, SUB, r)),
    "collect": lambda n, reps, r: mc.collect(
        partial(sim.batch_given_n_age, n, 2.0, SUB), {"pendant": mc.read_random_pendant},
        reps, r)["pendant"].tolist(),
}


class TestCounts:
    @pytest.mark.parametrize("name", COUNT_SAMPLERS)
    def test_numpy_ints_draw_the_python_int_trees(self, name):
        # batch_yule_given_n(np.int64(6), ...) multiplied a list by numpy's bool
        draw = COUNT_SAMPLERS[name]
        want = draw(6, 5, np.random.default_rng(3))
        assert draw(np.int64(6), np.int64(5), np.random.default_rng(3)) == want
        assert draw(np.int32(6), np.uint16(5), np.random.default_rng(3)) == want


@pytest.mark.parametrize("rng", [5, np.random.RandomState(5)], ids=["int", "RandomState"])
@pytest.mark.parametrize("name", [*COUNT_SAMPLERS, "sample_given_age",
                                  "sample_rejection_given_age", "simulate_forward"])
def test_an_rng_that_is_not_a_generator_is_refused_before_any_draw(name, rng):
    # an int seed ended in "AttributeError: 'int' object has no attribute
    # 'standard_exponential'"
    draw = {**COUNT_SAMPLERS,
            "sample_given_age": lambda n, reps, r: sample_given_age(1.5, SUB, r),
            "sample_rejection_given_age": lambda n, reps, r: sample_rejection_given_age(
                1.0, RawParams(2.0, 0.5, 0.5), r),
            "simulate_forward": lambda n, reps, r: simulate_forward(
                RawParams(2.0, 0.5, 0.5), 1.0, r)}[name]
    before = str(rng.get_state()) if isinstance(rng, np.random.RandomState) else None
    with pytest.raises(ValueError, match=f"^rng must be a numpy Generator or an RngStream, "
                                         f"got {type(rng).__name__}$"):
        draw(6, 5, rng)
    if before is not None:
        assert str(rng.get_state()) == before
