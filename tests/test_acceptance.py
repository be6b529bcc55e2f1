"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Monte Carlo checks run at 10^5 trees with fixed seeds (deterministic),
one-sample KS at the 99% level (threshold 0.00516 at 10^5), moments within
3 standard errors, atoms within a 99% binomial confidence interval, and
pure-numeric identities at the stated absolute/relative tolerances.
"""

import math
import time
from functools import partial

import numpy as np
import pytest

from recontree import dists, mc, sim
from recontree.kernel import Params, RawParams, prob_n_given_age, transform_params

REPS = 100_000
SEED = 20260824
KS_THRESHOLD = 0.00516  # 1.6276 / sqrt(1e5), 99% one-sample level


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} [{name}] {detail}"
    print(line)
    assert ok, line


def ks_stat(sorted_samples, cdf):
    return mc.ks_one_sample(np.asarray(sorted_samples), cdf)


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def yule20():
    """10^5 pure-birth trees with n=20, lam=1; pendant and interior draws."""
    rng = sim.RngStream(SEED, 101).generator()
    t0 = time.perf_counter()
    data = mc.collect(
        partial(sim.batch_yule_given_n, 20, 1.0),
        {
            "pendant": mc.read_random_pendant,
            "interior": mc.read_random_interior,
        },
        REPS,
        rng,
    )
    data["wall_s"] = time.perf_counter() - t0
    return data


@pytest.fixture(scope="module")
def given_age_run():
    """10^5 trees from the fixed-age sampler at (lam=1, mu=0.4, x1=1.5)."""
    p = Params(1.0, 0.4)
    rng = sim.RngStream(SEED, 102).generator()
    return mc.collect(
        partial(sim.batch_given_age, 1.5, p),
        {"n": mc.read_leaf_count, "pendant": mc.read_random_pendant},
        REPS,
        rng,
    )


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_yule_pendant_law(yule20):
    s = np.sort(yule20["pendant"])
    stat = ks_stat(s, lambda x: -np.expm1(-2.0 * x))
    se = s.std(ddof=1) / math.sqrt(REPS)
    mean_gap = abs(s.mean() - 0.5)
    ok = stat < KS_THRESHOLD and mean_gap <= 3 * se and yule20["wall_s"] < 30.0
    report(
        "c01 yule pendant", ok,
        f"KS={stat:.5f} (<{KS_THRESHOLD}), |mean-0.5|={mean_gap:.2e} "
        f"(<= {3 * se:.2e}), sampling {yule20['wall_s']:.1f}s (<30s)",
    )


def test_c02_interior_edge_law(yule20):
    s = np.sort(yule20["interior"])
    stat = ks_stat(s, lambda x: -np.expm1(-2.0 * x))
    se = s.std(ddof=1) / math.sqrt(REPS)
    mean_gap = abs(s.mean() - 0.5)
    ok = stat < KS_THRESHOLD and mean_gap <= 3 * se
    report(
        "c02 interior edge", ok,
        f"KS={stat:.5f} (<{KS_THRESHOLD}), |mean-0.5|={mean_gap:.2e} "
        f"(<= {3 * se:.2e})",
    )


def test_c03_root_edge_law():
    details, ok = [], True
    for i, n in enumerate((2, 4, 10)):
        rng = sim.RngStream(SEED, 110 + i).generator()
        emp = mc.estimate(
            partial(sim.batch_yule_given_n, n, 1.0),
            mc.read_random_root_edge, REPS, rng,
        )
        stat = ks_stat(emp.samples, lambda t: dists.root_edge_cdf_given_n(t, n, 1.0))
        se = emp.mean_se()
        gap = abs(emp.mean() - dists.root_edge_mean_given_n(n, 1.0))
        ok = ok and stat < KS_THRESHOLD and gap <= 3 * se
        details.append(f"n={n}: KS={stat:.5f}, |mean gap|={gap:.2e}<= {3 * se:.2e}")
    report("c03 root edge", ok, "; ".join(details))


def test_c04_diversity_gamma():
    n = 10
    rng = sim.RngStream(SEED, 120).generator()
    emp = mc.estimate(
        partial(sim.batch_yule_given_n, n, 1.0), mc.read_diversity,
        REPS, rng,
    )
    s = emp.samples
    stat = ks_stat(s, lambda d: dists.diversity_cdf_given_n(d, n, 1.0))
    mean_gap = abs(s.mean() - 9.0)
    se = emp.mean_se()
    svar = s.var(ddof=1)
    mu4 = np.mean((s - s.mean()) ** 4)
    var_se = math.sqrt(max(mu4 - svar ** 2, 0.0) / REPS)
    var_gap = abs(svar - 9.0)
    ok = stat < KS_THRESHOLD and mean_gap <= 3 * se and var_gap <= 3 * var_se
    report(
        "c04 diversity gamma", ok,
        f"KS={stat:.5f} (<{KS_THRESHOLD}), |mean-9|={mean_gap:.2e}"
        f"<= {3 * se:.2e}, |var-9|={var_gap:.2e}<= {3 * var_se:.2e}",
    )


def test_c05_pendant_given_n_age():
    x1 = 2.0
    details, ok = [], True
    sid = 130
    for lam, mu in ((1.0, 0.0), (1.0, 0.5), (1.0, 1.0)):
        p = Params(lam, mu)
        for n in (3, 6):
            rng = sim.RngStream(SEED, sid).generator()
            sid += 1
            emp = mc.estimate(
                partial(sim.batch_given_n_age, n, x1, p),
                mc.read_random_pendant, REPS, rng, atom_at=x1,
            )
            law = dists.pendant_dist_given_n_age(n, x1, p)
            aw = law.atom_weight
            stat = ks_stat(emp.continuous(), lambda s: law.cdf(s) / (1.0 - aw))
            half = mc.Z_99 * math.sqrt(aw * (1.0 - aw) / REPS)
            atom_gap = abs(emp.atom_fraction - aw)
            ok = ok and stat < KS_THRESHOLD and atom_gap <= half
            details.append(
                f"mu={mu},n={n}: KS={stat:.5f}, |atom gap|={atom_gap:.2e}"
                f"<= {half:.2e}"
            )
    report("c05 pendant | n,x1", ok, "; ".join(details))


def test_c06_given_age_laws(given_age_run):
    p, x1 = Params(1.0, 0.4), 1.5
    ns = given_age_run["n"].astype(int)
    pval = mc.chi_square_counts(ns, lambda n: prob_n_given_age(n, x1, p))
    law = dists.pendant_dist_given_age(x1, p)
    pend = np.sort(given_age_run["pendant"])
    atom_count = int(np.count_nonzero(np.abs(pend - x1) <= 1e-9 * x1))
    cont = pend[: REPS - atom_count]
    aw = law.atom_weight
    stat = ks_stat(cont, lambda s: law.cdf(s) / (1.0 - aw))
    half = mc.Z_99 * math.sqrt(aw * (1.0 - aw) / REPS)
    atom_gap = abs(atom_count / REPS - aw)
    ok = pval > 0.01 and stat < KS_THRESHOLD and atom_gap <= half
    report(
        "c06 given-age laws", ok,
        f"n-law chi2 p={pval:.3f} (>0.01), pendant KS={stat:.5f} "
        f"(<{KS_THRESHOLD}), |atom gap|={atom_gap:.2e}<= {half:.2e}",
    )


def test_c07_transformation_equivalence():
    raw = RawParams(2.0, 0.5, 0.5)
    p = transform_params(raw)
    x1 = 1.0
    readers = {
        "pendant": mc.read_random_pendant,
        "diversity": mc.read_diversity,
        "n": mc.read_leaf_count,
    }
    direct = mc.collect(
        partial(sim.batch_given_age, x1, p), readers, REPS,
        sim.RngStream(SEED, 140).generator(),
    )
    rejected = mc.collect(
        partial(sim.batch_rejection_given_age, x1, raw), readers, REPS,
        sim.RngStream(SEED, 141).generator(),
    )
    details, ok = [], True
    for name in readers:
        rep = mc.compare_two_sample(direct[name], rejected[name])
        pval = 1.0 - rep.ks.stat
        ok = ok and pval > 0.01
        details.append(f"{name}: p={pval:.3f}")
    report("c07 transform equivalence", ok, "; ".join(details) + " (all >0.01)")


def test_c08_mixture_identity():
    reports = mc.verify_suite(mc.VerifyConfig(checks=("mixture_identity",),
                                              reps=1000, seed=SEED))
    worst = max(m.empirical for r in reports for m in r.moments
                if m.name == "max_abs_density_gap")
    ok = all(r.passed for r in reports)
    report("c08 mixture identity", ok,
           f"max |density gap| over 3 parameter sets = {worst:.2e} (<1e-6)")


def test_c09_means_vs_quadrature():
    reports = mc.verify_suite(mc.VerifyConfig(checks=("means_vs_quadrature",),
                                              reps=1000, seed=SEED))
    worst = max(
        abs(m.analytic - m.empirical) / abs(m.analytic)
        for r in reports for m in r.moments
    )
    ok = all(r.passed for r in reports)
    report("c09 means vs quadrature", ok,
           f"max relative gap = {worst:.2e} (<1e-6)")


def test_c10_limit_constant():
    c = dists.root_edge_limit_constant()
    reports = mc.verify_suite(mc.VerifyConfig(checks=("limit_constant",),
                                              reps=1000, seed=SEED))
    rel = next(m.empirical for r in reports for m in r.moments
               if m.name == "asymptotic_survival_rel_err")
    ok = abs(c - 0.8158) <= 5e-4 and all(r.passed for r in reports)
    report("c10 constant c", ok,
           f"c={c:.6f} (0.8158 +/- 5e-4), asymptotic survival rel err "
           f"{rel:.2e} (<1e-3) at n=1e6")


def test_c11_expected_diversity_given_age():
    lam, x1 = 1.0, 1.0
    p = Params(lam, 0.0)
    emp = mc.estimate(
        partial(sim.batch_given_age, x1, p), mc.read_diversity,
        REPS, sim.RngStream(SEED, 150).generator(),
    )
    target = dists.diversity_mean_given_age(x1, lam)  # 2(e-1)
    gap = abs(emp.mean() - target)
    se = emp.mean_se()
    # MGF derivative vs sampler under fixed (n, x1)
    n2, x2 = 6, 2.0
    emp2 = mc.estimate(
        partial(sim.batch_given_n_age, n2, x2, p), mc.read_diversity,
        REPS, sim.RngStream(SEED, 151).generator(),
    )
    h = 1e-6
    mgf_mean = (dists.diversity_mgf_given_n_age(h, n2, x2, lam)
                - dists.diversity_mgf_given_n_age(-h, n2, x2, lam)) / (2 * h)
    gap2 = abs(emp2.mean() - mgf_mean)
    se2 = emp2.mean_se()
    ok = gap <= 3 * se and gap2 <= 3 * se2
    report(
        "c11 E[diversity | x1]", ok,
        f"|mean-{target:.5f}|={gap:.2e}<= {3 * se:.2e}; "
        f"MGF-derivative gap={gap2:.2e}<= {3 * se2:.2e}",
    )


def test_c12_normalization_sweep():
    reports = mc.verify_suite(mc.VerifyConfig(checks=("normalization",),
                                              reps=1000, seed=SEED))
    worst = max(abs(m.empirical - 1.0) for r in reports for m in r.moments)
    count = sum(len(r.moments) for r in reports)
    ok = all(r.passed for r in reports)
    report("c12 normalization", ok,
           f"{count} densities, max |mass-1| = {worst:.2e} (<1e-8), "
           f"hypoexp stable through k=60")
