"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Each criterion runs its checks from the ``mc.verify_suite`` registry at 10^5
trees and seed 20260824, as ``recontree verify --reps 100000 --seed
20260824`` runs them.  Each check draws from its own streams, so a check run
alone gives the full suite's numbers.  A criterion passes when every report
of its checks passes (KS at the 99% level, moments within 3 standard
errors, atoms within a 99% binomial interval, chi-square and two-sample
p-values above 0.01, numeric identities at their stated tolerances) and
meets the bounds below, which are stricter than the registry's:

* every one-sample KS distance is below 0.00516 = 1.6276/sqrt(10^5); the
  registry's 1.6276/sqrt(m) is looser where an atom leaves m < 10^5
  continuous samples (c05, c06);
* c01's check runs within 30 s.
"""

from recontree import mc, sim

REPS = 100_000
SEED = 20260824
KS_BOUND = 0.00516  # 1.6276 / sqrt(1e5), 99% one-sample level

# criterion -> (label, the registry checks it runs)
CRITERIA = {
    "c01": ("yule pendant", ("yule_pendant_n",)),
    "c02": ("interior edge", ("yule_interior_n",)),
    "c03": ("root edge", ("root_edge_n", "root_edge_mean")),
    "c04": ("diversity gamma", ("diversity_gamma",)),
    "c05": ("pendant | n,x1", ("pendant_given_n_age",)),
    "c06": ("given-age laws", ("given_age_n_law",)),
    "c07": ("transform equivalence", ("transform_equivalence",)),
    "c08": ("mixture identity", ("mixture_identity",)),
    "c09": ("means vs quadrature", ("means_vs_quadrature",)),
    "c10": ("constant c", ("limit_constant",)),
    "c11": ("E[diversity | x1]", ("diversity_mean_age",)),
    "c12": ("normalization", ("normalization",)),
}

# reports whose KsCheck holds 1 - p of a chi-square or two-sample test
# (passing when p > 0.01), not a one-sample KS distance
P_VALUE_CHECKS = ("given_age_n_law:n", "transform_equivalence:")


def run(criterion):
    checks = CRITERIA[criterion][1]
    return mc.verify_suite(mc.VerifyConfig(checks=checks, reps=REPS, seed=SEED))


def summary(r) -> str:
    parts = []
    if r.ks is not None and r.check.startswith(P_VALUE_CHECKS):
        parts.append(f"p={1.0 - r.ks.stat:.3f}")
    elif r.ks is not None:
        parts.append(f"KS={r.ks.stat:.5f}")
    if r.atom is not None:
        gap = abs(r.atom.empirical_fraction - r.atom.analytic_mass)
        parts.append(f"|atom gap|={gap:.2e}<={r.atom.ci_halfwidth:.2e}")
    parts += [f"|{m.name} gap|={abs(m.empirical - m.analytic):.2e}<={m.tolerance:.2e}"
              for m in r.moments]
    return f"{r.check}: {', '.join(parts)}"


def gate(criterion, reports, extra=()):
    """Assert every report, the KS bound and each (ok, text) in ``extra``."""
    bounds = [(r.ks.stat < KS_BOUND, f"{r.check} KS<{KS_BOUND}") for r in reports
              if r.ks is not None and not r.check.startswith(P_VALUE_CHECKS)]
    failed = [r.check for r in reports if not r.passed]
    failed += [text for ok, text in [*bounds, *extra] if not ok]
    detail = "; ".join([summary(r) for r in reports] + [text for _, text in extra])
    line = (f"{'FAIL' if failed else 'PASS'} [{criterion} {CRITERIA[criterion][0]}] "
            f"{detail}" + (f" -- failed: {', '.join(failed)}" if failed else ""))
    print(line)
    assert not failed, line


def test_criteria_cover_the_registry():
    # every registry check has exactly one gate, and every gate a check
    named = [c for _, checks in CRITERIA.values() for c in checks]
    assert sorted(named) == sorted(mc.CHECK_NAMES)


def test_each_check_draws_its_own_streams(monkeypatch):
    # no stream id is built twice across the suite, so a check run alone
    # draws what it draws in the full suite
    built = []

    class Recording(sim.RngStream):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self.seed, self.stream_id))

    monkeypatch.setattr(sim, "RngStream", Recording)
    mc.verify_suite(mc.VerifyConfig(reps=1000, seed=SEED))
    assert built and {seed for seed, _ in built} == {SEED}
    assert len(set(built)) == len(built), sorted(built)


def test_c01_yule_pendant_law():
    reports = run("c01")
    wall = sum(r.wall_time_s for r in reports)
    gate("c01", reports, [(wall < 30.0, f"check {wall:.1f}s (<30s)")])


def test_c02_interior_edge_law():
    gate("c02", run("c02"))


def test_c03_root_edge_law():
    gate("c03", run("c03"))


def test_c04_diversity_gamma():
    gate("c04", run("c04"))


def test_c05_pendant_given_n_age():
    gate("c05", run("c05"))


def test_c06_given_age_laws():
    gate("c06", run("c06"))


def test_c07_transformation_equivalence():
    gate("c07", run("c07"))


def test_c08_mixture_identity():
    gate("c08", run("c08"))


def test_c09_means_vs_quadrature():
    gate("c09", run("c09"))


def test_c10_limit_constant():
    gate("c10", run("c10"))


def test_c11_expected_diversity_given_age():
    gate("c11", run("c11"))


def test_c12_normalization_sweep():
    gate("c12", run("c12"))
