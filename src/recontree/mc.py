"""Monte Carlo estimation and statistical comparison against analytic laws.

The harness draws trees from a batch sampler (``sim.batch_*``), reads a
per-tree statistic from each batch (e.g. a uniformly chosen pendant edge
length), and compares the empirical distribution with the corresponding
closed-form law.  A reader's per-tree draw depends only on the tip count,
so the sampler makes it right after the tree's own draws, and a reader
reads the same value from a tree whatever block the tree is drawn in.
Every reader indexes :attr:`sim.TreeBatch.lengths`, with the root at node n.
Mixed distributions are handled by separating the atom: the KS test runs
on the continuous part against the renormalized conditional CDF, and the
atom mass is checked separately with a binomial confidence interval.

Conventions (fixed for the whole tool, as module constants):
* one-sample KS threshold ``KS_COEFF_99``/sqrt(m) (asymptotic 99% level),
* atom mass within ``Z_99`` binomial standard errors (99% level),
* two-sample KS and chi-square p-values above ``_ALPHA`` = 0.01, the
  chi-square bins starting at ``_CHI2_START`` = 2 tips and pooled from the
  right until each expects ``_CHI2_MIN_EXPECTED`` = 5 counts,
* moment checks within 3 standard errors.

Each check in the verify suite has one of two shapes: a sampled law check
(``_sampled``: one stream, ``estimate``, ``compare``) or a report of
numeric identities (``_report``).  Only the checks with extra statistics
call ``compare`` or build their reports themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np
import scipy

from . import dists, sim
from .dists import MixedDist
from .kernel import Params, RawParams, prob_n_given_age, transform_params

__all__ = [
    "EmpiricalDist",
    "ComparisonReport",
    "KsCheck",
    "AtomCheck",
    "MomentCheck",
    "VerifyConfig",
    "estimate",
    "compare",
    "compare_two_sample",
    "chi_square_counts",
    "verify_suite",
    "CHECK_NAMES",
    "Reader",
    "read_random_pendant",
    "read_random_interior",
    "read_random_root_edge",
    "read_diversity",
    "read_leaf_count",
]

KS_COEFF_99 = 1.6276  # sqrt(-0.5 ln(0.01/2))
Z_99 = 2.5758
_ALPHA = 0.01
_CHI2_START = 2
_CHI2_MIN_EXPECTED = 5.0


# ---------------------------------------------------------------------------
# Readers (per-tree statistics over a TreeBatch)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reader:
    """A per-tree statistic, read from every row of a :class:`sim.TreeBatch`.

    ``read(batch, d)`` returns one value per row, where ``d`` holds each
    tree's draw from ``integers(draw(n))``, or is None when ``draw`` is None
    and the reader draws nothing.
    """

    read: Callable[[sim.TreeBatch, Optional[np.ndarray]], np.ndarray]
    draw: Optional[sim.DrawBound] = None


def _read_random_root_edge(b: sim.TreeBatch, d: np.ndarray) -> np.ndarray:
    rows = np.arange(len(b))  # row i's children of the root n, ascending, at 2i and 2i+1
    return b.lengths[rows, np.nonzero(b.parent == b.n)[1][2 * rows + d]]


# a random pendant edge is that of leaf d, a random interior edge that of node n+1+d
read_random_pendant = Reader(lambda b, d: b.lengths[np.arange(len(b)), d], draw=lambda n: n)
read_random_interior = Reader(lambda b, d: b.lengths[np.arange(len(b)), b.n + 1 + d],
                              draw=lambda n: n - 2)
read_random_root_edge = Reader(_read_random_root_edge, draw=lambda n: 2)
read_diversity = Reader(lambda b, d: b.lengths.sum(axis=1))
read_leaf_count = Reader(lambda b, d: np.full(len(b), float(b.n)))


# ---------------------------------------------------------------------------
# Empirical distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalDist:
    """Sorted Monte Carlo samples with an optional declared atom bucket."""

    samples: np.ndarray             # all values, sorted ascending
    atom_location: Optional[float] = None
    atom_count: int = 0

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def atom_fraction(self) -> float:
        return self.atom_count / self.n_samples if self.n_samples else 0.0

    def continuous(self) -> np.ndarray:
        """Samples outside the atom bucket (still sorted)."""
        if self.atom_count == 0:
            return self.samples
        return self.samples[: self.n_samples - self.atom_count]

    def mean(self) -> float:
        return float(self.samples.mean())

    def mean_se(self) -> float:
        return float(self.samples.std(ddof=1) / np.sqrt(self.n_samples))


# a batch sampler: (reps, rng, reader draw bounds) -> its TreeBatch blocks,
# e.g. functools.partial(sim.batch_given_n_age, n, x1, p)
BatchSampler = Callable[[int, np.random.Generator, Sequence[sim.DrawBound]],
                        Iterator[sim.TreeBatch]]


def estimate(
    sampler: BatchSampler,
    reader: Reader,
    reps: int,
    rng,
    atom_at: Optional[float] = None,
) -> EmpiricalDist:
    """Draw ``reps`` trees and read one statistic per tree.

    Values within 1e-9*atom_at of ``atom_at`` are counted into the atom
    bucket (samplers place atom samples exactly at x1 up to rounding).
    """
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}, got {reps}")
    return _empirical(collect(sampler, {"value": reader}, reps, rng)["value"], atom_at)


def _empirical(vals: np.ndarray, atom_at: Optional[float]) -> EmpiricalDist:
    """Sort ``vals``; those within 1e-9*atom_at of ``atom_at`` form the atom."""
    vals = np.sort(vals)
    atom_count = 0
    if atom_at is not None:
        eps = 1e-9 * atom_at
        atom_count = int(np.count_nonzero(np.abs(vals - atom_at) <= eps))
    return EmpiricalDist(samples=vals, atom_location=atom_at, atom_count=atom_count)


def collect(sampler: BatchSampler, readers: Dict[str, Reader], reps: int,
            rng) -> Dict[str, np.ndarray]:
    """Read several statistics from one stream of ``reps`` trees.

    Each tree's reader draws follow the tree's own draws, in the order of
    ``readers``.  Returns name -> values in the order the trees were drawn.
    """
    rng = sim.as_generator(rng)
    drawing = [name for name, r in readers.items() if r.draw is not None]
    out = {name: np.empty(reps) for name in readers}
    for batch in sampler(reps, rng, [readers[name].draw for name in drawing]):
        for name, reader in readers.items():
            d = batch.draws[:, drawing.index(name)] if reader.draw is not None else None
            out[name][batch.index] = reader.read(batch, d)
    return out


# ---------------------------------------------------------------------------
# Comparison reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KsCheck:
    stat: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.stat < self.threshold)

    def to_dict(self):
        return {**vars(self), "pass": self.passed}


@dataclass(frozen=True)
class MomentCheck:
    name: str
    analytic: float
    empirical: float
    tolerance: float  # absolute: 3*SE for MC checks, stated tol for numeric

    @property
    def passed(self) -> bool:
        return bool(abs(self.analytic - self.empirical) <= self.tolerance)

    def to_dict(self):
        return {**vars(self), "pass": self.passed}


@dataclass(frozen=True)
class AtomCheck:
    analytic_mass: float
    empirical_fraction: float
    ci_halfwidth: float  # 99% binomial CI around the analytic mass

    @property
    def passed(self) -> bool:
        return bool(abs(self.analytic_mass - self.empirical_fraction) <= self.ci_halfwidth)

    def to_dict(self):
        return {**vars(self), "pass": self.passed}


@dataclass
class ComparisonReport:
    check: str
    n_samples: int
    seed: Optional[int] = None
    ks: Optional[KsCheck] = None
    moments: List[MomentCheck] = field(default_factory=list)
    atom: Optional[AtomCheck] = None
    wall_time_s: float = 0.0
    rejection: Optional[sim.RejectionStats] = None  # the oracle's, if one ran

    @property
    def passed(self) -> bool:
        parts = [m.passed for m in self.moments]
        if self.ks is not None:
            parts.append(self.ks.passed)
        if self.atom is not None:
            parts.append(self.atom.passed)
        return all(parts) if parts else False

    def to_dict(self):
        out = {
            "check": self.check,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "ks": self.ks.to_dict() if self.ks else None,
            "moments": [m.to_dict() for m in self.moments],
            "atom": self.atom.to_dict() if self.atom else None,
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }
        if self.rejection is not None:
            out["rejection"] = {**vars(self.rejection),
                                "acceptance_rate": self.rejection.acceptance_rate}
        return out


def ks_one_sample(sorted_samples: np.ndarray, cdf: Callable) -> float:
    """KS distance of sorted samples against a vectorized CDF."""
    m = sorted_samples.shape[0]
    if m == 0:
        return 0.0
    f = np.asarray(cdf(sorted_samples), dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(np.max(np.maximum(np.abs(f - grid), np.abs(f - (grid - 1.0 / m)))))


def compare(
    emp: EmpiricalDist,
    analytic: MixedDist,
    check: str = "",
    analytic_mean: Optional[float] = None,
    seed: Optional[int] = None,
) -> ComparisonReport:
    """One-sample comparison of an empirical against an analytic law.

    KS runs on the continuous part only (atom-conditioned and
    renormalized); the atom mass is compared via a 99% binomial CI; the
    mean, when given, within 3 standard errors.
    """
    if np.any(np.diff(emp.samples) < 0):
        raise ValueError("samples must be sorted")
    report = ComparisonReport(check=check, n_samples=emp.n_samples, seed=seed)
    cont = emp.continuous()
    aw = analytic.atom_weight
    if aw < 1.0:
        stat = ks_one_sample(cont, lambda s: analytic.cdf(s) / (1.0 - aw))
        report.ks = KsCheck(stat=stat, threshold=KS_COEFF_99 / np.sqrt(len(cont)))
    if aw > 0.0 or emp.atom_location is not None:
        report.atom = AtomCheck(
            analytic_mass=aw,
            empirical_fraction=emp.atom_fraction,
            ci_halfwidth=Z_99 * np.sqrt(aw * (1.0 - aw) / emp.n_samples),
        )
    if analytic_mean is not None:
        report.moments.append(MomentCheck(*_mean_moment("mean", analytic_mean, emp)))
    return report


def _mean_moment(name: str, analytic: float, emp: EmpiricalDist) -> tuple:
    """(name, analytic, empirical, tolerance) of a sample mean within 3 SE."""
    return name, analytic, emp.mean(), 3.0 * emp.mean_se()


def _p_value_check(p: float) -> KsCheck:
    """A p-value above ``_ALPHA``, encoded as "stat < threshold" on 1 - p."""
    return KsCheck(stat=1.0 - p, threshold=1.0 - _ALPHA)


def compare_two_sample(
    a: np.ndarray, b: np.ndarray, check: str = "", seed: Optional[int] = None,
) -> ComparisonReport:
    """Two-sample KS comparison; passes when p > ``_ALPHA``."""
    res = scipy.stats.ks_2samp(a, b)
    report = ComparisonReport(check=check, n_samples=len(a) + len(b), seed=seed)
    report.ks = _p_value_check(float(res.pvalue))
    return report


def chi_square_counts(values: np.ndarray, pmf: Callable[[int], float]) -> float:
    """Chi-square goodness-of-fit p-value for integer-valued samples.

    Bins from ``_CHI2_START`` upward, pooling the tail so every expected
    count is at least ``_CHI2_MIN_EXPECTED``.
    """
    values = np.asarray(values)
    m = len(values)
    kmax = int(values.max())
    ks = np.arange(_CHI2_START, kmax + 1)
    probs = np.array([pmf(int(k)) for k in ks])
    tail = max(1.0 - probs.sum(), 0.0)
    observed = np.array([np.count_nonzero(values == k) for k in ks])
    observed = np.append(observed, m - observed.sum())
    expected = np.append(probs, tail) * m
    # pool small-expectation bins from the right
    while len(expected) > 2 and expected[-1] < _CHI2_MIN_EXPECTED:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    _, p = scipy.stats.chisquare(observed, expected)
    return float(p)


# ---------------------------------------------------------------------------
# Verification suite (drives the acceptance table)
# ---------------------------------------------------------------------------

# most reps a verify run accepts: each sampled statistic holds 8 bytes a rep,
# and transform_equivalence, which holds the most, peaked near 190 MB at 10^6
# reps, so about 2 GB at the bound
MAX_REPS = 10**7
# fewest reps an estimate accepts, and so a verify run
MIN_REPS = 1000


@dataclass(frozen=True)
class VerifyConfig:
    checks: Sequence[str] = ()
    reps: int = 100_000
    seed: int = 20260824

    def __post_init__(self):
        if self.reps < MIN_REPS:
            raise ValueError(f"reps must be >= {MIN_REPS}, got {self.reps}")
        if self.reps > MAX_REPS:
            raise ValueError(f"reps must be <= {MAX_REPS:.0e}, got {self.reps}")


def _sampled(cfg, check, stream, sampler, reader, law, mean=None, atom_at=None):
    """``reader`` over ``cfg.reps`` trees of stream ``stream``, compared with ``law``."""
    rng = sim.RngStream(cfg.seed, stream).generator()
    emp = estimate(sampler, reader, cfg.reps, rng, atom_at=atom_at)
    return compare(emp, law, check=check, analytic_mean=mean, seed=cfg.seed)


def _report(cfg, check, *moments, n_samples=0) -> ComparisonReport:
    """A report of ``(name, analytic, empirical, tolerance)`` moment checks."""
    return ComparisonReport(check=check, n_samples=n_samples, seed=cfg.seed,
                            moments=[MomentCheck(*m) for m in moments])


def _check_yule_pendant_n(cfg):
    # the served pendant law given n, at mu = 0 (where it is Exp(2 lam))
    p, n = Params(1.0, 0.0), 20
    return [_sampled(cfg, "yule_pendant_n", 1, partial(sim.batch_yule_given_n, n, p.lam),
                     read_random_pendant, dists.pendant_dist_given_n(p),
                     mean=dists.pendant_mean_given_n(p))]


def _check_yule_interior_n(cfg):
    lam, n = 1.0, 20
    return [_sampled(cfg, "yule_interior_n", 2, partial(sim.batch_yule_given_n, n, lam),
                     read_random_interior, dists.interior_dist_yule(lam),
                     mean=1.0 / (2.0 * lam))]


def _check_root_edge_n(cfg):
    lam = 1.0
    return [
        _sampled(cfg, f"root_edge_n:n={n}", 10 + i, partial(sim.batch_yule_given_n, n, lam),
                 read_random_root_edge, dists.root_edge_dist_given_n(n, lam),
                 mean=dists.root_edge_mean_given_n(n, lam))
        for i, n in enumerate((2, 4, 10))
    ]


def _check_root_edge_mean(cfg):
    lam, n = 1.0, 4
    rng = sim.RngStream(cfg.seed, 13).generator()
    emp = estimate(partial(sim.batch_yule_given_n, n, lam), read_random_root_edge,
                   max(cfg.reps // 10, 1000), rng)
    return [_report(cfg, "root_edge_mean",
                    _mean_moment("mean", dists.root_edge_mean_given_n(n, lam), emp),
                    n_samples=emp.n_samples)]


def _check_diversity_gamma(cfg):
    lam, n = 1.0, 10
    rng = sim.RngStream(cfg.seed, 20).generator()
    emp = estimate(partial(sim.batch_yule_given_n, n, lam), read_diversity, cfg.reps, rng)
    rep = compare(emp, dists.diversity_dist_given_n(n, lam), check="diversity_gamma",
                  analytic_mean=dists.diversity_mean_given_n(n, lam), seed=cfg.seed)
    # variance within 3 SE of the sample variance
    svar = float(emp.samples.var(ddof=1))
    mu4 = float(np.mean((emp.samples - emp.samples.mean()) ** 4))
    var_se = np.sqrt(max(mu4 - svar ** 2, 0.0) / emp.n_samples)
    rep.moments.append(MomentCheck("variance", dists.diversity_var_given_n(n, lam),
                                   svar, 3.0 * var_se))
    return [rep]


_PENDANT_NX1_GRID = [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]


def _check_pendant_given_n_age(cfg):
    x1 = 2.0
    cases = [(Params(lam, mu), n) for lam, mu in _PENDANT_NX1_GRID for n in (3, 6)]
    return [
        _sampled(cfg, f"pendant_given_n_age:lam={p.lam},mu={p.mu},n={n}", 30 + i,
                 partial(sim.batch_given_n_age, n, x1, p), read_random_pendant,
                 dists.pendant_dist_given_n_age(n, x1, p), atom_at=x1)
        for i, (p, n) in enumerate(cases)
    ]


def _check_given_age_n_law(cfg):
    lam, mu, x1 = 1.0, 0.4, 1.5
    p = Params(lam=lam, mu=mu)
    rng = sim.RngStream(cfg.seed, 40).generator()
    data = collect(partial(sim.batch_given_age, x1, p),
                   {"n": read_leaf_count, "pendant": read_random_pendant}, cfg.reps, rng)
    p_chi = chi_square_counts(data["n"].astype(int), lambda n: prob_n_given_age(n, x1, p))
    rep_n = ComparisonReport(check="given_age_n_law:n", n_samples=cfg.reps, seed=cfg.seed,
                             ks=_p_value_check(p_chi))
    rep_p = compare(_empirical(data["pendant"], x1), dists.pendant_dist_given_age(x1, p),
                    check="given_age_n_law:pendant", seed=cfg.seed)
    return [rep_n, rep_p]


def _check_transform_equivalence(cfg):
    raw = RawParams(lambda_hat=2.0, mu_hat=0.5, f=0.5)
    p = transform_params(raw)
    x1 = 1.0
    rng_a = sim.RngStream(cfg.seed, 50).generator()
    rng_b = sim.RngStream(cfg.seed, 51).generator()
    readers = {"pendant": read_random_pendant, "diversity": read_diversity,
               "n": read_leaf_count}
    direct = collect(partial(sim.batch_given_age, x1, p), readers, cfg.reps, rng_a)
    stats = sim.RejectionStats()
    rejected = collect(partial(sim.batch_forward_given_age, x1, raw, stats=stats),
                       readers, cfg.reps, rng_b)
    out = [compare_two_sample(direct[name], rejected[name],
                              check=f"transform_equivalence:{name}", seed=cfg.seed)
           for name in readers]
    for rep in out:
        rep.rejection = stats
    return out


_MIXTURE_GRID = [(1.0, 0.4, 1.5), (1.0, 0.0, 1.0), (1.0, 0.9, 2.0)]


def _check_mixture_identity(cfg):
    out = []
    for lam, mu, x1 in _MIXTURE_GRID:
        p = Params(lam=lam, mu=mu)
        law = dists.pendant_dist_given_age(x1, p)
        grid = np.linspace(x1 * 1e-3, x1 * (1.0 - 1e-3), 50)
        mix = np.zeros_like(grid)
        for n in range(3, 501):
            pn = prob_n_given_age(n, x1, p)
            mix += pn * dists.pendant_dist_given_n_age(n, x1, p).pdf(grid)
        err = float(np.max(np.abs(mix - law.pdf(grid))))
        atom_sum = sum(
            2.0 / (n * (n - 1)) * prob_n_given_age(n, x1, p) for n in range(2, 2001)
        )
        out.append(_report(cfg, f"mixture_identity:lam={lam},mu={mu},x1={x1}",
                           ("max_abs_density_gap", 0.0, err, 1e-6),
                           ("atom_gap", law.atom_weight, atom_sum, 1e-8)))
    return out


_MEANS_GRID = [
    (5, 2.0, 1.0, 0.5), (3, 2.0, 1.0, 0.5), (6, 1.5, 1.0, 0.4),
    (5, 2.0, 1.0, 1.0), (10, 1.0, 2.0, 2.0), (5, 2.0, 1.0, -0.5),
    # a four-branch closed form was 17.5%, 28.8% and 8.7e-3 off at these
    (10, 1e-5, 1.0, 0.5), (10, 1e-5, 1.0, -0.5), (20, 0.01, 1.0, 1.0001e-4),
]


def _mean_report(cfg, label, name, mean, law):
    """``mean`` against the quadrature mean of ``law``, to 1e-6 relative."""
    quad = law.mean()
    return _report(cfg, f"means_vs_quadrature:{label}", (name, quad, mean, 1e-6 * abs(quad)))


def _check_means_vs_quadrature(cfg):
    out = []
    for n, x1, lam, mu in _MEANS_GRID:
        p = Params(lam=lam, mu=mu)
        out.append(_mean_report(cfg, f"n={n},lam={lam},mu={mu}", "pendant_mean_n_age",
                                dists.pendant_mean_given_n_age(n, x1, p),
                                dists.pendant_dist_given_n_age(n, x1, p)))
    for lam, mu in ((1.0, 0.5), (1.0, 0.999), (2.0, -1.0), (1.0, 1.0001e-4), (1.0, -1.0001e-4)):
        p = Params(lam=lam, mu=mu)
        out.append(_mean_report(cfg, f"pendant_n,lam={lam},mu={mu}", "pendant_mean_n",
                                dists.pendant_mean_given_n(p), dists.pendant_dist_given_n(p)))
    for lam, mu, x1 in _MIXTURE_GRID:
        p = Params(lam=lam, mu=mu)
        out.append(_mean_report(cfg, f"pendant_age,x1={x1},lam={lam},mu={mu}",
                                "pendant_mean_age", dists.pendant_mean_given_age(x1, p),
                                dists.pendant_dist_given_age(x1, p)))
    return out


def _check_limit_constant(cfg):
    # asymptotic survival at large n with lam at its ML value ln(n/2)/x1
    n, x1 = 1_000_000, 1.0
    lam = np.log(n / 2.0) / x1
    grid = np.linspace(0.05 * x1, 0.6 * x1, 12)
    exact = dists.root_edge_survival_given_n_age(grid, n, x1, lam)
    w = 2.0 * np.expm1(lam * grid)
    asym = -np.expm1(-w) / w
    rel = float(np.max(np.abs(exact - asym) / asym))
    return [_report(cfg, "limit_constant",
                    ("c", 0.8158, dists.root_edge_limit_constant(), 5e-4),
                    ("asymptotic_survival_rel_err", 0.0, rel, 1e-3))]


def _check_diversity_mean_age(cfg):
    lam, x1 = 1.0, 1.0
    p = Params(lam=lam, mu=0.0)
    rng = sim.RngStream(cfg.seed, 60).generator()
    emp = estimate(partial(sim.batch_given_age, x1, p), read_diversity, cfg.reps, rng)
    # MGF derivative vs sampler mean under fixed (n, x1)
    n2, x2 = 6, 2.0
    rng2 = sim.RngStream(cfg.seed, 61).generator()
    emp2 = estimate(partial(sim.batch_given_n_age, n2, x2, p), read_diversity,
                    cfg.reps, rng2)
    h = 1e-6
    mgf_mean = (dists.diversity_mgf_given_n_age(h, n2, x2, lam)
                - dists.diversity_mgf_given_n_age(-h, n2, x2, lam)) / (2.0 * h)
    return [_report(cfg, "diversity_mean_age",
                    _mean_moment("mean", dists.diversity_mean_given_age(x1, lam), emp),
                    _mean_moment("mgf_derivative_vs_sampler", mgf_mean, emp2),
                    n_samples=emp.n_samples)]


def _normalization_laws():
    """(name, law) for every density whose total mass the sweep checks."""
    for p in (Params(1.0, 0.0), Params(1.0, 0.5), Params(1.0, 1.0), Params(1.0, -0.5)):
        tag = f"mu={p.mu}"
        yield f"pendant_n[{tag}]", dists.pendant_dist_given_n(p)
        yield f"pendant_n_age[{tag}]", dists.pendant_dist_given_n_age(5, 2.0, p)
        yield f"pendant_age[{tag}]", dists.pendant_dist_given_age(1.5, p)
        yield f"speciation_time[{tag}]", dists.speciation_time_dist(3, 6, 2.0, p)
    for k in (2, 10, 35, 60):
        yield f"hypoexp[k={k}]", dists.hypoexp_dist(k, 1.0)
    for n in (2, 4, 10):
        yield f"root_edge_n[n={n}]", dists.root_edge_dist_given_n(n, 1.0)
        yield f"diversity_n[n={n}]", dists.diversity_dist_given_n(n, 1.0)
    yield "interior_yule", dists.interior_dist_yule(1.0)
    yield "root_edge_age[x1=1.5]", dists.root_edge_dist_given_age(1.5, 1.0)


def _check_normalization(cfg):
    return [_report(cfg, "normalization",
                    *((name, 1.0, law.total_mass(), 1e-8)
                      for name, law in _normalization_laws()))]


_CHECKS = {
    "yule_pendant_n": _check_yule_pendant_n,
    "yule_interior_n": _check_yule_interior_n,
    "root_edge_n": _check_root_edge_n,
    "root_edge_mean": _check_root_edge_mean,
    "diversity_gamma": _check_diversity_gamma,
    "pendant_given_n_age": _check_pendant_given_n_age,
    "given_age_n_law": _check_given_age_n_law,
    "transform_equivalence": _check_transform_equivalence,
    "mixture_identity": _check_mixture_identity,
    "means_vs_quadrature": _check_means_vs_quadrature,
    "limit_constant": _check_limit_constant,
    "diversity_mean_age": _check_diversity_mean_age,
    "normalization": _check_normalization,
}

CHECK_NAMES = tuple(_CHECKS)


def verify_suite(config: VerifyConfig) -> List[ComparisonReport]:
    """Run the named checks (all of them when none are given)."""
    names = tuple(config.checks) or CHECK_NAMES
    unknown = [c for c in names if c not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid names: {', '.join(CHECK_NAMES)}")
    reports: List[ComparisonReport] = []
    for name in names:
        t0 = time.perf_counter()
        out = _CHECKS[name](config)
        wall = (time.perf_counter() - t0) / len(out)
        for r in out:
            r.wall_time_s = wall
        reports.extend(out)
    return reports
