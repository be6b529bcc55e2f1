"""Monte Carlo estimation and statistical comparison against analytic laws.

The harness draws trees from a batch sampler (``sim.batch_*``), reads a
per-tree statistic from each batch (e.g. a uniformly chosen pendant edge
length), and compares the empirical distribution with the corresponding
closed-form law.  A reader's per-tree draw depends only on the tip count,
so the sampler makes it right after the tree's own draws, and a reader
reads the same value from a tree whatever block the tree is drawn in.
Every reader indexes :attr:`sim.TreeBatch.lengths`, with the root at node n.
A sample is a plain sorted array.  Mixed distributions are handled by
splitting the atom off at the law's own ``support_end``: the KS test runs
on the samples below it against the renormalized conditional CDF, and the
fraction at it is checked against the atom mass with a binomial
confidence interval.

Conventions (fixed for the whole tool, as module constants):
* one-sample KS threshold ``KS_COEFF_99``/sqrt(m) (asymptotic 99% level),
* atom mass within ``Z_99`` binomial standard errors (99% level),
* two-sample KS and chi-square p-values above ``_ALPHA`` = 0.01, the
  chi-square bins starting at ``_CHI2_START`` = 2 tips and pooled from the
  right until each expects ``_CHI2_MIN_EXPECTED`` = 5 counts; the KS
  p-value is exact, from Hodges' formula for equal sizes, and the
  chi-square p-value is ``scipy.special.chdtrc``: the values SciPy's
  ``ks_2samp`` (up to 10^4 per side) and ``chisquare`` give, from numpy
  and ``scipy.special`` only,
* moment checks within 3 standard errors.

Each one-sample check is a row of ``_ONE_SAMPLE``: a ``dists.LAWS`` law read
from its scenario's ``sim.SCENARIOS`` sampler, one stream per report through
``estimate`` and ``compare``, plus the variance the law's row names.  The
other checks read several statistics, two samples, a share of the reps, two
streams or no samples.  The mixture identity takes its 498
given-(n, x1) densities and 1999 atoms as arrays over n, from one
``prob_n_given_age`` call and one pendant-density pass per regime; it adds
the density rows in n order and the atoms with Python's ``sum``, as a loop
over n would, so its report is that loop's bit for bit.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np
import scipy

from . import dists, sim
from .dists import MixedDist
from .kernel import Params, RawParams, _at_least, prob_n_given_age, transform_params

__all__ = [
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

# the reader of each ``dists.LAWS`` law a one-sample check reads
_READERS = {"pendant": read_random_pendant, "interior": read_random_interior,
            "root-edge": read_random_root_edge, "diversity": read_diversity}


# a batch sampler: (reps, rng, reader draw bounds) -> its TreeBatch blocks,
# e.g. functools.partial(sim.batch_given_n_age, n, x1, p)
BatchSampler = Callable[[int, np.random.Generator, Sequence[sim.DrawBound]],
                        Iterator[sim.TreeBatch]]


def estimate(sampler: BatchSampler, reader: Reader, reps: int, rng) -> np.ndarray:
    """Draw ``reps`` trees and read one statistic per tree, returned sorted."""
    _at_least("reps", reps, MIN_REPS)
    return np.sort(collect(sampler, {"value": reader}, reps, rng)["value"])


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
    samples: np.ndarray,
    analytic: MixedDist,
    check: str = "",
    analytic_mean: Optional[float] = None,
    seed: Optional[int] = None,
) -> ComparisonReport:
    """One-sample comparison of sorted, non-empty samples against a law.

    When the law's ``support_end`` is finite, the samples within 1e-9 end
    of it form the atom bucket (samplers place atom samples at x1 up to
    rounding), and their fraction is compared with the atom mass via a 99%
    binomial CI.  KS runs on the other samples against the renormalized
    cdf, and is left out when none remain; the mean, when given, is checked
    within 3 standard errors.
    """
    m = len(samples)
    if m == 0:
        raise ValueError("compare needs at least one sample")
    if np.any(np.diff(samples) < 0):
        raise ValueError("samples must be sorted")
    report = ComparisonReport(check=check, n_samples=m, seed=seed)
    end, aw = analytic.support_end, analytic.atom_weight
    atom = 0
    if math.isfinite(end):
        atom = int(np.count_nonzero(np.abs(samples - end) <= 1e-9 * end))
        report.atom = AtomCheck(analytic_mass=aw, empirical_fraction=atom / m,
                                ci_halfwidth=Z_99 * np.sqrt(aw * (1.0 - aw) / m))
    cont = samples[: m - atom]
    if aw < 1.0 and len(cont):
        stat = ks_one_sample(cont, lambda s: analytic.cdf(s) / (1.0 - aw))
        report.ks = KsCheck(stat=stat, threshold=KS_COEFF_99 / np.sqrt(len(cont)))
    if analytic_mean is not None:
        report.moments.append(MomentCheck(*_mean_moment("mean", analytic_mean, samples)))
    return report


def _mean_moment(name: str, analytic: float, samples: np.ndarray) -> tuple:
    """(name, analytic, empirical, tolerance) of a sample mean within 3 SE."""
    se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
    return name, analytic, float(samples.mean()), 3.0 * se


def _var_moment(name: str, analytic: float, samples: np.ndarray) -> tuple:
    """(name, analytic, empirical, tolerance) of a sample variance within 3 SE,
    the SE from the fourth central moment."""
    svar = float(samples.var(ddof=1))
    mu4 = float(np.mean((samples - samples.mean()) ** 4))
    return name, analytic, svar, 3.0 * np.sqrt(max(mu4 - svar ** 2, 0.0) / len(samples))


def _p_value_check(p: float) -> KsCheck:
    """A p-value above ``_ALPHA``, encoded as "stat < threshold" on 1 - p."""
    return KsCheck(stat=1.0 - p, threshold=1.0 - _ALPHA)


def compare_two_sample(
    a: np.ndarray, b: np.ndarray, check: str = "", seed: Optional[int] = None,
) -> ComparisonReport:
    """Two-sample KS comparison; passes when p > ``_ALPHA``.

    Takes equal, non-zero sizes only.  The p-value is exact at every size,
    in O(n): see :func:`_ks_p_equal_sizes`.
    """
    n = len(a)
    if n == 0 or len(b) != n:
        raise ValueError(f"two samples of equal, non-zero size are needed, "
                         f"got {len(a)} and {len(b)}")
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    # the empirical CDFs' gap at every sample, ties counted in full
    gap = (np.searchsorted(a, both, side="right") / n
           - np.searchsorted(b, both, side="right") / n)
    d = max(np.clip(-gap.min(), 0, 1), gap.max())
    report = ComparisonReport(check=check, n_samples=2 * n, seed=seed)
    report.ks = _p_value_check(_ks_p_equal_sizes(n, int(np.round(d * n))))
    return report


def _ks_p_equal_sizes(n: int, h: int) -> float:
    """P(D >= h/n) for two samples of n, under the null: Hodges' alternating
    sum 2 sum_k (-1)^(k-1) C(2n, n-kh) / C(2n, n) (Ark. Mat. 3, 1958), by
    scipy's Horner loop, which keeps its terms in (0, 1]."""
    if h == 0:
        return 1.0
    P = 0.0
    k = int(np.floor(n / h))
    while k >= 0:
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
        k -= 1
    return min(max(2 * P, 0.0), 1.0)


def chi_square_counts(values: np.ndarray, pmf: Callable[[int], float]) -> float:
    """Chi-square goodness-of-fit p-value for integer-valued samples.

    Bins from ``_CHI2_START`` upward, pooling the tail so every expected
    count is at least ``_CHI2_MIN_EXPECTED``.  Pearson's statistic against
    the chi-square law with one degree of freedom fewer than the bins.
    """
    values = np.asarray(values)
    m = len(values)
    kmax = int(values.max())
    ks = np.arange(_CHI2_START, kmax + 1)
    probs = np.array([pmf(int(k)) for k in ks])
    tail = max(1.0 - probs.sum(), 0.0)
    observed = np.bincount(values, minlength=kmax + 1)[_CHI2_START:]
    observed = np.append(observed, m - observed.sum())
    expected = np.append(probs, tail) * m
    # pool small-expectation bins from the right
    while len(expected) > 2 and expected[-1] < _CHI2_MIN_EXPECTED:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    total, want = float(observed.sum()), float(expected.sum())
    rtol = np.finfo(float).eps ** 0.5
    if abs(total - want) / min(total, want) > rtol:
        raise ValueError(f"observed total {total} and expected total {want} "
                         f"differ by more than {rtol:.3g} relative")
    stat = np.sum((observed - expected) ** 2 / expected)
    return float(scipy.special.chdtrc(float(len(observed) - 1), stat))


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
        _at_least("reps", self.reps, MIN_REPS)
        if self.reps > MAX_REPS:
            raise ValueError(f"reps must be <= {MAX_REPS:.0e}, got {self.reps}")
        valid = f"valid names: {', '.join(CHECK_NAMES)}"
        if isinstance(self.checks, str):
            raise ValueError(f"checks must be a sequence of names, not {self.checks!r}; {valid}")
        unknown = [c for c in self.checks if c not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; {valid}")


def _report(cfg, check, *moments, n_samples=0) -> ComparisonReport:
    """A report of ``(name, analytic, empirical, tolerance)`` moment checks."""
    return ComparisonReport(check=check, n_samples=n_samples, seed=cfg.seed,
                            moments=[MomentCheck(*m) for m in moments])


# each ``dists.LAWS`` row by its (law, scenario)
_LAW_ROWS = {(r.law, r.scenario): r for r in dists.LAWS}

# One-sample checks: (law, scenario) of a ``dists.LAWS`` row, whether its mean and
# any variance it names are checked, and per report (label, stream id, the values
# of the flags ``sim.SCENARIOS`` gives the scenario's sampler, mu), at lam = 1.
_ONE_SAMPLE = {
    "yule_pendant_n": ("pendant", "given-n", True, [("yule_pendant_n", 1, {"n": 20}, 0.0)]),
    "yule_interior_n": ("interior", "given-n", True, [("yule_interior_n", 2, {"n": 20}, 0.0)]),
    "root_edge_n": ("root-edge", "given-n", True, [
        (f"root_edge_n:n={n}", 10 + i, {"n": n}, 0.0) for i, n in enumerate((2, 4, 10))]),
    "diversity_gamma": ("diversity", "given-n", True, [("diversity_gamma", 20, {"n": 10}, 0.0)]),
    "pendant_given_n_age": ("pendant", "given-n-age", False, [
        (f"pendant_given_n_age:lam=1.0,mu={mu},n={n}", 30 + i, {"n": n, "x1": 2.0}, mu)
        for i, (mu, n) in enumerate((mu, n) for mu in (0.0, 0.5, 1.0) for n in (3, 6))]),
}


def _check_one_sample(name, cfg):
    """Each report of ``_ONE_SAMPLE[name]``: its stream's ``cfg.reps`` trees through
    ``estimate``, ``compare`` and ``_var_moment``, names looked up when called, for tracers."""
    law_name, scenario, with_mean, reports = _ONE_SAMPLE[name]
    row, (sampler, flags) = _LAW_ROWS[law_name, scenario], sim.SCENARIOS[scenario]
    out = []
    for label, stream, values, mu in reports:
        p, args = Params(1.0, mu), [values[a] for a in row.args]
        law = getattr(dists, row.dist)(*args, p)
        mean = getattr(dists, row.mean)(*args, p) if with_mean else None
        draw = partial(getattr(sim, sampler), *(values[f] for f in flags), p)
        samples = estimate(draw, _READERS[law_name], cfg.reps, sim.RngStream(cfg.seed, stream))
        out.append(compare(samples, law, check=label, analytic_mean=mean, seed=cfg.seed))
        if with_mean and row.var:
            var = _var_moment("variance", getattr(dists, row.var)(*args, p), samples)
            out[-1].moments.append(MomentCheck(*var))
    return out


def _check_root_edge_mean(cfg):
    lam, n = 1.0, 4
    rng = sim.RngStream(cfg.seed, 13).generator()
    samples = estimate(partial(sim.batch_yule_given_n, n, lam), read_random_root_edge,
                       max(cfg.reps // 10, 1000), rng)
    return [_report(cfg, "root_edge_mean",
                    _mean_moment("mean", dists.root_edge_mean_given_n(n, lam), samples),
                    n_samples=len(samples))]


def _check_given_age_n_law(cfg):
    lam, mu, x1 = 1.0, 0.4, 1.5
    p = Params(lam=lam, mu=mu)
    rng = sim.RngStream(cfg.seed, 40).generator()
    data = collect(partial(sim.batch_given_age, x1, p),
                   {"n": read_leaf_count, "pendant": read_random_pendant}, cfg.reps, rng)
    p_chi = chi_square_counts(data["n"].astype(int), lambda n: prob_n_given_age(n, x1, p))
    rep_n = ComparisonReport(check="given_age_n_law:n", n_samples=cfg.reps, seed=cfg.seed,
                             ks=_p_value_check(p_chi))
    rep_p = compare(np.sort(data["pendant"]), dists.pendant_dist_given_age(x1, p),
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
    # the given-x1 law against the p_n(x1)-weighted sum of the given-(n, x1)
    # laws: atoms over n = 2..2000, densities over ns[1:499], n = 3..500
    out = []
    ns = np.arange(2, 2001)
    for lam, mu, x1 in _MIXTURE_GRID:
        p = Params(lam=lam, mu=mu)
        law = dists.pendant_dist_given_age(x1, p)
        grid = np.linspace(x1 * 1e-3, x1 * (1.0 - 1e-3), 50)
        pn = prob_n_given_age(ns, x1, p)
        end, _, amp, edge, slope, _ = dists._pendant_coefs_given_n_age(ns[1:499, None], x1, p)
        pdfs = dists._pendant_pdf(grid, end, amp, edge, slope, p)
        mix = np.add.reduce(pn[1:499, None] * pdfs, axis=0)
        err = float(np.max(np.abs(mix - law.pdf(grid))))
        atom_sum = sum((2.0 / (ns * (ns - 1)) * pn).tolist())
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


def _mean_report(cfg, label, name, scenario, *args):
    """The pendant mean given ``scenario`` against the quadrature mean of its
    law, both named by their ``dists.LAWS`` row, to 1e-6 relative."""
    row = _LAW_ROWS["pendant", scenario]
    mean, quad = getattr(dists, row.mean)(*args), getattr(dists, row.dist)(*args).mean()
    return _report(cfg, f"means_vs_quadrature:{label}", (name, quad, mean, 1e-6 * abs(quad)))


def _check_means_vs_quadrature(cfg):
    out = []
    for n, x1, lam, mu in _MEANS_GRID:
        out.append(_mean_report(cfg, f"n={n},lam={lam},mu={mu}", "pendant_mean_n_age",
                                "given-n-age", n, x1, Params(lam=lam, mu=mu)))
    for lam, mu in ((1.0, 0.5), (1.0, 0.999), (2.0, -1.0), (1.0, 1.0001e-4), (1.0, -1.0001e-4)):
        out.append(_mean_report(cfg, f"pendant_n,lam={lam},mu={mu}", "pendant_mean_n",
                                "given-n", Params(lam=lam, mu=mu)))
    for lam, mu, x1 in _MIXTURE_GRID:
        out.append(_mean_report(cfg, f"pendant_age,x1={x1},lam={lam},mu={mu}",
                                "pendant_mean_age", "given-age", x1, Params(lam=lam, mu=mu)))
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
    samples = estimate(partial(sim.batch_given_age, x1, p), read_diversity, cfg.reps, rng)
    # MGF derivative vs sampler mean under fixed (n, x1)
    n2, x2 = 6, 2.0
    rng2 = sim.RngStream(cfg.seed, 61).generator()
    samples2 = estimate(partial(sim.batch_given_n_age, n2, x2, p), read_diversity,
                        cfg.reps, rng2)
    h = 1e-6
    mgf_mean = (dists.diversity_mgf_given_n_age(h, n2, x2, lam)
                - dists.diversity_mgf_given_n_age(-h, n2, x2, lam)) / (2.0 * h)
    return [_report(cfg, "diversity_mean_age",
                    _mean_moment("mean", dists.diversity_mean_given_age(x1, lam), samples),
                    _mean_moment("mgf_derivative_vs_sampler", mgf_mean, samples2),
                    n_samples=len(samples))]


# the rates at which ``normalization`` integrates every law, a pure-birth law at
# the Yule ones only: lam = 1 at four mu, then scales far from 1
_MASS_RATES = (Params(1.0, 0.0), Params(1.0, 0.5), Params(1.0, 1.0), Params(1.0, -0.5),
               Params(1e4, 0.0), Params(1.0, -1e6))


def _normalization_laws():
    """(name, law) for every density law of ``dists.LAWS`` at each of its
    ``mass_at`` arguments and each rate of ``_MASS_RATES``: a pure-birth law
    named by those arguments, any other by mu, and either by lam where it is
    not 1."""
    for row in dists.LAWS:
        for args, p in itertools.product(row.mass_at, _MASS_RATES):
            if row.pure_birth and not p.is_yule:
                continue
            tag = [f"{a}={v}" for a, v in zip(row.args, args)] if row.pure_birth else []
            if p.lam != 1.0:
                tag.append(f"lam={p.lam}")
            if not row.pure_birth:
                tag.append(f"mu={p.mu}")
            name = row.dist.replace("_dist", "").replace("_given", "")
            yield f"{name}[{','.join(tag)}]" if tag else name, getattr(dists, row.dist)(*args, p)


def _check_normalization(cfg):
    return [_report(cfg, "normalization",
                    *((name, 1.0, law.total_mass(), 1e-8)
                      for name, law in _normalization_laws()))]


_CHECKS = {
    "yule_pendant_n": partial(_check_one_sample, "yule_pendant_n"),
    "yule_interior_n": partial(_check_one_sample, "yule_interior_n"),
    "root_edge_n": partial(_check_one_sample, "root_edge_n"),
    "root_edge_mean": _check_root_edge_mean,
    "diversity_gamma": partial(_check_one_sample, "diversity_gamma"),
    "pendant_given_n_age": partial(_check_one_sample, "pendant_given_n_age"),
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
    reports: List[ComparisonReport] = []
    for name in names:
        t0 = time.perf_counter()
        out = _CHECKS[name](config)
        wall = (time.perf_counter() - t0) / len(out)
        for r in out:
            r.wall_time_s = wall
        reports.extend(out)
    return reports
