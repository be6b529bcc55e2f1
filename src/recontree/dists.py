"""Closed-form branch-length and diversity laws for reconstructed trees.

Three conditioning scenarios appear throughout:

* given n          -- the number of extant sampled tips is fixed,
* given (n, x1)    -- tip count and the age x1 of the MRCA are both fixed,
* given x1         -- only the MRCA age is fixed.

Laws that hold for the full birth-death process take a ``Params``; laws
proven only for the pure-birth (Yule) case take a plain rate ``lam`` and
reject non-Yule ``Params``.

Each law is defined once, by its ``*_dist`` constructor: it checks its
arguments and returns a :class:`MixedDist` whose ``pdf`` and ``cdf`` are
closures over them (the speciation-time law wraps the public
``speciation_time_pdf`` and ``speciation_time_cdf``).  Mixed distributions
(a continuous density on (0, x1) plus a point mass at x1, arising because
a pendant edge attached to the root has length exactly x1) carry an
explicit ``atom_weight``, never a numerical spike.  Closed-form moments
(``*_mean``, ``*_var``, ``*_mgf``) and the survival functions that have no
constructor are plain functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import integrate, special, stats

from .kernel import Params, _ratio_log_c, p0, p1, yule_rate

__all__ = [
    "MixedDist",
    "QuadratureConfig",
    "leaf_adjacency_prob",
    "pendant_dist_given_n",
    "pendant_mean_given_n",
    "interior_dist_yule",
    "speciation_kernel",
    "speciation_time_pdf",
    "speciation_time_cdf",
    "speciation_time_dist",
    "pendant_dist_given_n_age",
    "pendant_mean_given_n_age",
    "pendant_age_weight",
    "pendant_dist_given_age",
    "hypoexp_mean",
    "hypoexp_dist",
    "root_edge_mean_given_n",
    "root_edge_dist_given_n",
    "root_edge_mean_given_age",
    "root_edge_dist_given_age",
    "initial_edge_survival",
    "root_edge_survival_given_n_age",
    "root_edge_limit_constant",
    "diversity_dist_given_n",
    "diversity_mean_given_n",
    "diversity_var_given_n",
    "diversity_mgf_given_n_age",
    "diversity_mean_given_n_age",
    "diversity_mean_given_age",
]


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be > 0")


_DEFAULT_QUAD = QuadratureConfig()
_MAX_SUBDIVISIONS = 200


def _quad(f, a, b, cfg: QuadratureConfig = _DEFAULT_QUAD) -> float:
    val, _ = integrate.quad(
        f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=_MAX_SUBDIVISIONS,
    )
    return val


@dataclass(frozen=True)
class MixedDist:
    """A continuous density on (0, support_end) plus a point mass at the end.

    ``cdf`` is the cumulative mass of the continuous part only; it rises to
    ``1 - atom_weight`` at ``support_end``.  ``support_end`` may be +inf for
    laws without an atom.
    """

    support_end: float
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    atom_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.atom_weight <= 1.0:
            raise ValueError(f"atom_weight must be in [0,1], got {self.atom_weight}")

    def total_mass(self, cfg: QuadratureConfig = _DEFAULT_QUAD) -> float:
        """Quadrature of the density plus the atom; should be 1."""
        return _quad(self.pdf, 0.0, self.support_end, cfg) + self.atom_weight

    def mean(self) -> float:
        m = _quad(lambda s: s * self.pdf(s), 0.0, self.support_end)
        if self.atom_weight > 0.0:
            m += self.atom_weight * self.support_end
        return m


def _at_least(name: str, value: int, least: int):
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _positive(name: str, value: float):
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")


# ---------------------------------------------------------------------------
# Scenario (i): conditioning on n
# ---------------------------------------------------------------------------

def leaf_adjacency_prob(k: int, n: int) -> float:
    """Probability that a random leaf is adjacent to the k-th split: 2k/(n(n-1))."""
    _at_least("n", n, 2)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, n-1], got k={k} n={n}")
    return 2.0 * k / (n * (n - 1))


def pendant_dist_given_n(p: Params) -> MixedDist:
    """Pendant-edge length law given n: density 2 lam p1(s)(1 - lam p0(s)).

    The formula contains no n; the law is the same for every tip count.
    """
    def pdf(s):
        return 2.0 * p.lam * p1(s, p) * (1.0 - p.lam * p0(s, p))

    def cdf(s):
        # antiderivative of p1(1-lam*p0) is p0 - lam*p0^2/2, since p0' = p1
        q = p0(s, p)
        return 2.0 * p.lam * (q - p.lam * q * q / 2.0)

    return MixedDist(support_end=math.inf, pdf=pdf, cdf=cdf)


def pendant_mean_given_n(p: Params) -> float:
    """Expected pendant length given n: (mu + (lam-mu)log(1-mu/lam)) / mu^2.

    Evaluated through the series 1/lam * sum_{k>=2} r^{k-2}/(k(k-1)) with
    r = mu/lam when |r| is small (the closed form divides ~0 by ~0 there);
    limits: 1/(2 lam) at mu=0 and 1/lam at mu=lam.
    """
    r = p.mu / p.lam
    if abs(r) < 1e-4:
        # numerator of the closed form = sum_{k>=2} r^k / (k(k-1))
        acc = 0.0
        for k in range(2, 12):
            acc += r ** (k - 2) / (k * (k - 1))
        return acc / p.lam
    x = 1.0 - r  # = 1 - mu/lam, in (0, 2)
    if x <= 0.0:
        num = 1.0  # limit of r + (1-r)log(1-r) at r = 1
    else:
        num = r + x * math.log(x)
    return num / (p.lam * r * r)


def interior_dist_yule(lam: Union[float, Params]) -> MixedDist:
    """Interior-edge length law in a pure-birth tree: Exp(2 lam)."""
    lam = yule_rate(lam)
    return MixedDist(
        support_end=math.inf,
        pdf=lambda s: 2.0 * lam * np.exp(-2.0 * lam * s),
        cdf=lambda s: -np.expm1(-2.0 * lam * s),
    )


# ---------------------------------------------------------------------------
# Scenario (ii): conditioning on n and x1
# ---------------------------------------------------------------------------

def speciation_kernel(s, x1: float, p: Params):
    """Density g and CDF G of a single speciation time on (0, x1).

    g(s|x1) = p1(s)/p0(x1), G(s|x1) = p0(s)/p0(x1).
    """
    if np.any(np.asarray(s) > x1):
        raise ValueError("s must not exceed x1")
    q = p0(x1, p)
    return p1(s, p) / q, p0(s, p) / q


def speciation_time_pdf(s, k: int, n: int, x1: float, p: Params):
    """Density of the k-th speciation time given n tips and age x1.

    (n-2) C(n-3, k-2) G^{n-k-1} (1-G)^{k-2} g  for k = 2..n-1; equivalently
    the (n-k)-th smallest of n-2 i.i.d. draws from g, i.e. the Beta(n-k, k-1)
    density of G times g, evaluated in log space so it stays finite for
    large n.
    """
    _check_speciation_index(k, n)
    g, G = speciation_kernel(s, x1, p)
    return np.exp(
        special.xlogy(n - k - 1, G) + special.xlog1py(k - 2, -G)
        - special.betaln(n - k, k - 1)
    ) * g


def speciation_time_cdf(s, k: int, n: int, x1: float, p: Params):
    _check_speciation_index(k, n)
    _, G = speciation_kernel(s, x1, p)
    # regularized incomplete beta: CDF of the (n-k)-th order statistic
    return special.betainc(n - k, k - 1, G)


def _check_speciation_index(k: int, n: int):
    _at_least("n", n, 3)
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must lie in [2, n-1], got k={k} n={n}")


def speciation_time_dist(k: int, n: int, x1: float, p: Params) -> MixedDist:
    """Law of the k-th speciation time given n tips and age x1."""
    _check_speciation_index(k, n)
    _positive("x1", x1)
    return MixedDist(
        support_end=x1,
        pdf=lambda s: speciation_time_pdf(s, k, n, x1, p),
        cdf=lambda s: speciation_time_cdf(s, k, n, x1, p),
    )


def pendant_dist_given_n_age(n: int, x1: float, p: Params) -> MixedDist:
    """Pendant-edge law given n and x1: mixed with atom 2/(n(n-1)) at x1.

    Continuous part for s < x1:
        2(n-2)/(n(n-1)) * g(s|x1) * ((n-1) - (n-3) G(s|x1)).
    For n = 2 both pendant edges span the full age, so all mass is atomic.
    """
    _at_least("n", n, 2)
    _positive("x1", x1)
    atom = 2.0 / (n * (n - 1))
    if n == 2:
        zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
        return MixedDist(support_end=x1, pdf=zero, cdf=zero, atom_weight=1.0)
    q = p0(x1, p)
    c = 2.0 * (n - 2) / (n * (n - 1))

    def pdf(s):
        g = p1(s, p) / q
        G = p0(s, p) / q
        return c * g * ((n - 1) - (n - 3) * G)

    def cdf(s):
        G = p0(s, p) / q
        return c * ((n - 1) * G - (n - 3) * G * G / 2.0)

    return MixedDist(support_end=x1, pdf=pdf, cdf=cdf, atom_weight=atom)


def pendant_mean_given_n_age(n: int, x1: float, p: Params) -> float:
    """Expected pendant length given n and x1.

    Uses the closed forms (separate branches for mu < lam and mu = lam);
    falls back to quadrature of the density near mu = 0 and for n = 3 ties
    where the closed form divides by ~0.
    """
    _at_least("n", n, 2)
    if n == 2:
        return x1
    lam, mu = p.lam, p.mu
    if p.is_critical:
        q = x1 / (1.0 + lam * x1)
        inner = (
            (n - 7) * x1 + (n + 1) * q
            + (6.0 - 2.0 * n + 4.0 * lam * x1) / lam * math.log1p(lam * x1)
        )
        return (2.0 * x1 + (n - 2) / (x1 * q * lam * lam) * inner) / (n * (n - 1))
    if abs(mu) <= 1e-4 * lam or abs(lam - mu) <= 1e-4 * lam:
        # closed form has 1/(lam*mu) and 1/(lam-mu) factors; integrate instead
        return pendant_dist_given_n_age(n, x1, p).mean()
    q = p0(x1, p)
    P1 = p1(x1, p)
    e = math.exp(-(lam - mu) * x1)
    a = lam - mu * e
    c_val = (
        (n - 3) * q / (lam * mu) * a
        - x1 * P1 * a / lam ** 2 * (4.0 / (lam - mu) * a - e * (n + 1))
        - math.log(1.0 - mu * q) / (lam * mu) ** 2
        * (e * mu * (-4.0 * mu - (n + 1) * (lam - mu))
           - lam * (-4.0 * lam + (n + 1) * (lam - mu)))
    )
    return (2.0 * x1 + (n - 2) / (q * (1.0 - e)) * c_val) / (n * (n - 1))


# ---------------------------------------------------------------------------
# Scenario (iii): conditioning on x1
# ---------------------------------------------------------------------------

# below this r the closed forms' 1/r terms cancel, so the series are summed;
# m = 1..40 leave r^m m^2 under 1e-17 r^2 there
_SERIES_MAX_R = 0.25
_SERIES_M = np.arange(1.0, 41.0)


def pendant_age_weight(k: int, x1: float, p: Params) -> float:
    """c^2 w_k, with w_k = sum_{n>=3} ((n-2)/n)(n-k) r^{n-2}, r = lam p0(x1)
    and c = 1 - r.

    Closed form: c^2 w_k = ((k+1)r - k) - 2k c^2 log(c)/r^2 - 2k c^2/r, finite
    as r -> 1 because log c comes from the rates; for r < 0.25 the series
    itself is summed.
    """
    r = p.lam * p0(x1, p)
    log_c = _ratio_log_c(x1, p)[1]
    cc = math.exp(2.0 * log_c)
    if r < _SERIES_MAX_R:
        m = _SERIES_M
        return cc * float(np.sum(m * (m + 2 - k) / (m + 2) * r ** m))
    return ((k + 1) * r - k) - 2.0 * k * cc * log_c / (r * r) - 2.0 * k * cc / r


def pendant_dist_given_age(x1: float, p: Params) -> MixedDist:
    """Pendant-edge law given only the age x1 (mixture over tip counts).

    Continuous part for s < x1:
        2 p1(s) / p0(x1) * (W1 - G W3),  G = p0(s)/p0(x1),
    with r = lam p0(x1), c = 1 - r and W_k = c^2 w_k = pendant_age_weight(k,
    x1); atom at x1: -2 (log(c) + r) (c/r)^2, where -(log(c) + r) is summed
    as sum_{j>=2} r^j/j for r < 0.25.  W1 - G W3 is O(c) as s -> x1, so it
    is summed as (W1 - W3) + (1 - G) W3: W1 - W3 = 2(c - atom), or the series
    c^2 sum 2m/(m+2) r^m for r < 0.25, and 1 - G from the rates, d e^{-ds}
    (1 - e^{-d(x1-s)}) / ((lam - mu e^{-ds})(1 - e^{-d x1})) with d = lam - mu,
    or (x1 - s)/(x1 (1 + lam s)) when critical.
    """
    _positive("x1", x1)
    q = p0(x1, p)
    r = p.lam * q
    w1 = pendant_age_weight(1, x1, p)
    w3 = pendant_age_weight(3, x1, p)
    amp = 2.0 / q
    log_c = _ratio_log_c(x1, p)[1]
    cc = math.exp(2.0 * log_c)
    d = p.lam - p.mu
    if r < _SERIES_MAX_R:
        atom = 2.0 * cc * (0.5 + float(np.sum(r ** _SERIES_M / (_SERIES_M + 2))))
        w13 = cc * float(np.sum(2.0 * _SERIES_M / (_SERIES_M + 2) * r ** _SERIES_M))
    else:
        atom = -2.0 * (log_c + r) * cc / (r * r)
        w13 = 2.0 * (math.exp(log_c) - atom)  # W1 - W3

    def pdf(s):
        if p.is_critical:
            gap = (x1 - s) / (x1 * (1.0 + p.lam * s))  # 1 - G
        else:
            e = np.exp(-d * s)
            gap = d * e * np.expm1(-d * (x1 - s)) / ((p.lam - p.mu * e) * math.expm1(-d * x1))
        return amp * p1(s, p) * (w13 + gap * w3)

    def cdf(s):
        u = p0(s, p)
        return amp * (w1 * u - w3 * u * u / (2.0 * q))

    return MixedDist(support_end=x1, pdf=pdf, cdf=cdf, atom_weight=atom)


# ---------------------------------------------------------------------------
# Root-edge laws (pure birth)
# ---------------------------------------------------------------------------

def hypoexp_dist(k: int, lam: Union[float, Params]) -> MixedDist:
    """Law of the MRCA age of a k-tip pure-birth tree (hypoexponential): the
    sum of independent Exp(2 lam), ..., Exp(k lam) variables.

    The density's alternating binomial series
        k(k-1) sum_{i=2..k} lam (-e^{-lam t})^i C(k-2, i-2)
    collapses exactly (binomial theorem) to the cancellation-free form
        k(k-1) lam e^{-2 lam t} (1 - e^{-lam t})^{k-2},
    which is what we evaluate.
    """
    lam = yule_rate(lam)
    _at_least("k", k, 2)

    def pdf(t):
        t = np.asarray(t, dtype=float)
        u = np.exp(-lam * t)
        return k * (k - 1) * lam * u * u * (-np.expm1(-lam * t)) ** (k - 2)

    def cdf(t):
        v = -np.expm1(-lam * np.asarray(t, dtype=float))  # 1 - e^{-lam t}
        return k * v ** (k - 1) - (k - 1) * v ** k

    return MixedDist(support_end=math.inf, pdf=pdf, cdf=cdf)


def hypoexp_mean(k: int, lam: Union[float, Params]) -> float:
    lam = yule_rate(lam)
    _at_least("k", k, 2)
    return sum(1.0 / (i * lam) for i in range(2, k + 1))


def root_edge_dist_given_n(n: int, lam: Union[float, Params]) -> MixedDist:
    """Law of a fair-coin root edge given n (pure birth), with density

    f_L(t|n) = lam e^{-lam t} (1 - (1 - e^{-lam t})^{n-2} (1 - n e^{-lam t})).
    """
    lam = yule_rate(lam)
    _at_least("n", n, 2)

    def pdf(t):
        u = np.exp(-lam * np.asarray(t, dtype=float))
        return lam * u * (1.0 - (1.0 - u) ** (n - 2) * (1.0 - n * u))

    def cdf(t):
        # antiderivative: V + V^{n-1} e^{-lam t} with V = 1 - e^{-lam t}
        u = np.exp(-lam * np.asarray(t, dtype=float))
        v = 1.0 - u
        return v + v ** (n - 1) * u

    return MixedDist(support_end=math.inf, pdf=pdf, cdf=cdf)


def root_edge_mean_given_n(n: int, lam: Union[float, Params]) -> float:
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    return (1.0 - 1.0 / n) / lam


def root_edge_dist_given_age(x1: float, lam: Union[float, Params]) -> MixedDist:
    """Root-edge law given x1 (pure birth): Exp(lam) on (0, x1), atom
    e^{-lam x1} at x1; so P(L > l | x1) = e^{-lam l} for l < x1, 0 beyond."""
    lam = yule_rate(lam)
    _positive("x1", x1)
    return MixedDist(
        support_end=x1,
        pdf=lambda l: lam * np.exp(-lam * np.asarray(l, dtype=float)),
        cdf=lambda l: -np.expm1(-lam * np.asarray(l, dtype=float)),
        atom_weight=math.exp(-lam * x1),
    )


def root_edge_mean_given_age(x1: float, lam: Union[float, Params]) -> float:
    lam = yule_rate(lam)
    return -math.expm1(-lam * x1) / lam


def initial_edge_survival(l, t: float, k: int, lam: Union[float, Params]):
    """P(initial edge > l | k tips at time t) = alpha^{k-1} (pure birth),

    with alpha = (1 - e^{-lam(t-l)})/(1 - e^{-lam t}); 0 for l >= t.
    """
    lam = yule_rate(lam)
    _at_least("k", k, 1)
    _positive("t", t)
    l = np.asarray(l, dtype=float)
    if np.any(l < 0):
        raise ValueError("l must be >= 0")
    with np.errstate(invalid="ignore"):
        alpha = np.expm1(-lam * (t - l)) / np.expm1(-lam * t)
    out = np.where(l < t, alpha ** (k - 1), 0.0)
    return out if out.ndim else float(out)


def root_edge_survival_given_n_age(l, n: int, x1: float, lam: Union[float, Params]):
    """P(L > l | n, x1) = (1/(n-1)) (1 - alpha^{n-1})/(1 - alpha), 0 past x1.

    Equivalent to the geometric mean-sum (1/(n-1)) sum_{j=0..n-2} alpha^j,
    which is what the limit handling below reproduces as alpha -> 1.
    """
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    _positive("x1", x1)
    scalar = np.isscalar(l)
    l = np.atleast_1d(np.asarray(l, dtype=float))
    if np.any(l < 0):
        raise ValueError("l must be >= 0")
    m = n - 1
    out = np.zeros_like(l)
    inside = l <= x1
    li = l[inside]
    alpha = np.expm1(-lam * (x1 - li)) / np.expm1(-lam * x1)
    eps = 1.0 - alpha
    vals = np.empty_like(alpha)
    near = m * np.abs(eps) < 1e-8
    # first-order expansion of the geometric sum around alpha = 1
    vals[near] = 1.0 - (m - 1) * eps[near] / 2.0
    far = ~near
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at l = x1 is fine
        vals[far] = -np.expm1(m * np.log1p(-eps[far])) / (m * eps[far])
    out[inside] = vals
    return float(out[0]) if scalar else out


def root_edge_limit_constant() -> float:
    """The constant c = int_0^inf (1 - e^{-x}) / (x(2+x)) dx = 0.8158...

    Scaled by 1/lam, this is the large-n limit of the expected root-edge
    length when lam is set to its ML value ln(n/2)/x1.
    """
    def integrand(x):
        if x == 0.0:
            return 0.5  # removable singularity
        return -math.expm1(-x) / (x * (2.0 + x))

    val, err = integrate.quad(
        integrand, 0.0, np.inf,
        epsabs=_DEFAULT_QUAD.abs_tol, epsrel=_DEFAULT_QUAD.rel_tol, limit=400,
    )
    if not math.isfinite(val) or err > 1e-6:
        raise RuntimeError(f"quadrature did not converge (err={err})")
    return val


# ---------------------------------------------------------------------------
# Diversity (sum of all edge lengths, pure birth)
# ---------------------------------------------------------------------------

def diversity_dist_given_n(n: int, lam: Union[float, Params]) -> MixedDist:
    """Diversity law given n (pure birth): gamma with shape n-1 and rate lam."""
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    return MixedDist(
        support_end=math.inf,
        pdf=lambda d: stats.gamma.pdf(d, n - 1, scale=1.0 / lam),
        cdf=lambda d: stats.gamma.cdf(d, n - 1, scale=1.0 / lam),
    )


def diversity_mean_given_n(n: int, lam: Union[float, Params]) -> float:
    lam = yule_rate(lam)
    return (n - 1) / lam


def diversity_var_given_n(n: int, lam: Union[float, Params]) -> float:
    lam = yule_rate(lam)
    return (n - 1) / lam ** 2


def diversity_mgf_given_n_age(s, n: int, x1: float, lam: Union[float, Params]):
    """MGF of diversity given n and x1 (pure birth):

    e^{2 x1 s} (lam (1 - e^{(s-lam) x1}) / ((lam-s)(1 - e^{-lam x1})))^{n-2}.
    Defined for s < lam; the factor has a removable singularity at s = lam.
    """
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    _positive("x1", x1)
    s = np.asarray(s, dtype=float)
    if np.any(s >= lam):
        raise ValueError("MGF argument must be < lam")
    d = lam - s
    # (1 - e^{-d x1})/d, stable as d -> 0
    ratio = np.where(
        np.abs(d * x1) < 1e-8,
        x1 * (1.0 - d * x1 / 2.0),
        -np.expm1(-d * x1) / np.where(d == 0.0, 1.0, d),
    )
    base = lam * ratio / (-math.expm1(-lam * x1))
    out = np.exp(2.0 * x1 * s) * base ** (n - 2)
    return out if out.ndim else float(out)


def diversity_mean_given_n_age(n: int, x1: float, lam: Union[float, Params]) -> float:
    """E[D|n,x1] = 2 x1 + (n-2) E[S] with S a speciation time on (0, x1)."""
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    if n == 2:
        return 2.0 * x1
    v = -math.expm1(-lam * x1)
    mean_s = 1.0 / lam - x1 * (1.0 - v) / v
    return 2.0 * x1 + (n - 2) * mean_s


def diversity_mean_given_age(x1: float, lam: Union[float, Params]) -> float:
    """E[D|x1] = (2/lam)(e^{lam x1} - 1) (pure birth)."""
    lam = yule_rate(lam)
    _positive("x1", x1)
    return 2.0 * math.expm1(lam * x1) / lam
