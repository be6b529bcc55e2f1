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
``speciation_time_pdf`` and ``speciation_time_cdf``).  The three pendant-edge
laws share one builder, density amp p1(s) (edge + slope gap(s)) on (0, end),
gap(s) = q - p0(s) from the rates (it never cancels), q = p0(end):

    law             end   amp                 edge      slope     atom
    given n         inf   2 lam               0         lam       0
    given (n, x1)   x1    2(n-2)/(n(n-1)q)    2         (n-3)/q   2/(n(n-1))
    given x1        x1    2/q                 W1 - W3   W3/q      (its docstring)

Each finite-end row is one coefficient helper, giving both the law and its
mean: atom end plus the integral of the survival atom + amp gap(s) (edge +
slope gap(s)/2) over (0, end).  The given-n mean keeps its closed form.  The
pure-birth root-edge survivals read the node-depth law G(s | x1) = p0(s)/q
from the same piece, 1 - G = gap/q.  Special functions come from
``scipy.special`` only; every quadrature (the pendant means given x1 and
given (n, x1), ``MixedDist.total_mass`` and ``mean``) is one private,
globally adaptive 20-point Gauss-Legendre rule that evaluates each round's
panels in one array call, with its panels and rounds capped.

Mixed distributions (a continuous density on (0, x1) plus a point mass at
x1, arising because a pendant edge attached to the root has length exactly
x1) carry an explicit ``atom_weight``, never a numerical spike.  Closed-form
moments (``*_mean``, ``*_var``, ``*_mgf``) and the survival functions that
have no constructor are plain functions.  ``LAWS`` names each served law's
constructor, mean and variance once; the CLI and the verify suite read it,
looking each name up here when they call it.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy

from .kernel import (Params, _at_least, _check_age, _integer, _p1_gap, _ratio_log_c,
                     p0, p1, yule_rate)

__all__ = [
    "MixedDist",
    "LAWS",
    "leaf_adjacency_prob",
    "pendant_dist_given_n",
    "pendant_mean_given_n",
    "interior_dist_yule",
    "interior_mean_yule",
    "speciation_kernel",
    "speciation_time_pdf",
    "speciation_time_cdf",
    "speciation_time_dist",
    "pendant_dist_given_n_age",
    "pendant_mean_given_n_age",
    "pendant_age_weight",
    "pendant_dist_given_age",
    "pendant_mean_given_age",
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


# the tolerances of MixedDist.total_mass and mean
_QUAD_ABS, _QUAD_REL = 1e-12, 1e-10
# the Gauss-Legendre rule's nodes per panel, and the caps on its panels and rounds
_NODES, _MAX_PANELS, _MAX_ROUNDS = 20, 2000, 50


@functools.cache
def _legendre_rule() -> tuple:
    """The 20-point Gauss-Legendre nodes and weights on (0, 1): the nodes are
    the eigenvalues of the Jacobi matrix (Golub & Welsch), polished by Newton
    steps on P_n from its three-term recurrence, which also gives the weights
    2/((1 - x^2) P_n'(x)^2)."""
    k = np.arange(1.0, _NODES)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    for _ in range(3):
        pn, prev = x, np.ones_like(x)
        for j in range(2, _NODES + 1):
            pn, prev = ((2 * j - 1) * x * pn - (j - 1) * prev) / j, pn
        dpn = _NODES * (x * pn - prev) / (x * x - 1.0)
        x = x - pn / dpn
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dpn * dpn)


def _gauss_legendre(f, edges, abs_tol: float, rel_tol: float) -> float:
    """The integral of ``f`` over (edges[0], edges[-1]), globally adaptive.

    Every panel carries the rule's value on each of its halves, and as its
    error the gap between their sum and the rule over the whole panel.  Each
    round halves every panel whose error is over its share of the budget
    max(abs_tol, rel_tol |integral|), evaluating all of their quarters in one
    call of ``f`` on an array, until the errors sum to within the budget.  A
    non-finite value of ``f`` raises ValueError, and more than ``_MAX_PANELS``
    panels or ``_MAX_ROUNDS`` rounds raise RuntimeError.
    """
    x, w = _legendre_rule()

    def rule(lo, hi):
        s = lo[:, None] + (hi - lo)[:, None] * x
        y = np.asarray(f(s.ravel()), dtype=float).reshape(s.shape)
        if not np.all(np.isfinite(y)):
            raise ValueError(f"the integrand is not finite at {s[~np.isfinite(y)][0]!r}")
        return (hi - lo) * (y @ w)

    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi overflows near the largest float
    whole, left, right = np.split(rule(np.concatenate((lo, lo, mid)),
                                       np.concatenate((hi, mid, hi))), 3)
    err = np.abs(whole - left - right)
    for _ in range(_MAX_ROUNDS):
        total = float(np.sum(left + right))
        budget = max(abs_tol, rel_tol * abs(total))
        if np.sum(err) <= budget:
            return total
        cut = err > budget / err.size
        if err.size + np.count_nonzero(cut) > _MAX_PANELS:
            break
        a, b, keep = lo[cut], hi[cut], ~cut
        m = 0.5 * a + 0.5 * b
        ql, qr = 0.5 * a + 0.5 * m, 0.5 * m + 0.5 * b
        q1, q2, q3, q4 = np.split(rule(np.concatenate((a, ql, m, qr)),
                                       np.concatenate((ql, m, qr, b))), 4)
        err = np.concatenate((err[keep], np.abs(left[cut] - q1 - q2),
                              np.abs(right[cut] - q3 - q4)))
        lo, hi = np.concatenate((lo[keep], a, m)), np.concatenate((hi[keep], m, b))
        left = np.concatenate((left[keep], q1, q3))
        right = np.concatenate((right[keep], q2, q4))
    raise RuntimeError(f"quadrature did not converge: error {np.sum(err):.3g} over "
                       f"{err.size} panels")


# the powers of ten at which a law's scale is read; _DECADES[_UNIT] is 1
_DECADES, _UNIT = 10.0 ** np.arange(-308.0, 309.0), 308


# below this r the closed forms' 1/r terms cancel, so the series are summed;
# m = 1..40 leave r^m m^2 under 1e-17 r^2 there
_SERIES_MAX_R = 0.25
_SERIES_M = np.arange(1.0, 41.0)


@dataclass(frozen=True)
class MixedDist:
    """A continuous density on (0, support_end) plus a point mass at the end.

    ``cdf`` is the cumulative mass of the continuous part only; it rises to
    ``1 - atom_weight`` at ``support_end``.  ``support_end`` may be +inf for
    laws without an atom.  Past a finite end the law reads pdf 0 and cdf
    ``1 - atom_weight``: the given ``pdf`` and ``cdf`` are evaluated only up
    to the end, and every value there keeps its bits.  With an infinite end
    they run without numpy's overflow warning: a rate times an s
    past the float range is inf, whose e^-inf = 0 is the law's limit there
    (a nan it led to would still warn).  ``total_mass`` and
    ``mean`` integrate the density with the module's adaptive Gauss-Legendre
    rule, calling ``pdf`` on whole arrays, on the law's own scale (read from
    its ``cdf``) and to the module's one tolerance pair in units of it; a
    non-finite density value raises ValueError.
    """

    support_end: float
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    atom_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.atom_weight <= 1.0:
            raise ValueError(f"atom_weight must be in [0,1], got {self.atom_weight}")
        if math.isfinite(self.support_end):
            end = self.support_end
            object.__setattr__(self, "pdf", _up_to(end, self.pdf, 0.0))
            object.__setattr__(self, "cdf", _up_to(end, self.cdf, 1.0 - self.atom_weight))
        else:
            object.__setattr__(self, "pdf", _quiet(self.pdf))
            object.__setattr__(self, "cdf", _quiet(self.cdf))

    def total_mass(self) -> float:
        """Quadrature of the density plus the atom; should be 1."""
        return self._moment(0) + self.atom_weight

    def mean(self) -> float:
        m = self._moment(1)
        if self.atom_weight > 0.0:
            m += self.atom_weight * self.support_end
        return m

    def _moment(self, k: int) -> float:
        """The integral of s^k pdf(s) over (0, support_end), in units of the
        law's own scale: the first power of ten (or the end) where the cdf
        passes half the continuous mass, or 1 where it passes none.  A finite
        end is cut at each power of ten from a tenth of the scale on; an
        infinite one is mapped to 1 by s = scale t/(1 - t), cut at t = 1/11,
        1/2 and 10/11."""
        end = self.support_end
        grid = np.append(_DECADES[_DECADES < end], end) if math.isfinite(end) else _DECADES
        past = np.flatnonzero(self.cdf(grid) > 0.5 * (1.0 - self.atom_weight))
        i = past[0] if past.size else min(_UNIT, grid.size - 1)
        scale = float(grid[i])
        g = lambda s: (s / scale) ** k * self.pdf(s)
        if math.isfinite(end):
            moment = _gauss_legendre(g, [0.0, *grid[max(i - 1, 0):]], _QUAD_ABS, _QUAD_REL)
        else:
            moment = _gauss_legendre(lambda t: g(scale * t / (1.0 - t)) * scale / (1.0 - t) ** 2,
                                     [0.0, 1.0 / 11.0, 0.5, 10.0 / 11.0, 1.0], _QUAD_ABS, _QUAD_REL)
        return scale ** k * moment


def _up_to(end: float, f: Callable, past: float) -> Callable:
    """``f`` on s <= ``end`` and ``past`` beyond; an s within the end skips
    the rest of numpy."""
    def law(s):
        beyond = np.asarray(s) > end
        if not np.count_nonzero(beyond):
            return f(s)
        return np.where(beyond, past, f(np.minimum(s, end)))[()]
    return law


def _quiet(f: Callable) -> Callable:
    """``f`` with numpy's overflow warning off."""
    def law(s):
        with np.errstate(over="ignore"):
            return f(s)
    return law


# ---------------------------------------------------------------------------
# Scenario (i): conditioning on n
# ---------------------------------------------------------------------------

def leaf_adjacency_prob(k: int, n: int) -> float:
    """Probability that a random leaf is adjacent to the k-th split: 2k/(n(n-1))."""
    _at_least("n", n, 2)
    if not 1 <= _integer("k", k) <= n - 1:
        raise ValueError(f"k must lie in [1, n-1], got k={k} n={n}")
    return 2.0 * k / (n * (n - 1))


def _pendant_law(end: float, q: float, amp: float, edge: float, slope: float,
                 atom: float, p: Params) -> MixedDist:
    """The pendant-edge law of every scenario (see the module docstring); its
    density is :func:`_pendant_pdf`, and since p0' = p1 the cdf is
    amp u (edge + slope (q - u/2)) with u = p0(s).
    """
    def pdf(s):
        return _pendant_pdf(s, end, amp, edge, slope, p)

    def cdf(s):
        u = p0(s, p)
        return amp * u * (edge + slope * (q - u / 2.0))

    return MixedDist(support_end=end, pdf=pdf, cdf=cdf, atom_weight=atom)


def _pendant_pdf(s, end: float, amp, edge: float, slope, p: Params):
    """The pendant-edge density amp p1(s) (edge + slope gap(s)), the gap being
    ``kernel._p1_gap``'s; a column of amp and slope gives one row per law.
    """
    w, gap = _p1_gap(s, end, p)
    return amp * w * (edge + slope * gap)


def _pendant_mean(end: float, q: float, amp: float, edge: float, slope: float,
                  atom: float, p: Params) -> float:
    """The mean of :func:`_pendant_law` for a finite end: atom end plus the
    survival's integral, in t = s/end, to 1e-13 relative, its first panels
    cut at 10, 100, ... times the scale 1/(lam + |mu|) over which the gap
    falls off.  Every caller's x1 passed ``kernel._check_age``, so
    (lam + |mu|) x1 is a positive float.  The integral, about the survival's
    peak q (edge + slope q/2) over (lam + |mu|) x1, is taken times 2^k, k >= 0
    leaving the peak under (lam + |mu|) x1, and amp times 2^-k, so that neither
    it nor amp end underflows or overflows (as ``kernel._p1_gap`` scales its
    gap); scaling by 2^k is exact, so wherever nothing underflowed unscaled the
    rule cuts the same panels and the mean keeps its bits.
    """
    def tail(t):
        gap = _p1_gap(t * end, end, p)[1]
        return np.ldexp(gap * (edge + 0.5 * slope * gap), k)

    scale = (p.lam + abs(p.mu)) * end
    k = max(math.frexp(scale)[1] - math.frexp(q * (edge + 0.5 * slope * q))[1] - 1, 0)
    cuts = [10.0 ** j / scale for j in range(1, math.ceil(math.log10(scale)))]
    integral = _gauss_legendre(tail, [0.0, *cuts, 1.0], 0.0, 1e-13)
    return float(atom * end + math.ldexp(amp, -k) * end * integral)


def pendant_dist_given_n(p: Params) -> MixedDist:
    """Pendant-edge length law given n: density 2 lam p1(s)(1 - lam p0(s)).

    The formula contains no n; the law is the same for every tip count.
    """
    return _pendant_law(math.inf, 1.0 / p.lam, 2.0 * p.lam, 0.0, p.lam, 0.0, p)


def pendant_mean_given_n(p: Params) -> float:
    """Expected pendant length given n: (mu + (lam-mu) log(1-mu/lam)) / mu^2,
    or (1/lam) sum_{m>=0} r^m/((m+1)(m+2)) with r = mu/lam for |r| < 0.25,
    where that divides ~0 by ~0; 1/(2 lam) at mu = 0, 1/lam at mu = lam.
    """
    r = p.mu / p.lam
    if abs(r) < _SERIES_MAX_R:
        m = _SERIES_M
        return (0.5 + float(np.sum(r ** m / ((m + 1) * (m + 2))))) / p.lam
    if r >= 1.0:  # mu = lam, up to the rounding of mu/lam
        return 1.0 / p.lam
    return (r + (p.lam - p.mu) / p.lam * math.log1p(-r)) / (p.lam * r * r)


def interior_dist_yule(lam: Union[float, Params]) -> MixedDist:
    """Interior-edge length law in a pure-birth tree: Exp(2 lam)."""
    lam = yule_rate(lam)
    return MixedDist(
        support_end=math.inf,
        pdf=lambda s: 2.0 * lam * np.exp(-2.0 * lam * s),
        cdf=lambda s: -np.expm1(-2.0 * lam * s),
    )


def interior_mean_yule(lam: Union[float, Params]) -> float:
    """Expected interior-edge length in a pure-birth tree: 1/(2 lam)."""
    return 1.0 / (2.0 * yule_rate(lam))


# ---------------------------------------------------------------------------
# Scenario (ii): conditioning on n and x1
# ---------------------------------------------------------------------------

def speciation_kernel(s, x1: float, p: Params):
    """Density g and CDF G of a single speciation time on (0, x1).

    g(s|x1) = p1(s)/p0(x1), G(s|x1) = p0(s)/p0(x1), at most 1: at rates
    near 1e100 the rounded p0(s) can pass p0(x1) by an ulp.
    """
    q = _check_age(x1, p)
    if np.any(np.asarray(s) > x1):
        raise ValueError("s must not exceed x1")
    return p1(s, p) / q, np.minimum(p0(s, p) / q, 1.0)


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
        scipy.special.xlogy(n - k - 1, G) + scipy.special.xlog1py(k - 2, -G)
        - scipy.special.betaln(n - k, k - 1)
    ) * g


def speciation_time_cdf(s, k: int, n: int, x1: float, p: Params):
    _check_speciation_index(k, n)
    _, G = speciation_kernel(s, x1, p)
    # regularized incomplete beta: CDF of the (n-k)-th order statistic
    return scipy.special.betainc(n - k, k - 1, G)


def _check_speciation_index(k: int, n: int):
    _at_least("n", n, 3)
    if not 2 <= _integer("k", k) <= n - 1:
        raise ValueError(f"k must lie in [2, n-1], got k={k} n={n}")


def speciation_time_dist(k: int, n: int, x1: float, p: Params) -> MixedDist:
    """Law of the k-th speciation time given n tips and age x1."""
    _check_speciation_index(k, n)
    _check_age(x1, p)
    return MixedDist(
        support_end=x1,
        pdf=lambda s: speciation_time_pdf(s, k, n, x1, p),
        cdf=lambda s: speciation_time_cdf(s, k, n, x1, p),
    )


def _pendant_coefs_given_n_age(n, x1: float, p: Params) -> tuple:
    """(end, q, amp, edge, slope, atom) of the pendant law given n and x1; a
    column ``n[:, None]`` gives columns of amp, slope and atom."""
    _at_least("n", n, 2)
    q = _check_age(x1, p, n)
    return x1, q, 2.0 * (n - 2) / (n * (n - 1) * q), 2.0, (n - 3) / q, 2.0 / (n * (n - 1))


def pendant_dist_given_n_age(n: int, x1: float, p: Params) -> MixedDist:
    """Pendant-edge law given n and x1: mixed with atom 2/(n(n-1)) at x1.

    Continuous part for s < x1:
        2(n-2)/(n(n-1)) * g(s|x1) * ((n-1) - (n-3) G(s|x1)).
    For n = 2 amp is 0: both pendant edges span the full age.
    """
    return _pendant_law(*_pendant_coefs_given_n_age(n, x1, p), p)


def pendant_mean_given_n_age(n: int, x1: float, p: Params) -> float:
    """Expected pendant length given n and x1 (exactly x1 at n = 2)."""
    return _pendant_mean(*_pendant_coefs_given_n_age(n, x1, p), p)


# ---------------------------------------------------------------------------
# Scenario (iii): conditioning on x1
# ---------------------------------------------------------------------------

def pendant_age_weight(k: int, x1: float, p: Params) -> float:
    """c^2 w_k, with w_k = sum_{n>=3} ((n-2)/n)(n-k) r^{n-2}, r = lam p0(x1)
    and c = 1 - r.

    Closed form: c^2 w_k = ((k+1)r - k) - 2k c^2 log(c)/r^2 - 2k c^2/r, finite
    as r -> 1 because log c comes from the rates; for r < 0.25 the series
    itself is summed.
    """
    q = _check_age(x1, p)
    log_c = _ratio_log_c(x1, p)[1]
    return _age_weight(k, p.lam * q, log_c, math.exp(2.0 * log_c))


def _age_weight(k: int, r: float, log_c: float, cc: float) -> float:
    """:func:`pendant_age_weight` from r, log c and c^2."""
    if r < _SERIES_MAX_R:
        m = _SERIES_M
        return cc * float(np.sum(m * (m + 2 - k) / (m + 2) * r ** m))
    return ((k + 1) * r - k) - 2.0 * k * cc * log_c / (r * r) - 2.0 * k * cc / r


def _pendant_coefs_given_age(x1: float, p: Params) -> tuple:
    """(end, q, amp, edge, slope, atom) of the pendant law given only x1; the
    atom's -(log(c) + r) is summed as sum_{j>=2} r^j/j for r < 0.25.  W1 - G W3
    is O(c) as s -> x1, so it is summed as (W1 - W3) + (1 - G) W3: W1 - W3 =
    2(c - atom), or the series c^2 sum 2m/(m+2) r^m for r < 0.25, and
    p0(x1) (1 - G) is the gap.
    """
    q = _check_age(x1, p)
    r = p.lam * q
    log_c = _ratio_log_c(x1, p)[1]
    cc = math.exp(2.0 * log_c)
    if r < _SERIES_MAX_R:
        atom = 2.0 * cc * (0.5 + float(np.sum(r ** _SERIES_M / (_SERIES_M + 2))))
        w13 = cc * float(np.sum(2.0 * _SERIES_M / (_SERIES_M + 2) * r ** _SERIES_M))
    else:
        atom = -2.0 * cc * (log_c + r) / (r * r)
        w13 = 2.0 * (math.exp(log_c) - atom)  # W1 - W3
    return x1, q, 2.0 / q, w13, _age_weight(3, r, log_c, cc) / q, atom


def pendant_dist_given_age(x1: float, p: Params) -> MixedDist:
    """Pendant-edge law given only the age x1 (mixture over tip counts).

    Continuous part for s < x1:
        2 p1(s) / p0(x1) * (W1 - G W3),  G = p0(s)/p0(x1),
    with r = lam p0(x1), c = 1 - r and W_k = c^2 w_k = pendant_age_weight(k,
    x1); atom at x1: -2 (log(c) + r) (c/r)^2.
    """
    return _pendant_law(*_pendant_coefs_given_age(x1, p), p)


def pendant_mean_given_age(x1: float, p: Params) -> float:
    """Expected pendant length given only the age x1."""
    return _pendant_mean(*_pendant_coefs_given_age(x1, p), p)


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
    _check_age(x1, Params(lam))
    return MixedDist(
        support_end=x1,
        pdf=lambda l: lam * np.exp(-lam * np.asarray(l, dtype=float)),
        cdf=lambda l: -np.expm1(-lam * np.asarray(l, dtype=float)),
        atom_weight=math.exp(-lam * x1),
    )


def root_edge_mean_given_age(x1: float, lam: Union[float, Params]) -> float:
    lam = yule_rate(lam)
    _check_age(x1, Params(lam))
    return -math.expm1(-lam * x1) / lam


# pure birth at rate 1: G depends on lam s only, so the root-edge survivals
# take their times in units of 1/lam, where no kernel product underflows
_YULE = Params(1.0)


def _depth_survival(l, t: float, lam: float, f):
    """f(G, 1 - G) for 0 <= l <= t, 0 beyond (a float for a scalar l), with
    G = G(t - l | t) = p0(t - l)/p0(t) at pure birth; 1 - G is the kernel's
    gap over p0(t), at most 1, so it stays exact as l -> 0; lam t must leave
    p0 a normal float."""
    l = np.asarray(l, dtype=float)
    if np.any(l < 0):
        raise ValueError("l must be >= 0")
    s, u = lam * (t - np.minimum(l, t)), lam * t
    q = _check_age(u, _YULE, name="lam times the age")
    with np.errstate(divide="ignore", invalid="ignore"):  # G = 0 at l = t, 1 - G = 0 at 0
        out = np.where(l <= t, f(p0(s, _YULE) / q, np.minimum(_p1_gap(s, u, _YULE)[1] / q, 1.0)),
                       0.0)
    return out if out.ndim else float(out)


def initial_edge_survival(l, t: float, k: int, lam: Union[float, Params]):
    """P(initial edge > l | k tips at time t) = G(t - l | t)^{k-1} (pure
    birth), G(t - l | t) = (1 - e^{-lam(t-l)})/(1 - e^{-lam t}); 0 for l >= t.
    log G is log1p(-(1 - G)) while 1 - G < 1/2 and log G beyond, exact at both ends.
    """
    lam = yule_rate(lam)
    _at_least("k", k, 1)
    _check_age(t, Params(lam), name="t")
    return _depth_survival(l, t, lam, lambda g, eps: np.where(
        g > 0.0, np.exp((k - 1) * np.where(eps < 0.5, np.log1p(-eps), np.log(g))), 0.0))


def root_edge_survival_given_n_age(l, n: int, x1: float, lam: Union[float, Params]):
    """P(L > l | n, x1) = (1/(n-1)) sum_{j=0..n-2} G^j (pure birth), G =
    G(x1 - l | x1); 0 past x1.  With eps = 1 - G exact and m = n - 1 that is
    -expm1(m log1p(-eps))/(m eps), whose limit 1 is needed only at eps = 0.
    """
    lam, m = yule_rate(lam), n - 1
    _at_least("n", n, 2)
    _check_age(x1, Params(lam))
    return _depth_survival(l, x1, lam, lambda g, eps: np.where(
        eps > 0.0, -np.expm1(m * np.log1p(-eps)) / (m * eps), 1.0))


def root_edge_limit_constant() -> float:
    """The constant c = int_0^inf (1 - e^{-x}) / (x(2+x)) dx = 0.8158...

    Scaled by 1/lam, this is the large-n limit of the expected root-edge
    length when lam is set to its ML value ln(n/2)/x1.  With 1/(x(2+x)) =
    (1/x - 1/(2+x))/2 it is (gamma + ln 2 + e^2 E1(2))/2 in closed form.
    """
    return 0.5 * (np.euler_gamma + math.log(2.0) + math.exp(2.0) * float(scipy.special.exp1(2.0)))


# ---------------------------------------------------------------------------
# Diversity (sum of all edge lengths, pure birth)
# ---------------------------------------------------------------------------

def diversity_dist_given_n(n: int, lam: Union[float, Params]) -> MixedDist:
    """Diversity law given n (pure birth): gamma with shape n-1 and rate lam;
    in x = d/(1/lam) the cdf is gammainc(n-1, x), the pdf formed in log space.
    The shape is a float, as the special functions take it, and x stops at the
    largest float, where the pdf's log is -x, not inf - inf."""
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    scale, shape = 1.0 / lam, n - 1.0
    x = lambda d: np.minimum(np.asarray(d, dtype=float) / scale, sys.float_info.max)
    return MixedDist(
        support_end=math.inf,
        pdf=lambda d: np.exp(scipy.special.xlogy(shape - 1.0, x(d)) - x(d)
                             - scipy.special.gammaln(shape)) / scale,
        cdf=lambda d: scipy.special.gammainc(shape, x(d)),
    )


def diversity_mean_given_n(n: int, lam: Union[float, Params]) -> float:
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    return (n - 1) / lam


def diversity_var_given_n(n: int, lam: Union[float, Params]) -> float:
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    return (n - 1) / lam ** 2


def diversity_mgf_given_n_age(s, n: int, x1: float, lam: Union[float, Params]):
    """MGF of diversity given n and x1 (pure birth):

    e^{2 x1 s} (lam (1 - e^{(s-lam) x1}) / ((lam-s)(1 - e^{-lam x1})))^{n-2}.
    Defined for s < lam; the factor has a removable singularity at s = lam.
    """
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    _check_age(x1, Params(lam))
    s = np.asarray(s, dtype=float)
    if np.any(s >= lam):
        raise ValueError("MGF argument must be < lam")
    ratio = x1 * scipy.special.exprel((s - lam) * x1)  # (1 - e^{(s-lam) x1})/(lam-s)
    base = lam * ratio / (-math.expm1(-lam * x1))
    # base = lam/(lam-s) (1 + v), v = e^-y expm1(s x1)/expm1(-y), y = lam x1: at |s| <
    # lam/4 (r = s there, 0 elsewhere) its log is log1p(v) - log1p(-r/lam), each term
    # O(s/lam) and formed without cancellation (e^-y expm1(r x1) from factors of size at
    # most 1), so the power keeps its digits however large n is, where it would raise
    # base's rounding to n - 2
    r, y = np.where(np.abs(s) < 0.25 * lam, s, 0.0), lam * x1
    rx = r * x1
    v = np.sign(rx) * np.exp(np.maximum(rx, 0.0) - y) * -np.expm1(-np.abs(rx)) / math.expm1(-y)
    log_base = np.where(r == s, np.log1p(v) - np.log1p(-r / lam), np.log(base))
    # both factors are >= 1 at s >= 0 and <= 1 at s <= 0: their log sum bounds each
    past = 2.0 * x1 * s + (n - 2) * log_base > math.log(sys.float_info.max)
    if np.any(past):
        raise ValueError(f"the diversity MGF at s={s[past][0]:g}, n={n} is past the float range")
    out = np.exp(2.0 * x1 * s) * np.exp((n - 2) * log_base)
    return out if out.ndim else float(out)


def diversity_mean_given_n_age(n: int, x1: float, lam: Union[float, Params]) -> float:
    """E[D|n,x1] = 2 x1 + (n-2) E[S], E[S] = gammainc(2, y)/(lam(1 - e^-y)), y = lam x1.

    Below y = 1e-2, E[S] = (1 - y/expm1(y))/lam is summed as its series
    x1 (1/2 - y/12 + y^3/720 - y^5/30240), which keeps full precision where
    gammainc(2, y) loses digits (y < 1e-50) or underflows.
    """
    lam = yule_rate(lam)
    _at_least("n", n, 2)
    _check_age(x1, Params(lam))
    y = lam * x1
    if y < 1e-2:
        mean_s = x1 * (0.5 - y * (1.0 / 12.0 - y * y * (1.0 / 720.0 - y * y / 30240.0)))
    else:
        mean_s = scipy.special.gammainc(2, y) / -math.expm1(-y) / lam
    return 2.0 * x1 + (n - 2) * float(mean_s)


def diversity_mean_given_age(x1: float, lam: Union[float, Params]) -> float:
    """E[D|x1] = (2/lam)(e^{lam x1} - 1) (pure birth)."""
    lam = yule_rate(lam)
    _check_age(x1, Params(lam))
    return 2.0 * math.expm1(lam * x1) / lam


# ---------------------------------------------------------------------------
# The served laws
# ---------------------------------------------------------------------------

# One row per served law, by name: its ``density --law`` and ``--scenario`` keys
# (None: it takes no scenario), its argument names before the rates, in call
# order, its constructor and mean here (or None), its density header, whether it
# is pure birth only, the arguments at which ``normalization`` integrates it, and
# its variance here (or None).
_Law = namedtuple("Law", "law scenario args dist mean header pure_birth mass_at var",
                  defaults=((), None))

LAWS = (
    _Law("pendant", "given-n", (), "pendant_dist_given_n", "pendant_mean_given_n",
         "pendant | n", False, ((),)),
    _Law("pendant", "given-n-age", ("n", "x1"), "pendant_dist_given_n_age",
         "pendant_mean_given_n_age", "pendant | n={n}, x1={x1}", False, ((5, 2.0),)),
    _Law("pendant", "given-age", ("x1",), "pendant_dist_given_age", "pendant_mean_given_age",
         "pendant | x1={x1}", False, ((1.5,),)),
    _Law("interior", "given-n", (), "interior_dist_yule", "interior_mean_yule",
         "interior | n (pure birth)", True, ((),)),
    _Law("root-edge", "given-n", ("n",), "root_edge_dist_given_n", "root_edge_mean_given_n",
         "root edge | n={n} (pure birth)", True, ((2,), (4,), (10,))),
    _Law("root-edge", "given-age", ("x1",), "root_edge_dist_given_age",
         "root_edge_mean_given_age", "root edge | x1={x1} (pure birth)", True, ((1.5,),)),
    _Law("speciation-time", None, ("k", "n", "x1"), "speciation_time_dist", None,
         "speciation time k={k} | n={n}, x1={x1}", False, ((3, 6, 2.0),)),
    _Law("hypoexp", None, ("k",), "hypoexp_dist", "hypoexp_mean", "hypoexponential k={k}",
         True, ((2,), (10,), (35,), (60,))),
    _Law("diversity", "given-n", ("n",), "diversity_dist_given_n", "diversity_mean_given_n",
         "diversity | n={n} (pure birth)", True, ((2,), (4,), (10,)), "diversity_var_given_n"),
    _Law("diversity", "given-n-age", ("n", "x1"), None, "diversity_mean_given_n_age",
         "diversity | n={n}, x1={x1} (pure birth)", True),
    _Law("diversity", "given-age", ("x1",), None, "diversity_mean_given_age",
         "diversity | x1={x1} (pure birth)", True),
)
