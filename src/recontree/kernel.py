"""Parameter handling and the elementary probability kernels.

The whole library is parameterized by a speciation rate ``lam`` and an
(effective) extinction rate ``mu``.  Incomplete sampling with probability
``f`` is folded into these two numbers up front: a process with raw rates
(lambda_hat, mu_hat) and sampling fraction f induces the same distribution
on reconstructed trees as a completely sampled process with

    lam = f * lambda_hat
    mu  = mu_hat - lambda_hat * (1 - f)

Note that ``mu`` may come out negative; every downstream formula remains
valid for mu < lam, so we accept the full range.

The kernels p0 and p1 are defined so that mu*p0(s) and p1(s) are the
probabilities of a lineage leaving 0 and exactly 1 surviving sampled
descendant after time s.

The module also holds the few special functions the laws and the verify
harness need, private and from numpy and math alone: exprel, the gamma
density and the regularized incomplete gamma at the shapes the callers pass,
integers and half-integers >= 1/2 (a series below x = a + 1, above it a
finite sum of gamma densities, and Temme's uniform expansion at large shape
near its mean), and the binomial probability and tail that give the
incomplete beta at integer arguments.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "RawParams",
    "Params",
    "transform_params",
    "yule_rate",
    "p0",
    "p1",
    "prob_n_given_age",
]


@dataclass(frozen=True)
class RawParams:
    """Raw birth-death parameters before the sampling transformation."""

    lambda_hat: float
    mu_hat: float
    f: float = 1.0

    def __post_init__(self):
        _positive_finite("lambda_hat", self.lambda_hat)
        if not 0 <= self.mu_hat <= self.lambda_hat:
            raise ValueError(
                f"mu_hat must lie in [0, lambda_hat], got {self.mu_hat}"
            )
        if not 0 < self.f <= 1:
            raise ValueError(f"f must lie in (0, 1], got {self.f}")


# |lam - mu| (Params.is_critical) or |mu| (Params.is_yule) below CRITICAL_TOL * lam
# counts as zero.  The kernels branch on mu == lam alone: their rate forms stay
# exact for any lam - mu > 0.  The tolerance serves only is_yule (a transformed
# mu of 0 rounds to a few ulps: RawParams(1, 0.3, 0.7) gives mu = -5.6e-17) and
# the sampler's inverse CDF, which takes its d -> 0 form inside the band
CRITICAL_TOL = 1e-8

# lam and |mu| must lie in this range: the kernels square lam - mu, which
# under- or overflows by about 1e+-154
RATE_RANGE = (1e-100, 1e100)

# the normal floats' range, which p0(x1) and n/p0(x1) must not leave
_NORMAL = (sys.float_info.min, sys.float_info.max)


@dataclass(frozen=True)
class Params:
    """Transformed (complete-sampling) parameters."""

    lam: float
    mu: float = 0.0

    def __post_init__(self):
        _rate("lam", self.lam)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if abs(self.mu) > RATE_RANGE[1]:
            raise ValueError(f"|mu| must be <= {RATE_RANGE[1]:g}, got {self.mu}")
        if self.mu > self.lam:
            raise ValueError(f"mu must be <= lam, got mu={self.mu} lam={self.lam}")

    @property
    def is_critical(self) -> bool:
        return abs(self.lam - self.mu) <= CRITICAL_TOL * self.lam

    @property
    def is_yule(self) -> bool:
        return abs(self.mu) <= CRITICAL_TOL * self.lam


def transform_params(raw: RawParams) -> Params:
    """Fold incomplete sampling into effective complete-sampling rates.

    mu_hat <= lambda_hat gives mu <= lam, but at mu_hat = lambda_hat and f < 1
    the rounded mu can land an ulp above lam (mu_hat = lambda_hat = 1, f = 0.3
    gives mu = 0.30000000000000004, lam = 0.3), so mu is clamped to lam; every
    other mu is the formula's value, bit for bit.
    """
    lam = raw.f * raw.lambda_hat
    mu = raw.mu_hat - raw.lambda_hat * (1.0 - raw.f)
    return Params(lam=lam, mu=min(mu, lam))


def yule_rate(lam: Union[float, Params]) -> float:
    """The rate of a pure-birth law or sampler: a plain rate > 0, or a
    Params with mu = 0."""
    if isinstance(lam, Params):
        if not lam.is_yule:
            raise ValueError(f"requires mu = 0 (pure birth; |mu| <= {CRITICAL_TOL:g} lam "
                             f"counts as 0), got mu={lam.mu}")
        return lam.lam
    _rate("lam", lam)
    return float(lam)


def _integer(name: str, value):
    """``value`` if it is a Python or numpy int or an integer array; anything
    else is refused, naming ``name``."""
    if isinstance(value, (int, np.integer)) or np.asarray(value).dtype.kind in "iu":
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _at_least(name: str, value, least: int):
    """Reject a non-integer (see :func:`_integer`) or a value below ``least``:
    a Python comparison for an int, numpy otherwise, naming an array's
    smallest entry."""
    low = value if isinstance(_integer(name, value), int) else np.min(value)
    if low < least:
        raise ValueError(f"{name} must be >= {least}, got {low}")


def _positive_finite(name: str, value: float):
    if not math.inf > value > 0:
        raise ValueError(f"{name} must be > 0 and finite, got {value}")


def _check_age(x1: float, p: Params, n=2, name: str = "x1"):
    """q = p0(x1) for an age x1 > 0 at which q, 1/q and n/q (the largest of
    an array n) are normal floats, as the laws that divide by q need, and
    (lam + |mu|) x1 is a positive float.  Any other x1 is refused, naming
    ``name``: past the float range as that product.  A Python comparison for
    an int n.
    """
    _positive_finite(name, x1)
    x1 = float(x1)  # a numpy scalar would warn where a product overflows
    q = p0(x1, p)
    top = n if isinstance(n, int) else np.max(n)
    scale = (p.lam + abs(p.mu)) * x1
    if scale < math.inf and (not q >= _NORMAL[0] or q < top / _NORMAL[1]):
        raise ValueError(f"{name} is too small for p0 and n/p0 to be normal floats "
                         f"(p0 = {q:.3g}, n = {top}), got {x1}")
    _positive_finite(f"(lam + |mu|) {name}", scale)
    return q


def _rate(name: str, value: float):
    _positive_finite(name, value)
    if not RATE_RANGE[0] <= value <= RATE_RANGE[1]:
        raise ValueError(f"{name} must lie in [{RATE_RANGE[0]:g}, {RATE_RANGE[1]:g}], "
                         f"got {value}")


def _check_time(s):
    """Reject negative times: a Python comparison for floats, numpy otherwise."""
    if (s < 0.0) if isinstance(s, float) else (np.asarray(s) < 0).any():
        raise ValueError(f"s must be >= 0, got {s}")


def _denominator(em, y, p: Params):
    """D = lam - mu e^y at y = -(lam - mu) s, given em = 1 - e^y, as a sum of
    non-negative terms: d + mu em for mu >= 0, exact as mu nears lam, and
    lam + |mu| e^y for mu < 0, exact however large |mu| is."""
    if p.mu < 0.0:
        return p.lam - p.mu * np.exp(y)
    return (p.lam - p.mu) + p.mu * em


def p0(s: float, p: Params) -> float:
    """Kernel p0: mu*p0(s) is the probability of 0 surviving sampled offspring.

    mu < lam:    (1 - e^{-ds}) / D(s), d = lam - mu, D(s) = lam - mu e^{-ds}
                 (see :func:`_denominator`), exact for any d > 0;
    at mu = lam: s / (1 + lam s).

    Strictly increasing from 0, with lam*p0(s) < 1 for finite s.  Where
    1 + lam s overflows, p0 is 1/lam.  Accepts scalars or numpy arrays.
    """
    _check_time(s)
    if p.mu == p.lam:
        h = 1.0 + p.lam * s
        if np.ndim(h):
            return np.where(h == math.inf, 1.0 / p.lam, s / h)
        return 1.0 / p.lam if h == math.inf else s / h
    y = -(p.lam - p.mu) * s
    em = -np.expm1(y)  # 1 - e^{-d s}, accurate for small d*s
    return em / _denominator(em, y, p)


def p1(s: float, p: Params) -> float:
    """Kernel p1: probability of exactly 1 surviving sampled offspring.

    mu < lam:    d^2 e^{-ds} / D(s)^2, with d and D(s) as in p0;
    at mu = lam: 1 / (1 + lam s)^2.
    Accepts scalars or numpy arrays.
    """
    return _p1_gap(s, math.inf, p)[0]


def _p1_gap(s, end: float, p: Params) -> tuple:
    """(p1(s), p0(end) - p0(s)) for 0 <= s <= end <= inf, both from one
    e^{-ds}; the gap is d e^{-ds} (1 - e^{-d(end-s)}) / (D(s) D(end)), with
    D(inf) = lam, or (end - s) / ((1 + lam end)(1 + lam s)) at mu = lam, so
    it keeps full precision in the tail and as s nears end.  The gap takes d
    and D(end) in units of about lam (times w, the power of two in
    [1/(2 lam), 1/lam)), so that d e^{-ds} (1 - e^{-d(end-s)}), about
    d^2 (end - s), cannot underflow at small lam; scaling by w is exact, so
    the gap is bit for bit the unscaled one wherever that did not underflow.
    """
    _check_time(s)
    if p.mu == p.lam:
        h = 1.0 + p.lam * s
        gap = 1.0 / p.lam if end == math.inf else (end - s) / (1.0 + p.lam * end)
        with np.errstate(over="ignore"):  # h*h is inf past lam*s ~ 1.3e154: p1 -> 0
            return 1.0 / (h * h), gap / h
    d = p.lam - p.mu
    y, y_end = -d * s, -d * end
    e = np.exp(y)
    ds = _denominator(-np.expm1(y), y, p)  # D(s)
    dend = _denominator(-math.expm1(y_end), y_end, p)  # D(end)
    far = 1.0 if end == math.inf else -np.expm1(-d * (end - s))  # 1 - e^{-d(end-s)}
    w = math.ldexp(1.0, -math.frexp(p.lam)[1])
    return d * d * e / (ds * ds), d * w * e * far / (ds * (w * dend))


def _ratio_log_c(x1: float, p: Params) -> tuple:
    """(r, log c) for a tree of age x1 > 0: r = lam p0(x1), c = 1 - r.

    At mu = lam, log c = -log1p(lam x1).  Otherwise it is log1p(-r) for
    r <= 1/2, where a difference of logs would cancel, and above, from the
    rates: log(lam-mu) - (lam-mu) x1 - log(lam - mu e^{-(lam-mu) x1}), finite
    however close r is to 1.  r and c come from one e^{-(lam-mu) x1}.
    """
    if p.mu == p.lam:
        lx = p.lam * x1
        return lx / (1.0 + lx), -math.log1p(lx)
    d = p.lam - p.mu
    y = -d * x1
    em = -math.expm1(y)  # 1 - e^{-d x1}
    dx = float(_denominator(em, y, p))  # D(x1)
    r = p.lam * (em / dx)
    return r, math.log1p(-r) if r <= 0.5 else math.log(d) + y - math.log(dx)


def prob_n_given_age(n, x1: float, p: Params):
    """Probability that a reconstructed tree of age x1 has n extant tips.

    p_n(x1) = (n-1) p1(x1)^2 (lam p0(x1))^{n-2} / (1 - mu p0(x1))^2,
    which simplifies to (n-1) c^2 r^{n-2} with r = lam*p0(x1) and c = 1 - r,
    using the identity p1 = (1 - mu p0)(1 - lam p0).

    ``n`` is an int or an integer array; an array's r^{n-2} are Python float
    powers, one per entry, so each entry is bit for bit the int's value
    (numpy's power may differ from libm's in the last bit, by host).
    """
    _at_least("n", n, 2)
    _positive_finite("x1", x1)
    r, log_c = _ratio_log_c(x1, p)
    cc = math.exp(2.0 * log_c)
    if isinstance(n, int):
        return (n - 1) * cc * r ** (n - 2)
    k = np.asarray(n) - 2
    powers = np.array([r ** j for j in k.ravel().tolist()]).reshape(k.shape)
    return (k + 1) * cc * powers


# ---------------------------------------------------------------------------
# Special functions of the pure-birth laws and the chi-square p-value, from
# numpy and math alone
# ---------------------------------------------------------------------------

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma, whose
# truncation leaves under 2e-18 at a >= 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
# 1/(2k + 1), k = 17..1: the series of log1p(z) - z in r^2, r = z/(2 + z)
_ODD = 1.0 / np.arange(35.0, 2.0, -2.0)
# the share of its sum below which a term ends a series
_EPS = 2.0 ** -56
# up to this shape or count, gamma and binomial factors are plain products of powers
_DIRECT = 60


def _exprel(x):
    """expm1(x)/x, and 1 at x = 0 (expm1(x) is x itself at |x| < 1e-16)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(x == 0.0, 1.0, np.expm1(x) / x)[()]


def _log1pmx(x, a):
    """log1p(z) - z at z = (x - a)/a, x >= 0, a > 0 (a float or an array like
    x): -inf at x = 0.  For -1/2 <= z <= 1, where x - a is exact, it is
    -z^2/(2 + z) + 2 sum_k r^(2k+1)/(2k+1), r = z/(2 + z) at most 1/3 in
    size, free of the cancellation of the logs; elsewhere log(x/a) - z."""
    x = np.asarray(x, dtype=float)
    z = (x - a) / a
    near = (z >= -0.5) & (z <= 1.0)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(x / a) - z)
    if near.any():
        zn = z[near]
        r = zn / (2.0 + zn)
        rr = r * r
        series = np.full_like(rr, _ODD[0])
        for c in _ODD[1:]:  # Horner's rule, in place
            series *= rr
            series += c
        out[near] = -zn * zn / (2.0 + zn) + 2.0 * r * rr * series
    return out[()]


@functools.cache
def _stirling(a: float) -> float:
    """log Gamma(a) - ((a - 1/2) log a - a + log(2 pi)/2) for a > 0, within
    about 1e-17: its series at a >= 10; below, that at a + N >= 10 plus, for
    each step down, se(b) - se(b + 1) = (b + 1/2) log1p(1/b) - 1 = atanh(u)/u
    - 1 = u^2/3 + u^4/5 + ..., u = 1/(2b + 1) (from Gamma(b + 1) = b Gamma(b)),
    whose terms are all positive."""
    total = 0.0
    while a < 10.0:
        uu = 1.0 / (2.0 * a + 1.0) ** 2
        total += math.fsum(uu ** k / (2 * k + 1) for k in range(1, 30))
        a += 1.0
    b, series = 1.0 / (a * a), 0.0
    for c in reversed(_STIRLING):
        series = series * b + c
    return total + series / a


def _binomial_pmf(j: int, m: int, x):
    """C(m, j) x^j (1 - x)^(m - j) for integers 0 <= j <= m and 0 <= x <= 1.
    Up to m = _DIRECT it is that product, within a few ulps plus (m - j)/2,
    with x and 1 - x split into a mantissa in [1/2, 1) and a power of two,
    so that no power leaves the normal floats before the product's one
    rounding to the result.  Beyond, Loader's saddle-point form,
    exp(-bd0(j, m x) - bd0(m - j, m (1 - x))) times the Stirling terms,
    bd0(k, t) = k log(k/t) + t - k = -k log1pmx, so that no digit goes to a
    log of size m log m; x^m and (1 - x)^m at the ends."""
    x = np.asarray(x, dtype=float)
    k = m - j
    if m <= _DIRECT:
        (fx, ex), (fy, ey) = np.frexp(x), np.frexp(1.0 - x)
        return np.ldexp(math.comb(m, j) * fx ** float(j) * fy ** float(k), ex * j + ey * k)[()]
    if j == m:
        return (x ** float(m))[()]
    if j == 0:
        with np.errstate(divide="ignore"):
            return np.exp(m * np.log1p(-x))[()]
    return _binomial_saddle(j, m, x)


def _binomial_saddle(j: int, m: int, x):
    """:func:`_binomial_pmf` for 0 < j < m by the saddle-point form."""
    k = m - j
    flat = x.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf at x = 0 or 1
        both = _log1pmx(np.concatenate((m * flat, m * (1.0 - flat))),
                        np.repeat([float(j), float(k)], flat.size))
    log_pmf = (j * both[:flat.size] + k * both[flat.size:]
               + _stirling(m) - _stirling(j) - _stirling(k) - _LOG_SQRT_2PI)
    return (np.sqrt(m / (j * k)) * np.exp(log_pmf)).reshape(x.shape)[()]


def _binomial_tail(j: int, m: int, x):
    """P(Binomial(m, x) >= j) for integers 1 <= j <= m: the regularized
    incomplete beta I_x(j, m - j + 1).  Where j is past the mode, pmf(j) +
    pmf(j + 1) + ... + pmf(m); else 1 minus pmf(j - 1) + pmf(j - 2) + ... +
    pmf(0) (the tail is about 1/2 or more there).  Either way the terms fall
    from the first (see :func:`_run_sum`); the counts in the ratios stay
    Python ints, as they may pass int64."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    term = _binomial_pmf(j, m, flat)
    up = (j >= (m + 1) * flat) & (flat < 1.0)
    out = np.empty_like(flat)
    u, v = flat[up], flat[~up]  # v > 0, as j > 0
    odds = u / (1.0 - u)
    out[up] = _run_sum(term[up], lambda rows, i: odds[rows, None] * [
        (m - j - k) / (j + k + 1) for k in i.tolist()], m - j)
    back = (1.0 - v) / v
    first = term[~up] * j * (1.0 - v) / ((m - j + 1) * v)  # pmf(j - 1)
    out[~up] = 1.0 - _run_sum(first, lambda rows, i: back[rows, None] * [
        (j - 1 - k) / (m - j + k + 2) for k in i.tolist()], j - 1)
    return out.reshape(x.shape)[()]


def _run_sum(first, ratios, count):
    """first (1 + r_0 (1 + r_1 (1 + ...))) over ``count`` ratios (inf: no end),
    row by row: ``ratios(rows, i)`` gives the given rows' ratios at the indices
    i, 64 of them at a time, taken as a running product.  A row stops once its
    term is below 2^-56 of its sum, so that its sum does not depend on the
    other rows; a row whose first ratio is below that is its first term, to
    the bit, and skips the block, whose products would crawl through the
    subnormal floats."""
    total, term = first.copy(), first.copy()
    rows, start = np.flatnonzero(term > 0.0), 0
    if count > 0:
        rows = rows[ratios(rows, np.arange(1))[:, 0] > _EPS]
    while rows.size and start < count:
        i = np.arange(start, min(start + 64, count))
        block = term[rows, None] * np.cumprod(ratios(rows, i), axis=1)
        total[rows] += block.sum(axis=1)
        term[rows] = block[:, -1]
        rows, start = rows[term[rows] > _EPS * total[rows]], start + 64
    return total


def _gamma_density(a: float, x):
    """x^(a-1) e^-x / Gamma(a), the gamma law's density at shape a >= 1 and
    x >= 0.  Up to a = _DIRECT it is that product, within a few ulps, with
    x = f 2^e split into a mantissa f in [1/2, 1) and a power of two, so that
    x^(a-1) = f^(a-1) 2^(e (a-1)) leaves the normal floats (whose edges numpy's
    power crosses slowly) only in the one rounding to the result; except past
    x = 700, where e^-x leaves them.  There, and at larger a, exp(b log1pmx -
    the Stirling remainder) / sqrt(2 pi b), b = a - 1 > 0, so that no digit
    goes to a log of size a log a."""
    x = np.asarray(x, dtype=float)
    b = a - 1.0
    if a > _DIRECT:
        return (np.exp(b * _log1pmx(x, b) - _stirling(b)) / math.sqrt(2.0 * math.pi * b))[()]
    f, e = np.frexp(x)
    eb = e * b
    whole = np.floor(eb)
    out = np.asarray(np.ldexp(f ** b * np.exp2(eb - whole) * np.exp(-x) / math.gamma(a),
                              whole.astype(int)))
    far = (x >= 700.0) & (b > 0.0)
    if far.any():
        out[far] = np.exp(b * _log1pmx(x[far], b) - _stirling(b)) / math.sqrt(2.0 * math.pi * b)
    return out[()]


def _gamma_pq(a: float, x) -> tuple:
    """(P, Q): the regularized lower and upper incomplete gamma functions at
    an integer or half-integer shape a >= 1/2, for x >= 0 (an array or a
    float).  Temme's uniform expansion at a > 200 and |x - a| < 0.3 a, where
    the others take O(sqrt a) terms.  Elsewhere, below x = a + 1, P is the
    series g(a + 1) sum_k x^k / ((a + 1) ... (a + k)), g = :func:`_gamma_density`
    at x, each ratio x/(a + k) below 1; above it, from Q(s + 1) = Q(s) + g(s + 1)
    (DLMF 8.4), Q is the finite sum g(a) + g(a - 1) + ..., down to g(1) at
    an integer a (the Poisson probability of fewer than a events), and to
    g(3/2) plus Q(1/2) = erfc(sqrt x) at a half-integer; the terms' ratios
    (a - 1 - k)/x are below 1 (see :func:`_run_sum`).  The other one is
    1 minus it (it is at least about 1/12 there).  Past x = 1e300, P is 1 and
    Q is 0.
    """
    shape = np.shape(x)
    x = np.minimum(np.asarray(x, dtype=float).ravel(), 1e300)
    p, q = np.zeros_like(x), np.ones_like(x)
    temme = np.abs(x - a) < 0.3 * a if a > 200.0 else np.zeros(x.shape, dtype=bool)
    if temme.any():
        p[temme], q[temme] = _gamma_temme(a, x[temme])
    rest = np.flatnonzero(~temme & (x > 0.0))
    v = x[rest]
    low = v < a + 1.0
    u, w = v[low], v[~low]
    pu = _gamma_density(a + 1.0, u) * _run_sum(
        np.ones_like(u), lambda rows, i: u[rows, None] / (a + 1.0 + i), math.inf)
    qw = 0.0 if a == int(a) else _erfc(np.sqrt(w))
    if a >= 1.0:
        qw = qw + _gamma_density(a, w) * _run_sum(
            np.ones_like(w), lambda rows, i: (a - 1.0 - i) / w[rows, None], math.floor(a) - 1)
    pv, qv = np.empty_like(v), np.empty_like(v)
    pv[low], qv[low] = pu, 1.0 - pu
    pv[~low], qv[~low] = 1.0 - qw, qw
    p[rest], q[rest] = pv, qv
    return p.reshape(shape)[()], q.reshape(shape)[()]


def _erfc(x):
    """math.erfc of each entry of a float array."""
    return np.frompyfunc(math.erfc, 1, 1)(x).astype(float)


# the coefficients gamma_k of Gamma(a) ~ sqrt(2 pi / a) (a/e)^a sum_k gamma_k a^-k
_GAMMA_STAR = (1.0, 1 / 12, 1 / 288, -139 / 51840, -571 / 2488320, 163879 / 209018880,
               5246819 / 75246796800, -534703531 / 902961561600)
# terms in eta of each of Temme's coefficient functions C_k, k < len(_GAMMA_STAR)
_TEMME_TERMS = 25


@functools.cache
def _temme_table() -> np.ndarray:
    """d[k, i], the coefficient of eta^i in Temme's C_k(eta).  With mu =
    x/a - 1 and eta^2/2 = mu - log(1 + mu), mu = sum_n m_n eta^n solves
    mu mu' = eta (1 + mu); C_0 = 1/mu - 1/eta, and C_k = C_{k-1}'/eta +
    (-1)^k gamma_k/mu, whose 1/eta terms cancel (Temme, SIAM J. Math. Anal.
    10, 1979).  In floats the first coefficients come out within an ulp or
    two, and the last, which meet eta^i < 0.34^i, within 1e-12."""
    size = _TEMME_TERMS + 2 * len(_GAMMA_STAR)
    m = [0.0, 1.0]
    for n in range(2, size + 2):
        m.append((m[n - 1] - sum((n + 1 - i) * m[i] * m[n + 1 - i] for i in range(2, n)))
                 / (n + 1))
    inverse = [1.0]  # eta/mu = 1/(m_1 + m_2 eta + ...)
    for n in range(1, size + 1):
        inverse.append(-sum(m[i + 1] * inverse[n - i] for i in range(1, n + 1)))
    c0 = inverse[1:]
    rows, c = [c0], c0
    for k in range(1, len(_GAMMA_STAR)):
        c = [(i + 2) * c[i + 2] + (-1) ** k * _GAMMA_STAR[k] * c0[i] for i in range(len(c) - 2)]
        rows.append(c)
    return np.array([row[:_TEMME_TERMS] for row in rows])


def _gamma_temme(a: float, x) -> tuple:
    """(P, Q) by Temme's uniform expansion: Q = erfc(eta sqrt(a/2))/2 + R,
    P = erfc(-eta sqrt(a/2))/2 - R, R = e^(-a eta^2/2) / sqrt(2 pi a) sum_k
    C_k(eta) a^-k, eta = sign(x - a) sqrt(-2 log1pmx((x - a)/a))."""
    half_eta2 = -_log1pmx(x, a)
    eta = np.sign(x - a) * np.sqrt(2.0 * half_eta2)
    coefs = a ** -np.arange(float(len(_GAMMA_STAR))) @ _temme_table()
    r = np.exp(-a * half_eta2) / math.sqrt(2.0 * math.pi * a) * np.polyval(coefs[::-1], eta)
    t = eta * math.sqrt(0.5 * a)
    return 0.5 * _erfc(-t) - r, 0.5 * _erfc(t) + r
