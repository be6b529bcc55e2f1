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
"""

from __future__ import annotations

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
